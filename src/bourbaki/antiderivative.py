"""The antiderivative F(x) = integral of the classical function over [0, x].

F inherits a self-similar structure from f.  With (s_d, b_d, q) the digit
triples of f (``digit_triples``), f((d + t)/3) = (s_d f(t) + b_d)/q, and
integrating over t gives, for a point with leading base-3 digit d and tail t:

    F((d + t)/3) = F(d/3) + (s_d F(t) + b_d t)/(3q)

where 6q F(d/3) is the sum of s_e + 2 b_e over the digits e < d, since
f integrates to 1/2 over [0, 1].  The tail value t enters the intercepts, so
every walk acts on the pair (t, G) with G = 2 F(t), and each digit is an
integer joint affine map over the denominator 3q:

    t' = (q t + q d)/(3q)       G' = (2 b_d t + s_d G + 6q F(d/3))/(3q)

The composite over one period, built over six-digit block leaves by
``compose_digits``, is contracting in each component; its two fixed-point
equations give (t*, G*) exactly, without per-rotation tail values.  For an
antiperiodic period (its second half the digit complement of the first)
the composite of the first half suffices, since F(1 - t) = F(t) + 1/2 - t.
The preperiod composite then carries (t*, G*) to (x, 2 F(x)), and the one
reduction is the final Fraction.

Breakpoint tables: over column k of the level-i grid the graph of f is the
affine image y = y_k + (y_{k+1} - y_k) f(t) of the whole graph, and
f(x) + f(1 - x) = 1 makes the integral of f over [0, 1] equal 1/2.  So F
gains exactly (y_k + y_{k+1}) / (2 * 3**i) across the column: the trapezoid
rule on f's level-i table is exact for F on the level-i grid.  F tables are
``BreakpointTable``s with numerators over 2 * 9**i and ``param`` None.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from operator import add
from typing import Iterator

from .errors import ConsistencyError, OrderError, ParameterError
from .function import MAX_CLOSED_FORM_INDEX, BreakpointTable, build_iterate, iter_iterates
from .ternary import (
    affine_fixed_point,
    antiperiodic_half,
    check_index,
    check_unit_interval,
    compose_digits,
    digit_triples,
    to_ternary,
)

F_HALF = Fraction(1, 2)


def _integrate(t: BreakpointTable) -> BreakpointTable:
    """F's table at the level of the classical f table ``t``, which must reach F(1) = 1/2."""
    n = t.y_numerators
    ynums = list(accumulate(map(add, n, n[1:]), initial=0))
    if ynums[-1] != 9**t.level:
        raise ConsistencyError("the trapezoid sum of the f table misses F(1) = 1/2")
    return BreakpointTable(t.level, ynums, 2 * 9**t.level)


def iter_F_iterates(max_level: int) -> Iterator[BreakpointTable]:
    """Breakpoint tables of F at levels 0 .. max_level, one per ``iter_iterates`` table."""
    return map(_integrate, iter_iterates(max_level))


def build_F_iterate(i: int) -> BreakpointTable:
    """Breakpoint table of F at level i: the running trapezoid sum of ``build_iterate(i)``."""
    return _integrate(build_iterate(i))


def _joint_leaves(a: Fraction) -> tuple[tuple[int, ...], ...]:
    """Joint maps of digits 0, 1 and 2 as integer 6-tuples (ts, tb, p, q, r, den):
    t' = (ts t + tb)/den and G' = (p t + q G + r)/den, with G = 2 F, from the
    digit triples of f_a; r = 6q F(d/3) accumulates s_e + 2 b_e over e < d."""
    leaves, r = [], 0
    for d, (s, b, q) in enumerate(digit_triples(a)):
        leaves.append((q, q * d, 2 * b, s, r, 3 * q))
        r += s + 2 * b
    return tuple(leaves)


_JOINT_LEAF = _joint_leaves(Fraction(2, 3))


def _compose_joint(outer, inner):
    tso, tbo, po, qo, ro, do = outer
    tsi, tbi, pi, qi, ri, di = inner
    return (
        tso * tsi,
        tso * tbi + tbo * di,
        po * tsi + qo * pi,
        qo * qi,
        po * tbi + qo * ri + ro * di,
        do * di,
    )


def eval_F_exact(x) -> Fraction:
    """Exact value of the antiderivative at a rational point in [0, 1].

    With m preperiod digits read as the base-3 integer P, the periodic tail
    is t* = 3**m x - P: for x = a/q that is a/q' mod 1 (1 for x = 1), with q'
    the 3-free part of q.  Period and preperiod are composed from six-digit
    block leaves (``compose_digits``).  The composed digits end at the tail
    ``after``: t* itself, or 1 - t* when the period is w followed by its
    digit complement and only w is composed.  The t-row must send ``after``
    to t*.  G* is the ``affine_fixed_point`` of the G-row at t = ``after``,
    with G(after) = G* + g: g = 0 for t*, and g = 1 - 2 t* for 1 - t*, since
    F(1 - t) = F(t) + 1/2 - t.  The preperiod composite carries (t*, G*) to
    (t, 2 F(x)), and t must be x.
    """
    x = check_unit_interval(x)
    e = to_ternary(x)
    tn, gn, den = 0, 0, 1  # the pair (t, G) = (tn, gn)/den
    if e.period:
        half = antiperiodic_half(e.period)
        ts, tb, p, q, r, d = compose_digits(half or e.period, _compose_joint, _JOINT_LEAF)
        q_free = x.denominator // 3 ** len(e.preperiod)
        t_num = x.numerator % q_free or q_free  # t* = t_num / q_free
        # the tail after the composed digits and G(after) - G*, both times q_free
        after, g = (q_free - t_num, q_free - 2 * t_num) if half else (t_num, 0)
        if ts * after + tb * q_free != d * t_num:
            raise ConsistencyError("joint closure disagrees with the tail value")
        # (t*, G*) = (tn, gn)/den, over the common denominator of t* and G*
        gn, den = affine_fixed_point((q * q_free, p * after + q * g + r * q_free, d * q_free))
        tn = t_num * (d - q)
    if e.preperiod:
        ts, tb, p, q, r, d = compose_digits(e.preperiod, _compose_joint, _JOINT_LEAF)
        tn, gn, den = ts * tn + tb * den, p * tn + q * gn + r * den, d * den
    if tn * x.denominator != x.numerator * den:
        raise ConsistencyError("the preperiod walk does not end at x")
    return Fraction(gn, 2 * den)


def integral_symmetric(x) -> Fraction:
    """The integral of f over [x, 1-x], which the symmetry of f makes exactly
    1/2 - x (negative for x > 1/2, read as the oriented integral)."""
    r = check_unit_interval(x)
    return F_HALF - r


def range_integral(a, b) -> Fraction:
    """Integral of f over [a, b] via F(b) - F(a); requires a <= b."""
    ra = check_unit_interval(a, "a")
    rb = check_unit_interval(b, "b")
    if ra > rb:
        raise OrderError(f"interval endpoints out of order: {ra} > {rb}")
    return eval_F_exact(rb) - eval_F_exact(ra)


_F_CASES = ("i", "ii", "iii", "iv")


def integral_closed_form(case: str, i: int) -> tuple[Fraction, Fraction]:
    """Known exact values (x, F(x)) of the antiderivative.

    case  point           value of F
    i     1/(3**i + 1)    (2**(i-1)/9**i) * (3**i - 1)/(3**i + 1) / (1 - (2/9)**i)
    ii    1/(3**i - 1)    (2**(i-1)/9**i) * (3**i + 1)/(3**i - 1) / (1 + 2**(i-1)/9**i)
    iii   2/(3**i + 1)    (2**(i-1)/9**i) * (5*3**i + 1)/(2*3**i + 2) / (1 + 2**(i-1)/9**i)
    iv    2/(3**i - 1)    (2**(i-1)/9**i) * (5*3**i - 1)/(2*3**i - 2) / (1 - (2/9)**i)

    Indices above MAX_CLOSED_FORM_INDEX raise ``ResourceLimitError``.
    """
    if case not in _F_CASES:
        raise ParameterError(f"case must be one of {_F_CASES}, got {case!r}")
    check_index(i, "index i", 1, MAX_CLOSED_FORM_INDEX)
    p3 = 3**i
    lead = Fraction(2 ** (i - 1), 9**i)
    shrink = 1 - Fraction(2, 9) ** i
    grow = 1 + lead
    if case == "i":
        return Fraction(1, p3 + 1), lead * Fraction(p3 - 1, p3 + 1) / shrink
    if case == "ii":
        return Fraction(1, p3 - 1), lead * Fraction(p3 + 1, p3 - 1) / grow
    if case == "iii":
        return Fraction(2, p3 + 1), lead * Fraction(5 * p3 + 1, 2 * p3 + 2) / grow
    return Fraction(2, p3 - 1), lead * Fraction(5 * p3 - 1, 2 * p3 - 2) / shrink
