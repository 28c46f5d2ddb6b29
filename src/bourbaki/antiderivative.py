"""The antiderivative F(x) = integral of the classical function over [0, x].

F inherits a self-similar structure from f.  Integrating the three scaling
identities of f gives, for a point with leading base-3 digit d and tail t:

    digit 0:  F(t/3)       = (2/9) F(t)
    digit 1:  F((1 + t)/3) = (1/9) (1 + 2t - F(t))
    digit 2:  F((2 + t)/3) = (1/9) (5/2 + t) + (2/9) F(t)

The tail value t enters the intercepts, so every walk acts on the pair
(t, G) with G = 2 F(t).  Over the denominator 9 each digit is then an integer
joint affine map

    t' = (3 t + 3 d)/9       G' = (p t + q G + r)/9

with (p, q, r) = (0, 2, 0), (4, -1, 2), (2, 2, 5) for d = 0, 1, 2.  The
composite over one period, built by ``balanced_product`` with denominator
9**k, is contracting in each component; its two fixed-point equations give
(t*, G*) exactly, without per-rotation tail values.  The preperiod composite
then carries (t*, G*) to (x, 2 F(x)), and the one reduction is the final
Fraction.

Breakpoint tables: F restricted to level-i grid points has common denominator
2 * 9**i, and the three digit images of a level-i table tile the level-(i+1)
table:

    F_{i+1}(x/3)       = (2/9) F_i(x)
    F_{i+1}((1 + x)/3) = (1/9) (1 + 2x - F_i(x))
    F_{i+1}((2 + x)/3) = (1/9) (5/2 + x) + (2/9) F_i(x)

starting from the level-0 values F(0) = 0 and F(1) = 1/2.  Tables hold exact
values of the limit F at grid points, not integrals of the finite iterates.
They are ``BreakpointTable``s (shared with f): integer numerators over the
one denominator 2 * 9**i, with ``param`` None.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from typing import Iterator

from .errors import ConsistencyError, OrderError, ParameterError
from .function import MAX_CLOSED_FORM_INDEX, MAX_TABLE_LEVEL, BreakpointTable
from .ternary import (
    balanced_product,
    check_index,
    check_unit_interval,
    to_ternary,
)

F_HALF = Fraction(1, 2)


def iter_F_iterates(max_level: int) -> Iterator[BreakpointTable]:
    """Breakpoint tables of F at levels 0 .. max_level, each refined from the last.

    Integer forms of the three digit images above tile level i + 1 from level
    i; the junction values must agree exactly, which is asserted, not assumed.
    """
    check_index(max_level, cap=MAX_TABLE_LEVEL)

    def tables() -> Iterator[BreakpointTable]:
        ynums, pow3 = [0, 1], 1  # F(0) = 0, F(1) = 1/2 over denominator 2
        for level in range(max_level + 1):
            if level:
                pow9 = pow3 * pow3
                left = [2 * n for n in ynums]
                middle = [2 * pow9 + 4 * k * pow3 - n for k, n in enumerate(ynums)]
                right = [5 * pow9 + 2 * k * pow3 + 2 * n for k, n in enumerate(ynums)]
                if left[-1] != middle[0] or middle[-1] != right[0]:
                    raise ConsistencyError("digit images disagree at the third boundaries")
                ynums = left + middle[1:] + right[1:]
                pow3 *= 3
            yield BreakpointTable(level, ynums, 2 * pow3 * pow3)

    return tables()


def build_F_iterate(i: int) -> BreakpointTable:
    """Breakpoint table of F at level i, numerators over 2 * 9**i."""
    return deque(iter_F_iterates(i), maxlen=1)[0]


# Joint digit maps as integer 6-tuples (ts, tb, p, q, r, den):
# t' = (ts t + tb)/den and G' = (p t + q G + r)/den, with G = 2 F.
_JOINT_LEAF = {0: (3, 0, 0, 2, 0, 9), 1: (3, 3, 4, -1, 2, 9), 2: (3, 6, 2, 2, 5, 9)}


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
    the 3-free part of q.  The t-row of the period composite must fix t*; the
    G-row at t = t* fixes G*.  The preperiod composite carries (t*, G*) to
    (t, 2 F(x)), and t must be x.
    """
    x = check_unit_interval(x)
    e = to_ternary(x)
    tn, gn, den = 0, 0, 1  # the pair (t, G) = (tn, gn)/den
    if e.period:
        ts, tb, p, q, r, d = balanced_product(
            [_JOINT_LEAF[k] for k in e.period], _compose_joint
        )
        q_free = x.denominator // 3 ** len(e.preperiod)
        t_num = x.numerator % q_free or q_free  # t* = t_num / q_free
        if tb * q_free != t_num * (d - ts):
            raise ConsistencyError("joint closure disagrees with the tail value")
        # G* = (p t* + r)/(d - q), over the common denominator of t* and G*
        den = q_free * (d - q)
        tn, gn = t_num * (d - q), p * t_num + r * q_free
    if e.preperiod:
        ts, tb, p, q, r, d = balanced_product(
            [_JOINT_LEAF[k] for k in e.preperiod], _compose_joint
        )
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
