"""The antiderivative F(x) = integral of the classical function over [0, x].

F inherits a self-similar structure from f.  Integrating the three scaling
identities of f gives, for a point with leading base-3 digit d and tail t:

    digit 0:  F(t/3)       = (2/9) F(t)
    digit 1:  F((1 + t)/3) = (1/9) (1 + 2t - F(t))
    digit 2:  F((2 + t)/3) = (1/9) (5/2 + t) + (2/9) F(t)

The tail value t enters the intercepts, so the digit walk tracks the exact
tail alongside the accumulated affine map.  Closing a periodic tail is done
with a joint affine map in the pair (t, F(t)): both components transform
affinely under a digit step, the composite over one period is contracting in
each, and the two fixed-point equations solve the closure exactly without
ever materializing per-rotation tail values.

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

from dataclasses import dataclass
from fractions import Fraction

from .errors import ConsistencyError, OrderError, ParameterError
from .function import MAX_TABLE_LEVEL, BreakpointTable, _check_level
from .ternary import (
    IDENTITY,
    AffineMap,
    affine_compose,
    check_unit_interval,
    from_ternary,
    to_ternary,
)

F_HALF = Fraction(1, 2)


def _next_f_ynums(level: int, ynums: list[int]) -> list[int]:
    """Numerators of level ``level + 1`` from level ``level`` (den 2 * 9**i).

    Integer forms of the three digit images; the overlapping junction values
    must agree exactly, which is asserted rather than assumed.
    """
    pow9 = 9**level
    pow3 = 3**level
    left = [2 * n for n in ynums]
    middle = [2 * pow9 + 4 * k * pow3 - n for k, n in enumerate(ynums)]
    right = [5 * pow9 + 2 * k * pow3 + 2 * n for k, n in enumerate(ynums)]
    if left[-1] != middle[0] or middle[-1] != right[0]:
        raise ConsistencyError("digit images disagree at the third boundaries")
    return left + middle[1:] + right[1:]


def build_F_iterate(i: int) -> BreakpointTable:
    """Breakpoint table of F at level i, numerators over 2 * 9**i."""
    _check_level(i, MAX_TABLE_LEVEL)
    ynums = [0, 1]  # F(0) = 0, F(1) = 1/2 over denominator 2
    for lvl in range(i):
        ynums = _next_f_ynums(lvl, ynums)
    return BreakpointTable(i, ynums, 2 * 9**i)


@dataclass(frozen=True)
class DigitStatePair:
    """State of the outward digit walk: the current point and the affine map
    carrying the F-value of the innermost closed tail to F at that point."""

    tail_value: Fraction
    F_map: AffineMap


def F_digit_step(d: int, t: Fraction, m: AffineMap) -> DigitStatePair:
    """Prepend digit d to the point t: the new point is (d + t)/3 and the new
    map is the digit's F-action (with the exact tail t in its intercept)
    composed outside ``m``."""
    t = check_unit_interval(t, "tail value")
    if d == 0:
        step = AffineMap(Fraction(2, 9), Fraction(0))
    elif d == 1:
        step = AffineMap(Fraction(-1, 9), (1 + 2 * t) / 9)
    elif d == 2:
        step = AffineMap(Fraction(2, 9), (Fraction(5, 2) + t) / 9)
    else:
        raise ParameterError(f"base-3 digit must be 0, 1 or 2, got {d!r}")
    return DigitStatePair((d + t) / 3, affine_compose(step, m))


def _close_periodic_tail(period: tuple[int, ...]) -> tuple[Fraction, Fraction]:
    """Exact (t, F(t)) for a purely periodic tail.

    One digit step acts affinely on the joint state (t, F):

        t' = (t + d)/3
        F' = p t + q F + r        (p, q, r depending on d as in F_digit_step)

    The composite over one period is built by balanced pairwise composition
    on unreduced integer 5-tuples (ts, tb, p, q, r) over the common
    denominator 9**k, then both fixed points are solved: t* from the t-row
    alone, F* from the F-row at t = t*.
    """
    # Leaf coefficients over denominator 18: t' = (6 t + 6 d)/18 and
    # digit 0: F' = 4 F / 18;  digit 1: F' = (4 t - 2 F + 2)/18;
    # digit 2: F' = (2 t + 4 F + 5)/18.  All integer.
    leaf = {
        0: (6, 0, 0, 4, 0),
        1: (6, 6, 4, -2, 2),
        2: (6, 12, 2, 4, 5),
    }
    level = [leaf[d] for d in period]
    den = 18
    while len(level) > 1:
        nxt = []
        for k in range(0, len(level) - 1, 2):
            tso, tbo, po, qo, ro = level[k]
            tsi, tbi, pi, qi, ri = level[k + 1]
            nxt.append(
                (
                    tso * tsi,
                    tso * tbi + tbo * den,
                    po * tsi + qo * pi,
                    qo * qi,
                    po * tbi + qo * ri + ro * den,
                )
            )
        if len(level) % 2:
            ts, tb, p, q, r = level[-1]
            nxt.append((ts * den, tb * den, p * den, q * den, r * den))
        level = nxt
        den *= den
    ts, tb, p, q, r = level[0]
    t_star = Fraction(tb, den - ts)
    f_star = (p * t_star + r) / (den - q)
    return t_star, f_star


def eval_F_exact(x) -> Fraction:
    """Exact value of the antiderivative at a rational point in [0, 1]."""
    e = to_ternary(x)
    if e.period:
        t, v = _close_periodic_tail(e.period)
        expected_tail = from_ternary(type(e)((), e.period))
        if t != expected_tail:
            raise ConsistencyError("joint closure disagrees with the tail value")
    else:
        t, v = Fraction(0), Fraction(0)
    state = DigitStatePair(t, IDENTITY)
    for d in reversed(e.preperiod):
        state = F_digit_step(d, state.tail_value, state.F_map)
    return state.F_map(v)


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
    """
    if case not in _F_CASES:
        raise ParameterError(f"case must be one of {_F_CASES}, got {case!r}")
    if not isinstance(i, int) or i < 1:
        raise ParameterError(f"index i must be a positive integer, got {i!r}")
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
