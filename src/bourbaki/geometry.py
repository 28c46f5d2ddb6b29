"""Fractal geometry of the classical graph: box counts, covers, mass, length.

Counts, covers, masses, the mass bound and the integer root sums of arc
lengths are exact; only final quotients and logarithms pass through
``decimal`` at 50 digits, with directed rounding where a printed digit must
not rest on rounding error.  Decimal's ``ln`` rounds half-even whatever the
context's rounding, so ``_outward`` steps each result one unit outward unless
it is exact: a half-even result lies within half a unit of the true value.
Arc lengths take integer ``math.isqrt`` roots, not Decimal's.

Grid convention for box counting: the unit square is cut into closed boxes of
side 3**-i on the origin-anchored grid, and a box is counted when it meets
the graph in more than a single point (positive-length contact).  A segment
endpoint sitting exactly on a grid line therefore does not drag in the
neighboring box it merely touches.  This is the convention under which the
hand counts at levels 0, 1, 2 come out as 1, 5, 25, and the count is exactly
5**i at every level.

Covers are the columns of the IFS table (``function.ifs_refine``), box counts
those of the refinement table, so the two stay independent routes; a digit path
is the base-3 address of its x-interval, as everywhere in the package.
"""

from __future__ import annotations

import decimal
from collections import Counter, deque
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from itertools import product
from math import isqrt
from operator import sub
from typing import Iterator

from .errors import ConsistencyError
from .antiderivative import build_F_iterate, iter_F_iterates
from .function import BreakpointTable, build_iterate, ifs_refine
from .render import decimal_12
from .ternary import check_digits, check_index

MAX_BOX_LEVEL = 10
MAX_COVER_LEVEL = 10
MAX_MASS_LEVEL = 8
MAX_ARC_LEVEL = 12

_PRECISION = 50
_ROOT_SCALE = 10 ** (2 * _PRECISION)  # isqrt(r * _ROOT_SCALE) is sqrt(r) scaled by 10**50
_DOWN = decimal.Context(prec=_PRECISION, rounding=decimal.ROUND_FLOOR)
_UP = decimal.Context(prec=_PRECISION, rounding=decimal.ROUND_CEILING)
_EVEN = decimal.Context(prec=_PRECISION, rounding=decimal.ROUND_HALF_EVEN)


def _outward(x: int | Decimal) -> tuple[Decimal, Decimal, Decimal]:
    """(lo, value, hi) for the 50-digit ``ln`` of x: value rounded half-even,
    lo and hi one unit either side unless it is exact.  ``Inexact`` is read
    from a fresh context, as a shared one keeps old flags."""
    ctx = decimal.Context(prec=_PRECISION)
    value = ctx.ln(x)
    if not ctx.flags[decimal.Inexact]:
        return value, value, value
    return ctx.next_minus(value), value, ctx.next_plus(value)


def _certified(bounds: tuple[Decimal, Decimal, Decimal], what: str) -> Decimal:
    """The value of (lo, value, hi) once lo and hi print the same 12 digits
    (``ConsistencyError`` otherwise), so every printed digit is certified."""
    lo, value, hi = bounds
    if decimal_12(lo) != decimal_12(hi):
        raise ConsistencyError(f"{what} not certified: [{lo}, {hi}]")
    return value


def box_count(i: int) -> int:
    """Number of side-3**-i grid boxes meeting the graph of the i-th iterate.

    Column by column: over x in [k/3**i, (k+1)/3**i] the iterate is a single
    segment spanning y in [lo, hi]; the boxes with positive-length contact
    are the rows whose open interiors overlap [lo, hi].  At level i the
    breakpoint values are integer multiples of 3**-i, so the row count per
    column is exactly the integer span hi - lo (in grid units).
    """
    check_index(i, cap=MAX_BOX_LEVEL)
    ynums = build_iterate(i).y_numerators
    count = 0
    for k in range(len(ynums) - 1):
        span = ynums[k + 1] - ynums[k]
        if span == 0:
            raise ConsistencyError("degenerate flat segment in classical table")
        count += abs(span)
    return count


def _dimension_bounds(level: int, count: int) -> tuple[Decimal, Decimal, Decimal]:
    """(lo, value, hi) for log(count) / (level * log 3) at 50 digits: value
    rounded half-even, and lo <= estimate <= hi from the logarithms' outward
    bounds and the multiply and divide rounded outward."""
    ln_count, ln_3 = _outward(count), _outward(3)
    return (
        _DOWN.divide(ln_count[0], _UP.multiply(level, ln_3[2])),
        _EVEN.divide(ln_count[1], _EVEN.multiply(level, ln_3[1])),
        _UP.divide(ln_count[2], _DOWN.multiply(level, ln_3[0])),
    )


def dimension_estimate(level: int, count: int) -> Decimal:
    """log(count) / (level * log 3), the box dimension that ``count`` boxes of
    side 3**-level give, rounded half-even at 50 digits once ``_certified``
    passes ``_dimension_bounds``.  level and count are ints >= 1
    (``ParameterError`` otherwise)."""
    check_index(level, "level", 1)
    check_index(count, "count", 1)
    return _certified(_dimension_bounds(level, count), "dimension estimate")


@dataclass(frozen=True)
class CoverRectangle:
    """One rectangle of the self-similar cover: a column of the IFS table,
    addressed by the base-3 digits of its x-interval."""

    digits: tuple[int, ...]
    x_lo: Fraction
    x_hi: Fraction
    y_lo: Fraction
    y_hi: Fraction

    @property
    def area(self) -> Fraction:
        """Width times height as one Fraction: one gcd, not three Fraction operations."""
        (wn, wd), (hn, hd) = _gap(self.x_lo, self.x_hi), _gap(self.y_lo, self.y_hi)
        return Fraction(wn * hn, wd * hd)


def _gap(lo: Fraction, hi: Fraction) -> tuple[int, int]:
    """hi - lo as an unreduced pair (numerator, denominator)."""
    return (
        hi.numerator * lo.denominator - lo.numerator * hi.denominator,
        lo.denominator * hi.denominator,
    )


def cover_level(i: int) -> list[CoverRectangle]:
    """The 3**i rectangles covering the graph at depth i, one per column of
    the IFS table: ``ifs_refine`` folded i times from the level-0 table.

    Rectangle k spans x in [k/3**i, (k+1)/3**i] and y between the table's
    values at its two ends, the image of the unit square under the plane
    maps of the base-3 digits of k, first digit outermost; its ``digits``
    are those digits, in ``itertools.product(range(3), repeat=i)`` order.
    Every depth-i coordinate is one of the 3**i + 1 values n/3**i, so those
    are built once as Fractions and shared by the rectangles.
    """
    check_index(i, cap=MAX_COVER_LEVEL)
    t = build_iterate(0)
    for _ in range(i):
        t = ifs_refine(t)
    y, p = t.y_numerators, t.y_denominator
    frac = [Fraction(n, p) for n in range(p + 1)]
    return [
        CoverRectangle(path, frac[k], frac[k + 1], frac[min(lo, hi)], frac[max(lo, hi)])
        for k, (path, lo, hi) in enumerate(zip(product(range(3), repeat=i), y, y[1:]))
    ]


def interval_mass(digits) -> Fraction:
    """Mass of the cover rectangle addressed by a digit path.

    The self-similar measure splits mass 2/5, 1/5, 2/5 across digits 0, 1, 2,
    so a path of length n with m digit-1 steps has mass 2**(n - m) / 5**n
    (1 for the empty path: the whole graph).  The path is a string over "012"
    or an iterable of the ints 0, 1 and 2.
    """
    if isinstance(digits, str):
        digits = ["012".find(c) for c in digits]  # -1 for any other character
    ds = check_digits(digits, "digit path")
    n = len(ds)
    return Fraction(2 ** (n - ds.count(1)), 5**n)


def mass_measure(level: int) -> dict[tuple[int, ...], Fraction]:
    """The ``interval_mass`` of every digit path at one level, keyed by path
    in ``product(range(3), repeat=level)`` order."""
    check_index(level, cap=MAX_MASS_LEVEL)
    return {path: interval_mass(path) for path in product(range(3), repeat=level)}


def mass_bound_check(i: int) -> bool:
    """Verify mass(U) <= diam(U) ** s, s = log3(5), for every level-i rectangle U.

    Exactly, on the ``cover_level(i)`` walk: each rectangle's ``interval_mass``
    must be its height times (3/5)**i, and its width at most its height.  By
    3**s = 5 the width 3**-i gives (3/5)**i = width ** (s - 1), so
    mass = height * width ** (s - 1) <= diam ** s, since height and width are
    each at most diam and s > 1.
    """
    check_index(i, cap=MAX_MASS_LEVEL)
    ratio = Fraction(3, 5) ** i
    for r in cover_level(i):
        height = r.y_hi - r.y_lo
        if interval_mass(r.digits) != height * ratio or r.x_hi - r.x_lo > height:
            return False
    return True


def iter_segment_squares(i: int) -> Iterator[Fraction]:
    """Exact squared segment lengths of the level-i antiderivative polyline."""
    t = build_F_iterate(i)
    ynums, dx_sq = t.y_numerators, Fraction(1, 9**i)
    for a, b in zip(ynums, ynums[1:]):
        yield dx_sq + Fraction(b - a, t.y_denominator) ** 2


def _root_sums(t: BreakpointTable) -> tuple[int, int]:
    """Floor and ceiling sums of sqrt(((Y / 3**level)**2 + rise**2) * 10**100)
    over the table's segments (Y its denominator).

    Each distinct rise takes one ``math.isqrt``, weighted by how often it
    occurs.  A floor root s is exact iff s * s is its radicand, so the
    ceiling sum is the floor sum plus one for each segment whose radicand
    is not a square.
    """
    ynums, yden = t.y_numerators, t.y_denominator
    run_sq = (yden // 3**t.level) ** 2
    floor_sum = ceil_sum = 0
    for rise, m in Counter(map(sub, ynums[1:], ynums)).items():
        radicand = (run_sq + rise * rise) * _ROOT_SCALE
        s = isqrt(radicand)
        floor_sum += m * s
        ceil_sum += m * (s if s * s == radicand else s + 1)
    return floor_sum, ceil_sum


def _length_bounds(t: BreakpointTable) -> tuple[Decimal, Decimal, Decimal]:
    """(lo, value, hi) for the table's polyline length, at 50 digits.

    lo is the floor sum of ``_root_sums`` over Y * 10**50 rounded down, hi
    the ceiling sum over the same rounded up, so lo <= length <= hi; value
    is the floor sum's quotient rounded half-even.
    """
    floor_sum, ceil_sum = _root_sums(t)
    den = Decimal(t.y_denominator * 10**_PRECISION)
    return (
        _DOWN.divide(Decimal(floor_sum), den),
        _EVEN.divide(Decimal(floor_sum), den),
        _UP.divide(Decimal(ceil_sum), den),
    )


def arc_length(i: int) -> Decimal:
    """Length of the level-i antiderivative polyline to 50 significant digits.

    The error is certified below 10**-48: each of the 3**i floors loses less
    than 10**-50 / Y, with the denominator Y above 3**i, and the division at
    most half of 10**-49.  Each length is also enclosed between a floor and
    a ceiling sum rounded outward, and ``ConsistencyError`` is raised unless
    both ends print the same 12 digits (``render.decimal_12``).

    Lengths increase with i and stay strictly below the variation bound 3/2
    (each segment satisfies sqrt(dx**2 + dy**2) < dx + dy, and those sum to
    1 + 1/2 exactly); the level-0 chord gives the lower bound sqrt(5)/2.
    """
    return deque(arc_length_profile(i), maxlen=1)[0]


def arc_length_profile(max_level: int) -> Iterator[Decimal]:
    """Certified arc lengths for levels 0 .. max_level, one per ``iter_F_iterates`` table."""
    check_index(max_level, cap=MAX_ARC_LEVEL)
    tables = iter_F_iterates(max_level)
    return (_certified(_length_bounds(t), f"arc length at level {t.level}") for t in tables)
