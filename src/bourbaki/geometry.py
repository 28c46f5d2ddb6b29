"""Fractal geometry of the classical graph: box counts, covers, mass, length.

Counts, covers and the integer root sums of arc lengths are exact; only final
quotients, logarithms and roots pass through ``decimal`` contexts at 50 digits,
with directed rounding where an inequality must not rest on rounding error.

Grid convention for box counting: the unit square is cut into closed boxes of
side 3**-i on the origin-anchored grid, and a box is counted when it meets
the graph in more than a single point (positive-length contact).  A segment
endpoint sitting exactly on a grid line therefore does not drag in the
neighboring box it merely touches.  This is the convention under which the
hand counts at levels 0, 1, 2 come out as 1, 5, 25, and the count is exactly
5**i at every level.
"""

from __future__ import annotations

import decimal
from collections import deque
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from math import isqrt
from typing import Iterator, Sequence

from .errors import ConsistencyError, DigitError, EmptyInputError
from .antiderivative import build_F_iterate, iter_F_iterates
from .function import BreakpointTable, classical_table
from .ternary import check_index

MAX_BOX_LEVEL = 10
MAX_COVER_LEVEL = 10
MAX_MASS_LEVEL = 8
MAX_ARC_LEVEL = 12

_PRECISION = 50
_ROOT_SCALE = 10 ** (2 * _PRECISION)  # isqrt(r * _ROOT_SCALE) is sqrt(r) scaled by 10**50

# Mass weights 2/5, 1/5, 2/5 of digits 0, 1, 2, as numerators over 5.
_MASS_NUMERATORS = (2, 1, 2)


def _context(rounding: str) -> decimal.Context:
    return decimal.Context(prec=_PRECISION, rounding=rounding)


@dataclass(frozen=True)
class BoxCountReport:
    level: int
    delta: Fraction
    count: int


def box_count(i: int) -> BoxCountReport:
    """Number of side-3**-i grid boxes meeting the graph of the i-th iterate.

    Column by column: over x in [k/3**i, (k+1)/3**i] the iterate is a single
    segment spanning y in [lo, hi]; the boxes with positive-length contact
    are the rows whose open interiors overlap [lo, hi].  At level i the
    breakpoint values are integer multiples of 3**-i, so the row count per
    column is exactly the integer span hi - lo (in grid units).
    """
    check_index(i, cap=MAX_BOX_LEVEL)
    ynums = classical_table(i).y_numerators
    count = 0
    for k in range(len(ynums) - 1):
        span = ynums[k + 1] - ynums[k]
        if span == 0:
            raise ConsistencyError("degenerate flat segment in classical table")
        count += span if span > 0 else -span
    return BoxCountReport(i, Fraction(1, 3**i), count)


def dimension_estimate(reports: Sequence[BoxCountReport]) -> Decimal:
    """log(count) / (level * log 3) for the deepest supplied report."""
    usable = [r for r in reports if r.level >= 1]
    if not usable:
        raise EmptyInputError("need at least one report with level >= 1")
    deepest = max(usable, key=lambda r: r.level)
    ctx = _context(decimal.ROUND_HALF_EVEN)
    return ctx.divide(
        ctx.ln(Decimal(deepest.count)),
        ctx.multiply(Decimal(deepest.level), ctx.ln(Decimal(3))),
    )


@dataclass(frozen=True)
class CoverRectangle:
    """One rectangle of the self-similar cover, addressed by its digit path."""

    digits: tuple[int, ...]
    x_lo: Fraction
    x_hi: Fraction
    y_lo: Fraction
    y_hi: Fraction

    @property
    def width(self) -> Fraction:
        return self.x_hi - self.x_lo

    @property
    def height(self) -> Fraction:
        return self.y_hi - self.y_lo

    @property
    def area(self) -> Fraction:
        return self.width * self.height


def _check_digits(digits) -> tuple[int, ...]:
    """A digit path given as a string over "012" or as ints 0, 1, 2."""
    if isinstance(digits, str):
        ds = tuple("012".find(c) for c in digits)  # -1 for any other character
    else:
        try:
            ds = tuple(digits)
        except TypeError:
            raise DigitError(
                f"digit path must be a string or a sequence: {digits!r}"
            ) from None
    if not all(type(d) is int and d in (0, 1, 2) for d in ds):
        raise DigitError(f"digit path must use digits 0, 1, 2 only: {digits!r}")
    return ds


def cover_level(i: int) -> list[CoverRectangle]:
    """The 3**i rectangles covering the graph at depth i, in digit-path order.

    Paths come in ``itertools.product(range(3), repeat=i)`` order.  The walk
    keeps each rectangle as integers (path, x0, y0, y1) over p = 3**level,
    with width 1/p; its children under the three plane maps, over 3p, are

        digit 0: (x0, 2 y0, 2 y1)
        digit 1: (2p - 1 - x0, p + y0, p + y1)
        digit 2: (2p + x0, p + 2 y0, p + 2 y1)

    Heights shrink by 2/3 for digits 0 and 2 and by 1/3 for digit 1, so a
    rectangle's height is the product of those factors along its digit path.
    Fractions are built only for the depth-i rectangles.
    """
    check_index(i, cap=MAX_COVER_LEVEL)
    nodes = [((), 0, 0, 1)]
    p = 1
    for _ in range(i):
        nodes = [
            child
            for path, x, lo, hi in nodes
            for child in (
                (path + (0,), x, 2 * lo, 2 * hi),
                (path + (1,), 2 * p - 1 - x, p + lo, p + hi),
                (path + (2,), 2 * p + x, p + 2 * lo, p + 2 * hi),
            )
        ]
        p *= 3
    return [
        CoverRectangle(
            path, Fraction(x, p), Fraction(x + 1, p), Fraction(lo, p), Fraction(hi, p)
        )
        for path, x, lo, hi in nodes
    ]


def interval_mass(digits) -> Fraction:
    """Mass of the cover rectangle addressed by a digit path.

    The self-similar measure splits mass 2/5, 1/5, 2/5 across digits 0, 1, 2,
    so a path of length n with m digit-1 steps has mass 2**(n - m) / 5**n
    (1 for the empty path: the whole graph).
    """
    ds = _check_digits(digits)
    n = len(ds)
    return Fraction(2 ** (n - ds.count(1)), 5**n)


@dataclass(frozen=True)
class MassMeasure:
    """All digit-path masses at one level."""

    level: int
    weights: dict[tuple[int, ...], Fraction]

    def total(self) -> Fraction:
        return sum(self.weights.values(), Fraction(0))


def mass_measure(level: int) -> MassMeasure:
    """Masses of all digit paths at one level: integer numerators over 5**level."""
    check_index(level, cap=MAX_MASS_LEVEL)
    paths: dict[tuple[int, ...], int] = {(): 1}
    for _ in range(level):
        paths = {
            path + (d,): m * w for path, m in paths.items() for d, w in enumerate(_MASS_NUMERATORS)
        }
    den = 5**level
    return MassMeasure(level, {path: Fraction(m, den) for path, m in paths.items()})


def mass_bound_check(i: int) -> bool:
    """Verify mass(U) <= 5 * diam(U) ** log3(5) for every level-i rectangle.

    A rectangle's mass, height and diameter depend only on how many digit-1
    steps its path contains, so the 3**i rectangles reduce to i + 1 classes.
    The right-hand side is evaluated with all roundings directed downward
    (and the mass rounded upward), so a pass can never be an artifact of
    rounding; tested margins are far wider than 10**-50.
    """
    check_index(i, cap=MAX_MASS_LEVEL)
    down = _context(decimal.ROUND_FLOOR)
    up = _context(decimal.ROUND_CEILING)
    # Every rounding pushes the right side down and the mass up, so the
    # comparison can only fail conservatively.  With diam < 1 the product
    # s * ln(diam) is negative, so its lower bound needs s rounded *up* and
    # ln(diam) (via diam) rounded down.
    s_up = up.divide(up.ln(Decimal(5)), down.ln(Decimal(3)))
    for ones in range(i + 1):
        # mass = 2**(i-ones) / 5**i; width 3**-i and height 2**(i-ones) / 3**i
        # give diam**2 = (1 + 4**(i-ones)) / 9**i.
        diam_sq_num, diam_sq_den = 1 + 4 ** (i - ones), 9**i
        if diam_sq_num >= diam_sq_den:
            continue  # diam >= 1 makes the bound at least 5 >= any mass
        diam_down = down.sqrt(down.divide(Decimal(diam_sq_num), Decimal(diam_sq_den)))
        ln_down = down.ln(diam_down)  # negative
        power_down = down.exp(down.multiply(s_up, ln_down))
        rhs_down = down.multiply(Decimal(5), power_down)
        mass_up = up.divide(Decimal(2 ** (i - ones)), Decimal(5**i))
        if not mass_up <= rhs_down:
            return False
    return True


def iter_segment_squares(i: int) -> Iterator[Fraction]:
    """Exact squared segment lengths of the level-i antiderivative polyline."""
    t = build_F_iterate(i)
    ynums, dx_sq = t.y_numerators, Fraction(1, 9**i)
    for a, b in zip(ynums, ynums[1:]):
        yield dx_sq + Fraction(b - a, t.y_denominator) ** 2


def _polyline_length(t: BreakpointTable) -> Decimal:
    """Sum of sqrt((Y / 3**level)**2 + rise**2) / Y over the table's segments
    (Y its denominator): ``math.isqrt`` floors each root scaled by 10**50, the
    floors add up exactly, and one division rounds to 50 digits."""
    ynums, yden = t.y_numerators, t.y_denominator
    run_sq = (yden // 3**t.level) ** 2
    roots = sum(isqrt((run_sq + (b - a) ** 2) * _ROOT_SCALE) for a, b in zip(ynums, ynums[1:]))
    ctx = _context(decimal.ROUND_HALF_EVEN)
    return ctx.divide(Decimal(roots), Decimal(yden * 10**_PRECISION))


def arc_length(i: int) -> Decimal:
    """Length of the level-i antiderivative polyline to 50 significant digits.

    The error is certified below 10**-48: each of the 3**i floors loses less
    than 10**-50 / Y, with the denominator Y above 3**i, and the division at
    most half of 10**-49.

    Lengths increase with i and stay strictly below the variation bound 3/2
    (each segment satisfies sqrt(dx**2 + dy**2) < dx + dy, and those sum to
    1 + 1/2 exactly); the level-0 chord gives the lower bound sqrt(5)/2.
    """
    return deque(arc_length_profile(i), maxlen=1)[0]


def arc_length_profile(max_level: int) -> Iterator[Decimal]:
    """Arc lengths for levels 0 .. max_level, one per ``iter_F_iterates`` table."""
    check_index(max_level, cap=MAX_ARC_LEVEL)
    return (_polyline_length(t) for t in iter_F_iterates(max_level))
