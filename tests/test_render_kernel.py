"""The batched SVG coordinate kernel against the Decimal route it replaced.

``render._micros`` rounds a whole column of values n/den in [2, 898] to six
places at once.  The reference is the original renderer, one point at a
time: ``Context(prec=40).divide`` and then a half-even 6-place ``quantize``.
Draws cover denominators on both sides of 10**31 (one rounding below, two
past it), both ends of [2, 898], exact 6-place ties n/den = (2k + 1)/(2·10**6)
and their neighbours n ± 1, and exact ties at the 40th significant digit.

The table renderers stream ``_CHUNK`` rows or points at a time: tables just
short of, at and past a chunk boundary render as the one-shot reference
does, and streaming a level-10 table holds less than half its text.
"""

import tracemalloc
from collections import deque
from decimal import ROUND_HALF_EVEN, Context, Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from bourbaki.function import BreakpointTable, build_iterate
from bourbaki.render import _CHUNK, _micros, csv_chunks, csv_table, svg_chunks, svg_polyline

CTX = Context(prec=40)
SIX = Decimal("0.000001")
SPLIT = 10**31


def decimal_coord(n: int, den: int) -> str:
    return format(CTX.divide(Decimal(n), Decimal(den)).quantize(SIX, rounding=ROUND_HALF_EVEN), "f")


def kernel_coords(column) -> list[str]:
    return ["%d.%06d" % divmod(q, 10**6) for q in column]


def scales(lo: int, hi: int):
    """Integers in [lo, hi), spread across their decades."""
    return st.integers(len(str(lo)) - 1, len(str(hi - 1)) - 1).flatmap(
        lambda e: st.integers(max(lo, 10**e), min(hi, 10 ** (e + 1)) - 1)
    )


dens = scales(1, SPLIT) | scales(SPLIT, 10**45)


@st.composite
def values(draw):
    """(n, den) with n/den in [2, 898], endpoints included."""
    den = draw(dens)
    n = draw(st.sampled_from([2 * den, 898 * den]) | st.integers(2 * den, 898 * den))
    return n, den


@st.composite
def six_place_ties(draw):
    """(n, den) at, or one unit beside, a 6-place tie (2k + 1)/(2·10**6)."""
    m = draw(scales(1, 10**40))
    k = draw(st.integers(2 * 10**6, 898 * 10**6 - 1))
    return (2 * k + 1) * m + draw(st.sampled_from([-1, 0, 1])), 2 * 10**6 * m


@st.composite
def forty_digit_ties(draw):
    """(n, den) at, or one unit beside, a tie (2j + 1)/(2·10**places) at the
    40th significant digit; some lie half a 40-digit unit off a 6-place tie,
    where the first rounding decides which way the second goes."""
    whole_digits = draw(st.sampled_from([1, 2, 3]))
    places = 40 - whole_digits
    lo, hi = max(2, 10 ** (whole_digits - 1)), min(898, 10**whole_digits)
    beside_six = st.builds(
        lambda k, below: (2 * k + 1) * 5 * 10 ** (places - 7) - below,
        st.integers(lo * 10**6, hi * 10**6 - 1),
        st.sampled_from([0, 1]),
    )
    j = draw(st.integers(lo * 10**places, hi * 10**places - 1) | beside_six)
    m = draw(scales(1, 10**6))
    return (2 * j + 1) * m + draw(st.sampled_from([-1, 0, 1])), 2 * 10**places * m


@given(st.lists(values() | six_place_ties() | forty_digit_ties(), min_size=1, max_size=8))
@settings(deadline=None, max_examples=400)
@example([(2, 1), (898, 1), (2 * SPLIT, SPLIT), (898 * (SPLIT - 1), SPLIT - 1)])
def test_matches_decimal_route(points):
    for n, den in points:
        if 2 * den <= n <= 898 * den:
            assert kernel_coords(_micros([n], den)) == [decimal_coord(n, den)], (n, den)


@given(dens, st.lists(st.integers(0, 10**50), min_size=1, max_size=12))
@settings(deadline=None, max_examples=200)
def test_flipped_column(den, fractions):
    # the y column: (898 den - 896 n)/den for n in [0, den]
    ns = [f % (den + 1) for f in fractions]
    expected = [decimal_coord(898 * den - 896 * n, den) for n in ns]
    assert kernel_coords(_micros(ns, den, 898 * den, -896)) == expected


@pytest.mark.parametrize("den", [1, 3, 3**7, 2**20, 10**6, 2 * 10**6 * 3**5, SPLIT, 3**70])
def test_range_column(den):
    # the x column: (2 den + 896 k)/den for k in a range, which is lifted whole
    ks = range(den // 7, den + 1, max(1, den // 50))
    expected = [decimal_coord(2 * den + 896 * k, den) for k in ks]
    assert kernel_coords(_micros(ks, den, 2 * den, 896)) == expected


SVG_HEAD = (
    '<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 900 900" width="900" height="900">\n'
    '  <polyline fill="none" stroke="black" stroke-width="1" points="'
)
SVG_TAIL = '"/>\n</svg>\n'


def reference_csv(table) -> str:
    xden = 3**table.level
    rows = ["x_num,x_den,y_num,y_den"]
    for k, n in enumerate(table.y_numerators):
        x, y = Fraction(k, xden), Fraction(n, table.y_denominator)
        rows.append(f"{x.numerator},{x.denominator},{y.numerator},{y.denominator}")
    return "\n".join(rows) + "\n"


def reference_svg(table) -> str:
    xden, yden = 3**table.level, table.y_denominator
    points = " ".join(
        decimal_coord(2 * xden + 896 * k, xden) + "," + decimal_coord(898 * yden - 896 * n, yden)
        for k, n in enumerate(table.y_numerators)
    )
    return SVG_HEAD + points + SVG_TAIL


@pytest.mark.parametrize("yden", [3**9, 2 * 9**9, SPLIT + 7])
@pytest.mark.parametrize("points", [_CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 1])
def test_chunk_edges_match_one_shot_reference(points, yden):
    # a level-9 grid holds 19,684 points; the numerators wander over [0, yden]
    table = BreakpointTable(9, [k * 7919 % (yden + 1) for k in range(points)], yden)
    sizes = [min(_CHUNK, points - i) for i in range(0, points, _CHUNK)]
    csv = list(csv_chunks(table))
    assert [c.count("\n") for c in csv] == [1, *sizes]
    assert "".join(csv) == csv_table(table) == reference_csv(table)
    svg = list(svg_chunks(table))
    assert [c.count(",") for c in svg] == [0, *sizes, 0]
    assert all(c.startswith(" ") for c in svg[2:-1])
    assert "".join(svg) == svg_polyline(table) == reference_svg(table)


@pytest.mark.parametrize("chunks", [csv_chunks, svg_chunks])
def test_streaming_holds_under_half_the_text(chunks):
    table = build_iterate(10)
    size = sum(map(len, chunks(table)))
    tracemalloc.start()
    try:
        deque(chunks(table), maxlen=0)  # a sink that discards every chunk
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < size / 2, (peak, size)
