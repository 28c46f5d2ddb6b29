"""Deterministic text renderings: rationals, decimals, CSV tables, SVG plots.

Every function here returns or yields text that depends only on its exact input,
never on platform float behaviour, so repeated runs emit identical bytes.

Tables are rendered straight from their integer y-numerators, the common
y-denominator and the level (x = k/3**level).  ``csv_chunks`` and
``svg_chunks`` yield a table's text ``_CHUNK`` rows or points at a time, so a
writer never holds all of it; ``csv_table`` and ``svg_polyline`` join the
chunks into one string.  SVG coordinates keep the rounding of the original
Decimal renderer digit for digit: the exact value rounded half-even to 40
significant digits, then half-even to 6 decimal places.  Every coordinate
lies in [2, 898] by construction, so below a denominator of 10**31 the two
roundings are one: each chunk of a column is rounded in one batched integer
pass and formatted in one C-level map, with no Fraction, Decimal or Python
call per point.  Past 10**31 each point's first rounding is
``Context(prec=40).divide`` itself.
"""

from __future__ import annotations

from decimal import ROUND_HALF_EVEN, Context, Decimal
from fractions import Fraction
from itertools import repeat
from math import gcd
from operator import add, floordiv, mul
from typing import Iterator

from .errors import ParameterError, ResourceLimitError

_CTX = Context(prec=40)
_SIG = 12
_ROUND_12 = Context(prec=_SIG, rounding=ROUND_HALF_EVEN)

_VIEW = 900
_MARGIN = 2
_SPAN = _VIEW - 2 * _MARGIN
# Below this denominator the 40-digit rounding cannot move a coordinate in
# [2, 898] onto a 6-place tie: a value n/d off a tie is at least 1/(2e6 d)
# away from it, more than the 0.5e-37 that 40 significant digits move it.
# The second rounding then gives what one rounding of n/d gives.
_ONE_ROUNDING_DEN = 10**31
_MICRO = 10**6
_POINT = "%d.%06d,%d.%06d".__mod__
# rows or points per chunk of streamed output: the text of one chunk is held at a time
_CHUNK = 4096


def format_rational(x) -> str:
    """Render a Fraction or int as "p/q", keeping the denominator even when 1;
    past Python's int-to-str digit limit, raise ``ResourceLimitError`` instead."""
    if isinstance(x, bool) or not isinstance(x, (Fraction, int)):
        raise ParameterError(f"cannot render {x!r} as a rational")
    x = Fraction(x)
    try:
        return f"{x.numerator}/{x.denominator}"
    except ValueError:
        raise ResourceLimitError("value too long to print: past the int-to-str digit limit") from None


def decimal_12(value) -> str:
    """Round to 12 significant digits and print in plain decimal notation.

    Accepts Fraction or Decimal.  Zero prints as "0.000000000000"
    since significant digits are undefined for it.
    """
    if isinstance(value, Fraction):
        d = _CTX.divide(value.numerator, value.denominator)
    elif isinstance(value, Decimal):
        d = value
    else:
        raise ParameterError(f"cannot render {value!r} as a decimal")
    if d == 0:
        return "0.000000000000"
    r = _ROUND_12.plus(d)  # one half-even rounding; 0.99... carries to 1.00...
    return format(r.quantize(Decimal(1).scaleb(r.adjusted() - (_SIG - 1)), context=_CTX), "f")


def format_value(x) -> str:
    """Render "p/q (decimal)" as used by the evaluation subcommands."""
    return f"{format_rational(x)} ({decimal_12(x)})"


def csv_chunks(table) -> Iterator[str]:
    """CSV dump of a table's breakpoints, LF line endings, one trailing LF:
    the header, then one string per ``_CHUNK`` rows.

    Each row is x = k/3**level and y in lowest terms.
    """
    xden, yden, ns = 3**table.level, table.y_denominator, table.y_numerators
    yield "x_num,x_den,y_num,y_den\n"
    for start in range(0, len(ns), _CHUNK):
        lines = []
        for k, n in enumerate(ns[start : start + _CHUNK], start):
            gx, gy = gcd(k, xden), gcd(n, yden)
            lines.append(f"{k // gx},{xden // gx},{n // gy},{yden // gy}\n")
        yield "".join(lines)


def csv_table(table) -> str:
    """The whole of ``csv_chunks(table)`` as one string."""
    return "".join(csv_chunks(table))


def _micros(ns, den: int, start: int = 0, step: int = 1) -> Iterator[int]:
    """10**6 (start + step n)/den rounded half-even, for every n of the column ns,
    as an iterator, so the formatter takes each value as it is rounded.

    Each value must lie in [2, 898]; the result is what ``Context(prec=40)
    .divide`` and a half-even 6-place ``quantize`` give, times 10**6.  Below
    ``_ONE_ROUNDING_DEN`` that is one rounding: the quotient of
    2·10**6·m + den by 2 den, for the numerator m, less 1 on an exact half
    when it is odd.  A range ns stays a range through the lift to
    2·10**6·m + den.
    """
    if den >= _ONE_ROUNDING_DEN:  # 40 digits over 10**39 first; the rounding below is the second
        ns = [int(_CTX.divide(start + step * n, den).scaleb(39, _CTX)) for n in ns]
        den, start, step = 10**39, 0, 1
    lift, two = 2 * _MICRO, 2 * den
    c0, c1 = lift * start + den, lift * step
    if isinstance(ns, range):
        halves = range(c0 + c1 * ns.start, c0 + c1 * ns.stop, c1 * ns.step)
    else:
        halves = map(add, repeat(c0), map(mul, repeat(c1), ns))
    if den % 128:
        # An exact half needs 2·10**6·m = (2q - 1) den, and the left side is a
        # multiple of 2**7: with fewer twos in den there is no tie to undo.
        return map(floordiv, halves, repeat(two))
    return (q - 1 if q & 1 and not r else q for q, r in map(divmod, halves, repeat(two)))


def svg_chunks(table) -> Iterator[str]:
    """Plot a table's graph as a single polyline in a 900 x 900 viewBox: the
    header, one string per ``_CHUNK`` points (each after the first led by the
    space that separates points), then the footer.

    The unit square maps to the viewBox minus a 2-unit margin, with the
    y axis flipped so larger function values appear higher.  Breakpoint k
    with numerator n sits at (2 + 896 k/3**level, 2 + 896 (1 - n/yden)),
    always in [2, 898].  Each chunk's columns are rounded to 6 places in one
    batched integer pass (two roundings past a denominator of 10**31), the x
    column as a sub-range, and every point is formatted by one C-level map.
    """
    xden, yden, ns = 3**table.level, table.y_denominator, table.y_numerators
    ks = range(len(ns))
    unit = repeat(_MICRO)
    yield (
        '<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="0 0 {_VIEW} {_VIEW}" width="{_VIEW}" height="{_VIEW}">\n'
        '  <polyline fill="none" stroke="black" stroke-width="1" points="'
    )
    for start in range(0, len(ns), _CHUNK):
        part = slice(start, start + _CHUNK)
        xs = _micros(ks[part], xden, _MARGIN * xden, _SPAN)
        ys = _micros(ns[part], yden, (_MARGIN + _SPAN) * yden, -_SPAN)
        points = " ".join(map(_POINT, map(add, map(divmod, xs, unit), map(divmod, ys, unit))))
        yield " " + points if start else points
    yield '"/>\n</svg>\n'


def svg_polyline(table) -> str:
    """The whole of ``svg_chunks(table)`` as one string."""
    return "".join(svg_chunks(table))
