"""Deterministic text renderings: rationals, decimals, CSV tables, SVG plots.

Every function here returns a string that depends only on its exact input,
never on platform float behaviour, so repeated runs emit identical bytes.

Tables are rendered straight from their integer y-numerators, the common
y-denominator and the level (x = k/3**level), with no Fraction or Decimal
per point.  SVG coordinates keep the rounding of the original Decimal
renderer digit for digit: the exact value rounded half-even to 40
significant digits, then half-even to 6 decimal places.
"""

from __future__ import annotations

from decimal import ROUND_HALF_EVEN, Context, Decimal
from fractions import Fraction
from math import gcd

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
        d = _CTX.divide(Decimal(value.numerator), Decimal(value.denominator))
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


def csv_table(table) -> str:
    """CSV dump of a table's breakpoints, LF line endings, one trailing LF.

    Each row is x = k/3**level and y in lowest terms.
    """
    xden, yden = 3**table.level, table.y_denominator
    lines = ["x_num,x_den,y_num,y_den"]
    for k, n in enumerate(table.y_numerators):
        gx, gy = gcd(k, xden), gcd(n, yden)
        lines.append(f"{k // gx},{xden // gx},{n // gy},{yden // gy}")
    return "\n".join(lines) + "\n"


def _div_half_even(num: int, den: int) -> int:
    q, r = divmod(num, den)
    if 2 * r > den or (2 * r == den and q & 1):
        q += 1
    return q


def _coord(num: int, den: int) -> str:
    """The value num/den in [2, 898] with 6 decimals, rounded as
    ``Context(prec=40).divide`` and then ``quantize`` round it."""
    if den >= _ONE_ROUNDING_DEN:
        places = _CTX.prec - len(str(num // den))
        num, den = _div_half_even(num * 10**places, den), 10**places
    whole, frac = divmod(_div_half_even(num * 10**6, den), 10**6)
    return f"{whole}.{frac:06d}"


def svg_polyline(table) -> str:
    """Plot a table's graph as a single polyline in a 900 x 900 viewBox.

    The unit square maps to the viewBox minus a 2-unit margin, with the
    y axis flipped so larger function values appear higher.  Breakpoint k
    with numerator n sits at (2 + 896 k/3**level, 2 + 896 (1 - n/yden)).
    """
    xden, yden = 3**table.level, table.y_denominator
    top = (_MARGIN + _SPAN) * yden
    points = " ".join(
        f"{_coord(_MARGIN * xden + _SPAN * k, xden)},{_coord(top - _SPAN * n, yden)}"
        for k, n in enumerate(table.y_numerators)
    )
    return (
        '<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="0 0 {_VIEW} {_VIEW}" width="{_VIEW}" height="{_VIEW}">\n'
        '  <polyline fill="none" stroke="black" stroke-width="1" points="'
        + points
        + '"/>\n'
        "</svg>\n"
    )
