"""Bourbaki's nowhere-differentiable function and its one-parameter family.

The function f is the uniform limit of piecewise-linear iterates on [0, 1].
Each refinement splits every segment in thirds and inserts values a fraction
``a`` and ``1 - a`` of the way up the segment (the classical function has
a = 2/3):

    f_{i+1}(x0 + w/3)     = y0 + a (y1 - y0)
    f_{i+1}(x0 + 2 w/3)   = y0 + (1 - a) (y1 - y0)        w = x1 - x0

Equivalently, prepending a base-3 digit to a point transforms the value by an
affine map, and the graph of the classical function is the attractor of three
plane affine maps.  Those three descriptions are implemented side by side and
cross-checked: refinement tables, digit maps with exact periodic-tail closure,
and the iterated function system.

Refinement tables of f and of the antiderivative F share one type,
``BreakpointTable``: the level, the y-values as integer numerators over one
common denominator, and the family parameter (None for F).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
import re

from .errors import (
    ConsistencyError,
    ParameterError,
    ParseError,
)
from .ternary import (
    AffineMap,
    balanced_product,
    check_digits,
    check_index,
    check_unit_interval,
    digit_stream,
    to_ternary,
)

MAX_TABLE_LEVEL = 13
MAX_CLOSED_FORM_INDEX = 1000
MAX_BRACKET_DEPTH = 1000


@dataclass(frozen=True)
class FamilyParam:
    """Vertical insertion factor a with 0 < a < 1; a = 2/3 is classical."""

    a: Fraction

    def __post_init__(self) -> None:
        a = self.a
        if not isinstance(a, Fraction):
            raise ParameterError(f"family parameter must be a Fraction, got {type(a).__name__}")
        if not 0 < a < 1:
            raise ParameterError(f"family parameter a = {a} must satisfy 0 < a < 1")

    @property
    def is_classical(self) -> bool:
        return self.a == Fraction(2, 3)


CLASSICAL = FamilyParam(Fraction(2, 3))


@dataclass(frozen=True, slots=True, repr=False)
class BreakpointTable:
    """Breakpoints (k/3**level, y_k) of one piecewise-linear construction table.

    Level i has 3**i + 1 breakpoints at x = k/3**i.  The y-values are stored
    only as integer numerators over one common denominator (3**i classically,
    q**i for a = p/q, 2 * 9**i for the antiderivative), so deep tables stay
    compact and renderers can work on small integers.  ``param`` is the
    family parameter of an f table and None for an F table, so tables of the
    two kinds never compare equal.  ``y_numerators`` is shared: do not mutate.
    """

    level: int
    y_numerators: list[int]
    y_denominator: int
    param: FamilyParam | None = None

    def __len__(self) -> int:
        return len(self.y_numerators)

    def y_at(self, k: int) -> Fraction:
        """Exact value at breakpoint x = k/3**level."""
        return Fraction(self.y_numerators[k], self.y_denominator)

    @property
    def breakpoints(self) -> tuple[tuple[Fraction, Fraction], ...]:
        """Exact (x, y) pairs, built on every access; renderers do not use it."""
        xd, yd = 3**self.level, self.y_denominator
        return tuple((Fraction(k, xd), Fraction(n, yd)) for k, n in enumerate(self.y_numerators))

    def __repr__(self) -> str:
        a = "F" if self.param is None else f"a={self.param.a}"
        return f"BreakpointTable(level={self.level}, {a}, points={len(self)})"


def build_iterate(i: int, param: FamilyParam = CLASSICAL) -> BreakpointTable:
    """Breakpoint table of the i-th iterate, starting from f_0(x) = x."""
    check_index(i, cap=MAX_TABLE_LEVEL)
    p = param.a.numerator
    q = param.a.denominator
    ynums = [0, 1]
    yden = 1
    for _ in range(i):
        nxt = []
        for k in range(len(ynums) - 1):
            n0, n1 = ynums[k], ynums[k + 1]
            d = n1 - n0
            nxt.append(n0 * q)
            nxt.append(n0 * q + p * d)
            nxt.append(n0 * q + (q - p) * d)
        nxt.append(ynums[-1] * q)
        ynums = nxt
        yden *= q
    return BreakpointTable(i, ynums, yden, param)


def eval_iterate(t: BreakpointTable, x) -> Fraction:
    """Exact value of the iterate at any x in [0, 1] by linear interpolation."""
    r = check_unit_interval(x)
    xden = 3**t.level
    scaled = r * xden
    k = int(scaled)
    if k == xden:  # x == 1 sits on the last breakpoint
        k -= 1
    y0 = t.y_at(k)
    y1 = t.y_at(k + 1)
    return y0 + (scaled - k) * (y1 - y0)


def ifs_refine(t: BreakpointTable) -> BreakpointTable:
    """Next classical iterate as the union of the three map images of ``t``.

    The classical graph is the attractor of the plane maps w1 (x, y) = (x/3, 2y/3),
    w2 (x, y) = ((2 - x)/3, (1 + y)/3) and w3 (x, y) = ((2 + x)/3, (1 + 2y)/3).
    The w2 image is re-ordered (that map reverses x) and the shared corner
    points of adjacent images are deduplicated after an exact equality check.
    Must agree exactly with ``build_iterate(t.level + 1)``.
    """
    if t.param is None or not t.param.is_classical:
        raise ParameterError("the iterated function system applies to a = 2/3 only")
    check_index(t.level + 1, cap=MAX_TABLE_LEVEL)
    pow3 = 3**t.level
    ynums = t.y_numerators
    # New common denominator 3**(level+1); x-index j runs over 0 .. 3**(level+1).
    left = [2 * n for n in ynums]
    middle = [pow3 + n for n in reversed(ynums)]
    right = [pow3 + 2 * n for n in ynums]
    if left[-1] != middle[0] or middle[-1] != right[0]:
        raise ConsistencyError("map images disagree at shared corners")
    merged = left + middle[1:] + right[1:]
    return BreakpointTable(t.level + 1, merged, 3 * pow3, t.param)


def digit_step_map(d: int, param: FamilyParam = CLASSICAL) -> AffineMap:
    """Affine action of prepending base-3 digit d to a point.

    With t the remaining tail and v = f(t):

        digit 0:  f(t/3)       = a v
        digit 1:  f((1 + t)/3) = a - (2a - 1) v
        digit 2:  f((2 + t)/3) = a v + (1 - a)

    For a = 2/3 these are (2/3)v, (2 - v)/3 and (2v + 1)/3.
    """
    check_digits((d,), "digit")
    a = param.a
    if d == 0:
        return AffineMap(a, 0)
    if d == 1:
        return AffineMap(1 - 2 * a, a)
    return AffineMap(a, 1 - a)


def _digit_triples(param: FamilyParam) -> dict[int, tuple[int, int, int]]:
    """``digit_step_map`` as integer triples (s, b, q): v -> (s v + b)/q for a = p/q."""
    p, q = param.a.numerator, param.a.denominator
    return {0: (p, 0, q), 1: (q - 2 * p, p, q), 2: (p, q - p, q)}


def _compose_triples(outer, inner):
    so, bo, do = outer
    si, bi, di = inner
    return (so * si, so * bi + bo * di, do * di)


def eval_exact(x, param: FamilyParam = CLASSICAL) -> Fraction:
    """Exact value of the limit function at a rational point.

    The digit maps are composed over one full period of the expansion; the
    composite has |slope| <= max(a, 1-a, |2a-1|) ** period_length < 1, so the
    periodic tail value is its unique fixed point.  The preperiod composite
    then carries the tail value to f(x).  Both composites are integer triples
    (s, b, q**k) built by ``balanced_product``: no gcd until the one final
    Fraction, which matters for periods thousands of digits long.
    """
    e = to_ternary(x)
    leaf = _digit_triples(param)
    num, den = 0, 1  # the tail value num/den
    if e.period:
        s, b, d = balanced_product([leaf[k] for k in e.period], _compose_triples)
        if not -d < s < d:
            raise ConsistencyError("period map is not a contraction")
        num, den = b, d - s
    if e.preperiod:
        s, b, d = balanced_product([leaf[k] for k in e.preperiod], _compose_triples)
        num, den = s * num + b * den, d * den
    return Fraction(num, den)


def bracket_value(x, depth: int) -> tuple[Fraction, Fraction]:
    """Enclose the classical f(x) between iterate-segment endpoint values.

    Refines only the segment containing x through ``depth`` construction
    steps (the full level-``depth`` table would be astronomically large, but
    its values at the two surviving breakpoints are identical because
    refinement never moves an existing breakpoint).  Every deeper value on
    the segment stays between the endpoint values, so the pair brackets f(x)
    with gap at most (2/3)**depth.  Independent of the digit-map evaluator.
    A depth over MAX_BRACKET_DEPTH raises ``ResourceLimitError``.
    """
    r = check_unit_interval(x)
    check_index(depth, "depth", cap=MAX_BRACKET_DEPTH)
    x0, y0 = Fraction(0), Fraction(0)
    x1, y1 = Fraction(1), Fraction(1)
    for _ in range(depth):
        w = x1 - x0
        dy = y1 - y0
        c1 = x0 + w / 3
        c2 = x0 + 2 * w / 3
        v1 = y0 + Fraction(2, 3) * dy
        v2 = y0 + Fraction(1, 3) * dy
        if r <= c1:
            x1, y1 = c1, v1
        elif r <= c2:
            x0, y0, x1, y1 = c1, v1, c2, v2
        else:
            x0, y0, x1, y1 = c2, v2, x1, y1
    return (min(y0, y1), max(y0, y1))


_CASES = ("i", "ii", "iii", "iv", "v", "vi")


def closed_form_value(case: str, i: int, j: int | None = None) -> tuple[Fraction, Fraction]:
    """Known exact values (x, f(x)) of the classical function.

    case  point              value
    i     1/(3**i + 1)       2**i / (3**i + 2**i)
    ii    1/(3**i - 1)       2**i / (3**i + 2**(i-1))
    iii   2/(3**i + 1)       2**(i-1) / (3**i - 2**(i-1))
    iv    2/(3**i - 1)       2**(i-1) / (3**i - 2**i)
    v     1/(3**j + 3**i)    (2/3)**i * 2**(j-i) / (3**(j-i) + 2**(j-i))
    vi    1/(3**j - 3**i)    (2/3)**i * 2**(j-i) / (3**(j-i) + 2**(j-i-1))

    Cases v and vi require j > i >= 1.  Indices above MAX_CLOSED_FORM_INDEX
    raise ``ResourceLimitError``.
    """
    if case not in _CASES:
        raise ParameterError(f"case must be one of {_CASES}, got {case!r}")
    check_index(i, "index i", 1, MAX_CLOSED_FORM_INDEX)
    if case in ("v", "vi"):
        if j is None:
            raise ParameterError(f"case {case} requires the second index j")
        check_index(j, "index j", i + 1, MAX_CLOSED_FORM_INDEX)
    p3, p2 = 3**i, 2**i
    if case == "i":
        return Fraction(1, p3 + 1), Fraction(p2, p3 + p2)
    if case == "ii":
        return Fraction(1, p3 - 1), Fraction(p2, p3 + p2 // 2)
    if case == "iii":
        return Fraction(2, p3 + 1), Fraction(p2 // 2, p3 - p2 // 2)
    if case == "iv":
        return Fraction(2, p3 - 1), Fraction(p2 // 2, p3 - p2)
    k = j - i
    scale = Fraction(2, 3) ** i
    if case == "v":
        return Fraction(1, 3**j + p3), scale * Fraction(2**k, 3**k + 2**k)
    return Fraction(1, 3**j - p3), scale * Fraction(2**k, 3**k + 2 ** (k - 1))


_DECIMAL_RE = re.compile(r"^([0-9]+)(?:\.([0-9]*))?$|^\.([0-9]+)$")


def parse_decimal(text: str) -> Fraction:
    """Exact rational value of a plain decimal literal like '0.125'."""
    if not isinstance(text, str):
        raise ParseError(f"expected a decimal string, got {type(text).__name__}")
    m = _DECIMAL_RE.match(text.strip())
    if not m:
        raise ParseError(f"malformed decimal {text!r}")
    whole, frac_part, bare = m.groups()
    if bare is not None:
        whole, frac_part = "0", bare
    frac_part = frac_part or ""
    try:
        digits = int(whole + frac_part)
    except ValueError:  # past Python's limit on str-to-int digits
        raise ParseError(f"too many digits to parse: {len(whole + frac_part)}") from None
    return Fraction(digits, 10 ** len(frac_part))


def approx_eval(text: str, tol) -> tuple[Fraction, Fraction]:
    """Certified interval around f at the decimal point ``text``.

    Parses the decimal to the exact rational r = digits / 10**k, then walks
    base-3 digits of r composing digit maps until the envelope (the image of
    [0, 1] under the composite) is no wider than ``tol``.  The true f(r) lies
    inside the returned closed interval; the width shrinks like (2/3)**depth.
    The composite is an integer triple (s, b, 3**depth), as in ``eval_exact``.
    """
    r = check_unit_interval(parse_decimal(text), "decimal input")
    if isinstance(tol, bool) or not isinstance(tol, (int, Fraction)):
        raise ParameterError(f"tolerance must be an exact rational, got {tol!r}")
    if tol <= 0:
        raise ParameterError(f"tolerance must be positive, got {tol}")
    leaf = _digit_triples(CLASSICAL)
    s, b, den = 1, 0, 1
    digits = digit_stream(r)
    while abs(s) * tol.denominator > tol.numerator * den:  # |s/den| > tol
        d = next(digits, None)
        if d is None:
            v = Fraction(b, den)  # terminating expansion: the tail is exactly 0
            return (v, v)
        s, b, den = _compose_triples((s, b, den), leaf[d])
    lo, hi = Fraction(b, den), Fraction(s + b, den)
    return (lo, hi) if lo <= hi else (hi, lo)


def classical_table(i: int) -> BreakpointTable:
    """The level-i table of the classical function."""
    return build_iterate(i)
