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
cross-checked: refinement tables, digit maps and the iterated function system.
``eval_exact`` closes f_a at a rational point from the composite digit maps of
blocks of up to six digits, read off the columns of the tables (``block_rows``);
``antiderivative.eval_F_exact`` closes F from the same rows and their sums.

Refinement tables of f and of the antiderivative F share one type,
``BreakpointTable``: the level, the y-values as integer numerators over one
common denominator, and the family parameter (None for F).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import repeat
from operator import sub
import re
from typing import Iterator

from .errors import (
    ConsistencyError,
    ParameterError,
    ParseError,
    ResourceLimitError,
)
from .ternary import (
    block_maps,
    check_index,
    check_type,
    check_unit_interval,
    close_triples,
    compose_triples,
    digit_stream,
    digit_triples,
    read_point,
)

MAX_TABLE_LEVEL = 13
MAX_CLOSED_FORM_INDEX = 1000
MAX_BRACKET_DEPTH = 1000
# the envelope after n digits is at most (2/3)**n wide, so the smallest
# tolerance the CLI parses, 10**-4299, needs at most 24,414 digits
MAX_APPROX_DEPTH = 25_000


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


CLASSICAL = FamilyParam(Fraction(2, 3))


def check_param(param) -> FamilyParam:
    """Require a ``FamilyParam``, where a family parameter enters.  A bare
    Fraction a is refused, not coerced: the message says to wrap it."""
    if not isinstance(param, FamilyParam):
        raise ParameterError(
            f"param must be a FamilyParam, got {type(param).__name__}: wrap a as FamilyParam(a)"
        )
    return param


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

    def __repr__(self) -> str:
        a = "F" if self.param is None else f"a={self.param.a}"
        return f"BreakpointTable(level={self.level}, {a}, points={len(self)})"


def iter_iterates(max_level: int, param: FamilyParam = CLASSICAL) -> Iterator[BreakpointTable]:
    """Breakpoint tables of f_0(x) = x, f_1 .. f_max_level, each refined from the last.

    The one level walk behind every f and F table; the level is checked when called.
    """
    check_index(max_level, cap=MAX_TABLE_LEVEL)
    check_param(param)
    p = param.a.numerator
    q = param.a.denominator

    def tables() -> Iterator[BreakpointTable]:
        ynums, yden = [0, 1], 1
        for level in range(max_level + 1):
            if level:
                # y0 + a (y1 - y0) and y0 + (1 - a)(y1 - y0), over the denominator q
                nxt = [0] * (3 * len(ynums) - 2)
                nxt[::3] = [n * q for n in ynums]
                nxt[1::3] = [(q - p) * n0 + p * n1 for n0, n1 in zip(ynums, ynums[1:])]
                nxt[2::3] = [p * n0 + (q - p) * n1 for n0, n1 in zip(ynums, ynums[1:])]
                ynums = nxt
                yden *= q
            yield BreakpointTable(level, ynums, yden, param)

    return tables()


def build_iterate(i: int, param: FamilyParam = CLASSICAL) -> BreakpointTable:
    """Breakpoint table of the i-th iterate: the last table of ``iter_iterates(i, param)``."""
    return deque(iter_iterates(i, param), maxlen=1)[0]


def eval_iterate(t: BreakpointTable, x) -> Fraction:
    """Exact value of the iterate at any x in [0, 1] by linear interpolation."""
    check_type(t, BreakpointTable, "table")
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
    """Next iterate of f_a as the union of the three plane-map images of ``t``.

    The graph of f_a is the attractor of the plane maps that send (x, y) to
    ((d + x)/3, (s_d y + b_d)/q), d = 0, 1, 2, for the ``digit_triples``
    (s_d, b_d, q) of a: image d maps the table's numerators n over Y to
    s_d n + b_d Y over q Y.  The shared corner points of adjacent images
    are deduplicated after an exact equality check.  Must agree exactly
    with ``build_iterate(t.level + 1, t.param)``; tables of F are refused.
    """
    check_type(t, BreakpointTable, "table")
    if t.param is None:
        raise ParameterError("the iterated function system applies to tables of f_a only")
    check_index(t.level + 1, cap=MAX_TABLE_LEVEL)
    a, ynums, yden = t.param.a, t.y_numerators, t.y_denominator
    left, middle, right = ([s * n + b * yden for n in ynums] for s, b, _ in digit_triples(a))
    if left[-1] != middle[0] or middle[-1] != right[0]:
        raise ConsistencyError("map images disagree at shared corners")
    merged = left + middle[1:] + right[1:]
    return BreakpointTable(t.level + 1, merged, a.denominator * yden, t.param)


@lru_cache(maxsize=4)
def block_rows(param: FamilyParam) -> tuple:
    """rows[n][N], n = 0 .. 6: the composite (y[N+1] - y[N], y[N], q**n) of the
    digit maps of the n-digit block of value N, read off column N of the level-n
    table y: refinement never moves a breakpoint, so over that column f_a is
    y[N] + (y[N+1] - y[N]) f(t) over q**n.  Cached for the last four parameters."""
    rows = []
    for t in iter_iterates(6, param):
        y = t.y_numerators
        rows.append(tuple(zip(map(sub, y[1:], y), y, repeat(t.y_denominator))))
    return tuple(rows)


def eval_exact(x, param: FamilyParam = CLASSICAL) -> Fraction:
    """Exact value of f_a at a rational x in [0, 1]: ``close_triples`` of the
    ``block_maps`` of ``read_point``'s period and preperiod in ``block_rows(param)``;
    the period composite contracts, since its |slope| is at most
    max(a, 1 - a, |2a - 1|) ** period_length < 1."""
    pre, _, _, period = read_point(x)
    rows = block_rows(check_param(param))
    leaves = block_maps(period, rows) if period else []
    if period and period.halved:
        # the leaves read half an antiperiodic period; its second half maps v -> 1 - v,
        # since f(1 - t) = 1 - f(t) for every f_a
        leaves.append((-1, 1, 1))
    return close_triples(leaves, block_maps(pre, rows) if pre else [])


def bracket_value(x, depth: int) -> tuple[Fraction, Fraction]:
    """Enclose the classical f(x) between iterate-segment endpoint values.

    Refines only the segment holding x through ``depth`` construction steps.
    Refinement never moves a breakpoint, so the segment's end values are
    those of the level-``depth`` table, and every deeper value over it lies
    between them: they bracket f(x) with gap at most (2/3)**depth.  An
    integer walk: x's place in its segment is t over x's denominator, the
    end values are integers over 3**depth, and a seam takes the left segment.
    Independent of the digit maps and the tables.  A depth over
    MAX_BRACKET_DEPTH raises ``ResourceLimitError``.
    """
    r = check_unit_interval(x)
    check_index(depth, "depth", cap=MAX_BRACKET_DEPTH)
    p, q = CLASSICAL.a.numerator, CLASSICAL.a.denominator
    t, den, y0, y1 = r.numerator, r.denominator, 0, 1
    for _ in range(depth):
        # the refined segment's four values; x's third k keeps values k and k + 1
        ys = (q * y0, (q - p) * y0 + p * y1, p * y0 + (q - p) * y1, q * y1)
        t *= 3
        k = 0 if t <= den else 1 if t <= 2 * den else 2
        y0, y1, t = ys[k], ys[k + 1], t - k * den
    return Fraction(min(y0, y1), q**depth), Fraction(max(y0, y1), q**depth)


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

    Cases v and vi, which require j > i >= 1, are cases i and ii at j - i moved
    by f(x/3**i) = (2/3)**i f(x); cases i to iv take no j.  Indices above
    MAX_CLOSED_FORM_INDEX raise ``ResourceLimitError``.
    """
    if case not in _CASES:
        raise ParameterError(f"case must be one of {_CASES}, got {case!r}")
    check_index(i, "index i", 1, MAX_CLOSED_FORM_INDEX)
    if (case in ("v", "vi")) != (j is not None):
        need = "requires a" if j is None else "takes no"
        raise ParameterError(f"case {case} {need} second index j")
    if j is not None:
        check_index(j, "index j", i + 1, MAX_CLOSED_FORM_INDEX)
        x, v = closed_form_value("i" if case == "v" else "ii", j - i)
        return x / 3**i, Fraction(2, 3) ** i * v
    p3, p2 = 3**i, 2**i
    if case == "i":
        return Fraction(1, p3 + 1), Fraction(p2, p3 + p2)
    if case == "ii":
        return Fraction(1, p3 - 1), Fraction(p2, p3 + p2 // 2)
    if case == "iii":
        return Fraction(2, p3 + 1), Fraction(p2 // 2, p3 - p2 // 2)
    return Fraction(2, p3 - 1), Fraction(p2 // 2, p3 - p2)


_DECIMAL_RE = re.compile(r"([0-9]+)(?:\.([0-9]*))?|\.([0-9]+)")


def parse_decimal(text: str) -> Fraction:
    """Exact rational value of a plain decimal like '0.125', with no whitespace."""
    if not isinstance(text, str):
        raise ParseError(f"expected a decimal string, got {type(text).__name__}")
    m = _DECIMAL_RE.fullmatch(text)
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
    An envelope still wider than ``tol`` after MAX_APPROX_DEPTH digits raises
    ``ResourceLimitError``.  Each digit multiplies only by small integers, so
    the cost grows as depth times (depth + the bit length of ``tol``).
    """
    r = check_unit_interval(parse_decimal(text), "decimal input")
    if isinstance(tol, bool) or not isinstance(tol, (int, Fraction)):
        raise ParameterError(f"tolerance must be an exact rational, got {tol!r}")
    if tol <= 0:
        raise ParameterError(f"tolerance must be positive, got {tol}")
    leaf = digit_triples(CLASSICAL.a)
    s, b, den = 1, 0, 1
    wide, narrow = tol.denominator, tol.numerator
    digits = digit_stream(r)
    depth = 0
    while wide > narrow:  # |s| tol.denominator > den tol.numerator: |s/den| > tol
        d = next(digits, None)
        if d is None:
            v = Fraction(b, den)  # terminating expansion: the tail is exactly 0
            return (v, v)
        if depth == MAX_APPROX_DEPTH:
            raise ResourceLimitError(f"enclosure deeper than {MAX_APPROX_DEPTH} base-3 digits")
        s, b, den = compose_triples((s, b, den), leaf[d])
        wide, narrow = wide * abs(leaf[d][0]), narrow * leaf[d][2]
        depth += 1
    lo, hi = Fraction(b, den), Fraction(s + b, den)
    return min(lo, hi), max(lo, hi)


def classical_table(i: int) -> BreakpointTable:
    """The level-i table of the classical function (no module calls it; perfbench traces it)."""
    return build_iterate(i)
