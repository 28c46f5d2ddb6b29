"""The antiderivative F(x) = integral of the classical function over [0, x].

Breakpoint tables: refinement never moves a breakpoint, so over column N of
the level-n grid the graph of f is the affine image
y = y[N] + (y[N+1] - y[N]) f(t) of the whole graph, and f(x) + f(1 - x) = 1
makes the integral of f over [0, 1] equal 1/2.  So F gains exactly
(y[N] + y[N+1]) / (2 * 3**n * K) across the column, y over K: the trapezoid
rule on f's level-n table is exact for F on the level-n grid (``_integrate``,
which checks F(1) = 1/2).  F tables are ``BreakpointTable``s with numerators
over 2 * 9**n and ``param`` None.

The same columns give F's self-similar structure.  With P = 3**n, y over
K = 3**n, G = 2 F and F's level-n table Y over 2 P K, integrating
f((N + t)/P) = (y[N] + (y[N+1] - y[N]) f(t))/K over t gives

    G((N + t)/P) = (S G(t) + Y + V t)/D,    D = P K

for the n-digit block of base-3 value N, whose integer constants
(S, Y, V, D, N, P, K) are (y[N+1] - y[N], Y[N], 2 y[N], P K, N, P, K)
(``_rows``, levels 0 to 6, read off f's ``block_rows`` and their
``_integrate`` sums, so f and F walk the tables once); ``_compose_blocks``
composes them.

Over a period every tail is rho/q', rho the long-division remainder, and
a block read from rho leaves rho' = P rho - q' N, so on v = q' G it is the
integer triple v -> (S v + q' Y + V rho')/D.  ``read_point`` gives each
block's value and the remainder where it ends, so each block is one
``block_maps`` constant read at its division remainder; only the last
block's N is walked, from the remainder before it, and must land on rho
(or q' - rho after a half period).  For an antiperiodic period the tail
after the first half is 1 - t*, and F(1 - t) = F(t) + 1/2 - t appends the
leaf v -> v + q' - 2 rho for the second half.  ``close_triples`` gives
2 q' F(t*), carried to 2 q' F(x) by the preperiod's chain read at rho, in
one reduction, the final Fraction.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import accumulate, count, repeat
from operator import add
from typing import Iterator

from .errors import ConsistencyError, OrderError, ParameterError
from .function import CLASSICAL, MAX_CLOSED_FORM_INDEX, BreakpointTable, block_rows
from .function import build_iterate, iter_iterates
from .ternary import (
    Reading,
    block_maps,
    check_index,
    check_unit_interval,
    close_triples,
    compose_chain,
    read_point,
)

def _integrate(t: BreakpointTable) -> BreakpointTable:
    """F's table at the level of the f table ``t``, which must reach F(1) = 1/2."""
    n = t.y_numerators
    ynums = list(accumulate(map(add, n, n[1:]), initial=0))
    den = 3**t.level * t.y_denominator
    if ynums[-1] != den:
        raise ConsistencyError("the trapezoid sum of the f table misses F(1) = 1/2")
    return BreakpointTable(t.level, ynums, 2 * den)


def iter_F_iterates(max_level: int) -> Iterator[BreakpointTable]:
    """Breakpoint tables of F at levels 0 .. max_level, one per ``iter_iterates`` table."""
    return map(_integrate, iter_iterates(max_level))


def build_F_iterate(i: int) -> BreakpointTable:
    """Breakpoint table of F at level i: the running trapezoid sum of ``build_iterate(i)``."""
    return _integrate(build_iterate(i))


@cache
def _rows() -> tuple:
    """rows[n][N], n = 0 .. 6: the constants (y[N+1] - y[N], Y[N], 2 y[N], P K,
    N, P, K) of the n-digit block of base-3 value N, P = 3**n, from the classical
    ``block_rows`` entry (y[N+1] - y[N], y[N], K) and its table's sum Y."""
    rows = []
    for n, row in enumerate(block_rows(CLASSICAL)):
        s, y = [r[0] for r in row], [r[1] for r in row]
        k, p = row[0][2], 3**n
        big_y = _integrate(BreakpointTable(n, [*y, y[-1] + s[-1]], k)).y_numerators
        rows.append(tuple(zip(
            s, big_y, map(add, y, y), repeat(p * k), count(), repeat(p), repeat(k),
        )))
    return tuple(rows)


def _compose_blocks(outer, inner):
    """The constants (S, Y, V, D, N, P, K) of block w1 then w2, from those of w1
    (outer) and w2 (inner): G(x) = (S G(t) + Y + V t)/D for x = (N + t)/P."""
    s1, y1, v1, d1, n1, p1, k1 = outer
    s2, y2, v2, d2, n2, p2, k2 = inner
    vk = v1 * k2
    return (s1 * s2, s1 * y2 + y1 * d2 + vk * n2, s1 * v2 + vk, d1 * d2,
            p2 * n1 + n2, p1 * p2, k1 * k2)


def _period_leaves(period: Reading, rho: int, q_free: int) -> list:
    """The period's leaves for ``close_triples`` at the tail t* = rho/q', from
    its ``Reading``: one triple (S, q' Y + V rho', D) per block, read
    at the division's remainder rho' where that block ends, then the
    translation leaf of an antiperiodic period's second half."""
    rems, halved = period.rems, period.halved
    consts = block_maps(period, _rows())
    end = q_free - rho if halved else rho
    _, _, _, _, n, p, _ = consts[-1]
    if (rems[-1] if rems else rho) * p - q_free * n != end:
        raise ConsistencyError("the remainder walk does not close the period")
    tails = [*rems, end]
    leaves = [(s, q_free * y + v * r, d) for (s, y, v, d, _, _, _), r in zip(consts, tails)]
    if halved:
        # the tail after the first half is 1 - t*, and 2 F(1 - t) = 2 F(t) + 1 - 2 t
        leaves.append((1, q_free - 2 * rho, 1))
    return leaves


def eval_F_exact(x) -> Fraction:
    """Exact value of the antiderivative at a rational point in [0, 1].

    ``read_point`` writes x = (N + t*)/3**m, N the m preperiod digits and
    t* = rho/q' the periodic tail, q' the 3-free part of the denominator of
    x (rho = q' = 1 for x = 1).  ``_period_leaves`` close to 2 q' F(t*), and
    the preperiod's chain of ``block_maps``, read at rho, carries it to
    2 q' F(x); that walk from x must end at rho.
    """
    x = check_unit_interval(x)
    pre, rho, q_free, period = read_point(x)
    leaves = _period_leaves(period, rho, q_free) if period else []
    pre_maps = []
    if pre:
        chain = block_maps(pre, _rows())
        s, y, v, d, n, _, _ = compose_chain(chain, _compose_blocks)
        if x.numerator - n * q_free != rho:
            raise ConsistencyError("the preperiod walk does not end at x")
        pre_maps = [(s, q_free * y + v * rho, d)]
    return close_triples(leaves, pre_maps, 2 * q_free)


def integral_symmetric(x) -> Fraction:
    """The integral of f over [x, 1-x], which the symmetry of f makes exactly
    1/2 - x (negative for x > 1/2, read as the oriented integral)."""
    r = check_unit_interval(x)
    return Fraction(1, 2) - r


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
