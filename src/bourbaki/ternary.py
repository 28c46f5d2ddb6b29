"""Canonical base-3 expansions and the integer closures that evaluate them.

Every closure composes unreduced integer triples (s, b, d), each the map
v -> (s v + b)/d, and reduces once, in the ``Fraction`` it returns:

* ``TernaryExpansion`` -- the eventually periodic base-3 expansion of a
  rational in [0, 1], held in a canonical form so each rational has exactly
  one representation.  Preperiod and period are ``bytes`` of the digit
  values 0, 1 and 2, the one digit format from ``to_ternary`` to every
  closure; ``check_digits``, the one test of a digit, returns that form.
  ``to_ternary`` reads the period by long division by 3**6, six digits per
  step, and the preperiod by recursive halving.
* ``block_maps`` -- the one place a closure's digits are cut into six-digit
  blocks: each block's cached composite, for any associative ``compose``.
* ``compose_chain`` -- the one product tree that every chain of block maps
  is composed with.
* ``affine_fixed_point`` -- the one closing step: the fixed point of a
  contracting integer triple, which is the value of a periodic tail.
* ``digit_triples`` -- the one statement of the digit maps of f_a, as
  integer triples (s_d, b_d, q) with f((d + t)/3) = (s_d f(t) + b_d)/q for
  a = p/q; the antiderivative's digit maps are derived from them.
* ``close_chain`` -- the one closure that turns an expansion into a value
  under the digit maps of a family member: f and f_a through theirs, and
  the expansion's own value through v -> (v + d)/3, the maps of the member
  a = 1/3, whose limit function is the identity.
* ``half_period`` -- the one test of the half-period route: when
  3**(L/2) = -1 mod q', the period's second half is the digit complement
  (0 <-> 2) of the first.  A closure then reads only the first half's
  ``block_maps`` and appends the leaf that t -> 1 - t induces on its
  state: v -> 1 - v in ``close_chain``, since f(1 - t) = 1 - f(t) for
  every f_a.

No floating point is used anywhere in this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from typing import Callable, Iterator, Sequence

from .errors import (
    ConsistencyError,
    DigitError,
    DomainError,
    ParameterError,
    ResourceLimitError,
)

MAX_PERIOD_DIGITS = 2_000_000
# reading a preperiod is quadratic in its length: 0.24 s at 200,000 digits
# and 0.40 s at 250,000 on a 2-vCPU Xeon, Python 3.11
MAX_PREPERIOD_DIGITS = 250_000
# the six base-3 digits of each n < 3**6, most significant first, as bytes
_SIX_DIGIT_BLOCKS = tuple(map(bytes, product(range(3), repeat=6)))
_COMPLEMENT = bytes.maketrans(b"\x00\x02", b"\x02\x00")


def check_unit_interval(x, what: str = "x") -> Fraction:
    """Require an exact rational 0 <= x <= 1: a Fraction, returned as it is,
    or an int (not a bool), returned as a Fraction."""
    if not isinstance(x, Fraction):
        if not isinstance(x, int) or isinstance(x, bool):
            raise DomainError(f"expected an exact rational, got {type(x).__name__}")
        x = Fraction(x)
    if x < 0 or x > 1:
        raise DomainError(f"{what} = {x} lies outside [0, 1]")
    return x


def check_index(i, what: str = "level", low: int = 0, cap: int | None = None) -> int:
    """Require an ``int`` (not ``bool``) i >= low; over ``cap`` is a resource limit."""
    if type(i) is not int or i < low:
        raise ParameterError(f"{what} must be an integer >= {low}, got {i!r}")
    if cap is not None and i > cap:
        raise ResourceLimitError(f"{what} {i} exceeds the supported cap {cap}")
    return i


def check_digits(digits, what: str = "digits") -> bytes:
    """The one test of what a base-3 digit is: the ints 0, 1 and 2.

    Takes ``bytes`` or any iterable of ints and returns the digits as
    ``bytes`` of the values 0, 1 and 2.  Bools, floats and strings are
    rejected even where they compare equal to a digit, and so is a
    non-iterable; each raises ``DigitError``.
    """
    try:
        ds = digits if type(digits) is bytes else bytes(d if type(d) is int else -1 for d in digits)
    except (TypeError, ValueError):
        ds = None
    if ds is None or ds.translate(None, b"\x00\x01\x02"):
        raise DigitError(f"{what} must be the ints 0, 1 and 2")
    return ds


@dataclass(frozen=True)
class TernaryExpansion:
    """Canonical eventually periodic base-3 expansion of a rational in [0, 1].

    Digits are ``bytes`` of the values 0, 1 and 2, taken through
    ``check_digits`` from any iterable of those ints.  Canonical form:

    * empty period means the expansion terminates, and then the preperiod
      does not end in 0;
    * a nonempty period is the minimal repeating block and is not all zeros;
    * the last preperiod digit differs from the last period digit (otherwise
      the preperiod could be shortened);
    * an all-2 tail only appears as the representation of 1 itself, which is
      the empty preperiod with period b"\x02".
    """

    preperiod: bytes
    period: bytes

    def __post_init__(self) -> None:
        pre = check_digits(self.preperiod, "preperiod")
        per = check_digits(self.period, "period")
        object.__setattr__(self, "preperiod", pre)
        object.__setattr__(self, "period", per)
        if per:
            if not any(per):
                raise DigitError("a periodic tail of zeros must be the empty period")
            # w is a power of a shorter block iff w occurs in ww at 0 < k < |w|
            # (Lyndon-Schuetzenberger); bytes.find makes that a linear scan.
            if (per + per).find(per, 1) != len(per):
                raise DigitError("period is not minimal")
            if pre and pre[-1] == per[-1]:
                raise DigitError("preperiod is not minimal (rotate the period instead)")
            if per == b"\x02" and pre:
                raise DigitError("an all-2 tail is only canonical for the value 1")
        elif pre and pre[-1] == 0:
            raise DigitError("terminating expansion must not end in digit 0")

    def digits(self) -> Iterator[int]:
        """Preperiod digits, then the period repeated forever (stops if terminating)."""
        yield from self.preperiod
        if self.period:
            while True:
                yield from self.period


def _split_threes(q: int) -> tuple[int, int]:
    """(v, q / 3**v) for the largest v with 3**v dividing q.

    Divides out 3, 3**2, 3**4, ... while they divide, then tries the same
    squares again from the largest down: about 2 log2(v) divisions, not v.
    A v over MAX_PREPERIOD_DIGITS raises ``ResourceLimitError``, found first
    by one division by 3**(cap + 1) when q is large enough to allow it.
    """
    cap = MAX_PREPERIOD_DIGITS
    # 3**(cap + 1) has more than 1.5 (cap + 1) bits, so no smaller q has it as a factor
    if q.bit_length() > 3 * (cap + 1) // 2 and not q % 3 ** (cap + 1):
        raise ResourceLimitError(f"base-3 preperiod over the cap of {cap} digits")
    squares, square = [], 3
    while True:
        quo, rem = divmod(q, square)
        if rem:
            break
        q = quo
        squares.append(square)
        square *= square
    v = (1 << len(squares)) - 1
    for k in reversed(range(len(squares))):
        quo, rem = divmod(q, squares[k])
        if not rem:
            q, v = quo, v + (1 << k)
    return v, q


def _base3_digits(n: int, width: int) -> bytes:
    """The ``width`` base-3 digits of n < 3**width, most significant first.

    Recursive halving: one ``divmod`` by 3**(width // 2) splits off the low
    half, down to blocks of at most six digits, so a long string costs a few
    full-size divisions per halving level rather than one per digit.
    """
    if width <= 6:
        return _SIX_DIGIT_BLOCKS[n][6 - width:]
    h = width // 2
    hi, lo = divmod(n, 3**h)
    return _base3_digits(hi, width - h) + _base3_digits(lo, h)


def to_ternary(x) -> TernaryExpansion:
    """Canonical base-3 expansion of a rational in [0, 1].

    Write the reduced x = p/q with q = 3**v * q' and q' coprime to 3
    (``_split_threes``).  One ``divmod`` splits 3**v * x = p/q' into
    whole + start/q': the preperiod is the v base-3 digits of whole
    (< 3**v, ``_base3_digits``), and start/q' is the purely periodic tail.
    A preperiod over MAX_PREPERIOD_DIGITS digits raises ``ResourceLimitError``
    before any digit is read.  The period is read off by long division by
    3**6, six digits per ``divmod``, until the remainder returns to start --
    at most q' digits, and the block found is automatically minimal.  The
    remainder after k digits is start * 3**k mod q', so one dict lookup per
    block, keyed by start * 3**e for e = 0 .. 5, finds where in the block the
    period ended.  The same dict holds q' - start: if the remainder reaches it
    after h digits, the tail there is 1 - start/q', so the period is
    antiperiodic, of 2h digits, and its second half is the digit complement
    (0 <-> 2) of the first.  A period over MAX_PERIOD_DIGITS digits (the full
    period, not its half) raises ``ResourceLimitError`` during that division.
    """
    r = check_unit_interval(x)
    if r == 1:
        return TernaryExpansion(b"", b"\x02")
    v, q_free = _split_threes(r.denominator)
    whole, start = divmod(r.numerator, q_free)
    pre = _base3_digits(whole, v)
    per = b""
    if start:
        # remainder -> (digits past the event, whether the event is the half period);
        # the largest e is the earliest event in a block, and a full-period event
        # wins a tie (only q' = 2, where start = q' - start)
        ends = {}
        full, half = start, q_free - start
        for e in range(6):
            ends[half] = (e, True)
            ends[full] = (e, False)
            full, half = full * 3 % q_free, half * 3 % q_free
        cap = MAX_PERIOD_DIGITS
        blocks = []
        num = start
        for _ in range(cap // 6 + 1):
            blk, num = divmod(num * 729, q_free)
            blocks.append(blk)
            if num in ends:
                break
        else:
            raise ResourceLimitError(f"base-3 period over the cap of {cap} digits")
        past, antiperiodic = ends[num]
        per = b"".join(map(_SIX_DIGIT_BLOCKS.__getitem__, blocks))[: 6 * len(blocks) - past]
        if antiperiodic:
            per += per.translate(_COMPLEMENT)
        if len(per) > cap:
            raise ResourceLimitError(f"base-3 period over the cap of {cap} digits")
    return TernaryExpansion(pre, per)


def digit_stream(x) -> Iterator[int]:
    """Base-3 digits of x in [0, 1] by long division, produced lazily.

    Unlike ``to_ternary`` this never materializes a period, so it stays cheap
    even when the period is astronomically long (for example denominators
    divisible by large powers of 2 and 5).  Terminates after the last nonzero
    digit; yields the 222... tail for x = 1.
    """
    r = check_unit_interval(x)
    if r == 1:
        while True:
            yield 2
    num, den = r.numerator, r.denominator
    while num:
        num *= 3
        d, num = divmod(num, den)
        yield d


def compose_chain(maps: Sequence, compose: Callable):
    """maps[0] o maps[1] o ... o maps[-1] for a nonempty sequence.

    ``compose(outer, inner)`` must be associative.  Pairwise rounds keep the
    operands of each round of equal size, which matters when a chain covers
    a period thousands of digits long: over integer leaves the big products
    are then balanced, as in a product tree, instead of one growing operand
    times one small leaf per step.
    """
    level = list(maps)
    while len(level) > 1:
        nxt = [compose(level[k], level[k + 1]) for k in range(0, len(level) - 1, 2)]
        if len(level) % 2:
            nxt.append(level[-1])
        level = nxt
    return level[0]


def affine_fixed_point(m: tuple[int, int, int]) -> tuple[int, int]:
    """The fixed point of v -> (s v + b)/d as the unreduced pair (b, d - s).

    The triple must contract, -d < s < d, or ``ConsistencyError`` is raised:
    a period composite of digit maps always does, and its fixed point is the
    value of the periodic tail.
    """
    s, b, d = m
    if not -d < s < d:
        raise ConsistencyError("period map is not a contraction")
    return b, d - s


# v -> 1 - v, the map that t -> 1 - t induces on f_a(t) for every a: f(1 - t) = 1 - f(t)
_COMPLEMENT_MAP = (-1, 1, 1)


def digit_triples(a: Fraction) -> tuple[tuple[int, int, int], ...]:
    """The digit maps of f_a, a = p/q, as integer triples indexed by the digit.

    Prepending digit d to a point with tail t sends v = f(t) to
    (s_d v + b_d)/q, with (s_d, b_d) = (p, 0), (q - 2p, p) and (p, q - p):
    the maps a v, a - (2a - 1) v and a v + 1 - a.  For a = 2/3 these are
    (2/3) v, (2 - v)/3 and (2 v + 1)/3; for a = 1/3 they are (v + d)/3.
    """
    p, q = a.numerator, a.denominator
    return ((p, 0, q), (q - 2 * p, p, q), (p, q - p, q))


def compose_triples(outer, inner):
    """outer o inner for integer triples (s, b, d), each the map v -> (s v + b)/d."""
    so, bo, do = outer
    si, bi, di = inner
    return (so * si, so * bi + bo * di, do * di)


class _BlockLeaves(dict):
    """Composites of digit maps, keyed by their digits as bytes and built on
    first use: w maps to leaves[w[0]] o ... o leaves[w[-1]], with
    ``leaves[d]`` the map of digit d and ``compose(outer, inner)`` composing
    two maps.  A block is composed from its two memoized halves, so one of
    six digits costs one ``compose`` once its halves are known."""

    def __init__(self, compose: Callable, leaves: tuple) -> None:
        self.compose, self.leaves = compose, leaves

    def __missing__(self, w: bytes):
        h = len(w) // 2
        m = self[w] = self.compose(self[w[:h]], self[w[h:]]) if h else self.leaves[w[0]]
        return m


# tables of the last few (compose, leaves) pairs: they do not pile up over family
# parameters, and each holds at most the 1,092 blocks of one to six digits
_block_leaves = lru_cache(maxsize=4)(_BlockLeaves)


def block_maps(digits: bytes, compose: Callable, leaves: tuple) -> list:
    """The cached composite leaves[w[0]] o ... o leaves[w[-1]] of each six-digit
    block w of ``digits`` in order, the last block holding what is left: their
    ``compose_chain`` is the composite of all of ``digits``."""
    blocks = _block_leaves(compose, leaves)
    return [blocks[digits[k:k + 6]] for k in range(0, len(digits), 6)]


def half_period(period: bytes) -> tuple[bytes, bool]:
    """The digits a closure composes for a nonempty period, and whether they are
    its first half w: (w, True) when the period is w then its digit complement
    (0 <-> 2), since the periodic tail t is then 1 - t after w; else (period, False)."""
    h, odd = divmod(len(period), 2)
    w = period[:h]
    if odd or period[h:] != w.translate(_COMPLEMENT):
        return period, False
    return w, True


def close_chain(e: TernaryExpansion, a: Fraction) -> Fraction:
    """Value of f_a at the point with expansion e, under the maps ``digit_triples(a)``.

    The periodic tail value (0 for a terminating expansion) is the
    ``affine_fixed_point`` of the ``compose_chain`` of the ``block_maps`` of
    its ``half_period``, with the leaf v -> 1 - v appended if that is the
    first half.  The preperiod's chain carries it to the point.  Both are
    unreduced integer triples, so the one gcd is in the final Fraction,
    which matters for long periods.
    """
    maps = digit_triples(a)
    num, den = 0, 1  # the tail value num/den
    if e.period:
        digits, halved = half_period(e.period)
        leaves = block_maps(digits, compose_triples, maps)
        if halved:
            leaves.append(_COMPLEMENT_MAP)
        num, den = affine_fixed_point(compose_chain(leaves, compose_triples))
    if e.preperiod:
        s, b, d = compose_chain(block_maps(e.preperiod, compose_triples, maps), compose_triples)
        num, den = s * num + b * den, d * den
    return Fraction(num, den)


_BASE3_MEMBER = Fraction(1, 3)


def from_ternary(e: TernaryExpansion) -> Fraction:
    """Exact value of a canonical expansion: the ``close_chain`` of the family
    member a = 1/3, whose digit maps are v -> (v + d)/3 and whose limit
    function is the identity."""
    return close_chain(e, _BASE3_MEMBER)
