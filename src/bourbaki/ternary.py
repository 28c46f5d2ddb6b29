"""Canonical base-3 expansions and the integer closures that evaluate them.

Every closure composes unreduced integer triples (s, b, d), each the map
v -> (s v + b)/d, and reduces once, in the ``Fraction`` it returns:

* ``read_point`` and ``read_period`` -- the one reader of a rational's
  base-3 digits, in one format: a ``Reading`` of six-digit block values.
  The preperiod is read by recursive halving, the period by long division
  by 3**6.  When 3**(L/2) = -1 mod q', the period's second half is the
  digit complement (0 <-> 2) of the first, and the division stops at the
  half.
* ``TernaryExpansion`` -- the canonical expansion, one per rational, with
  ``bytes`` digits (``check_digits`` is the one test of a digit);
  ``to_ternary`` joins it from ``read_point``, and no closure of a point
  builds one.  ``from_ternary`` values it by place value.
* ``block_maps`` -- each block's composite of digit maps, for any
  associative ``compose``, from one table per digit algebra indexed by
  block value.
* ``compose_chain`` -- the one product tree for every chain of block maps.
* ``close_triples`` -- the one closing step: the ``affine_fixed_point`` of
  the period's composite, carried by the preperiod's into one ``Fraction``.
* ``digit_triples`` -- the one statement of the digit maps of f_a, as
  integer triples (s_d, b_d, q) with f((d + t)/3) = (s_d f(t) + b_d)/q for
  a = p/q; the antiderivative's digit maps are derived from them.
* ``close_point`` -- f_a at a rational point, from ``read_point``'s blocks;
  the second half of an antiperiodic period is the leaf v -> 1 - v, since
  f(1 - t) = 1 - f(t) for every f_a.

No floating point is used anywhere in this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from typing import Callable, Iterator, NamedTuple, Sequence

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


def _base3_blocks(n: int, count: int) -> list[int]:
    """The ``count`` six-digit block values (< 3**6) of n < 3**(6 count),
    most significant first.

    Recursive halving: one ``divmod`` by 3**(6 (count // 2)) splits off the
    low half, down to single blocks, so a long run costs a few full-size
    divisions per halving level rather than one per block.
    """
    if count == 1:
        return [n]
    h = count // 2
    hi, lo = divmod(n, 729**h)
    return _base3_blocks(hi, count - h) + _base3_blocks(lo, h)


class Reading(NamedTuple):
    """A run of base-3 digits as ``read_point`` reads it: ``blocks`` holds
    the six-digit block values (< 3**6), most significant first, and
    ``last`` the number of the last block's leading digits (1 to 6) that
    end the run.  A period also carries ``rems``, the division's remainder
    after each block but the last, and ``halved``, whether the division
    stopped at the half period."""

    blocks: Sequence[int]
    last: int
    rems: Sequence[int] = ()
    halved: bool = False


def read_period(start: int, q_free: int) -> Reading:
    """The ``Reading`` of the periodic tail start/q', 0 < start < q'.

    The remainder after k digits is
    start * 3**k mod q', so one dict lookup per block, keyed by
    start * 3**e for e = 0 .. 5, finds where the minimal period ends.  The
    dict also holds q' - start: reaching it after h digits leaves the tail
    1 - start/q', so the period is antiperiodic, of 2h digits, its second
    half the digit complement (0 <-> 2) of the first.  A period over
    MAX_PERIOD_DIGITS digits (the full period, not its half) raises
    ``ResourceLimitError`` during the division.
    """
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
    blocks, rems = [], []
    num = start
    for _ in range(cap // 6 + 1):
        blk, num = divmod(num * 729, q_free)
        blocks.append(blk)
        if num in ends:
            break
        rems.append(num)
    else:
        raise ResourceLimitError(f"base-3 period over the cap of {cap} digits")
    past, halved = ends[num]
    if (6 * len(blocks) - past) << halved > cap:
        raise ResourceLimitError(f"base-3 period over the cap of {cap} digits")
    return Reading(blocks, 6 - past, rems, halved)


# the tail 1 = 0.222...: the one-digit period 2, which long division never gives
_ALL_TWOS = Reading((728,), 1)


def read_point(x) -> tuple[Reading | None, int, int, Reading | None]:
    """The base-3 digits of a rational x in [0, 1] as (pre, rho, q', period).

    Write the reduced x = p/q with q = 3**v * q' and q' coprime to 3
    (``_split_threes``).  One ``divmod`` splits 3**v * x = p/q' into
    whole + rho/q': pre is the ``Reading`` of the v base-3 digits of
    whole (< 3**v), its last block left-aligned as a period's is
    (``_base3_blocks``, None when v = 0), rho/q' is the purely periodic
    tail, and period is its ``read_period`` (None when rho = 0).  x = 1
    reads as rho = q' = 1 with the period 2.  A preperiod over
    MAX_PREPERIOD_DIGITS digits raises ``ResourceLimitError`` before any
    digit is read.
    """
    r = check_unit_interval(x)
    if r == 1:
        return None, 1, 1, _ALL_TWOS
    v, q_free = _split_threes(r.denominator)
    whole, rho = divmod(r.numerator, q_free)
    pre = Reading(_base3_blocks(whole * 3 ** (-v % 6), -(-v // 6)), (v - 1) % 6 + 1) if v else None
    return pre, rho, q_free, read_period(rho, q_free) if rho else None


def _digits(reading: Reading | None) -> bytes:
    """The digits of a ``Reading`` as ``bytes`` (none for None): its blocks
    cut to its length, followed by their digit complement when the
    division stopped at the half period."""
    if reading is None:
        return b""
    blocks = reading.blocks
    ds = b"".join(map(_SIX_DIGIT_BLOCKS.__getitem__, blocks))[: 6 * len(blocks) - 6 + reading.last]
    if reading.halved:
        ds += ds.translate(_COMPLEMENT)
    return ds


def to_ternary(x) -> TernaryExpansion:
    """Canonical base-3 expansion of a rational in [0, 1], joined from
    ``read_point``'s readings of the preperiod and the period."""
    pre, _, _, period = read_point(x)
    return TernaryExpansion(_digits(pre), _digits(period))


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


class _Row(dict):
    """The composites of the n-digit blocks of one digit algebra, keyed by the
    block's base-3 value and built on first use: a block is ``compose`` of
    its high and low parts, looked up in the rows of their lengths."""

    def __init__(self, compose: Callable, high, low, split: int) -> None:
        self.compose, self.high, self.low, self.split = compose, high, low, split

    def __missing__(self, value: int):
        hi, lo = divmod(value, self.split)
        m = self[value] = self.compose(self.high[hi], self.low[lo])
        return m


@lru_cache(maxsize=4)
def _block_table(compose: Callable, leaves: tuple) -> tuple:
    """rows[n][v], n = 1 .. 6: the composite leaves[w[0]] o ... o leaves[w[-1]]
    of the n-digit block w of base-3 value v.  Row 1 is ``leaves``; the
    six-digit row joins three-digit halves, and the shorter rows serve the
    last block of a ``Reading``.  The cache keeps the tables of
    the last few algebras, each of at most 3 + 9 + ... + 729 = 1,092 entries."""
    rows = [None, leaves]
    for n in range(2, 7):
        h = n // 2
        rows.append(_Row(compose, rows[h], rows[n - h], 3 ** (n - h)))
    return tuple(rows)


def block_maps(reading: Reading, compose: Callable, leaves: tuple) -> list:
    """The composite leaves[w[0]] o ... o leaves[w[-1]] of each block w of a
    ``Reading`` in order, from the table of (compose, leaves): six digits
    per block, and the last block's ``last`` leading digits.  Their
    ``compose_chain`` is the composite of the whole run."""
    rows = _block_table(compose, leaves)
    blocks, last = reading.blocks, reading.last
    maps = list(map(rows[6].__getitem__, blocks[:-1]))
    maps.append(rows[last][blocks[-1] // 3 ** (6 - last)])
    return maps


def close_triples(period: list, pre: list, scale: int = 1) -> Fraction:
    """The one closing step of every closure, over integer triples: the
    ``affine_fixed_point`` of the ``compose_chain`` of ``period`` (0 for an
    empty period) is the tail's value, the composite of ``pre`` (none for an
    empty list) carries it to the point, and the value over ``scale`` is
    reduced once, in the ``Fraction`` returned, which matters for long
    periods."""
    num, den = 0, 1
    if period:
        num, den = affine_fixed_point(compose_chain(period, compose_triples))
    if pre:
        s, b, d = compose_chain(pre, compose_triples)
        num, den = s * num + b * den, d * den
    return Fraction(num, scale * den)


def close_point(x, a: Fraction) -> Fraction:
    """f_a at a rational x in [0, 1]: ``close_triples`` of the ``block_maps``
    of ``read_point``'s period and preperiod under the maps
    ``digit_triples(a)``, with the leaf v -> 1 - v appended when the period
    leaves cover the first half of an antiperiodic period."""
    pre, _, _, period = read_point(x)
    maps = digit_triples(a)
    leaves = block_maps(period, compose_triples, maps) if period else []
    if period and period.halved:
        leaves.append(_COMPLEMENT_MAP)
    return close_triples(leaves, block_maps(pre, compose_triples, maps) if pre else [])


# base-3 digit values -> the ASCII digits that int(..., 3) reads
_DIGIT_CHARS = bytes.maketrans(b"\x00\x01\x02", b"012")


def _base3_value(digits: bytes) -> int:
    """The int with the base-3 ``digits``, most significant first (0 for
    none): halves down to leaves of at most 1,000 digits, each read by
    ``int(..., 3)``, far below Python's limit on str-to-int digits."""
    n = len(digits)
    if n <= 1000:
        return int(b"0" + digits.translate(_DIGIT_CHARS), 3)
    h = n // 2
    return _base3_value(digits[:-h]) * 3**h + _base3_value(digits[-h:])


def from_ternary(e: TernaryExpansion) -> Fraction:
    """Exact value of a canonical expansion by place value: a preperiod P of
    m digits and a period W of L digits make (P + W/(3**L - 1))/3**m."""
    den = 3 ** len(e.period) - 1 if e.period else 1
    num = _base3_value(e.preperiod) * den + _base3_value(e.period)
    return Fraction(num, den * 3 ** len(e.preperiod))
