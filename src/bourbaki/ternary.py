"""Exact rational arithmetic, canonical base-3 expansions, and affine maps.

Everything downstream is built from the objects here, over the stdlib
``fractions.Fraction``:

* ``TernaryExpansion`` -- the eventually periodic base-3 expansion of a
  rational in [0, 1], held in a canonical form so each rational has exactly
  one representation.
* ``AffineMap`` -- maps v -> slope * v + intercept over the rationals, with
  exact composition and fixed points.
* ``balanced_product`` -- the one product tree that every chain of digit
  maps is composed with, over ``AffineMap``s here and over unreduced integer
  tuples in the evaluators.

No floating point is used anywhere in this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Sequence

from .errors import (
    DigitError,
    DomainError,
    ParameterError,
    ResourceLimitError,
    SingularMapError,
)

_DIGITS = frozenset((0, 1, 2))
MAX_PERIOD_DIGITS = 2_000_000


def _as_rational(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    raise DomainError(f"expected an exact rational, got {type(x).__name__}")


def check_unit_interval(x, what: str = "x") -> Fraction:
    """Coerce to Fraction and require 0 <= x <= 1."""
    r = _as_rational(x)
    if r < 0 or r > 1:
        raise DomainError(f"{what} = {r} lies outside [0, 1]")
    return r


def check_index(i, what: str = "level", low: int = 0, cap: int | None = None) -> int:
    """Require an ``int`` (not ``bool``) i >= low; over ``cap`` is a resource limit."""
    if type(i) is not int or i < low:
        raise ParameterError(f"{what} must be an integer >= {low}, got {i!r}")
    if cap is not None and i > cap:
        raise ResourceLimitError(f"{what} {i} exceeds the supported cap {cap}")
    return i


def check_digits(digits, what: str = "digits") -> tuple[int, ...]:
    """The one test of what a base-3 digit is: the ints 0, 1 and 2.

    Takes any iterable and returns its digits as a tuple.  Bools, floats and
    strings are rejected even where they compare equal to a digit, and so is
    a non-iterable; each raises ``DigitError``.
    """
    try:
        ds = tuple(digits)
    except TypeError:
        raise DigitError(f"{what} must be an iterable of base-3 digits, got {digits!r}") from None
    if not {int}.issuperset(map(type, ds)) or not _DIGITS.issuperset(ds):
        raise DigitError(f"{what} must be the ints 0, 1 and 2")
    return ds


def _digits_to_int(digits: Sequence[int]) -> int:
    """Value of a digit string read as a base-3 integer.

    Split recursion keeps this subquadratic for the very long periods that
    denominators near 10**6 can produce.
    """
    n = len(digits)
    if n <= 64:
        acc = 0
        for d in digits:
            acc = acc * 3 + d
        return acc
    half = n // 2
    return _digits_to_int(digits[:half]) * pow(3, n - half) + _digits_to_int(digits[half:])


@dataclass(frozen=True)
class TernaryExpansion:
    """Canonical eventually periodic base-3 expansion of a rational in [0, 1].

    Digits are the ints 0, 1 and 2, never floats or bools.  Canonical form:

    * empty period means the expansion terminates, and then the preperiod
      does not end in 0;
    * a nonempty period is the minimal repeating block and is not all zeros;
    * the last preperiod digit differs from the last period digit (otherwise
      the preperiod could be shortened);
    * an all-2 tail only appears as the representation of 1 itself, which is
      the empty preperiod with period (2,).
    """

    preperiod: tuple[int, ...]
    period: tuple[int, ...]

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
            b = bytes(per)
            if (b + b).find(b, 1) != len(b):
                raise DigitError("period is not minimal")
            if pre and pre[-1] == per[-1]:
                raise DigitError("preperiod is not minimal (rotate the period instead)")
            if per == (2,) and pre:
                raise DigitError("an all-2 tail is only canonical for the value 1")
        elif pre and pre[-1] == 0:
            raise DigitError("terminating expansion must not end in digit 0")

    def digits(self) -> Iterator[int]:
        """Preperiod digits, then the period repeated forever (stops if terminating)."""
        yield from self.preperiod
        if self.period:
            while True:
                yield from self.period


def to_ternary(x) -> TernaryExpansion:
    """Canonical base-3 expansion of a rational in [0, 1].

    Write the reduced x = p/q with q = 3**v * q' and q' coprime to 3.  One
    ``divmod`` splits 3**v * x = p/q' into whole + start/q': the preperiod is
    the v base-3 digits of whole (< 3**v), and start/q' is the purely periodic
    tail.  Its period is read off by base-3 long division until the
    remainder returns to start -- at most q' steps, and the block found is
    automatically minimal.  A period over MAX_PERIOD_DIGITS digits raises
    ``ResourceLimitError`` during that division.
    """
    r = check_unit_interval(x)
    if r == 1:
        return TernaryExpansion((), (2,))
    p, q_free = r.numerator, r.denominator
    v = 0
    while q_free % 3 == 0:
        q_free //= 3
        v += 1
    whole, start = divmod(p, q_free)
    pre = [whole // 3**k % 3 for k in reversed(range(v))]
    per: list[int] = []
    if start:
        num = start
        for _ in range(MAX_PERIOD_DIGITS):
            num *= 3
            d, num = divmod(num, q_free)
            per.append(d)
            if num == start:
                break
        else:
            raise ResourceLimitError(f"base-3 period over the cap of {MAX_PERIOD_DIGITS} digits")
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


def from_ternary(e: TernaryExpansion) -> Fraction:
    """Exact value of a canonical expansion: preperiod part plus the periodic
    tail summed as a geometric series."""
    m = len(e.preperiod)
    value = Fraction(_digits_to_int(e.preperiod), 3**m)
    if e.period:
        length = len(e.period)
        value += Fraction(_digits_to_int(e.period), (3**length - 1) * 3**m)
    return value


@dataclass(frozen=True)
class AffineMap:
    """v -> slope * v + intercept over exact rationals."""

    slope: Fraction
    intercept: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "slope", _as_rational(self.slope))
        object.__setattr__(self, "intercept", _as_rational(self.intercept))

    def __call__(self, v) -> Fraction:
        return self.slope * _as_rational(v) + self.intercept


IDENTITY = AffineMap(1, 0)


def affine_compose(outer: AffineMap, inner: AffineMap) -> AffineMap:
    """The map v -> outer(inner(v))."""
    return AffineMap(outer.slope * inner.slope,
                     outer.slope * inner.intercept + outer.intercept)


def balanced_product(items: Sequence, compose: Callable):
    """items[0] o items[1] o ... o items[-1] for a nonempty sequence.

    ``compose(outer, inner)`` must be associative.  Pairwise rounds keep the
    operands of each round of equal size, which matters when a chain covers
    a period thousands of digits long: over integer leaves the big products
    are then balanced, as in a product tree, instead of one growing operand
    times one small leaf per step.
    """
    level = list(items)
    while len(level) > 1:
        nxt = [compose(level[k], level[k + 1]) for k in range(0, len(level) - 1, 2)]
        if len(level) % 2:
            nxt.append(level[-1])
        level = nxt
    return level[0]


def compose_chain(maps: Sequence[AffineMap]) -> AffineMap:
    """Compose maps[0] o maps[1] o ... o maps[-1] (identity for an empty chain)."""
    return balanced_product(maps, affine_compose) if maps else IDENTITY


def affine_fixed_point(m: AffineMap) -> Fraction:
    """The unique v with m(v) = v; requires slope != 1."""
    if m.slope == 1:
        raise SingularMapError("affine map with slope 1 has no unique fixed point")
    return m.intercept / (1 - m.slope)
