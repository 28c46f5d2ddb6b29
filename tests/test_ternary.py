"""Rational / base-3 / affine foundation tests.

The independent oracle for expansions is digit-by-digit floor extraction:
for x in [0, 1), digit j equals floor(x * 3**j) - 3 * floor(x * 3**(j-1)),
computed with exact rationals and no long division.
"""

from fractions import Fraction
from functools import reduce
from itertools import islice, product
from math import floor
import random
import time

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from bourbaki import antiderivative, function, ternary
from bourbaki.errors import ConsistencyError, DigitError, DomainError, ResourceLimitError
from bourbaki.ternary import (
    TernaryExpansion,
    affine_fixed_point,
    block_maps,
    check_digits,
    check_unit_interval,
    compose_chain,
    compose_triples,
    digit_stream,
    digit_triples,
    from_ternary,
    to_ternary,
)


def floor_digits(x: Fraction, n: int) -> list[int]:
    """First n base-3 digits of x in [0, 1) by pure floor arithmetic."""
    return [floor(x * 3**j) - 3 * floor(x * 3 ** (j - 1)) for j in range(1, n + 1)]


def prefix(e: TernaryExpansion, n: int) -> list[int]:
    """The first n digits of e: the preperiod, then the period repeated
    (fewer when the expansion terminates sooner)."""
    return list((e.preperiod + e.period * n)[:n])


unit_fractions = st.fractions(min_value=0, max_value=1, max_denominator=10**4)


def _check_minimality(period: bytes) -> None:
    """TernaryExpansion accepts a nonzero period iff it is no power u**k, k > 1."""
    if not any(period):
        return
    L = len(period)
    if any(period == period[:d] * (L // d) for d in range(1, L) if not L % d):
        with pytest.raises(DigitError, match="^period is not minimal$"):
            TernaryExpansion(b"", period)
    else:
        assert TernaryExpansion(b"", period).period == period


class TestToTernary:
    @pytest.mark.parametrize(
        "x,pre,per",
        [
            (Fraction(0), (), ()),
            (Fraction(1), (), (2,)),
            (Fraction(1, 3), (1,), ()),
            (Fraction(2, 3), (2,), ()),
            (Fraction(1, 2), (), (1,)),
            (Fraction(1, 4), (), (0, 2)),
            (Fraction(1, 7), (), (0, 1, 0, 2, 1, 2)),
            (Fraction(1, 6), (0,), (1,)),
            (Fraction(5, 8), (), (1, 2)),
            (Fraction(1, 10), (), (0, 0, 2, 2)),
            (Fraction(7, 9), (2, 1), ()),
        ],
    )
    def test_known_expansions(self, x, pre, per):
        e = to_ternary(x)
        assert (e.preperiod, e.period) == (bytes(pre), bytes(per))

    @given(unit_fractions)
    @settings(deadline=None)
    def test_digit_prefix_matches_floor_oracle(self, x):
        if x == 1:
            return  # the floor oracle applies on [0, 1) only
        p = prefix(to_ternary(x), 30)
        assert p + [0] * (30 - len(p)) == floor_digits(x, 30)

    @given(st.fractions(min_value=0, max_value=1, max_denominator=10**6))
    @settings(deadline=None, max_examples=60)
    def test_round_trip_large_denominators(self, x):
        assert from_ternary(to_ternary(x)) == x

    @given(unit_fractions)
    @settings(deadline=None)
    def test_round_trip(self, x):
        assert from_ternary(to_ternary(x)) == x

    def test_period_length_is_multiplicative_order(self):
        for q in (2, 5, 7, 11, 13, 80, 91, 121, 700, 9973):
            q_free = q
            while q_free % 3 == 0:
                q_free //= 3
            e = to_ternary(Fraction(1, q))
            if q_free == 1:
                assert e.period == b""
                continue
            order = 1
            acc = 3 % q_free
            while acc != 1:
                acc = acc * 3 % q_free
                order += 1
            assert len(e.period) == order
            assert order <= q

    def test_deep_preperiod_in_one_pass(self):
        v = 20000
        x = Fraction(3**v - 2, 3**v)
        start = time.perf_counter()
        e = to_ternary(x)
        elapsed = time.perf_counter() - start
        assert e.period == b""
        assert list(e.preperiod) == list(islice(digit_stream(x), v))
        assert elapsed < 3, f"to_ternary took {elapsed:.2f} s for a {v}-digit preperiod"

    def test_long_preperiod_is_read_by_halving(self):
        # 3**v is found by repeated squaring and the v digits by recursive
        # halving; one divmod by 3 per digit would be quadratic in v
        v = 200_000
        x = Fraction(3**v - 2, 3**v)
        start = time.perf_counter()
        e = to_ternary(x)
        elapsed = time.perf_counter() - start
        assert e.period == b""
        assert e.preperiod == b"\x02" * (v - 1) + b"\x01"
        assert elapsed < 3, f"to_ternary took {elapsed:.2f} s for a {v}-digit preperiod"

    @pytest.mark.parametrize("pre", [*range(14), 100])
    def test_preperiod_digits_of_every_width(self, pre):
        # x = (n + 1/7)/3**pre reads the pre digits of n before the period of 1/7;
        # n's last digit is not 2, the period's last, or the preperiod would shrink
        n = (3**pre - 1) * 5 // 7
        n -= n % 3 == 2
        e = to_ternary((n + Fraction(1, 7)) / 3**pre)
        assert list(e.preperiod) == [n // 3 ** (pre - 1 - k) % 3 for k in range(pre)]
        assert e.period == to_ternary(Fraction(1, 7)).period

    @given(st.integers(0, 20000), st.integers(0, 2**64))
    @settings(deadline=None, max_examples=40)
    @example(1000, 0)
    @example(1001, 0)
    @example(4301, 0)
    @example(20000, 0)
    def test_place_value_inverts_the_preperiod_digits(self, width, seed):
        # n < 3**width read as the preperiod of (n + t)/3**width, then back:
        # past the 1,000-digit leaves and Python's 4,300-digit str-to-int limit;
        # the tail t = 0.111... or 0.0202... differs from n in its last digit;
        # seed 0 stands for the all-2 n
        n = random.Random(seed).randrange(3**width) if seed else 3**width - 1
        tail = Fraction(1, 4 if n % 3 == 1 else 2)
        digits = ternary._digits(ternary.read_point((n + tail) / 3**width)[0])
        assert len(digits) == width
        assert ternary._base3_value(digits) == n

    def test_preperiod_budget(self, monkeypatch):
        monkeypatch.setattr(ternary, "MAX_PREPERIOD_DIGITS", 6)
        assert len(to_ternary(Fraction(1, 2 * 3**6)).preperiod) == 6
        for x in (Fraction(1, 3**7), Fraction(1, 2 * 3**7), Fraction(5, 3**20)):
            with pytest.raises(ResourceLimitError):
                to_ternary(x)

    def test_preperiod_budget_at_the_real_cap(self):
        with pytest.raises(ResourceLimitError):
            to_ternary(Fraction(1, 3 ** (ternary.MAX_PREPERIOD_DIGITS + 1)))

    # the cap bounds the full period, also when the division stops at its half
    @pytest.mark.parametrize(
        ("q", "digits", "halved"),
        [(1999891, 1999890, True), (3999971, 1999985, False)],
        ids=["antiperiodic", "odd-period"],
    )
    def test_period_just_inside_the_real_cap(self, q, digits, halved):
        assert digits <= ternary.MAX_PERIOD_DIGITS
        period = ternary.read_point(Fraction(1, q))[3]
        assert period.halved is halved
        assert (6 * len(period.blocks) - 6 + period.last) << halved == digits

    # 1/2000081: a half period of 1,000,040 digits, refused once read;
    # 1/4000043: 2,000,021 digits, refused when the division passes the cap
    @pytest.mark.parametrize("q", [2000081, 4000043], ids=["antiperiodic", "odd-period"])
    def test_period_budget_at_the_real_cap(self, q):
        with pytest.raises(ResourceLimitError):
            ternary.read_point(Fraction(1, q))

    def test_rejects_out_of_domain(self):
        with pytest.raises(DomainError):
            to_ternary(Fraction(3, 2))
        with pytest.raises(DomainError):
            to_ternary(Fraction(-1, 4))
        with pytest.raises(DomainError):
            to_ternary(0.5)

    def test_antiperiodic_period_is_read_by_half(self, monkeypatch):
        # 7/49999 has a period of 49,998 digits, its first half then that
        # half's complement: the long division stops after the first half
        calls = []

        def counting_divmod(a, b):
            calls.append(b)
            return divmod(a, b)

        monkeypatch.setattr(ternary, "divmod", counting_divmod, raising=False)
        assert len(to_ternary(Fraction(7, 49999)).period) == 49998
        # one split of 7/49999 into whole and remainder, then one per six digits
        assert calls.count(49999) == 1 + -(-24999 // 6)

    def test_period_budget(self, monkeypatch):
        monkeypatch.setattr(ternary, "MAX_PERIOD_DIGITS", 6)
        assert len(to_ternary(Fraction(1, 7)).period) == 6
        with pytest.raises(ResourceLimitError):
            to_ternary(Fraction(1, 17))

    @pytest.mark.parametrize("cap,passes", [(16, True), (15, False), (10, False)])
    def test_period_budget_bounds_the_full_period(self, monkeypatch, cap, passes):
        # 1/17 has a period of 16 digits, the complement of its first 8 doubled;
        # at cap 10 only the half of the period would fit
        monkeypatch.setattr(ternary, "MAX_PERIOD_DIGITS", cap)
        if passes:
            assert len(to_ternary(Fraction(1, 17)).period) == 16
        else:
            with pytest.raises(ResourceLimitError):
                to_ternary(Fraction(1, 17))

    @pytest.mark.parametrize("x", [True, False, 0.5])
    def test_unit_interval_rejects_inexact_types(self, x):
        with pytest.raises(DomainError):
            check_unit_interval(x)


class TestCanonicalForm:
    @pytest.mark.parametrize(
        "pre,per",
        [
            ((3,), ()),
            ((), (0,)),
            ((), (0, 0)),
            ((1, 0), ()),
            ((), (1, 1)),
            ((), (1, 2, 1, 2)),
            ((1,), (2, 1)),  # preperiod could be folded into the period
            ((1,), (2,)),  # all-2 tail collapses to a terminating expansion
            ((), (1.0,)),  # digits are the ints 0, 1 and 2, nothing equal to them
            ((2.0,), ()),
            ((), (True,)),
            ((), ("1",)),
        ],
    )
    def test_rejects_noncanonical(self, pre, per):
        with pytest.raises(DigitError):
            TernaryExpansion(pre, per)

    @given(st.one_of(
        st.lists(st.integers(0, 2), min_size=1, max_size=40),
        st.builds(lambda w, k: w * k,
                  st.lists(st.integers(0, 2), min_size=1, max_size=10),
                  st.integers(2, 4)),
    ).filter(any))
    @settings(deadline=None, max_examples=300)
    def test_period_must_be_primitive(self, word):
        n = len(word)
        # Oracle: the word is a power of one of its proper divisor-length prefixes.
        power = any(n % d == 0 and word == word[:d] * (n // d) for d in range(1, n))
        if power:
            with pytest.raises(DigitError):
                TernaryExpansion((), tuple(word))
        else:
            TernaryExpansion((), tuple(word))

    @pytest.mark.parametrize("n", range(1, 9))
    def test_minimality_on_every_short_word(self, n):
        # the constructor's rule, w is a power of a shorter word iff it occurs in
        # ww at 0 < k < |w| (Lyndon and Schuetzenberger), against the definition
        for digits in product(range(3), repeat=n):
            _check_minimality(bytes(digits))

    @given(
        st.lists(st.integers(0, 2), min_size=1, max_size=12),
        st.integers(1, 7),
        st.none() | st.tuples(st.integers(0, 10**4), st.integers(1, 2)),
    )
    @settings(deadline=None, max_examples=300)
    @example([0, 1], 2, None)  # L = 4 = 2**2
    @example([1, 0, 1], 3, None)  # L = 9
    @example([0, 1, 2, 2, 1], 5, None)  # L = 25
    @example([1, 0, 2, 2, 1], 5, (7, 1))
    @example([2, 1, 0], 3, (4, 2))
    @example([1], 7, None)  # prime L
    @example([1, 0, 2, 1, 1, 0, 2], 1, None)
    @example([1, 2], 6, (11, 1))
    def test_minimality_on_powers(self, u, k, change):
        # u**k, or u**k with one digit moved by 1 or 2 (mod 3)
        w = bytearray(u * k)
        if change:
            at, step = change
            w[at % len(w)] = (w[at % len(w)] + step) % 3
        _check_minimality(bytes(w))

    @given(unit_fractions)
    @settings(deadline=None)
    def test_construction_output_is_accepted(self, x):
        e = to_ternary(x)
        TernaryExpansion(e.preperiod, e.period)  # must not raise


class TestCheckDigits:
    def test_returns_bytes(self):
        assert check_digits([0, 1, 2]) == b"\x00\x01\x02"
        assert check_digits(iter((2, 0))) == b"\x02\x00"
        assert check_digits(()) == b""
        assert check_digits(bytearray(b"\x01")) == b"\x01"
        assert type(check_digits(bytearray(b"\x01"))) is bytes
        digits = b"\x02\x01"
        assert check_digits(digits) is digits

    @pytest.mark.parametrize(
        "digits",
        [5, None, (True,), (0, False), (-1,), (0, 3), (1.0,), "1", b"\x03", (256,)],
    )
    def test_rejects(self, digits):
        with pytest.raises(DigitError):
            check_digits(digits)


class TestFromTernary:
    @pytest.mark.parametrize(
        "pre,per,value",
        [
            ((), (), Fraction(0)),
            ((), (2,), Fraction(1)),
            ((1,), (), Fraction(1, 3)),
            ((), (1,), Fraction(1, 2)),
            ((), (0, 2), Fraction(1, 4)),
            ((), (0, 1, 0, 2, 1, 2), Fraction(1, 7)),
            ((0,), (1,), Fraction(1, 6)),
        ],
    )
    def test_known_values(self, pre, per, value):
        assert from_ternary(TernaryExpansion(pre, per)) == value

    @given(st.lists(st.integers(0, 2), max_size=30), st.lists(st.integers(0, 2), max_size=30))
    @settings(deadline=None, max_examples=300)
    def test_matches_positional_oracle(self, pre, per):
        try:
            e = TernaryExpansion(tuple(pre), tuple(per))
        except DigitError:
            e = None
        assume(e is not None)
        # Oracle: the preperiod read as a base-3 integer, plus the periodic
        # tail summed as a geometric series.
        m = len(pre)
        value = Fraction(int("0" + "".join(map(str, pre)), 3), 3**m)
        if per:
            value += Fraction(int("".join(map(str, per)), 3), (3 ** len(per) - 1) * 3**m)
        assert from_ternary(e) == value

    def test_long_period_geometric_sum(self):
        e = to_ternary(Fraction(1, 9973))
        block = sum(d * Fraction(1, 3) ** (j + 1) for j, d in enumerate(e.period))
        ratio = Fraction(1, 3) ** len(e.period)
        assert block / (1 - ratio) == Fraction(1, 9973)


small_ints = st.integers(min_value=-40, max_value=40)
# integer triples (s, b, d), each the map v -> (s v + b)/d
triples = st.tuples(small_ints, small_ints, st.integers(min_value=1, max_value=40))


def apply(m, v: Fraction) -> Fraction:
    s, b, d = m
    return (s * v + b) / d


class TestAffine:
    def test_compose_example(self):
        assert compose_triples((2, 0, 3), (2, 1, 3)) == (4, 2, 9)

    @given(triples, triples, triples)
    def test_compose_associative(self, a, b, c):
        assert compose_triples(compose_triples(a, b), c) == compose_triples(
            a, compose_triples(b, c)
        )

    @given(triples, triples, st.fractions(min_value=-4, max_value=4, max_denominator=50))
    def test_compose_applies_inner_first(self, outer, inner, v):
        assert apply(compose_triples(outer, inner), v) == apply(outer, apply(inner, v))

    @pytest.mark.parametrize(
        "slope,intercept,fp",
        [
            (Fraction(4, 9), Fraction(2, 9), Fraction(2, 5)),
            (Fraction(-1, 3), Fraction(2, 3), Fraction(1, 2)),
            (Fraction(0), Fraction(5, 7), Fraction(5, 7)),
        ],
    )
    def test_fixed_point_examples(self, slope, intercept, fp):
        d = slope.denominator * intercept.denominator
        num, den = affine_fixed_point((int(slope * d), int(intercept * d), d))
        assert Fraction(num, den) == fp

    @given(triples)
    @example((-3, 1, 3))  # v -> 1/3 - v has a fixed point but is no contraction
    @example((3, 1, 3))
    def test_fixed_point_is_fixed(self, m):
        s, _, d = m
        if not -d < s < d:
            with pytest.raises(ConsistencyError):
                affine_fixed_point(m)
        else:
            v = Fraction(*affine_fixed_point(m))
            assert apply(m, v) == v

    @given(st.lists(triples, min_size=1, max_size=9))
    def test_chain_matches_sequential_composition(self, maps):
        seq = maps[0]
        for m in maps[1:]:
            seq = compose_triples(seq, m)
        assert compose_chain(maps, compose_triples) == seq


# family parameters a = p/q, 0 < a < 1, q <= 100
family_as = st.fractions(min_value=0, max_value=1, max_denominator=100).filter(lambda a: 0 < a < 1)


class TestBlockMaps:
    @given(family_as)
    @settings(deadline=None, max_examples=30)
    def test_f_a_rows_are_the_digit_fold(self, a):
        # column N of f_a's level-n table is the composite of the digit maps of
        # the n-digit block of value N, unreduced: (1, 0, 1) is the empty block
        rows = function.block_rows(function.FamilyParam(a))
        assert len(rows) == 7
        for n, row in enumerate(rows):
            folds = [
                reduce(compose_triples, [digit_triples(a)[d] for d in w], (1, 0, 1))
                for w in product(range(3), repeat=n)
            ]
            assert list(row) == folds

    @given(
        st.lists(st.integers(0, 728), min_size=1, max_size=7),
        st.integers(1, 6),
        family_as,
    )
    def test_blocks_compose_to_the_digit_fold(self, blocks, last, a):
        # f_a's integer triples and F's block constants, each looked up in its
        # rows and checked against the digit-by-digit fold of its level-1 row:
        # the last block's digits past ``last`` are not read
        digits = [w // 3 ** (5 - k) % 3 for w in blocks for k in range(6)]
        digits = digits[: 6 * len(blocks) - 6 + last]
        for compose, rows in (
            (compose_triples, function.block_rows(function.FamilyParam(a))),
            (antiderivative._compose_blocks, antiderivative._rows()),
        ):
            maps = block_maps(ternary.Reading(blocks, last), rows)
            assert len(maps) == len(blocks)
            fold = reduce(compose, [rows[1][d] for d in digits])
            assert compose_chain(maps, compose) == fold
