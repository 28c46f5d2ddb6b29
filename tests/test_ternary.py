"""Rational / base-3 / affine foundation tests.

The independent oracle for expansions is digit-by-digit floor extraction:
for x in [0, 1), digit j equals floor(x * 3**j) - 3 * floor(x * 3**(j-1)),
computed with exact rationals and no long division.
"""

from fractions import Fraction
from math import floor

import pytest
from hypothesis import given, settings, strategies as st

from bourbaki import ternary
from bourbaki.errors import DigitError, DomainError, ResourceLimitError, SingularMapError
from bourbaki.ternary import (
    IDENTITY,
    AffineMap,
    TernaryExpansion,
    affine_compose,
    check_digits,
    check_unit_interval,
    affine_fixed_point,
    compose_chain,
    from_ternary,
    to_ternary,
)


def floor_digits(x: Fraction, n: int) -> list[int]:
    """First n base-3 digits of x in [0, 1) by pure floor arithmetic."""
    return [floor(x * 3**j) - 3 * floor(x * 3 ** (j - 1)) for j in range(1, n + 1)]


def prefix(e: TernaryExpansion, n: int) -> list[int]:
    out = []
    for d in e.digits():
        out.append(d)
        if len(out) == n:
            break
    return out


unit_fractions = st.fractions(min_value=0, max_value=1, max_denominator=10**4)


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
        assert (e.preperiod, e.period) == (pre, per)

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
                assert e.period == ()
                continue
            order = 1
            acc = 3 % q_free
            while acc != 1:
                acc = acc * 3 % q_free
                order += 1
            assert len(e.period) == order
            assert order <= q

    def test_rejects_out_of_domain(self):
        with pytest.raises(DomainError):
            to_ternary(Fraction(3, 2))
        with pytest.raises(DomainError):
            to_ternary(Fraction(-1, 4))
        with pytest.raises(DomainError):
            to_ternary(0.5)

    def test_period_budget(self, monkeypatch):
        monkeypatch.setattr(ternary, "MAX_PERIOD_DIGITS", 6)
        assert len(to_ternary(Fraction(1, 7)).period) == 6
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

    @given(unit_fractions)
    @settings(deadline=None)
    def test_construction_output_is_accepted(self, x):
        e = to_ternary(x)
        TernaryExpansion(e.preperiod, e.period)  # must not raise


class TestCheckDigits:
    def test_returns_a_tuple(self):
        assert check_digits([0, 1, 2]) == (0, 1, 2)
        assert check_digits(iter((2, 0))) == (2, 0)
        assert check_digits(()) == ()

    @pytest.mark.parametrize("digits", [5, None, (True,), (0, False), (-1,), (0, 3), (1.0,), "1"])
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

    def test_long_period_geometric_sum(self):
        e = to_ternary(Fraction(1, 9973))
        block = sum(d * Fraction(1, 3) ** (j + 1) for j, d in enumerate(e.period))
        ratio = Fraction(1, 3) ** len(e.period)
        assert block / (1 - ratio) == Fraction(1, 9973)


small_rationals = st.fractions(min_value=-4, max_value=4, max_denominator=50)
affine_maps = st.builds(AffineMap, small_rationals, small_rationals)


class TestAffine:
    def test_compose_example(self):
        m = affine_compose(AffineMap(Fraction(2, 3), Fraction(0)),
                           AffineMap(Fraction(2, 3), Fraction(1, 3)))
        assert m == AffineMap(Fraction(4, 9), Fraction(2, 9))

    def test_identity_is_neutral(self):
        m = AffineMap(Fraction(3, 7), Fraction(-2, 5))
        assert affine_compose(IDENTITY, m) == m
        assert affine_compose(m, IDENTITY) == m

    @given(affine_maps, affine_maps, affine_maps)
    def test_compose_associative(self, a, b, c):
        assert affine_compose(affine_compose(a, b), c) == affine_compose(
            a, affine_compose(b, c)
        )

    @given(affine_maps, affine_maps, small_rationals)
    def test_compose_applies_inner_first(self, outer, inner, v):
        assert affine_compose(outer, inner)(v) == outer(inner(v))

    @pytest.mark.parametrize(
        "slope,intercept,fp",
        [
            (Fraction(4, 9), Fraction(2, 9), Fraction(2, 5)),
            (Fraction(-1, 3), Fraction(2, 3), Fraction(1, 2)),
            (Fraction(0), Fraction(5, 7), Fraction(5, 7)),
        ],
    )
    def test_fixed_point_examples(self, slope, intercept, fp):
        assert affine_fixed_point(AffineMap(slope, intercept)) == fp

    @given(affine_maps)
    def test_fixed_point_is_fixed(self, m):
        if m.slope == 1:
            with pytest.raises(SingularMapError):
                affine_fixed_point(m)
        else:
            v = affine_fixed_point(m)
            assert m(v) == v

    def test_slope_one_rejected(self):
        with pytest.raises(SingularMapError):
            affine_fixed_point(AffineMap(Fraction(1), Fraction(1, 3)))

    @given(st.lists(affine_maps, max_size=9))
    def test_chain_matches_sequential_composition(self, maps):
        seq = IDENTITY
        for m in maps:
            seq = affine_compose(seq, m)
        assert compose_chain(maps) == seq
