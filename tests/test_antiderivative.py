"""Antiderivative tests.

Frozen oracles, each checked by hand fixed-point algebra:
  F(1)   : v = (1/9)(5/2 + 1) + (2/9) v  ->  v = 1/2
  F(1/2) : v = (1/9)(2 - v)              ->  v = 1/5
  F(1/4) : v = 11/162 + (4/81) v         ->  v = 1/14
The table route (running trapezoid sums of f's tables) must reproduce the
same values at every shared grid point.
"""

from fractions import Fraction
import math

import pytest
from hypothesis import given, settings, strategies as st

from bourbaki import antiderivative
from bourbaki.antiderivative import (
    build_F_iterate,
    eval_F_exact,
    integral_closed_form,
    integral_symmetric,
    iter_F_iterates,
    range_integral,
)
from bourbaki.errors import ConsistencyError, OrderError, ParameterError, ResourceLimitError
from bourbaki.function import CLASSICAL, BreakpointTable, build_iterate, eval_exact
from bourbaki.prng import SplitMix64

F = Fraction

unit_fractions = st.fractions(min_value=0, max_value=1, max_denominator=400)


def _is_prime(n: int) -> bool:
    return all(n % k for k in range(2, math.isqrt(n) + 1))


# p/q with q = 3**v * q', q' a prime in [10**3, 2 * 10**4] and v <= 2: periods
# of up to 2 * 10**4 digits, with a preperiod of v digits.
long_period_fractions = st.builds(
    lambda qp, v: 3**v * qp, st.integers(10**3, 2 * 10**4).filter(_is_prime), st.integers(0, 2)
).flatmap(lambda q: st.integers(0, q).map(lambda p: F(p, q)))


class TestBuildFIterate:
    def test_level_zero(self):
        assert build_F_iterate(0).breakpoints == ((F(0), F(0)), (F(1), F(1, 2)))

    def test_level_one(self):
        assert build_F_iterate(1).breakpoints == (
            (F(0), F(0)),
            (F(1, 3), F(1, 9)),
            (F(2, 3), F(5, 18)),
            (F(1), F(1, 2)),
        )

    def test_level_two_value_at_one_ninth(self):
        assert build_F_iterate(2).y_at(1) == F(2, 81)

    def test_iterates_yield_every_level(self):
        tables = list(iter_F_iterates(6))
        assert [t.level for t in tables] == list(range(7))
        assert tables == [build_F_iterate(i) for i in range(7)]
        assert [t.y_denominator for t in tables] == [2 * 9**i for i in range(7)]

    def test_iterates_check_the_level_when_called(self):
        with pytest.raises(ResourceLimitError):
            iter_F_iterates(14)
        with pytest.raises(ParameterError):
            iter_F_iterates(-1)

    @pytest.mark.parametrize("i", [0, 1, 2, 3, 4, 5])
    def test_refinement_keeps_old_breakpoints(self, i):
        coarse = build_F_iterate(i)
        fine = build_F_iterate(i + 1)
        for k in range(3**i + 1):
            assert fine.y_at(3 * k) == coarse.y_at(k)

    @pytest.mark.parametrize("i", [0, 1, 2, 3, 4])
    def test_f_and_F_tables_differ(self, i):
        f_table, F_table = build_iterate(i), build_F_iterate(i)
        assert f_table != F_table and F_table != f_table
        assert F_table == build_F_iterate(i)
        # Same numerators over the same denominator: the kind alone differs.
        bare = BreakpointTable(i, F_table.y_numerators, F_table.y_denominator)
        assert bare == F_table
        assert BreakpointTable(i, F_table.y_numerators, F_table.y_denominator, CLASSICAL) != F_table
        with pytest.raises(TypeError):
            hash(F_table)

    @pytest.mark.parametrize("i", [0, 1, 3])
    def test_y_at_matches_breakpoints(self, i):
        for t in (build_iterate(i), build_F_iterate(i)):
            assert [t.y_at(k) for k in range(len(t))] == [y for _, y in t.breakpoints]
            assert [x for x, _ in t.breakpoints] == [F(k, 3**i) for k in range(len(t))]

    @pytest.mark.parametrize("i", [1, 2, 3, 4, 5, 6])
    def test_values_nondecreasing(self, i):
        t = build_F_iterate(i)
        ys = [t.y_at(k) for k in range(len(t))]
        assert all(a <= b for a, b in zip(ys, ys[1:]))

    def test_level_cap(self):
        with pytest.raises(ResourceLimitError):
            build_F_iterate(14)

    def test_corrupted_f_table_is_caught(self, monkeypatch):
        def shifted(i):
            t = build_iterate(i)
            ynums = list(t.y_numerators)
            ynums[1] += 1
            return BreakpointTable(i, ynums, t.y_denominator, t.param)

        monkeypatch.setattr(antiderivative, "build_iterate", shifted)
        with pytest.raises(ConsistencyError, match="F\\(1\\) = 1/2"):
            build_F_iterate(3)


class TestEvalFExact:
    @pytest.mark.parametrize(
        "x,value",
        [
            (F(0), F(0)),
            (F(1), F(1, 2)),
            (F(1, 3), F(1, 9)),
            (F(2, 3), F(5, 18)),
            (F(1, 2), F(1, 5)),
            (F(1, 4), F(1, 14)),
        ],
    )
    def test_known_values(self, x, value):
        assert eval_F_exact(x) == value

    def test_no_elementary_shortcut_point(self):
        # 1/7 has no listed closed form; the symmetric-interval identity
        # still pins the difference of the two evaluations exactly.
        assert eval_F_exact(F(6, 7)) - eval_F_exact(F(1, 7)) == F(1, 2) - F(1, 7)

    @pytest.mark.parametrize("i", [1, 2, 3, 4, 5, 6])
    def test_agrees_with_tables(self, i):
        t = build_F_iterate(i)
        for k in range(3**i + 1):
            assert t.y_at(k) == eval_F_exact(F(k, 3**i))

    def test_agrees_with_deep_table(self):
        # The table sums f's numerators and eval_F_exact composes F's digit
        # maps: the two routes share no F constant.
        i = 12
        t = build_F_iterate(i)
        rng = SplitMix64(12)
        ks = [0, 3**i] + [rng.next_below(3**i + 1) for _ in range(200)]
        for k in ks:
            assert t.y_at(k) == eval_F_exact(F(k, 3**i)), k

    @given(unit_fractions)
    @settings(deadline=None)
    def test_symmetric_interval_identity(self, x):
        assert eval_F_exact(1 - x) - eval_F_exact(x) == F(1, 2) - x

    @given(unit_fractions)
    @settings(deadline=None)
    def test_monotone(self, x):
        # F is an integral of a nonnegative function
        assert 0 <= eval_F_exact(x) <= F(1, 2)

    @given(unit_fractions | long_period_fractions, st.integers(min_value=1, max_value=5))
    @settings(deadline=None, max_examples=60)
    def test_left_scaling(self, x, i):
        assert eval_F_exact(x / 3**i) == F(2, 9) ** i * eval_F_exact(x)

    @given(unit_fractions | long_period_fractions, st.integers(min_value=1, max_value=5))
    @settings(deadline=None, max_examples=60)
    def test_mirrored_scaling(self, x, i):
        # Digit-1 action combined with the symmetric-interval identity.
        expected = F(2 ** (i - 1), 9**i) * (F(5, 2) - x - eval_F_exact(x))
        assert eval_F_exact((2 - x) / 3**i) == expected

    @given(unit_fractions | long_period_fractions, st.integers(min_value=1, max_value=5))
    @settings(deadline=None, max_examples=60)
    def test_right_scaling(self, x, i):
        expected = F(2 ** (i - 1), 9**i) * x + F(2, 9) ** i * eval_F_exact(x)
        assert eval_F_exact((2 + x) / 3**i) - eval_F_exact(F(2, 3**i)) == expected

    def test_digit_maps_are_derived_from_the_digit_triples(self):
        # (S, Y, V, D, N, P, K) with G(x) = (S G(t) + Y + V t)/D for x = (N + t)/P,
        # G = 2 F, read by hand off F's scaling identities at a = 2/3:
        #   F(t/3) = (2/9) F(t)                   G(x) = (2 G(t))/9
        #   F((1 + t)/3) = 1/9 + (2 t - F(t))/9   G(x) = (-G(t) + 2 + 4 t)/9
        #   F((2 + t)/3) = 5/18 + (t + 2 F(t))/9  G(x) = (2 G(t) + 5 + 2 t)/9
        maps = ((2, 0, 0, 9, 0, 3, 3), (-1, 2, 4, 9, 1, 3, 3), (2, 5, 2, 9, 2, 3, 3))
        assert antiderivative._DIGIT_MAPS == maps

    @pytest.mark.parametrize(
        "x,message",
        [
            (F(1, 7), "remainder walk"),  # period 010212: half route
            (F(1, 3), "the preperiod walk does not end at x"),  # terminating: 0.1
            (F(2, 13), "remainder walk"),  # period 011: full route
        ],
    )
    def test_corrupted_t_row_is_caught(self, monkeypatch, x, message):
        # Digit 1 reads as N = 1, so the tail after it is 3 x - 1; shift its N to 2.
        zero, _, two = antiderivative._DIGIT_MAPS
        monkeypatch.setattr(antiderivative, "_DIGIT_MAPS", (zero, (-1, 2, 4, 9, 2, 3, 3), two))
        with pytest.raises(ConsistencyError, match=message):
            eval_F_exact(x)


class TestIntegralSymmetric:
    @pytest.mark.parametrize(
        "x,value", [(F(0), F(1, 2)), (F(1, 2), F(0)), (F(1, 3), F(1, 6)), (F(3, 4), F(-1, 4))]
    )
    def test_values(self, x, value):
        assert integral_symmetric(x) == value

    @given(unit_fractions)
    @settings(deadline=None)
    def test_matches_antiderivative_difference(self, x):
        assert integral_symmetric(x) == eval_F_exact(1 - x) - eval_F_exact(x)


class TestRangeIntegral:
    def test_middle_third(self):
        assert range_integral(F(1, 3), F(2, 3)) == F(1, 6)

    def test_degenerate(self):
        assert range_integral(F(2, 5), F(2, 5)) == 0

    def test_whole_interval(self):
        assert range_integral(F(0), F(1)) == F(1, 2)

    def test_order_checked(self):
        with pytest.raises(OrderError):
            range_integral(F(2, 3), F(1, 3))


class TestIntegralClosedForm:
    @pytest.mark.parametrize(
        "case,i,x,value",
        [
            ("i", 1, F(1, 4), F(1, 14)),
            ("ii", 1, F(1, 2), F(1, 5)),
            ("iii", 1, F(1, 2), F(1, 5)),
            ("iv", 2, F(1, 4), F(1, 14)),
        ],
    )
    def test_known_pairs(self, case, i, x, value):
        assert integral_closed_form(case, i) == (x, value)

    def test_matches_evaluator(self):
        for i in range(1, 7):
            for case in ("i", "ii", "iii", "iv"):
                x, v = integral_closed_form(case, i)
                assert eval_F_exact(x) == v, (case, i)

    def test_validation(self):
        with pytest.raises(ParameterError):
            integral_closed_form("v", 1)
        with pytest.raises(ParameterError):
            integral_closed_form("i", 0)


class TestDerivativeRecovery:
    def test_central_difference_near_f(self):
        h = F(1, 3**12)
        for x in (F(1, 3), F(1, 2), F(5, 9), F(17, 81), F(2, 7)):
            diff = (eval_F_exact(x + h) - eval_F_exact(x - h)) / (2 * h)
            assert abs(diff - eval_exact(x)) <= F(1, 100)
