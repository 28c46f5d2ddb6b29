"""Fractal-geometry tests.

The level-1 arc-length oracle is frozen from the four antiderivative
breakpoints (0,0), (1/3,1/9), (2/3,5/18), (1,1/2): squared segment lengths
10/81, 5/36, 13/81, so L_1 = sqrt(10)/9 + sqrt(5)/6 + sqrt(13)/9.  It is
recomputed here with decimal square roots, independent of the module's own
summation path.
"""

import decimal
import itertools
from decimal import Decimal
from fractions import Fraction

import pytest

from bourbaki.errors import (
    DigitError,
    EmptyInputError,
    ParameterError,
    ResourceLimitError,
)
from bourbaki.function import build_iterate
from bourbaki.geometry import (
    BoxCountReport,
    CoverRectangle,
    arc_length,
    arc_length_profile,
    box_count,
    cover_level,
    dimension_estimate,
    interval_mass,
    iter_segment_squares,
    mass_bound_check,
    mass_measure,
)

F = Fraction

CTX = decimal.Context(prec=50)


class TestBoxCount:
    @pytest.mark.parametrize("i,expected", [(0, 1), (1, 5), (2, 25)])
    def test_hand_counts(self, i, expected):
        r = box_count(i)
        assert r.count == expected
        assert r.delta == F(1, 3**i)
        assert r.level == i

    @pytest.mark.parametrize("i", [0, 1, 2, 3, 4, 5, 6])
    def test_power_law(self, i):
        assert box_count(i).count == 5**i

    @pytest.mark.parametrize("i", [0, 1, 2, 3, 4])
    def test_recurrence(self, i):
        assert box_count(i + 1).count == 5 * box_count(i).count

    def test_level_cap(self):
        with pytest.raises(ResourceLimitError):
            box_count(11)
        with pytest.raises(ParameterError):
            box_count(-2)


class TestDimensionEstimate:
    def test_matches_log3_of_5(self):
        target = CTX.divide(CTX.ln(Decimal(5)), CTX.ln(Decimal(3)))
        for i in range(1, 8):
            est = dimension_estimate([box_count(i)])
            assert abs(est - target) < Decimal("1e-45")

    def test_uses_deepest_report(self):
        fake = BoxCountReport(2, F(1, 9), 17)
        deep = box_count(5)
        est = dimension_estimate([fake, deep])
        assert est == dimension_estimate([deep])

    def test_requires_positive_level(self):
        with pytest.raises(EmptyInputError):
            dimension_estimate([box_count(0)])
        with pytest.raises(EmptyInputError):
            dimension_estimate([])

    def test_approximate_float_value(self):
        assert float(dimension_estimate([box_count(4)])) == pytest.approx(
            1.464973520717927, abs=1e-12
        )


class TestCoverLevel:
    def test_level_zero_is_unit_square(self):
        (r,) = cover_level(0)
        assert (r.x_lo, r.x_hi, r.y_lo, r.y_hi) == (F(0), F(1), F(0), F(1))
        assert r.digits == ()

    def test_level_one_rectangles(self):
        rects = {r.digits: r for r in cover_level(1)}
        assert len(rects) == 3
        assert rects[(0,)] == CoverRectangle((0,), F(0), F(1, 3), F(0), F(2, 3))
        assert rects[(1,)] == CoverRectangle((1,), F(1, 3), F(2, 3), F(1, 3), F(2, 3))
        assert rects[(2,)] == CoverRectangle((2,), F(2, 3), F(1), F(1, 3), F(1))

    @pytest.mark.parametrize("i", [0, 1, 2, 3, 4])
    def test_digit_path_order(self, i):
        paths = list(itertools.product(range(3), repeat=i))
        assert [r.digits for r in cover_level(i)] == paths

    @pytest.mark.parametrize("i", [0, 1, 2, 3, 4, 5])
    def test_total_area(self, i):
        assert sum(r.area for r in cover_level(i)) == F(5, 9) ** i

    @pytest.mark.parametrize("i", [1, 2, 3, 4])
    def test_heights_are_factor_products(self, i):
        for r in cover_level(i):
            expected = F(1)
            for d in r.digits:
                expected *= F(2, 3) if d in (0, 2) else F(1, 3)
            assert r.height == expected
            assert r.width == F(1, 3**i)

    @pytest.mark.parametrize("i,j", [(1, 3), (2, 4), (3, 5)])
    def test_breakpoints_inside_rectangles(self, i, j):
        rects = cover_level(i)
        pts = build_iterate(j).breakpoints
        for r in rects:
            for x, y in pts:
                if r.x_lo <= x <= r.x_hi:
                    assert r.y_lo <= y <= r.y_hi, (r.digits, x)

    def test_level_cap(self):
        with pytest.raises(ResourceLimitError):
            cover_level(11)


class TestIntervalMass:
    @pytest.mark.parametrize(
        "digits,mass",
        [("", F(1)), ("1", F(1, 5)), ("00", F(4, 25)), ((0, 1, 2), F(4, 125))],
    )
    def test_values(self, digits, mass):
        assert interval_mass(digits) == mass

    def test_invalid_digit(self):
        with pytest.raises(DigitError):
            interval_mass("013")

    @pytest.mark.parametrize(
        "digits", ["0a", "0 1", "\u0661", "\uff11", [1.5, 0.2], (0, 3), [True], ["1"], 5]
    )
    def test_malformed_path(self, digits):
        with pytest.raises(DigitError):
            interval_mass(digits)

    @pytest.mark.parametrize("i", [0, 1, 2, 3, 4, 5, 6])
    def test_mass_sums_to_one(self, i):
        assert mass_measure(i).total() == 1

    def test_measure_matches_products(self):
        for i in range(7):
            m = mass_measure(i)
            assert m.level == i and len(m.weights) == 3**i
            for path, w in m.weights.items():
                assert w == interval_mass(path)

    @pytest.mark.parametrize("i", [0, 1, 2, 3, 4])
    def test_digit_path_order(self, i):
        paths = list(itertools.product(range(3), repeat=i))
        assert list(mass_measure(i).weights) == paths

    def test_level_cap(self):
        with pytest.raises(ResourceLimitError):
            mass_measure(9)


class TestMassBound:
    @pytest.mark.parametrize("i", [0, 1, 2, 3, 4, 5, 6, 7, 8])
    def test_bound_holds(self, i):
        assert mass_bound_check(i)

    def test_level_cap(self):
        with pytest.raises(ResourceLimitError):
            mass_bound_check(9)


class TestArcLength:
    def test_level_zero_is_half_sqrt_five(self):
        expected = CTX.divide(CTX.sqrt(Decimal(5)), Decimal(2))
        assert abs(arc_length(0) - expected) < Decimal("1e-45")

    def test_level_one_matches_frozen_radicands(self):
        squares = list(iter_segment_squares(1))
        assert squares == [F(10, 81), F(5, 36), F(13, 81)]
        expected = Decimal(0)
        for s in squares:
            root = CTX.divide(
                CTX.sqrt(Decimal(s.numerator)), CTX.sqrt(Decimal(s.denominator))
            )
            expected = CTX.add(expected, root)
        assert abs(arc_length(1) - expected) < Decimal("1e-40")

    def test_level_two_value(self):
        assert abs(arc_length(2) - Decimal("1.1269")) < Decimal("5e-4")

    @staticmethod
    def _ceiling_sum(i):
        """Upper bound on the level-i polyline length: every rounding up, 100 digits."""
        up = decimal.Context(prec=100, rounding=decimal.ROUND_CEILING)
        total = Decimal(0)
        for s in iter_segment_squares(i):
            root = up.sqrt(Decimal(s.numerator * s.denominator))  # sqrt(s) * den
            total = up.add(total, up.divide(root, Decimal(s.denominator)))
        return total

    @pytest.mark.parametrize("i", range(6))
    def test_within_1e48_of_ceiling_sum(self, i):
        assert abs(self._ceiling_sum(i) - arc_length(i)) < Decimal("1e-48")

    def test_profile_strictly_increasing_and_bounded(self):
        lengths = list(arc_length_profile(8))
        lower = CTX.divide(CTX.sqrt(Decimal(5)), Decimal(2))
        for a, b in zip(lengths, lengths[1:]):
            assert a < b
        for value in lengths:
            assert lower <= value < Decimal("1.5")

    def test_level_cap(self):
        with pytest.raises(ResourceLimitError):
            arc_length_profile(13)
        with pytest.raises(ResourceLimitError):
            arc_length(13)
