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
from math import isqrt

import pytest

from bourbaki.errors import (
    DigitError,
    EmptyInputError,
    ParameterError,
    ResourceLimitError,
)
from bourbaki import geometry
from bourbaki.antiderivative import iter_F_iterates
from bourbaki.function import BreakpointTable, build_iterate
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
from bourbaki.render import decimal_12

from reference import reference_cover, reference_root_sums

F = Fraction

CTX = decimal.Context(prec=50)
# reference for the directed 50-digit bounds: its own error is below 10**-115
REF = decimal.Context(prec=120)
OUTWARD = geometry._outward


def _widen_call(monkeypatch, n):
    """Make ``geometry._outward`` widen the (lo, hi) of its n-th call from now
    on (counting from 0; every call for n=None) by 10**-40."""
    count = itertools.count()

    def outward(op, x):
        lo, value, hi = OUTWARD(op, x)
        if n is None or next(count) == n:
            return REF.subtract(lo, Decimal("1e-40")), value, REF.add(hi, Decimal("1e-40"))
        return lo, value, hi

    monkeypatch.setattr(geometry, "_outward", outward)


class TestOutward:
    @pytest.mark.parametrize("op", ["ln", "sqrt", "exp"])
    def test_bounds_enclose_a_120_digit_reference(self, op):
        above = set()
        for n in range(2, 40):
            if op == "sqrt" and isqrt(n) ** 2 == n:
                continue
            ref = getattr(REF, op)(Decimal(n))
            lo, value, hi = OUTWARD(op, Decimal(n))
            assert lo < ref < hi, n
            assert value == CTX.plus(ref), n
            above.add(value > ref)
        # half-even results on both sides of the true value: neither step is spare
        assert above == {False, True}

    @pytest.mark.parametrize(
        "op,x,exact", [("ln", 1, 0), ("sqrt", 4, 2), ("sqrt", "2.25", "1.5"), ("exp", 0, 1)]
    )
    def test_exact_results_are_their_own_bounds(self, op, x, exact):
        OUTWARD("ln", Decimal(2))  # an inexact result first leaves no flag behind
        assert OUTWARD(op, Decimal(x)) == (Decimal(exact),) * 3

    # Widening one call's bounds at a time shows that each call site takes the
    # right end: every lower bound it feeds goes down and every upper bound up.
    @pytest.mark.parametrize("i", range(1, 11))
    def test_dimension_bounds_take_the_outer_ends(self, monkeypatch, i):
        report = BoxCountReport(i, F(1, 3**i), 5**i)
        lo, _, hi = geometry._dimension_bounds(report)
        for n in (None, 0, 1):  # every call, ln(count), ln 3
            _widen_call(monkeypatch, n)
            wide_lo, _, wide_hi = geometry._dimension_bounds(report)
            assert wide_lo < lo and hi < wide_hi, n

    @pytest.mark.parametrize("i", range(9))
    def test_mass_right_hand_sides_take_the_lower_ends(self, monkeypatch, i):
        rhs = [r for _, _, r in geometry._mass_classes(i)]
        for n in (None, *range(2 * i + 4)):  # every call, ln 5, ln 3, then ln and exp per class
            _widen_call(monkeypatch, n)
            wide = [r for _, _, r in geometry._mass_classes(i)]
            assert all(w <= r for w, r in zip(wide, rhs)) and wide != rhs, n


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

    @pytest.mark.parametrize("i", range(1, 11))
    def test_bounds_enclose_a_120_digit_reference(self, i):
        report = BoxCountReport(i, F(1, 3**i), 5**i)
        ref = REF.divide(REF.ln(Decimal(5**i)), REF.multiply(Decimal(i), REF.ln(Decimal(3))))
        lo, value, hi = geometry._dimension_bounds(report)
        assert lo <= ref <= hi
        assert REF.subtract(hi, lo) < Decimal("1e-48")
        assert dimension_estimate([report]) == value

    def test_approximate_float_value(self):
        assert float(dimension_estimate([box_count(4)])) == pytest.approx(
            1.464973520717927, abs=1e-12
        )

    def test_pinned_50_digit_values(self):
        head = "1.464973520717927167197040407678640396307932366666"
        values = [str(dimension_estimate([box_count(i)])) for i in range(1, 11)]
        assert values == [head + last for last in "1111112121"]

    def test_count_one_is_exactly_zero_in_any_call_order(self):
        # ln 1 is exact, so its bounds are not stepped, even after inexact logarithms
        dimension_estimate([box_count(3)])
        assert dimension_estimate([BoxCountReport(1, F(1, 3), 1)]) == 0


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

    @pytest.mark.parametrize("i", range(7))
    def test_matches_plane_map_construction(self, i):
        assert cover_level(i) == reference_cover(i)

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

    @pytest.mark.parametrize("i", range(9))
    def test_class_bounds_enclose_a_120_digit_reference(self, i):
        # one class per count of digit-1 steps, level 0 included
        s = REF.divide(REF.ln(Decimal(5)), REF.ln(Decimal(3)))
        classes = list(geometry._mass_classes(i))
        assert [ones for ones, _, _ in classes] == list(range(i + 1))
        for ones, mass_up, rhs_down in classes:
            mass = F(2 ** (i - ones), 5**i)
            assert mass <= mass_up < mass + F(1, 10**50)
            diam = REF.sqrt(REF.divide(Decimal(1 + 4 ** (i - ones)), Decimal(9**i)))
            rhs = REF.multiply(Decimal(5), REF.exp(REF.multiply(s, REF.ln(diam))))
            assert rhs_down <= rhs
            assert REF.subtract(rhs, rhs_down) < REF.multiply(rhs, Decimal("1e-45"))


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

    def test_pinned_50_digit_values(self):
        assert [str(v) for v in arc_length_profile(9)] == [
            "1.1180339887498948482045868343656381177203091798058",
            "1.1246589890980059077479861461111254259035310280653",
            "1.1268650283888473664894512622303836218295317449076",
            "1.1275991623601341961444634335558619371480079923511",
            "1.1278436767629512156101232778363559055356242478933",
            "1.1279251532986300187114250153114121664245497501323",
            "1.1279523082230126571570359922277272952783259666369",
            "1.1279613593273329027083874914214401891009212912251",
            "1.1279643762888896609227472623219324549591420077873",
            "1.1279653819327830024160183722404425850206949331749",
        ]

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
        for a, b in zip(lengths, lengths[1:]):
            assert a < b
        for value in lengths:
            assert value < Decimal("1.5")
        # L_0 is the chord sqrt(5)/2 itself: its enclosure holds both of the
        # chord's 50-digit directed roundings
        def half_root_five(rounding):
            wide = decimal.Context(prec=100, rounding=rounding)
            return decimal.Context(prec=50, rounding=rounding).plus(wide.divide(wide.sqrt(5), 2))

        lo, _, hi = geometry._length_bounds(next(iter_F_iterates(0)))
        assert lo <= half_root_five(decimal.ROUND_FLOOR)
        assert half_root_five(decimal.ROUND_CEILING) <= hi

    def test_root_sums_match_per_segment_sums(self):
        for t in iter_F_iterates(9):
            assert geometry._root_sums(t) == reference_root_sums(t)

    def test_square_radicands_add_nothing_to_the_ceiling(self):
        # run 9 // 3 = 3 and rises 4, 4, 12: two 3-4-5 segments with exact roots
        t = BreakpointTable(1, [0, 4, 8, 20], 9)
        floor_sum, ceil_sum = geometry._root_sums(t)
        assert (floor_sum, ceil_sum) == reference_root_sums(t)
        assert ceil_sum == floor_sum + 1

    def test_bounds_enclose_value_and_print_alike(self):
        for i, t in enumerate(iter_F_iterates(9)):
            lo, value, hi = geometry._length_bounds(t)
            assert lo <= value <= hi, i
            assert hi - lo < Decimal("1e-48"), i
            assert decimal_12(lo) == decimal_12(value) == decimal_12(hi), i

    def test_level_cap(self):
        with pytest.raises(ResourceLimitError):
            arc_length_profile(13)
        with pytest.raises(ResourceLimitError):
            arc_length(13)
