"""Fractal-geometry tests.

The level-1 arc-length oracle is frozen from the four antiderivative
breakpoints (0,0), (1/3,1/9), (2/3,5/18), (1,1/2): squared segment lengths
10/81, 5/36, 13/81, so L_1 = sqrt(10)/9 + sqrt(5)/6 + sqrt(13)/9.  It is
recomputed here with decimal square roots, independent of the module's own
summation path.
"""

import dataclasses
import decimal
import functools
import hashlib
import itertools
from decimal import Decimal
from fractions import Fraction

import pytest

from bourbaki.errors import DigitError, ParameterError, ResourceLimitError
from bourbaki import geometry
from bourbaki.antiderivative import iter_F_iterates
from bourbaki.function import BreakpointTable, build_iterate
from bourbaki.geometry import (
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

    def outward(x):
        lo, value, hi = OUTWARD(x)
        if n is None or next(count) == n:
            return REF.subtract(lo, Decimal("1e-40")), value, REF.add(hi, Decimal("1e-40"))
        return lo, value, hi

    monkeypatch.setattr(geometry, "_outward", outward)


class TestOutward:
    def test_bounds_enclose_a_120_digit_reference(self):
        above = set()
        for n in range(2, 40):
            ref = REF.ln(Decimal(n))
            lo, value, hi = OUTWARD(Decimal(n))
            assert lo < ref < hi, n
            assert value == CTX.plus(ref), n
            above.add(value > ref)
        # half-even results on both sides of the true value: neither step is spare
        assert above == {False, True}

    def test_exact_result_is_its_own_bounds(self):
        OUTWARD(Decimal(2))  # an inexact result first leaves no flag behind
        assert OUTWARD(Decimal(1)) == (Decimal(0),) * 3

    # Widening one call's bounds at a time shows that each call site takes the
    # right end: every lower bound it feeds goes down and every upper bound up.
    @pytest.mark.parametrize("i", range(1, 11))
    def test_dimension_bounds_take_the_outer_ends(self, monkeypatch, i):
        lo, _, hi = geometry._dimension_bounds(i, 5**i)
        for n in (None, 0, 1):  # every call, ln(count), ln 3
            _widen_call(monkeypatch, n)
            wide_lo, _, wide_hi = geometry._dimension_bounds(i, 5**i)
            assert wide_lo < lo and hi < wide_hi, n


class TestBoxCount:
    @pytest.mark.parametrize("i,expected", [(0, 1), (1, 5), (2, 25)])
    def test_hand_counts(self, i, expected):
        count = box_count(i)
        assert type(count) is int and count == expected

    @pytest.mark.parametrize("i", [0, 1, 2, 3, 4, 5, 6])
    def test_power_law(self, i):
        assert box_count(i) == 5**i

    @pytest.mark.parametrize("i", [0, 1, 2, 3, 4])
    def test_recurrence(self, i):
        assert box_count(i + 1) == 5 * box_count(i)

    def test_level_cap(self):
        with pytest.raises(ResourceLimitError):
            box_count(11)
        with pytest.raises(ParameterError):
            box_count(-2)


class TestDimensionEstimate:
    def test_matches_log3_of_5(self):
        target = CTX.divide(CTX.ln(Decimal(5)), CTX.ln(Decimal(3)))
        for i in range(1, 8):
            est = dimension_estimate(i, box_count(i))
            assert abs(est - target) < Decimal("1e-45")

    def test_requires_positive_level(self):
        with pytest.raises(ParameterError, match="level"):
            dimension_estimate(0, box_count(0))

    # at the list-taking API, count 0 raised decimal.InvalidOperation, 2.5 a
    # TypeError, and a count of True returned 0E+49
    @pytest.mark.parametrize(
        "level,count,what",
        [(0, 1, "level"), (1, 0, "count"), (1, -5, "count"), (1, 2.5, "count"),
         (True, 5, "level"), (1, True, "count")],
    )
    def test_refuses_non_positive_or_non_int(self, level, count, what):
        with pytest.raises(ParameterError, match=what):
            dimension_estimate(level, count)

    @pytest.mark.parametrize("i", range(1, 11))
    def test_bounds_enclose_a_120_digit_reference(self, i):
        ref = REF.divide(REF.ln(Decimal(5**i)), REF.multiply(Decimal(i), REF.ln(Decimal(3))))
        lo, value, hi = geometry._dimension_bounds(i, 5**i)
        assert lo <= ref <= hi
        assert REF.subtract(hi, lo) < Decimal("1e-48")
        assert dimension_estimate(i, 5**i) == value

    def test_approximate_float_value(self):
        assert float(dimension_estimate(4, box_count(4))) == pytest.approx(
            1.464973520717927, abs=1e-12
        )

    def test_pinned_50_digit_values(self):
        head = "1.464973520717927167197040407678640396307932366666"
        values = [str(dimension_estimate(i, box_count(i))) for i in range(1, 11)]
        assert values == [head + last for last in "1111112121"]

    def test_count_one_is_exactly_zero_in_any_call_order(self):
        # ln 1 is exact, so its bounds are not stepped, even after inexact logarithms
        dimension_estimate(3, box_count(3))
        assert dimension_estimate(1, 1) == 0


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

    @pytest.mark.parametrize("i", range(8))
    def test_area_is_width_times_height(self, i):
        for r in cover_level(i):
            assert r.area == (r.x_hi - r.x_lo) * (r.y_hi - r.y_lo), r.digits

    def test_repr_is_pinned(self):
        # the dataclass fields and their repr, pinned once digit paths became base-3 addresses
        digest = hashlib.sha256(repr(cover_level(5)).encode()).hexdigest()
        assert digest == "41f61d06ba90f04c4566e500b0ce3b5e593a5eb2bbde99e37dd1601759c18335"

    @pytest.mark.parametrize("i", [1, 2, 3, 4])
    def test_heights_are_factor_products(self, i):
        for r in cover_level(i):
            expected = F(1)
            for d in r.digits:
                expected *= F(2, 3) if d in (0, 2) else F(1, 3)
            assert r.y_hi - r.y_lo == expected
            assert r.x_hi - r.x_lo == F(1, 3**i)

    @pytest.mark.parametrize("i,j", [(1, 3), (2, 4), (3, 5)])
    def test_breakpoints_inside_rectangles(self, i, j):
        rects = cover_level(i)
        t = build_iterate(j)
        pts = [(F(k, 3**j), t.y_at(k)) for k in range(len(t))]
        for r in rects:
            for x, y in pts:
                if r.x_lo <= x <= r.x_hi:
                    assert r.y_lo <= y <= r.y_hi, (r.digits, x)

    @pytest.mark.parametrize("i", range(6))
    def test_digits_are_the_base3_address_of_x(self, i):
        for r in cover_level(i):
            assert r.x_lo == F(functools.reduce(lambda n, d: 3 * n + d, r.digits, 0), 3**i), r.digits

    @pytest.mark.parametrize("i", range(6))
    def test_heights_are_the_hull_of_the_column(self, i):
        # two levels finer, each column's values reach both ends of its rectangle
        y = build_iterate(i + 2).y_numerators
        for k, r in enumerate(cover_level(i)):
            column = y[9 * k : 9 * k + 10]
            assert (r.y_lo, r.y_hi) == (F(min(column), 9 * 3**i), F(max(column), 9 * 3**i))

    @pytest.mark.parametrize("i", range(6))
    def test_mass_is_height_times_three_fifths_to_the_level(self, i):
        for r in cover_level(i):
            assert interval_mass(r.digits) == (r.y_hi - r.y_lo) * F(3, 5) ** i, r.digits

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
        assert sum(mass_measure(i).values()) == 1

    def test_measure_matches_products(self):
        for i in range(7):
            m = mass_measure(i)
            assert len(m) == 3**i
            for path, w in m.items():
                assert w == interval_mass(path)

    @pytest.mark.parametrize("i", [0, 1, 2, 3, 4])
    def test_digit_path_order(self, i):
        paths = list(itertools.product(range(3), repeat=i))
        assert list(mass_measure(i)) == paths

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

    @pytest.mark.parametrize("i", [1, 4, 8])
    def test_a_mass_off_at_one_path_fails(self, monkeypatch, i):
        # 10**-60 is below any 50-digit rounding: the check compares exact fractions
        def mass(digits):
            return interval_mass(digits) + (F(1, 10**60) if digits == (1,) * i else 0)

        monkeypatch.setattr(geometry, "interval_mass", mass)
        assert not mass_bound_check(i)

    @pytest.mark.parametrize(
        "field,step", [("y_hi", F(1, 3**12)), ("x_hi", F(2, 3**3))], ids=["height", "width"]
    )
    def test_one_wrong_rectangle_fails(self, monkeypatch, field, step):
        # a height off the mass, or a width past the height (rectangle 13, path 111)
        rects = cover_level(3)
        rects[13] = dataclasses.replace(rects[13], **{field: getattr(rects[13], field) + step})
        monkeypatch.setattr(geometry, "cover_level", lambda i: rects)
        assert not mass_bound_check(3)


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
