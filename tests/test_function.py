"""Core function tests: iterates, IFS, digit maps, exact evaluation.

Derived oracle values frozen here were obtained by hand composition of the
digit maps.  For 1/7 (period 0,1,0,2,1,2) the composite over one period is
v -> (248 + 16 v)/729, whose fixed point is 248/713 = 8/23; the bracketing
route through 40 construction steps must enclose the same value.
"""

from fractions import Fraction
import math
import time

import pytest
from hypothesis import example, given, settings, strategies as st

from bourbaki import function
from bourbaki.antiderivative import build_F_iterate
from bourbaki.errors import (
    DomainError,
    ParameterError,
    ParseError,
    ResourceLimitError,
)
from bourbaki.function import (
    CLASSICAL,
    FamilyParam,
    approx_eval,
    bracket_value,
    build_iterate,
    closed_form_value,
    eval_exact,
    eval_iterate,
    ifs_refine,
    iter_iterates,
    parse_decimal,
)
from bourbaki.ternary import digit_triples, to_ternary
from reference import compose_chain, digit_step_map, reference_close

F = Fraction
HALF_PARAM = FamilyParam(F(1, 2))

unit_fractions = st.fractions(min_value=0, max_value=1, max_denominator=400)

def _is_prime(n: int) -> bool:
    return all(n % k for k in range(2, math.isqrt(n) + 1))


# p/q with q = 3**v * q', q' a prime in [10**3, 2 * 10**4] and v <= 2: periods
# of up to 2 * 10**4 digits, with a preperiod of v digits.
long_period_fractions = st.builds(
    lambda qp, v: 3**v * qp, st.integers(10**3, 2 * 10**4).filter(_is_prime), st.integers(0, 2)
).flatmap(lambda q: st.integers(0, q).map(lambda p: F(p, q)))


def decimals(min_digits: int, max_digits: int):
    """Decimal literals in [0, 1] with min_digits .. max_digits fraction digits."""
    return st.integers(min_digits, max_digits).flatmap(
        lambda n: st.integers(0, 10**n).map(lambda k: f"{k // 10**n}.{k % 10**n:0{n}d}")
    )


tolerances = st.integers(1, 15).map(lambda k: F(1, 10**k))
params = st.fractions(min_value=0, max_value=1, max_denominator=30).filter(
    lambda a: 0 < a < 1
).map(FamilyParam)


class TestFamilyParam:
    def test_classical_flag(self):
        assert FamilyParam(F(2, 3)) == CLASSICAL
        assert HALF_PARAM != CLASSICAL

    @pytest.mark.parametrize("a", [F(0), F(1), F(-1, 3), F(7, 5)])
    def test_rejects_out_of_range(self, a):
        with pytest.raises(ParameterError):
            FamilyParam(a)

    @pytest.mark.parametrize("a", [0, 1, -1, 2, True, 0.5])
    def test_rejects_non_fractions(self, a):
        with pytest.raises(ParameterError):
            FamilyParam(a)


class TestBuildIterate:
    def test_level_zero_is_identity_segment(self):
        t = build_iterate(0)
        assert t.breakpoints == ((F(0), F(0)), (F(1), F(1)))

    def test_level_one_classical(self):
        t = build_iterate(1)
        assert t.breakpoints == (
            (F(0), F(0)),
            (F(1, 3), F(2, 3)),
            (F(2, 3), F(1, 3)),
            (F(1), F(1)),
        )

    def test_level_two_value_at_one_ninth(self):
        assert build_iterate(2).y_at(1) == F(4, 9)

    def test_level_one_flat_family(self):
        t = build_iterate(1, HALF_PARAM)
        assert [y for _, y in t.breakpoints] == [F(0), F(1, 2), F(1, 2), F(1)]

    @pytest.mark.parametrize("i", [0, 1, 2, 3, 4, 5])
    def test_refinement_keeps_old_breakpoints(self, i):
        coarse = build_iterate(i)
        fine = build_iterate(i + 1)
        for k in range(3**i + 1):
            assert fine.y_at(3 * k) == coarse.y_at(k)

    @given(params)
    @settings(deadline=None, max_examples=25)
    def test_family_refinement_keeps_old_breakpoints(self, param):
        coarse = build_iterate(2, param)
        fine = build_iterate(3, param)
        for k in range(10):
            assert fine.y_at(3 * k) == coarse.y_at(k)

    def test_endpoints_pinned(self):
        for param in (CLASSICAL, HALF_PARAM):
            t = build_iterate(4, param)
            assert t.y_at(0) == 0
            assert t.y_at(3**4) == 1

    def test_level_cap(self):
        with pytest.raises(ResourceLimitError):
            build_iterate(14)
        with pytest.raises(ParameterError):
            build_iterate(-1)

    @given(params)
    @example(CLASSICAL)
    @example(HALF_PARAM)
    @settings(deadline=None, max_examples=10)
    def test_walk_yields_every_level(self, param):
        assert list(iter_iterates(5, param)) == [build_iterate(i, param) for i in range(6)]


class TestEvalIterate:
    def test_breakpoints_returned_exactly(self):
        t = build_iterate(1)
        assert eval_iterate(t, F(1, 3)) == F(2, 3)
        assert eval_iterate(t, F(0)) == 0
        assert eval_iterate(t, F(1)) == 1

    def test_midpoint_interpolation(self):
        assert eval_iterate(build_iterate(1), F(1, 6)) == F(1, 3)

    def test_domain_check(self):
        with pytest.raises(DomainError):
            eval_iterate(build_iterate(1), F(5, 4))


class TestIFS:
    @pytest.mark.parametrize("i", [0, 1, 2, 3, 4, 5, 6, 7])
    def test_refine_matches_build(self, i):
        assert ifs_refine(build_iterate(i)) == build_iterate(i + 1)

    def test_refine_x_projection_is_grid(self):
        t = ifs_refine(build_iterate(2))
        assert [x for x, _ in t.breakpoints] == [F(k, 27) for k in range(28)]

    @given(params, st.integers(0, 6))
    @settings(deadline=None, max_examples=40)
    @example(CLASSICAL, 6)
    @example(FamilyParam(F(37, 76)), 6)
    @example(HALF_PARAM, 6)
    @example(FamilyParam(F(1, 5)), 6)
    @example(FamilyParam(F(5, 6)), 6)
    def test_refine_matches_build_for_every_a(self, param, i):
        assert ifs_refine(build_iterate(i, param)) == build_iterate(i + 1, param)

    def test_refine_rejects_F_tables(self):
        with pytest.raises(ParameterError):
            ifs_refine(build_F_iterate(1))


class TestDigitStepMap:
    def test_classical_maps(self):
        m0 = digit_step_map(0)
        m1 = digit_step_map(1)
        m2 = digit_step_map(2)
        assert (m0.slope, m0.intercept) == (F(2, 3), F(0))
        assert (m1.slope, m1.intercept) == (F(-1, 3), F(2, 3))
        assert (m2.slope, m2.intercept) == (F(2, 3), F(1, 3))
        assert m1(F(0)) == F(2, 3)
        assert m2(F(0)) == F(1, 3)

    @given(params)
    def test_family_maps(self, param):
        a = param.a
        assert digit_step_map(0, a)(F(1)) == a
        assert digit_step_map(1, a)(F(0)) == a
        assert digit_step_map(1, a)(F(1)) == 1 - a
        assert digit_step_map(2, a)(F(0)) == 1 - a

    @given(params)
    def test_digit_triples_are_the_maps(self, param):
        # the package's one statement of the maps against the reference route's
        for d, (s, b, q) in enumerate(digit_triples(param.a)):
            m = digit_step_map(d, param.a)
            assert (m.slope, m.intercept) == (F(s, q), F(b, q))

    def test_period_composite_for_one_seventh(self):
        maps = [digit_step_map(d) for d in (0, 1, 0, 2, 1, 2)]
        m = compose_chain(maps)
        assert (m.slope, m.intercept) == (F(16, 729), F(248, 729))


class TestEvalExact:
    @pytest.mark.parametrize(
        "x,value",
        [
            (F(0), F(0)),
            (F(1), F(1)),
            (F(1, 2), F(1, 2)),
            (F(1, 3), F(2, 3)),
            (F(2, 3), F(1, 3)),
            (F(1, 4), F(2, 5)),
            (F(1, 7), F(8, 23)),
            (F(1, 8), F(4, 11)),
            (F(1, 10), F(4, 13)),
        ],
    )
    def test_classical_values(self, x, value):
        assert eval_exact(x) == value

    @given(params)
    def test_family_value_at_one_third(self, param):
        assert eval_exact(F(1, 3), param) == param.a

    @given(params)
    def test_family_endpoints(self, param):
        assert eval_exact(F(0), param) == 0
        assert eval_exact(F(1), param) == 1

    @given(unit_fractions)
    @settings(deadline=None)
    def test_symmetry(self, x):
        assert eval_exact(1 - x) + eval_exact(x) == 1

    @given(unit_fractions, params)
    @settings(deadline=None, max_examples=60)
    def test_family_symmetry(self, x, param):
        assert eval_exact(1 - x, param) + eval_exact(x, param) == 1

    @given(unit_fractions)
    @settings(deadline=None)
    def test_range(self, x):
        assert 0 <= eval_exact(x) <= 1

    @given(unit_fractions, st.integers(min_value=1, max_value=6))
    @settings(deadline=None, max_examples=60)
    def test_left_scaling(self, x, i):
        assert eval_exact(x / 3**i) == F(2, 3) ** i * eval_exact(x)

    @given(unit_fractions, st.integers(min_value=1, max_value=6))
    @settings(deadline=None, max_examples=60)
    def test_mirrored_middle_scaling(self, x, i):
        expected = F(2 ** (i - 1), 3**i) * (1 + eval_exact(x))
        assert eval_exact((2 - x) / 3**i) == expected

    @given(unit_fractions, st.integers(min_value=1, max_value=6))
    @settings(deadline=None, max_examples=60)
    def test_right_scaling(self, x, i):
        expected = F(2, 3) ** i * eval_exact(x) + F(2 ** (i - 1), 3**i)
        assert eval_exact((2 + x) / 3**i) == expected

    @pytest.mark.parametrize("i", [1, 2, 3, 4, 5, 6])
    def test_agrees_with_iterate_tables(self, i):
        t = build_iterate(i)
        for k in range(3**i + 1):
            assert t.y_at(k) == eval_exact(F(k, 3**i))

    @given(unit_fractions | long_period_fractions, params)
    @settings(deadline=None, max_examples=60)
    def test_matches_map_composition_route(self, x, param):
        e = to_ternary(x)
        assert eval_exact(x, param) == reference_close(e, lambda d: digit_step_map(d, param.a))


class TestIdentityMember:
    """At a = 1/3 the digit maps are t -> (t + d)/3, so f_{1/3}(x) = x: an
    exact oracle for the closure at any period length that shares no code
    with the ``AffineMap`` reference route.  ``from_ternary`` is this member."""

    IDENTITY_PARAM = FamilyParam(F(1, 3))

    @given(st.fractions(min_value=0, max_value=1, max_denominator=10**4))
    @settings(deadline=None)
    def test_value_is_the_point(self, x):
        assert eval_exact(x, self.IDENTITY_PARAM) == x

    @pytest.mark.parametrize("x", [F(1, 49999), F(2, 9 * 19997)])
    def test_long_periods(self, x):
        assert eval_exact(x, self.IDENTITY_PARAM) == x

    @pytest.mark.parametrize("i", range(8))
    def test_tables_are_the_grid(self, i):
        assert build_iterate(i, self.IDENTITY_PARAM).y_numerators == list(range(3**i + 1))


class TestClosedForm:
    @pytest.mark.parametrize(
        "case,i,j,x,value",
        [
            ("i", 1, None, F(1, 4), F(2, 5)),
            ("i", 2, None, F(1, 10), F(4, 13)),
            ("ii", 1, None, F(1, 2), F(1, 2)),
            ("ii", 2, None, F(1, 8), F(4, 11)),
            ("iii", 1, None, F(1, 2), F(1, 2)),
            ("iv", 1, None, F(1), F(1)),
            ("iv", 2, None, F(1, 4), F(2, 5)),
            ("v", 1, 2, F(1, 12), F(4, 15)),
            ("vi", 1, 2, F(1, 6), F(1, 3)),
        ],
    )
    def test_known_pairs(self, case, i, j, x, value):
        assert closed_form_value(case, i, j) == (x, value)

    def test_matches_evaluator(self):
        for i in range(1, 7):
            for case in ("i", "ii", "iii", "iv"):
                x, v = closed_form_value(case, i)
                assert eval_exact(x) == v, (case, i)
        for j in range(2, 7):
            for i in range(1, j):
                for case in ("v", "vi"):
                    x, v = closed_form_value(case, i, j)
                    assert eval_exact(x) == v, (case, i, j)

    def test_validation(self):
        with pytest.raises(ParameterError):
            closed_form_value("vii", 1)
        with pytest.raises(ParameterError):
            closed_form_value("i", 0)
        with pytest.raises(ParameterError):
            closed_form_value("v", 2)
        with pytest.raises(ParameterError):
            closed_form_value("v", 2, 2)
        with pytest.raises(ParameterError):
            closed_form_value("iv", 2, 3)


class TestBracketValue:
    def test_one_seventh_bracket(self):
        lo, hi = bracket_value(F(1, 7), 40)
        assert lo <= F(8, 23) <= hi
        assert hi - lo <= F(2, 3) ** 40

    @given(
        st.builds(lambda k, m: F(k, 81) / m, st.integers(0, 80), st.integers(1, 4))
        | st.fractions(0, 1, max_denominator=10**6),
        st.integers(min_value=1, max_value=60),
    )
    @settings(deadline=None, max_examples=80)
    @example(F(1, 7), 12)
    def test_bracket_contains_exact_value(self, x, depth):
        lo, hi = bracket_value(x, depth)
        assert lo <= eval_exact(x) <= hi
        assert hi - lo <= F(2, 3) ** depth

    def test_depth_validated(self):
        with pytest.raises(ParameterError):
            bracket_value(F(1, 2), -1)

    @pytest.mark.parametrize(
        "x,bracket",
        [
            # a point on a column end takes the left column: [0, 1/3] and [1/3, 2/3]
            (F(1, 3), (F(0), F(2, 3))),
            (F(2, 3), (F(1, 3), F(2, 3))),
            (F(1), (F(1, 3), F(1))),
        ],
    )
    def test_column_ends_take_the_left_column(self, x, bracket):
        assert bracket_value(x, 1) == bracket


class TestApproxEval:
    def test_exact_point_collapses(self):
        assert approx_eval("0", F(1, 10)) == (F(0), F(0))

    def test_stops_once_the_width_reaches_the_tolerance(self):
        # 0.1 = 0.0022...: after digit 0 the envelope [0, 2/3] is exactly 2/3 wide
        assert approx_eval("0.1", F(2, 3)) == (F(0), F(2, 3))

    def test_half(self):
        lo, hi = approx_eval("0.5", F(1, 1000))
        assert lo <= F(1, 2) <= hi
        assert hi - lo <= F(1, 1000)

    def test_near_one_third(self):
        lo, hi = approx_eval("0.333333333333", F(1, 10**6))
        assert hi - lo <= F(1, 10**6)
        # Certify against the bracketing route at the same rational point.
        blo, bhi = bracket_value(F(333333333333, 10**12), 45)
        assert lo <= bhi and blo <= hi  # the two enclosures overlap
        assert abs((lo + hi) / 2 - F(2, 3)) < F(1, 1000)

    def test_parse_errors(self):
        for bad in ("abc", "", "1e3", "1/2", "-0.5"):
            with pytest.raises(ParseError):
                approx_eval(bad, F(1, 10))

    def test_domain_and_tolerance_checks(self):
        with pytest.raises(DomainError):
            approx_eval("1.5", F(1, 10))
        with pytest.raises(ParameterError):
            approx_eval("0.5", F(0))

    @pytest.mark.parametrize("tol", [0.001, True, "0.001"])
    def test_tolerance_must_be_exact(self, tol):
        with pytest.raises(ParameterError):
            approx_eval("0.5", tol)

    def test_depth_budget(self, monkeypatch):
        # 0.1 = 0.00220022...: n digits of 0 and 2 leave an envelope (2/3)**n wide
        monkeypatch.setattr(function, "MAX_APPROX_DEPTH", 10)
        lo, hi = approx_eval("0.1", F(2, 3) ** 10)
        assert hi - lo == F(2, 3) ** 10
        with pytest.raises(ResourceLimitError):
            approx_eval("0.1", F(2, 3) ** 11)
        assert approx_eval("0", F(1, 10**9)) == (F(0), F(0))

    def test_depth_budget_at_the_real_cap(self):
        # the CLI parses at most 4,300 digits, so its smallest tolerance,
        # 10**-4299, is reached within the cap; 10**-4403 needs 25,004 digits
        assert F(2, 3) ** function.MAX_APPROX_DEPTH < F(1, 10**4299)
        start = time.perf_counter()
        with pytest.raises(ResourceLimitError):
            approx_eval("0.1", F(1, 10**4403))
        elapsed = time.perf_counter() - start
        assert elapsed < 5, f"approx_eval took {elapsed:.2f} s to reach its depth cap"

    @given(decimals(1, 6), tolerances)
    @settings(deadline=None, max_examples=60)
    def test_encloses_exact_value(self, text, tol):
        # Up to 6 digits the period of the reduced point is at most 50,000
        # digits, so the exact value is the oracle.
        lo, hi = approx_eval(text, tol)
        assert lo <= eval_exact(parse_decimal(text)) <= hi
        assert hi - lo <= tol

    @given(decimals(7, 12), tolerances)
    @settings(deadline=None, max_examples=60)
    def test_encloses_deep_bracket(self, text, tol):
        # A 12-digit point can have a period of 5 * 10**10 digits; here the
        # oracle is a 200-step bracket of f, at most (2/3)**200 < 10**-35 wide.
        lo, hi = approx_eval(text, tol)
        blo, bhi = bracket_value(parse_decimal(text), 200)
        assert lo <= bhi and blo <= hi
        assert hi - lo <= tol


class TestParseDecimal:
    @pytest.mark.parametrize(
        "text,value",
        [("0", F(0)), ("1", F(1)), ("0.5", F(1, 2)), (".25", F(1, 4)), ("0.050", F(1, 20))],
    )
    def test_values(self, text, value):
        assert parse_decimal(text) == value

    @pytest.mark.parametrize("text", ["\u0660.\u0665", "\uff10.\uff15", "0.\u0665"])
    def test_rejects_non_ascii_digits(self, text):
        with pytest.raises(ParseError):
            parse_decimal(text)

    def test_rejects_past_the_int_conversion_limit(self):
        # Python refuses str-to-int conversions of more than 4,300 digits.
        with pytest.raises(ParseError):
            parse_decimal("0." + "0" * 5000 + "1")
