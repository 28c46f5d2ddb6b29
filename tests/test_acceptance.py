"""End-to-end acceptance checks.

Ten criteria, one test each.  Every test prints a single summary verdict
line (with capture suspended) so a full run shows the ten PASS/FAIL
results at a glance, and asserts its stated runtime budget where one
applies.
"""

import hashlib
import subprocess
import sys
import time
from contextlib import contextmanager
from decimal import Decimal
from fractions import Fraction

from bourbaki.antiderivative import (
    build_F_iterate,
    eval_F_exact,
    integral_closed_form,
)
from bourbaki.function import (
    FamilyParam,
    bracket_value,
    build_iterate,
    closed_form_value,
    eval_exact,
    ifs_refine,
)
from bourbaki.geometry import (
    arc_length_profile,
    box_count,
    cover_level,
    dimension_estimate,
    mass_bound_check,
    mass_measure,
)
from bourbaki.prng import SplitMix64

F = Fraction

LOG3_5 = Decimal("1.464973520717927167197040407678640396309")
HALF_SQRT_5 = Decimal("1.118033988749894848204586834365638117720")
TWELVE_DECIMALS = Decimal("5e-13")


@contextmanager
def _criterion(number, capsys):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"ACCEPTANCE {number}: FAIL")
        raise
    else:
        with capsys.disabled():
            print(f"ACCEPTANCE {number}: PASS")


def test_criterion_01_exact_special_values(capsys):
    with _criterion(1, capsys):
        assert eval_exact(F(1, 2)) == F(1, 2)
        assert eval_exact(F(1, 3)) == F(2, 3)
        assert eval_exact(F(2, 3)) == F(1, 3)
        for i in range(1, 11):
            for case in ("i", "ii", "iii", "iv"):
                x, value = closed_form_value(case, i)
                assert eval_exact(x) == value, (case, i)
            for j in range(i + 1, 11):
                for case in ("v", "vi"):
                    x, value = closed_form_value(case, i, j)
                    assert eval_exact(x) == value, (case, i, j)


def test_criterion_02_one_seventh_two_routes(capsys):
    with _criterion(2, capsys):
        target = F(8, 23)
        assert eval_exact(F(1, 7)) == target
        low, high = bracket_value(F(1, 7), 40)
        assert low < target < high
        assert high - low <= F(2, 3) ** 40


def test_criterion_03_symmetry_and_self_affinity(capsys):
    with _criterion(3, capsys):
        start = time.perf_counter()
        rng = SplitMix64(2026)
        for _ in range(1000):
            x = rng.next_fraction(10**4)
            assert eval_exact(x) + eval_exact(1 - x) == 1, x
        for i in range(1, 9):
            for _ in range(25):
                x = rng.next_fraction(10**4)
                fx = eval_exact(x)
                assert eval_exact(x / 3**i) == F(2, 3) ** i * fx, (x, i)
                assert eval_exact((2 - x) / 3**i) == F(2 ** (i - 1), 3**i) * (
                    1 + fx
                ), (x, i)
                assert eval_exact((2 + x) / 3**i) == F(2, 3) ** i * fx + F(
                    2 ** (i - 1), 3**i
                ), (x, i)
        assert time.perf_counter() - start < 10.0


def test_criterion_04_antiderivative_values(capsys):
    with _criterion(4, capsys):
        assert eval_F_exact(F(1)) == F(1, 2)
        assert eval_F_exact(F(1, 3)) == F(1, 9)
        assert eval_F_exact(F(2, 3)) == F(5, 18)
        assert eval_F_exact(F(1, 4)) == F(1, 14)
        assert eval_F_exact(F(1, 2)) == F(1, 5)
        for i in range(1, 11):
            for case in ("i", "ii", "iii", "iv"):
                x, value = integral_closed_form(case, i)
                assert eval_F_exact(x) == value, (case, i)
        rng = SplitMix64(408)
        for _ in range(1000):
            x = rng.next_fraction(10**4)
            assert eval_F_exact(1 - x) - eval_F_exact(x) == F(1, 2) - x, x


def test_criterion_05_derivative_recovery(capsys):
    with _criterion(5, capsys):
        start = time.perf_counter()
        h = F(1, 3**12)
        rng = SplitMix64(512)
        accepted = 0
        while accepted < 100:
            x = rng.next_ternary_rational(8)
            if not h <= x <= 1 - h:
                continue
            central = (eval_F_exact(x + h) - eval_F_exact(x - h)) / (2 * h)
            assert abs(central - eval_exact(x)) <= F(1, 100), x
            accepted += 1
        assert time.perf_counter() - start < 10.0


def test_criterion_06_box_dimension_and_measure(capsys):
    with _criterion(6, capsys):
        start = time.perf_counter()
        for i in range(8):
            assert box_count(i) == 5**i, i
        for i in range(1, 8):
            assert abs(dimension_estimate(i, box_count(i)) - LOG3_5) < TWELVE_DECIMALS
        for i in range(11):
            assert sum(r.area for r in cover_level(i)) == F(5, 9) ** i, i
        for i in range(9):
            assert sum(mass_measure(i).values()) == 1, i
            assert mass_bound_check(i), i
        assert time.perf_counter() - start < 30.0


def test_criterion_07_arc_length(capsys):
    with _criterion(7, capsys):
        start = time.perf_counter()
        profile = list(arc_length_profile(12))
        assert abs(profile[0] - HALF_SQRT_5) < TWELVE_DECIMALS
        assert abs(profile[2] - Decimal("1.1269")) < Decimal("5e-4")
        for i in range(10):
            assert profile[i] < profile[i + 1], i
        for value in profile:
            assert HALF_SQRT_5 - Decimal("1e-38") <= value < Decimal("1.5")
        assert time.perf_counter() - start < 30.0


def test_criterion_08_family(capsys):
    with _criterion(8, capsys):
        classical = FamilyParam(F(2, 3))
        points = [F(0), F(1), F(1, 2), F(1, 3), F(2, 3)]
        for i in range(1, 11):
            for case in ("i", "ii", "iii", "iv"):
                points.append(closed_form_value(case, i)[0])
            for j in range(i + 1, 11):
                for case in ("v", "vi"):
                    points.append(closed_form_value(case, i, j)[0])
        for x in points:
            assert eval_exact(x, classical) == eval_exact(x), x
        table = build_iterate(6)
        for k in range(3**6 + 1):
            assert eval_exact(F(k, 3**6), classical) == table.y_at(k), k
        rng = SplitMix64(77)
        accepted = 0
        while accepted < 100:
            a = rng.next_fraction(100)
            if not 0 < a < 1:
                continue
            param = FamilyParam(a)
            x = rng.next_fraction(10**3)
            i = 1 + rng.next_below(5)
            assert eval_exact(x, param) + eval_exact(1 - x, param) == 1, (x, a)
            assert eval_exact(x / 3**i, param) == a**i * eval_exact(x, param), (x, a, i)
            accepted += 1
        # Two candidate closed-form expressions for the family value at
        # 1/(3**i - 1) and 2/(3**i + 1) contradict the classical member at
        # a = 2/3, i = 1 (both points equal 1/2 there), so the evaluator,
        # not those expressions, is the authority for family values.
        a, i = F(2, 3), 1
        assert F(1, 3**i - 1) == F(1, 2) and F(2, 3**i + 1) == F(1, 2)
        candidate_low = (a ** (i - 1) - a**i) / (1 + 2 * a**i - a ** (i - 1))
        candidate_high = (1 - 2 * a ** (i - 1) + a**i) / (a ** (i - 1) - 2 * a**i)
        true_value = eval_exact(F(1, 2), classical)
        assert true_value == F(1, 2)
        assert candidate_low != true_value
        assert candidate_high != true_value


def test_criterion_09_construction_equivalence(capsys):
    with _criterion(9, capsys):
        for i in range(8):
            assert ifs_refine(build_iterate(i)) == build_iterate(i + 1), i
        for i in range(9):
            table = build_iterate(i)
            f_table = build_F_iterate(i)
            for k in range(3**i + 1):
                x = F(k, 3**i)
                assert table.y_at(k) == eval_exact(x), (i, k)
                assert f_table.y_at(k) == eval_F_exact(x), (i, k)


def test_criterion_10_deterministic_verification(capsys):
    with _criterion(10, capsys):
        command = [
            sys.executable,
            "-m",
            "bourbaki",
            "verify",
            "--suite",
            "all",
            "--seed",
            "42",
        ]
        first = subprocess.run(command, capture_output=True)
        second = subprocess.run(command, capture_output=True)
        assert first.returncode == 0
        assert second.returncode == 0
        assert first.stdout == second.stdout
        assert first.stdout.startswith(b"{")
        assert b'"failures": []' in first.stdout
        # 2,718 checks; any change to the cases, their order or the report shows here.
        assert hashlib.sha256(first.stdout).hexdigest() == (
            "1ce63ca7f7b899e1830d05dd326de8a4f6c90880a5d2f8badbfcd778fdf45d1f"
        )
