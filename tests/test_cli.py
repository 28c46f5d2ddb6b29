"""Command-line interface and rendering tests.

Golden strings here pin the exact bytes of each output format; any
formatting change must update them deliberately.
"""

import decimal
import hashlib
import json
import subprocess
import sys
import time
from decimal import Decimal
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from bourbaki import function, geometry, verify
from bourbaki.cli import run
from bourbaki.errors import ConsistencyError, ParameterError
from bourbaki.function import CLASSICAL
from bourbaki.render import csv_table, decimal_12, format_rational, format_value
from bourbaki.verify import run_verification

F = Fraction

CSV_F_LEVEL_1 = "x_num,x_den,y_num,y_den\n0,1,0,1\n1,3,2,3\n2,3,1,3\n1,1,1,1\n"

SVG_BIG_F_LEVEL_1 = (
    '<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 900 900" '
    'width="900" height="900">\n'
    '  <polyline fill="none" stroke="black" stroke-width="1" points="'
    "2.000000,898.000000 300.666667,798.444444 "
    '599.333333,649.111111 898.000000,450.000000"/>\n'
    "</svg>\n"
)

# SHA-256 of `iterate` output files, pinned from the Fraction/Decimal renderer
# that the integer renderer replaced.  a = 1/99991 gives y-denominators past
# 10**34, where SVG coordinates go through both roundings (40 significant
# digits, then 6 places).
ITERATE_DIGESTS = [
    (["f", "8", "csv"], "472b624dc24fbeb416b6494b3a4c26af8c9b0170e9ed21d1765717ecd9daff81"),
    (["F", "8", "svg"], "3f45dc46fedb39ba963b44f7dcac44e9c056ff4c0072fbf137d159dd94e06629"),
    (["F", "6", "csv"], "9a067d5312744afe8fa6606f55c0955cb826a8512731907f3fda5c45144f3901"),
    (["f", "6", "svg", "37/76"], "baaba142bf35cf4b2c14505cb5a0c6526f239e7957ea78619c182ed5fc7dffdd"),
    (["f", "7", "svg", "1/99991"], "ffadd65fd8d8dade13acd5edd7dbc367078f68f517463375ab8f5897d0753eb8"),
    (["f", "7", "csv", "1/99991"], "bf76397ba611225c886cfa453fb1636a615e40a601a40e046230d11976138d49"),
    # tables of more than one 4096-row chunk; the last takes the two-rounding path
    (["f", "10", "csv"], "3c6488d361bed1d9100837b4e40c21958899153a12d6a0899fd5953e906f200f"),
    (["F", "9", "svg"], "70fb3e18668353c0547843907c38e5661677181b168ecf654ad5365c8dbce528"),
    (["F", "10", "csv"], "de583e2c3e7ae7cfa9cc9d77743d61ff60ecce0ba156ef43005ca9cecae4c7bb"),
    (["f", "8", "svg", "1/99991"], "a6e1270b71f13c8ae6a87365b578b199dbf435796682242f1a14d44918e716c3"),
]


class TestRender:
    @pytest.mark.parametrize(
        "x,text",
        [(F(1, 2), "1/2"), (F(0), "0/1"), (F(1), "1/1"), (F(-3, 4), "-3/4"), (5, "5/1")],
    )
    def test_format_rational(self, x, text):
        assert format_rational(x) == text

    @pytest.mark.parametrize("value", [0.5, True, "1/3"])
    def test_format_rational_rejects_non_rationals(self, value):
        with pytest.raises(ParameterError):
            format_rational(value)

    @pytest.mark.parametrize(
        "x,text",
        [
            (F(0), "0.000000000000"),
            (F(1), "1.00000000000"),
            (F(1, 2), "0.500000000000"),
            (F(8, 23), "0.347826086957"),
            (F(1, 14), "0.0714285714286"),
            (F(-1, 4), "-0.250000000000"),
            (F(9999999999999, 10**13), "1.00000000000"),
        ],
    )
    def test_decimal_12(self, x, text):
        assert decimal_12(x) == text

    def test_decimal_12_rejects_floats(self):
        with pytest.raises(ParameterError):
            decimal_12(0.5)

    @pytest.mark.parametrize("value", [1, 0, True])
    def test_decimal_12_rejects_ints(self, value):
        with pytest.raises(ParameterError):
            decimal_12(value)

    def test_format_value(self):
        assert format_value(F(8, 23)) == "8/23 (0.347826086957)"


class TestEvalCommands:
    @pytest.mark.parametrize(
        "argv,line",
        [
            (["eval-f", "1/2"], "1/2 (0.500000000000)"),
            (["eval-f", "1/7"], "8/23 (0.347826086957)"),
            (["eval-f", "1/3"], "2/3 (0.666666666667)"),
            (["eval-f", "2/3"], "1/3 (0.333333333333)"),
            (["eval-F", "1"], "1/2 (0.500000000000)"),
            (["eval-F", "1/4"], "1/14 (0.0714285714286)"),
            (["eval-f", "1/3", "--a", "1/2"], "1/2 (0.500000000000)"),
        ],
    )
    def test_exact_lines(self, capsys, argv, line):
        assert run(argv) == 0
        assert capsys.readouterr().out == line + "\n"

    def test_approx_exact_endpoint(self, capsys):
        assert run(["approx-f", "0", "--tol", "0.5"]) == 0
        out = capsys.readouterr().out
        assert out == "lower: 0/1 (0.000000000000)\nupper: 0/1 (0.000000000000)\n"

    def test_approx_interval_width(self, capsys):
        assert run(["approx-f", "0.333333333333", "--tol", "0.000001"]) == 0
        lines = capsys.readouterr().out.splitlines()
        low = F(lines[0].split()[1].split("/")[0] + "/" + lines[0].split()[1].split("/")[1])
        high = F(lines[1].split()[1].split("/")[0] + "/" + lines[1].split()[1].split("/")[1])
        assert low <= high
        assert high - low <= F(1, 10**6)

    def test_closed_form_f(self, capsys):
        assert run(["closed-form", "--target", "f", "--case", "v", "--i", "1", "--j", "2"]) == 0
        out = capsys.readouterr().out
        assert out == "x = 1/12 (0.0833333333333)\nf(x) = 4/15 (0.266666666667)\n"

    def test_closed_form_F(self, capsys):
        assert run(["closed-form", "--target", "F", "--case", "i", "--i", "1"]) == 0
        out = capsys.readouterr().out
        assert out == "x = 1/4 (0.250000000000)\nF(x) = 1/14 (0.0714285714286)\n"


class TestIterateCommand:
    def test_csv_golden(self, tmp_path, capsys):
        path = tmp_path / "f1.csv"
        argv = ["iterate", "--target", "f", "--level", "1", "--format", "csv", "--out", str(path)]
        assert run(argv) == 0
        assert capsys.readouterr().out == ""
        assert path.read_bytes() == CSV_F_LEVEL_1.encode()

    def test_svg_golden(self, tmp_path):
        path = tmp_path / "F1.svg"
        argv = ["iterate", "--target", "F", "--level", "1", "--format", "svg", "--out", str(path)]
        assert run(argv) == 0
        assert path.read_bytes() == SVG_BIG_F_LEVEL_1.encode()

    def test_svg_structure(self, tmp_path):
        path = tmp_path / "f3.svg"
        argv = ["iterate", "--target", "f", "--level", "3", "--format", "svg", "--out", str(path)]
        assert run(argv) == 0
        text = path.read_text()
        assert text.count("<polyline") == 1
        assert 'viewBox="0 0 900 900"' in text
        assert 'stroke-width="1"' in text
        points = text.split('points="')[1].split('"')[0].split()
        assert len(points) == 3**3 + 1
        for pair in points:
            px, py = pair.split(",")
            assert len(px.split(".")[1]) == 6
            assert len(py.split(".")[1]) == 6
            assert 2 <= float(px) <= 898
            assert 2 <= float(py) <= 898

    def test_deterministic_bytes(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for path in (a, b):
            argv = ["iterate", "--target", "f", "--level", "4", "--format", "csv", "--out", str(path)]
            assert run(argv) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_csv_matches_library(self, tmp_path):
        from bourbaki.function import build_iterate

        path = tmp_path / "f2.csv"
        argv = ["iterate", "--target", "f", "--level", "2", "--format", "csv", "--out", str(path)]
        assert run(argv) == 0
        assert path.read_text() == csv_table(build_iterate(2))

    def test_family_table(self, tmp_path):
        path = tmp_path / "fa.csv"
        argv = [
            "iterate", "--target", "f", "--level", "1", "--a", "1/4",
            "--format", "csv", "--out", str(path),
        ]
        assert run(argv) == 0
        assert path.read_text().splitlines()[2] == "1,3,1,4"

    @pytest.mark.parametrize("spec,digest", ITERATE_DIGESTS)
    def test_output_digest(self, tmp_path, spec, digest):
        target, level, fmt, *a = spec
        path = tmp_path / f"out.{fmt}"
        argv = ["iterate", "--target", target, "--level", level, "--format", fmt]
        argv += ["--out", str(path)] + (["--a", a[0]] if a else [])
        assert run(argv) == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    def test_a_rejected_for_antiderivative(self, tmp_path, capsys):
        path = tmp_path / "x.csv"
        argv = [
            "iterate", "--target", "F", "--level", "1", "--a", "2/3",
            "--format", "csv", "--out", str(path),
        ]
        assert run(argv) == 1
        assert not path.exists()


class TestGeometryCommands:
    def test_boxdim_table_golden(self, capsys):
        assert run(["boxdim", "--max-level", "2"]) == 0
        out = capsys.readouterr().out
        assert out == "level delta count\n0 1/1 1\n1 1/3 5\n2 1/9 25\nestimate 1.46497352072\n"

    def test_boxdim_json_shape(self, capsys):
        assert run(["boxdim", "--max-level", "3", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert list(payload.keys()) == ["levels", "estimate"]
        assert [list(entry.keys()) for entry in payload["levels"]] == [
            ["level", "delta", "count"]
        ] * 4
        assert payload["levels"][3] == {"level": 3, "delta": "1/27", "count": 125}
        assert payload["estimate"] == "1.46497352072"

    def test_boxdim_requires_refined_level(self, capsys):
        assert run(["boxdim", "--max-level", "0"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --max-level must be an integer >= 1, got 0\n"

    def test_boxdim_refuses_a_negative_level(self, capsys):
        assert run(["boxdim", "--max-level", "-1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --max-level must be an integer >= 1, got -1\n"

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["iterate", "--target", "f", "--level", "-1"], "--level must be an integer >= 0, got -1"),
            (["iterate", "--target", "F", "--level", "14"], "--level 14 exceeds the supported cap 13"),
            (["arclength", "--max-level", "-1"], "--max-level must be an integer >= 0, got -1"),
            (["arclength", "--max-level", "13"], "--max-level 13 exceeds the supported cap 12"),
            (["boxdim", "--max-level", "11"], "--max-level 11 exceeds the supported cap 10"),
        ],
    )
    def test_out_of_range_levels_name_the_option(self, tmp_path, capsys, argv, message):
        path = tmp_path / "out.csv"
        if argv[0] == "iterate":
            argv = argv + ["--format", "csv", "--out", str(path)]
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"
        assert not path.exists()

    def test_arclength_lines(self, capsys):
        assert run(["arclength", "--max-level", "1"]) == 0
        assert capsys.readouterr().out == "0 1.11803398875\n1 1.12465898910\n"

    def test_arclength_deepest_lines(self, capsys):
        assert run(["arclength", "--max-level", "12"]) == 0
        assert capsys.readouterr().out == (
            "0 1.11803398875\n"
            "1 1.12465898910\n"
            "2 1.12686502839\n"
            "3 1.12759916236\n"
            "4 1.12784367676\n"
            "5 1.12792515330\n"
            "6 1.12795230822\n"
            "7 1.12796135933\n"
            "8 1.12796437629\n"
            "9 1.12796538193\n"
            "10 1.12796571715\n"
            "11 1.12796582888\n"
            "12 1.12796586613\n"
        )

    def test_arclength_broken_enclosure_exits_2(self, capsys, monkeypatch):
        # a ceiling sum 10**-6 too high: at level 1 the bounds print different 12 digits
        root_sums = geometry._root_sums

        def widened(t):
            floor_sum, ceil_sum = root_sums(t)
            return floor_sum, ceil_sum + t.y_denominator * 10**44 * (t.level == 1)

        monkeypatch.setattr(geometry, "_root_sums", widened)
        assert run(["arclength", "--max-level", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "0 1.11803398875\n"
        assert "arc length at level 1 not certified" in captured.err

    def test_boxdim_broken_enclosure_exits_2(self, capsys, monkeypatch):
        # an upper bound 10**-6 too high: the bounds print different 12 digits
        bounds = geometry._dimension_bounds

        def widened(level, count):
            lo, value, hi = bounds(level, count)
            return lo, value, hi + Decimal("1e-6")

        monkeypatch.setattr(geometry, "_dimension_bounds", widened)
        assert run(["boxdim", "--max-level", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "dimension estimate not certified" in captured.err

    def test_measure_golden(self, capsys):
        assert run(["measure", "--digits", "00"]) == 0
        assert capsys.readouterr().out == "4/25 (0.160000000000)\n"

    def test_measure_empty_address(self, capsys):
        assert run(["measure", "--digits", ""]) == 0
        assert capsys.readouterr().out == "1/1 (1.00000000000)\n"

    def test_measure_bad_digit(self, capsys):
        assert run(["measure", "--digits", "013"]) == 1


class TestVerifyCommand:
    def test_json_shape_and_exit(self, capsys):
        assert run(["verify", "--suite", "symmetry", "--cases", "5", "--seed", "9"]) == 0
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert list(payload.keys()) == ["suite", "cases", "failures"]
        assert payload["suite"] == "symmetry"
        assert payload["cases"] == 11
        assert payload["failures"] == []
        assert "elapsed_ms" not in captured.out
        assert "ms)" in captured.err

    def test_defaults(self, capsys):
        assert run(["verify", "--suite", "geometry"]) == 0
        assert json.loads(capsys.readouterr().out)["failures"] == []

    def test_bad_suite(self, capsys):
        assert run(["verify", "--suite", "bogus"]) == 1

    @pytest.mark.parametrize(
        "setting", [("prec", 12), ("rounding", decimal.ROUND_CEILING)], ids=["prec", "rounding"]
    )
    def test_geometry_suite_ignores_the_callers_decimal_context(self, setting):
        with decimal.localcontext() as ctx:
            setattr(ctx, *setting)
            assert run_verification("geometry", 42, 5).failures == []

    def test_family_suite_sees_a_wrong_classical_member(self, monkeypatch):
        # shift only the a = 2/3 member by 1/2, which no level-8 column spans
        exact = verify.eval_exact

        def shifted(x, param=CLASSICAL):
            return exact(x, param) + (F(1, 2) if param == CLASSICAL else 0)

        monkeypatch.setattr(verify, "eval_exact", shifted)
        failures = run_verification("family", 42, 5).failures
        assert sum(f["input"].startswith("classical member") for f in failures) == 5

    def test_closed_form_checks_see_a_wrong_case(self, monkeypatch):
        # a swapped case returns a true (x, value) pair, but not at its case's point
        swap = {"i": "ii", "ii": "i", "v": "vi", "vi": "v"}
        f_form, F_form = verify.closed_form_value, verify.integral_closed_form
        monkeypatch.setattr(
            verify, "closed_form_value", lambda case, i, j=None: f_form(swap.get(case, case), i, j)
        )
        monkeypatch.setattr(
            verify, "integral_closed_form", lambda case, i: F_form(swap.get(case, case), i)
        )
        failures = run_verification("scaling", 42, 1).failures
        assert len(failures) == 6 * (2 + 3 * 2)
        assert failures[0] == {
            "input": "closed form i for f at i=1", "expected": "(1/4, 1/2)", "actual": "(1/2, 1/2)"
        }
        failures = run_verification("integrals", 42, 1).failures
        assert [f["input"] for f in failures] == [
            f"closed form {case} for F at i={i}" for i in range(1, 7) for case in ("i", "ii")
        ]

    def test_geometry_suite_sees_a_wrong_interval_mass(self, monkeypatch):
        # 2**(n + m) / 5**n in place of 2**(n - m) / 5**n, m the digit-1 steps:
        # the level-i masses then sum to (8/5)**i
        def wrong(path):
            n = len(path)
            return F(2 ** (n + path.count(1)), 5**n)

        monkeypatch.setattr(verify, "interval_mass", wrong)
        failures = run_verification("geometry", 42, 5).failures
        assert failures == [
            {
                "input": f"total interval mass at level {i}",
                "expected": "1/1",
                "actual": f"{8**i}/{5**i}",
            }
            for i in range(1, 6)
        ]

    @pytest.mark.parametrize(
        "triples",
        [
            lambda p, q: ((p, 0, q), (q + 2 * p, p, q), (p, q - p, q)),
            lambda p, q: ((p, 0, q), (q - 2 * p, p, q), (p, q + p, q)),
        ],
        ids=["middle-slope", "right-offset"],
    )
    def test_geometry_suite_sees_the_plane_maps(self, capsys, monkeypatch, triples):
        # the cover is read off ifs_refine, the one route verify runs that applies them
        monkeypatch.setattr(function, "digit_triples", lambda a: triples(a.numerator, a.denominator))
        with pytest.raises(ConsistencyError, match="map images disagree at shared corners"):
            run_verification("geometry", 42, 25)
        assert run(["verify", "--suite", "geometry"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "map images disagree at shared corners" in captured.err

    def test_failure_record_of_a_holds_check(self, monkeypatch):
        monkeypatch.setattr(verify, "mass_bound_check", lambda i: False)
        failures = run_verification("geometry", 42, 5).failures
        assert failures == [
            {"input": f"mass bound at level {i}", "expected": "true", "actual": "false"}
            for i in range(6)
        ]

    def test_failure_record_of_an_int_check(self, monkeypatch):
        # one box too many at every level also moves the dimension estimates apart
        count = verify.box_count

        def one_more(i):
            return count(i) + 1

        monkeypatch.setattr(verify, "box_count", one_more)
        failures = run_verification("geometry", 42, 5).failures
        assert failures == [
            {"input": f"box count at level {i}", "expected": str(5**i), "actual": str(5**i + 1)}
            for i in range(6)
        ] + [
            {
                "input": "dimension estimates agree across levels",
                "expected": "true",
                "actual": "false",
            }
        ]

    def test_dimension_check_is_strict_at_its_tolerance(self, monkeypatch):
        # level-5 and level-3 estimates exactly 1e-45 apart do not agree
        estimates = {5: Decimal(0), 3: Decimal("1e-45")}
        monkeypatch.setattr(verify, "dimension_estimate", lambda level, count: estimates[level])
        failures = run_verification("geometry", 42, 5).failures
        assert [f["input"] for f in failures] == ["dimension estimates agree across levels"]

    @pytest.mark.parametrize(
        ("lengths", "failed"),
        [
            ("lower 1.4", []),
            ("1.4 1.4", ["arc lengths strictly increasing"]),
            ("1.2 1.5", ["arc lengths within [sqrt(5)/2, 3/2)"]),
        ],
        ids=["lower-end-included", "equal-neighbours", "upper-end-excluded"],
    )
    def test_arc_length_checks_at_their_boundaries(self, monkeypatch, lengths, failed):
        lower = decimal.Context(prec=50, rounding=decimal.ROUND_FLOOR).divide(
            isqrt(5 * 10**100), 2 * 10**50
        )
        values = [lower if v == "lower" else Decimal(v) for v in lengths.split()]
        monkeypatch.setattr(verify, "arc_length_profile", lambda level: iter(values))
        failures = run_verification("geometry", 42, 5).failures
        assert [f["input"] for f in failures] == failed

    @pytest.mark.parametrize(
        "x", [F(1), F(1, 3**8)], ids=["last-column", "column-maximum"]
    )
    def test_family_column_check_at_column_ends(self, monkeypatch, x):
        # x = 1 lies in the last column; f(1/3**8) = (2/3)**8 is the top of its column
        monkeypatch.setattr(verify, "_random_x", lambda rng: x)
        assert run_verification("family", 42, 5).failures == []

    def test_elapsed_time_is_the_runs_own(self):
        start = time.perf_counter()
        report = run_verification("symmetry", 1, 1)
        assert 0 <= report.elapsed_ms <= (time.perf_counter() - start) * 1000.0

    def test_seed_range(self, capsys):
        assert run(["verify", "--suite", "geometry", "--seed", str(2**64)]) == 1

    @pytest.mark.parametrize(
        "cases,message",
        [
            ("0", "cases must be an integer >= 1, got 0"),
            ("-1", "cases must be an integer >= 1, got -1"),
            ("10001", "cases 10001 exceeds the supported cap 10000"),
        ],
    )
    def test_out_of_range_counts_name_cases(self, capsys, cases, message):
        assert run(["verify", "--suite", "geometry", "--cases", cases]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_process_level_determinism(self):
        cmd = [
            sys.executable, "-m", "bourbaki",
            "verify", "--suite", "symmetry", "--cases", "20", "--seed", "3",
        ]
        first = subprocess.run(cmd, capture_output=True)
        second = subprocess.run(cmd, capture_output=True)
        assert first.returncode == 0
        assert second.returncode == 0
        assert first.stdout == second.stdout
        assert first.stdout.startswith(b"{")


class TestExitCodes:
    @pytest.mark.parametrize(
        "argv",
        [
            ["eval-f", "3/2"],
            ["eval-f", "abc"],
            ["eval-f", "1/0"],
            ["eval-f", "-1/2"],
            ["eval-f", "1/2", "--a", "1"],
            ["approx-f", "0.5", "--tol", "0"],
            ["approx-f", "x", "--tol", "0.1"],
            ["closed-form", "--target", "f", "--case", "v", "--i", "1"],
            ["closed-form", "--target", "F", "--case", "v", "--i", "1"],
            ["closed-form", "--target", "F", "--case", "i", "--i", "1", "--j", "2"],
            ["closed-form", "--target", "f", "--case", "i", "--i", "1", "--j", "5"],
            ["closed-form", "--target", "f", "--case", "i", "--i", "10000"],
            ["closed-form", "--target", "F", "--case", "ii", "--i", "5000"],
            ["iterate", "--target", "f", "--level", "99", "--format", "csv", "--out", "/dev/null"],
            ["arclength", "--max-level", "99"],
            [],
            ["nonsense"],
            ["eval-f"],
            ["eval-f", "1/2", "--bogus"],
            ["eval-f", "\u0661/\u0663"],
            ["eval-f", "\uff11/\uff13"],
            ["eval-F", "\u0661/\u0663"],
            ["eval-f", "1/3", "--a", "\u0661/\u0664"],
            ["approx-f", "\u0660.\u0665", "--tol", "0.1"],
            ["approx-f", "0.5", "--tol", "\uff10.\uff11"],
            ["measure", "--digits", "0a"],
            ["measure", "--digits", "\u0661"],
            ["eval-f", "1/" + "7" * 5000],
            ["eval-F", "1/" + "7" * 5000],
            ["eval-f", "1/3", "--a", "1/" + "7" * 5000],
            ["approx-f", "0.5", "--tol", "0." + "0" * 5000 + "1"],
            ["approx-f", "0." + "3" * 5000, "--tol", "0.1"],
            ["eval-f", "1/1000000000039"],
            ["eval-F", "1/1000000000039"],
            # values whose numerator or denominator is too long to print
            ["eval-f", "1/99991"],
            ["eval-F", "1/99991"],
            ["measure", "--digits", "0" * 6200],
            ["approx-f", "0.1", "--tol", "0." + "0" * 2000 + "1"],
        ],
    )
    def test_invalid_input_exits_1(self, capsys, argv):
        assert run(argv) == 1

    @pytest.mark.parametrize("token", ["\n", "a\rb", "\u2028"], ids=["newline", "return", "separator"])
    def test_a_line_break_stays_inside_the_error_line(self, capsys, token):
        # argparse echoes an unrecognized token as written
        assert run(["eval-f", "1/3", token]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        last = captured.err.splitlines()[-1]
        assert captured.err.endswith("\n") and last.startswith("bourbaki: error: unrecognized")

    def test_help_exits_0(self, capsys):
        assert run(["--help"]) == 0
        assert "bourbaki" in capsys.readouterr().out


# every count and index option, each the last word of an otherwise valid command;
# "OUT" stands for a file path (``_command``)
INTEGER_OPTIONS = [
    ["closed-form", "--target", "f", "--case", "i", "--i"],
    ["closed-form", "--target", "f", "--case", "v", "--i", "1", "--j"],
    ["iterate", "--target", "f", "--format", "csv", "--out", "OUT", "--level"],
    ["boxdim", "--max-level"],
    ["arclength", "--max-level"],
    ["verify", "--suite", "geometry", "--cases"],
    ["verify", "--suite", "geometry", "--seed"],
]


def _command(words, tmp_path):
    return [str(tmp_path / "t.csv") if w == "OUT" else w for w in words]


class TestIntegerOptions:
    """Count and index options take ASCII digits after an optional '-', where
    Python's ``int`` also takes other scripts' digits, '_', '+' and spaces."""

    @pytest.mark.parametrize("spelling", ["٣", "1_0", "+3", " 3", "３"])
    @pytest.mark.parametrize("words", INTEGER_OPTIONS, ids=lambda w: f"{w[0]}{w[-1]}")
    def test_other_spellings_are_usage_errors(self, capsys, tmp_path, words, spelling):
        assert run([*_command(words, tmp_path), spelling]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" not in captured.err
        assert captured.err.endswith(
            f"error: argument {words[-1]}: expected an integer in ASCII digits, got {spelling!r}\n"
        )
        assert not (tmp_path / "t.csv").exists()

    @pytest.mark.parametrize("words", INTEGER_OPTIONS, ids=lambda w: f"{w[0]}{w[-1]}")
    def test_too_many_digits_are_a_usage_error(self, capsys, tmp_path, words):
        assert run([*_command(words, tmp_path), "7" * 5000]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(f"error: argument {words[-1]}: too many digits to parse: 5000\n")


# every rational and decimal the commands take, each written as "X" in an
# otherwise valid command, with a token that the command accepts there
POSITIONALS = [
    (["eval-f", "X"], "1/3"),
    (["eval-F", "X"], "1/3"),
    (["eval-f", "1/3", "--a", "X"], "1/4"),
    (["approx-f", "X", "--tol", "0.001"], "0.5"),
    (["approx-f", "0.5", "--tol", "X"], "0.001"),
]


class TestWhitespace:
    """Rationals and decimals are read as written: whitespace around one, a
    trailing newline included, is invalid input."""

    @pytest.mark.parametrize("spelling", [" {}", "{} ", "{}\n", "\t{}", "{}\r\n"])
    @pytest.mark.parametrize("words,token", POSITIONALS, ids=["f", "F", "a", "approx", "tol"])
    def test_whitespace_is_refused(self, capsys, words, token, spelling):
        assert run([token if w == "X" else w for w in words]) == 0
        capsys.readouterr()
        assert run([spelling.format(token) if w == "X" else w for w in words]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


# tokens that no option of any kind accepts, or accepts only by luck
_JUNK = st.sampled_from(["", " ", "\t", "\n", "-", "+3", "1_0", "٣", "３", " 1", "1 ", "abc", "7" * 5000])


def _token(*good):
    """One of the ``good`` tokens or, one time in four, junk."""
    return st.integers(0, 3).flatmap(lambda k: st.sampled_from(good) if k else _JUNK)


_SMALL = _token("0", "1", "2", "3", "-1")
_RATIONAL = _token("0", "1", "1/3", "2/7", "5/9", "3/2", "1/0", "-1/2", "1/" + "7" * 5000)
_DECIMAL = _token("0", "1", "0.5", ".25", "0.", "0.001", "2.5", "0." + "3" * 5000)


def _option(flag, values):
    """[flag, value] or, one time in eight, nothing."""
    return st.tuples(st.integers(0, 7), values).map(lambda t: [flag, t[1]] if t[0] else [])


def _argv(out_paths):
    """One argv of some subcommand: each option drawn from a few good values and
    from junk, and each of them sometimes left out.  The groups (an option and
    its value, or a positional) come in any order, and sometimes one more group
    of the same subcommand repeats an option or adds a positional."""
    target = _option("--target", _token("f", "F", "g"))
    case = _option("--case", _token("i", "iv", "v", "vi", "vii"))
    shapes = {
        "eval-f": [_RATIONAL.map(lambda v: [v]), _option("--a", _RATIONAL)],
        "eval-F": [_RATIONAL.map(lambda v: [v])],
        "approx-f": [_DECIMAL.map(lambda v: [v]), _option("--tol", _DECIMAL)],
        "closed-form": [
            target, case, _option("--i", _token("1", "2", "1000", "-2")),
            st.just([]) | _option("--j", _SMALL),
        ],
        "iterate": [
            target, _option("--level", _SMALL), st.just([]) | _option("--a", _RATIONAL),
            _option("--format", _token("csv", "svg")), _option("--out", st.sampled_from(out_paths)),
        ],
        "boxdim": [_option("--max-level", _SMALL), _option("--format", _token("table", "json"))],
        "arclength": [_option("--max-level", _SMALL)],
        "measure": [_option("--digits", _token("0", "012", "2" * 60, "0a"))],
        "verify": [
            _option("--suite", _token("all", "geometry", "family", "none")),
            _option("--cases", _SMALL), _option("--seed", _token("0", "42", str(2**64), "-3")),
        ],
    }
    return st.sampled_from(sorted(shapes)).flatmap(
        lambda name: st.tuples(*shapes[name], st.just([]) | st.one_of(shapes[name]))
        .flatmap(st.permutations)
        .map(lambda parts: [name, *sum(parts, [])])
    )


class TestArgvFuzz:
    """Whatever the argv, a command exits 0, 1 or 2 without a traceback, prints
    nothing to stdout unless it succeeds, and on invalid input ends stderr in
    one error line."""

    @given(data=st.data())
    @settings(
        max_examples=300, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_every_exit_is_clean(self, capsys, tmp_path, data):
        argv = data.draw(_argv([str(tmp_path / "t.csv"), str(tmp_path)]))
        capsys.readouterr()
        code = run(argv)
        captured = capsys.readouterr()
        assert code in (0, 1, 2)
        assert "Traceback" not in captured.err
        if code:
            assert captured.out == ""
        if code == 1:
            lines = captured.err.splitlines()
            assert captured.err.endswith("\n") and "error: " in lines[-1]
            assert sum("error:" in line for line in lines) == 1
