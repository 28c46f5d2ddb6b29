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

from bourbaki import geometry, verify
from bourbaki.cli import run
from bourbaki.errors import ParameterError
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

        def widened(report):
            lo, value, hi = bounds(report)
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
            r = count(i)
            return geometry.BoxCountReport(r.level, r.delta, r.count + 1)

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
        monkeypatch.setattr(verify, "dimension_estimate", lambda rs: estimates[rs[0].level])
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

    def test_help_exits_0(self, capsys):
        assert run(["--help"]) == 0
        assert "bourbaki" in capsys.readouterr().out
