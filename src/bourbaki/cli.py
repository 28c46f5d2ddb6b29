"""Command-line front end.

Exit codes: 0 on success, 1 on invalid input or parse errors, 2 when a
verification run (or an internal consistency cross-check) fails.  All
stdout output is byte-identical across runs for identical arguments;
timing and progress notes go to stderr.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction

from .antiderivative import build_F_iterate, eval_F_exact, integral_closed_form
from .errors import BourbakiError, ConsistencyError, ParameterError, ParseError
from .function import (
    CLASSICAL,
    FamilyParam,
    approx_eval,
    build_iterate,
    closed_form_value,
    eval_exact,
    parse_decimal,
)
from .geometry import arc_length_profile, box_count, dimension_estimate, interval_mass
from .render import (
    csv_table,
    decimal_12,
    format_rational,
    format_value,
    svg_polyline,
)
from .verify import available_suites, run_verification

_RATIONAL_RE = re.compile(r"^([0-9]+)(?:/([0-9]+))?$")


def _parse_rational(text: str) -> Fraction:
    """Parse "p/q" (or a bare nonnegative integer) into a Fraction."""
    m = _RATIONAL_RE.match(text.strip())
    if not m:
        raise ParseError(f"expected a rational like p/q, got {text!r}")
    p, q = parse_decimal(m.group(1)), parse_decimal(m.group(2) or "1")
    if q == 0:
        raise ParseError(f"zero denominator in {text!r}")
    return p / q


def _family(a_text: str | None) -> FamilyParam:
    if a_text is None:
        return CLASSICAL
    return FamilyParam(_parse_rational(a_text))


def _cmd_eval_f(args) -> int:
    value = eval_exact(_parse_rational(args.x), _family(args.a))
    print(format_value(value))
    return 0


def _cmd_eval_F(args) -> int:
    print(format_value(eval_F_exact(_parse_rational(args.x))))
    return 0


def _cmd_approx_f(args) -> int:
    low, high = approx_eval(args.x, parse_decimal(args.tol))
    print(f"lower: {format_value(low)}")
    print(f"upper: {format_value(high)}")
    return 0


def _cmd_closed_form(args) -> int:
    if args.target == "f":
        x, value = closed_form_value(args.case, args.i, args.j)
        label = "f(x)"
    else:
        if args.j is not None:
            raise ParameterError("--j applies only to --target f")
        x, value = integral_closed_form(args.case, args.i)
        label = "F(x)"
    print(f"x = {format_value(x)}")
    print(f"{label} = {format_value(value)}")
    return 0


def _cmd_iterate(args) -> int:
    if args.target == "f":
        table = build_iterate(args.level, _family(args.a))
    else:
        if args.a is not None:
            raise ParameterError("--a applies only to --target f")
        table = build_F_iterate(args.level)
    content = csv_table(table) if args.format == "csv" else svg_polyline(table)
    with open(args.out, "w", encoding="utf-8", newline="") as handle:
        handle.write(content)
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


def _cmd_boxdim(args) -> int:
    reports = [box_count(i) for i in range(args.max_level + 1)]
    estimate = decimal_12(dimension_estimate(reports))
    if args.format == "table":
        print("level delta count")
        for r in reports:
            print(f"{r.level} {format_rational(r.delta)} {r.count}")
        print(f"estimate {estimate}")
    else:
        payload = {
            "levels": [
                {"level": r.level, "delta": format_rational(r.delta), "count": r.count}
                for r in reports
            ],
            "estimate": estimate,
        }
        print(json.dumps(payload, indent=2))
    return 0


def _cmd_arclength(args) -> int:
    for level, length in enumerate(arc_length_profile(args.max_level)):
        print(f"{level} {decimal_12(length)}")
    return 0


def _cmd_measure(args) -> int:
    print(format_value(interval_mass(args.digits)))
    return 0


def _cmd_verify(args) -> int:
    if not 0 <= args.seed < 2**64:
        raise ParameterError(f"seed must fit in 64 unsigned bits, got {args.seed}")
    report = run_verification(args.suite, args.seed, args.cases)
    print(report.to_json())
    print(
        f"suite {report.suite}: {report.cases} cases, "
        f"{len(report.failures)} failures ({report.elapsed_ms:.0f} ms)",
        file=sys.stderr,
    )
    return 0 if report.passed else 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bourbaki",
        description=(
            "Exact evaluation, construction and geometry of a classical "
            "continuous nowhere-differentiable function."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval-f", help="exact value of f (or a family member)")
    p.add_argument("x", metavar="P/Q", help="rational point in [0, 1]")
    p.add_argument("--a", metavar="P/Q", help="family parameter in (0, 1)")
    p.set_defaults(handler=_cmd_eval_f)

    p = sub.add_parser("eval-F", help="exact value of the antiderivative F")
    p.add_argument("x", metavar="P/Q", help="rational point in [0, 1]")
    p.set_defaults(handler=_cmd_eval_F)

    p = sub.add_parser("approx-f", help="certified enclosure of f at a decimal point")
    p.add_argument("x", metavar="DECIMAL", help="decimal point in [0, 1]")
    p.add_argument(
        "--tol", metavar="DECIMAL", required=True, help="maximum enclosure width"
    )
    p.set_defaults(handler=_cmd_approx_f)

    p = sub.add_parser("closed-form", help="known special value of f or F")
    p.add_argument("--target", choices=["f", "F"], required=True)
    p.add_argument(
        "--case",
        choices=["i", "ii", "iii", "iv", "v", "vi"],
        required=True,
        help="closed-form case (F supports i through iv)",
    )
    p.add_argument("--i", metavar="N", type=int, required=True, help="first index")
    p.add_argument(
        "--j", metavar="N", type=int, help="second index (f cases v and vi only)"
    )
    p.set_defaults(handler=_cmd_closed_form)

    p = sub.add_parser("iterate", help="dump a construction iterate as CSV or SVG")
    p.add_argument("--target", choices=["f", "F"], required=True)
    p.add_argument("--level", metavar="N", type=int, required=True)
    p.add_argument("--a", metavar="P/Q", help="family parameter (f only)")
    p.add_argument("--format", choices=["csv", "svg"], required=True)
    p.add_argument("--out", metavar="PATH", required=True, help="output file")
    p.set_defaults(handler=_cmd_iterate)

    p = sub.add_parser("boxdim", help="box counts and dimension estimate")
    p.add_argument("--max-level", metavar="N", type=int, required=True)
    p.add_argument("--format", choices=["table", "json"], default="table")
    p.set_defaults(handler=_cmd_boxdim)

    p = sub.add_parser("arclength", help="arc lengths of antiderivative iterates")
    p.add_argument("--max-level", metavar="N", type=int, required=True)
    p.set_defaults(handler=_cmd_arclength)

    p = sub.add_parser("measure", help="mass of a ternary interval")
    p.add_argument(
        "--digits", metavar="DIGITS", required=True, help="address string over 012"
    )
    p.set_defaults(handler=_cmd_measure)

    p = sub.add_parser("verify", help="run identity verification suites")
    p.add_argument(
        "--suite",
        choices=available_suites(),
        default="all",
    )
    p.add_argument("--cases", metavar="N", type=int, default=200)
    p.add_argument("--seed", metavar="N", type=int, default=0)
    p.set_defaults(handler=_cmd_verify)

    return parser


def run(argv=None) -> int:
    """Parse arguments, dispatch, and translate errors to exit codes."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; this tool reserves 2 for
        # verification failures, so usage problems map to 1.
        return 0 if exc.code in (None, 0) else 1
    try:
        return args.handler(args)
    except ConsistencyError as exc:
        print(f"error: internal consistency check failed: {exc}", file=sys.stderr)
        return 2
    except BourbakiError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())
