"""Self-verification suites over randomly sampled exact inputs.

Each suite replays a family of identities at arguments drawn from a seeded
SplitMix64 stream, so a run is reproducible from its seed alone.  All
checks are exact rational comparisons except the geometry suite, whose
transcendental estimates are compared against 50-digit decimal targets.
Each suite records its checks, one ``equal`` or ``holds`` call each, on the
``VerifyReport`` that ``run_verification`` returns.

Suite contents:

* ``symmetry``   point symmetry of f and the symmetric-interval identity
                 of its antiderivative F.
* ``scaling``    the left, mirrored and right self-affine identities of f,
                 the closed-form special values they imply, and the
                 ternary-expansion round trip they rest on.
* ``integrals``  fixed values of F, its three scaling identities, and the
                 closed-form integrals at periodic-expansion points.
* ``geometry``   box counts, cover areas, interval masses and arc-length
                 monotonicity at small levels.
* ``family``     symmetry and left scaling for random parameters a, plus
                 the a = 2/3 member inside its column of the classical
                 level-8 table, two levels past the level-6 table of that
                 same refinement whose columns the closure reads.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from decimal import ROUND_FLOOR, Context, Decimal
from fractions import Fraction
from itertools import product
from math import isqrt
from typing import Callable

from .antiderivative import (
    eval_F_exact,
    integral_closed_form,
    integral_symmetric,
    range_integral,
)
from .errors import ParameterError
from .function import CLASSICAL, FamilyParam, build_iterate, closed_form_value, eval_exact
from .geometry import (
    arc_length_profile,
    box_count,
    cover_level,
    dimension_estimate,
    interval_mass,
    mass_bound_check,
)
from .prng import SplitMix64
from .render import format_rational
from .ternary import check_index, from_ternary, to_ternary

_MAX_DENOMINATOR = 10**4
MAX_SAMPLES = 10_000


@dataclass(slots=True)
class VerifyReport:
    """Outcome of one verification run, recorded check by check.

    Each failure records the offending input together with the expected
    and actual values, all rendered as exact strings.
    """

    suite: str
    cases: int
    failures: list[dict[str, str]] = field(default_factory=list)
    elapsed_ms: float = 0.0

    def equal(self, input_desc: str, expected, actual) -> None:
        self.cases += 1
        if expected != actual:
            self.failures.append(
                {"input": input_desc, "expected": _render(expected), "actual": _render(actual)}
            )

    def holds(self, input_desc: str, condition: bool) -> None:
        self.equal(input_desc, "true", "true" if condition else "false")

    def to_json(self) -> str:
        """Serialize for machine consumption.

        The timing field is deliberately omitted so that runs with equal
        seeds produce byte-identical output.
        """
        payload = {"suite": self.suite, "cases": self.cases, "failures": self.failures}
        return json.dumps(payload, indent=2)


def _render(value) -> str:
    if isinstance(value, Fraction):
        return format_rational(value)
    if isinstance(value, tuple):  # a closed form's (x, value)
        return f"({', '.join(map(_render, value))})"
    return str(value)


def _random_x(rng: SplitMix64) -> Fraction:
    return rng.next_fraction(_MAX_DENOMINATOR)


def _random_level(rng: SplitMix64) -> int:
    return 1 + rng.next_below(5)


def _suite_symmetry(check: VerifyReport, rng: SplitMix64, samples: int) -> None:
    for _ in range(samples):
        x = _random_x(rng)
        check.equal(
            f"symmetry of f at x={x}",
            Fraction(1),
            eval_exact(x) + eval_exact(1 - x),
        )
        check.equal(
            f"symmetric interval of F at x={x}",
            integral_symmetric(x),
            eval_F_exact(1 - x) - eval_F_exact(x),
        )
    check.equal("fixed point at x=1/2", Fraction(1, 2), eval_exact(Fraction(1, 2)))


def _closed_form_points(i: int) -> dict[str, Fraction]:
    """The documented point of each closed-form case i to iv at index i, for f and F."""
    p = 3**i
    return {"i": Fraction(1, p + 1), "ii": Fraction(1, p - 1),
            "iii": Fraction(2, p + 1), "iv": Fraction(2, p - 1)}


def _suite_scaling(check: VerifyReport, rng: SplitMix64, samples: int) -> None:
    for _ in range(samples):
        x = _random_x(rng)
        i = _random_level(rng)
        fx = eval_exact(x)
        check.equal(
            f"left scaling of f at x={x}, i={i}",
            Fraction(2, 3) ** i * fx,
            eval_exact(x / 3**i),
        )
        check.equal(
            f"mirrored scaling of f at x={x}, i={i}",
            Fraction(2 ** (i - 1), 3**i) * (1 + fx),
            eval_exact((2 - x) / 3**i),
        )
        check.equal(
            f"right scaling of f at x={x}, i={i}",
            Fraction(2, 3) ** i * fx + Fraction(2 ** (i - 1), 3**i),
            eval_exact((2 + x) / 3**i),
        )
        check.equal(
            f"ternary round trip at x={x}",
            x,
            from_ternary(to_ternary(x)),
        )
    for i in range(1, 7):
        for case, point in _closed_form_points(i).items():
            x, v = closed_form_value(case, i)
            check.equal(f"closed form {case} for f at i={i}", (point, v), (x, eval_exact(x)))
        for j in range(i + 1, i + 4):
            for case, point in (("v", Fraction(1, 3**j + 3**i)), ("vi", Fraction(1, 3**j - 3**i))):
                x, v = closed_form_value(case, i, j)
                check.equal(
                    f"closed form {case} for f at i={i}, j={j}", (point, v), (x, eval_exact(x))
                )


def _suite_integrals(check: VerifyReport, rng: SplitMix64, samples: int) -> None:
    fixed = [
        (Fraction(1), Fraction(1, 2)),
        (Fraction(1, 2), Fraction(1, 5)),
        (Fraction(1, 3), Fraction(1, 9)),
        (Fraction(2, 3), Fraction(5, 18)),
        (Fraction(1, 4), Fraction(1, 14)),
    ]
    for x, value in fixed:
        check.equal(f"value of F at x={x}", value, eval_F_exact(x))
    check.equal(
        "integral over the middle third",
        Fraction(1, 6),
        range_integral(Fraction(1, 3), Fraction(2, 3)),
    )
    for _ in range(samples):
        x = _random_x(rng)
        i = _random_level(rng)
        Fx = eval_F_exact(x)
        lead = Fraction(2 ** (i - 1), 9**i)
        check.equal(
            f"left scaling of F at x={x}, i={i}",
            Fraction(2, 9) ** i * Fx,
            eval_F_exact(x / 3**i),
        )
        check.equal(
            f"mirrored scaling of F at x={x}, i={i}",
            lead * (Fraction(5, 2) - x - Fx),
            eval_F_exact((2 - x) / 3**i),
        )
        check.equal(
            f"right scaling of F at x={x}, i={i}",
            lead * x + Fraction(2, 9) ** i * Fx,
            eval_F_exact((2 + x) / 3**i) - eval_F_exact(Fraction(2, 3**i)),
        )
    for i in range(1, 7):
        for case, point in _closed_form_points(i).items():
            x, v = integral_closed_form(case, i)
            check.equal(f"closed form {case} for F at i={i}", (point, v), (x, eval_F_exact(x)))


def _suite_geometry(check: VerifyReport, rng: SplitMix64, samples: int) -> None:
    for i in range(6):
        check.equal(f"box count at level {i}", 5**i, box_count(i))
        check.equal(
            f"cover area at level {i}",
            Fraction(5, 9) ** i,
            sum(r.area for r in cover_level(i)),
        )
    for i in range(6):
        check.equal(
            f"total interval mass at level {i}",
            Fraction(1),
            sum(interval_mass(p) for p in product(range(3), repeat=i)),
        )
        check.holds(f"mass bound at level {i}", mass_bound_check(i))
    # explicit 50-digit contexts: the caller's decimal context is never read
    target = dimension_estimate(5, box_count(5))
    check.holds(
        "dimension estimates agree across levels",
        Context(prec=50).subtract(dimension_estimate(3, box_count(3)), target).copy_abs()
        < Decimal("1e-45"),
    )
    lengths = list(arc_length_profile(6))
    # sqrt(5)/2 rounded down, from the integer square root of 5 * 10**100
    lower = Context(prec=50, rounding=ROUND_FLOOR).divide(isqrt(5 * 10**100), 2 * 10**50)
    check.holds(
        "arc lengths strictly increasing",
        all(a < b for a, b in zip(lengths, lengths[1:])),
    )
    check.holds(
        "arc lengths within [sqrt(5)/2, 3/2)",
        all(lower <= v < Decimal("1.5") for v in lengths),
    )


def _random_param(rng: SplitMix64) -> FamilyParam:
    while True:
        a = rng.next_fraction(100)
        if 0 < a < 1:
            return FamilyParam(a)


def _suite_family(check: VerifyReport, rng: SplitMix64, samples: int) -> None:
    # over each level-8 column the classical graph lies between the column's end values
    cols, ynums = 3**8, build_iterate(8).y_numerators
    for _ in range(samples):
        param = _random_param(rng)
        x = _random_x(rng)
        a = param.a
        fx = eval_exact(x, param)
        check.equal(
            f"family symmetry at x={x}, a={a}",
            Fraction(1),
            fx + eval_exact(1 - x, param),
        )
        i = _random_level(rng)
        check.equal(
            f"family left scaling at x={x}, a={a}, i={i}",
            a**i * fx,
            eval_exact(x / 3**i, param),
        )
        check.equal(f"family value at 1/3 for a={a}", a, eval_exact(Fraction(1, 3), param))
        k = min(x.numerator * cols // x.denominator, cols - 1)
        y = cols * eval_exact(x, CLASSICAL)
        check.holds(
            f"classical member in its level-8 column at x={x}",
            min(ynums[k], ynums[k + 1]) <= y <= max(ynums[k], ynums[k + 1]),
        )


_SUITES: dict[str, Callable[[VerifyReport, SplitMix64, int], None]] = {
    "symmetry": _suite_symmetry,
    "scaling": _suite_scaling,
    "integrals": _suite_integrals,
    "geometry": _suite_geometry,
    "family": _suite_family,
}


def available_suites() -> tuple[str, ...]:
    """Names accepted by run_verification, with "all" first."""
    return ("all",) + tuple(_SUITES)


def run_verification(
    suite: str = "all", seed: int = 0, samples: int = 200
) -> VerifyReport:
    """Run one suite (or every suite in order) and report the outcome.

    samples controls how many random cases each suite draws; fixed
    deterministic checks run regardless.  The whole run consumes a single
    generator seeded once, so the stream of cases is a pure function of
    (suite, seed, samples).  samples above MAX_SAMPLES raise
    ``ResourceLimitError``.
    """
    if suite not in available_suites():
        names = ", ".join(available_suites())
        raise ParameterError(f"suite must be one of {names}, got {suite!r}")
    check_index(samples, "samples", 1, MAX_SAMPLES)
    rng = SplitMix64(seed)
    report = VerifyReport(suite, 0)
    start = time.perf_counter()
    if suite == "all":
        for run in _SUITES.values():
            run(report, rng, samples)
    else:
        _SUITES[suite](report, rng, samples)
    report.elapsed_ms = (time.perf_counter() - start) * 1000.0
    return report
