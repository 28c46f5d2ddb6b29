"""Seeded inputs for the benchmark workloads.

Every generator is a pure function of its seed: the same seed gives the same
inputs.  The program under test only ever sees the values produced here.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

# deep-eval: the 3-free part q' of each denominator is a prime with 3 as a
# primitive root, so every numerator has a full period of q' - 1 base-3
# digits.  The period, not q itself, sets the cost of a point, so pinning it
# to the stratum keeps the total cost of a pass from swinging with the seed.
DEEP_LOG10_RANGE = (3.0, 4.7)
DEEP_POINTS_PER_DECADE = 14
DEEP_MAX_PREPERIOD = 2
DEEP_A_MAX_DEN = 100
DEEP_DECIMAL_DIGITS = 12
DEEP_TOL = Fraction(1, 10**12)
DEEP_SYMMETRY_SHARE = 4  # one point in four is also checked by symmetry

# verify: one fixed case stream.  At 200 cases a suite the cost of a stream
# swings from 2.5 s to 5 s between seeds, because a few long-period draws
# dominate it, so the benchmark seed does not pick the stream.  100 cases a
# suite keep a call near 0.5 s, so a run repeats it often enough that its
# fastest repeat misses the host's slow spells.
VERIFY_SEED = 42
VERIFY_CASES = 25

# tables: each level two below the largest the CLI allows for that step, so
# that no step takes much over 0.3 s and a run repeats every step about thirty
# times.  One level higher, the slowest step took about 1 s, and its fastest
# of ten repeats still moved by a fifth between runs with the host's load.
TABLES_F_LEVEL = 10
TABLES_FF_LEVEL = 9
TABLES_FA_LEVEL = 8
TABLES_ARC_LEVEL = 9
TABLES_BOX_LEVEL = 8
TABLES_COVER_LEVEL = 7
TABLES_CSV_SAMPLES = 48
TABLES_SVG_SAMPLES = 24
TABLES_A_DEN_RANGE = (50, 100)  # a narrow band keeps the f_a step's cost steady

_GOLDEN = (math.sqrt(5) - 1) / 2


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def _prime_factors(n: int) -> set[int]:
    out = set()
    f = 2
    while f * f <= n:
        while n % f == 0:
            out.add(f)
            n //= f
        f += 1
    if n > 1:
        out.add(n)
    return out


def full_period_prime(q: int) -> bool:
    """True when q is a prime > 3 with 3 as a primitive root mod q."""
    if q <= 3 or not _is_prime(q):
        return False
    return all(pow(3, (q - 1) // r, q) != 1 for r in _prime_factors(q - 1))


def _full_period_near(target: float, rng: random.Random) -> int:
    """One of the two full-period primes just below and the two just above."""
    near = []
    q = int(target)
    while len(near) < 2:
        q += 1
        if full_period_prime(q):
            near.append(q)
    q = int(target) + 1
    while len(near) < 4 and q > 5:
        q -= 1
        if full_period_prime(q):
            near.append(q)
    return rng.choice(near)


def _random_a(rng: random.Random, den: int) -> Fraction:
    while True:
        num = rng.randrange(1, den)
        if math.gcd(num, den) == 1:
            return Fraction(num, den)


def deep_eval_points(seed: int) -> list[dict]:
    """Points p/q with q' log-uniform over the range, one per stratum.

    Each stratum also fixes the preperiod length (0, 1 or 2 digits in turn,
    as q = 3**v * q') and the denominator of the family parameter a, from a
    log-uniform schedule over [2, 100], since the f_a closure cost grows with
    its log per digit.  The seed picks the prime near the stratum centre, the
    numerators, the decimal and the symmetry subset.
    """
    rng = random.Random(f"deep-eval:{seed}")
    lo, hi = DEEP_LOG10_RANGE
    slots = round((hi - lo) * DEEP_POINTS_PER_DECADE)
    points = []
    for j in range(slots):
        q_free = _full_period_near(10 ** (lo + (j + 0.5) * (hi - lo) / slots), rng)
        q = 3 ** (j % (DEEP_MAX_PREPERIOD + 1)) * q_free
        while True:
            p = rng.randrange(1, q)
            if p % 3 and p % q_free:
                break
        a_den = round(2 * (DEEP_A_MAX_DEN / 2) ** ((j * _GOLDEN) % 1.0))
        a = _random_a(rng, a_den)
        dec = "0." + "".join(str(rng.randrange(10)) for _ in range(DEEP_DECIMAL_DIGITS))
        points.append(
            {"x": f"{p}/{q}", "a": f"{a.numerator}/{a.denominator}", "dec": dec,
             "period": q_free - 1, "symmetry": False}
        )
    for k in rng.sample(range(slots), slots // DEEP_SYMMETRY_SHARE):
        points[k]["symmetry"] = True
    return points


def tables_plan(seed: int) -> dict:
    """The seeded family parameter and the rows and points sampled for checks."""
    rng = random.Random(f"tables:{seed}")
    lo, hi = TABLES_A_DEN_RANGE
    a = _random_a(rng, rng.randrange(lo, hi + 1))
    return {
        "a": f"{a.numerator}/{a.denominator}",
        "csv_rows": sorted(rng.sample(range(3**TABLES_F_LEVEL + 1), TABLES_CSV_SAMPLES)),
        "F_points": sorted(rng.sample(range(3**TABLES_FF_LEVEL + 1), TABLES_SVG_SAMPLES)),
        "fa_points": sorted(rng.sample(range(3**TABLES_FA_LEVEL + 1), TABLES_SVG_SAMPLES)),
    }


def tables_steps(out_dir: str, a: str) -> list[list[str]]:
    """The CLI argv of each tables step; the in-process cover step is separate."""
    return [
        ["iterate", "--target", "f", "--level", str(TABLES_F_LEVEL),
         "--format", "csv", "--out", f"{out_dir}/f{TABLES_F_LEVEL}.csv"],
        ["iterate", "--target", "F", "--level", str(TABLES_FF_LEVEL),
         "--format", "svg", "--out", f"{out_dir}/F{TABLES_FF_LEVEL}.svg"],
        ["iterate", "--target", "f", "--a", a, "--level", str(TABLES_FA_LEVEL),
         "--format", "svg", "--out", f"{out_dir}/fa{TABLES_FA_LEVEL}.svg"],
        ["arclength", "--max-level", str(TABLES_ARC_LEVEL)],
        ["boxdim", "--max-level", str(TABLES_BOX_LEVEL), "--format", "json"],
    ]
