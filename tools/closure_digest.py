"""One SHA-256 over the exact values of every closure at a fixed set of points.

Usage:

    PYTHONPATH=src python tools/closure_digest.py

The points are 1,500 draws of ``SplitMix64(3).next_fraction(30000)``, then
7/49999, 1/99023, 5/6009, 5/17991, 1/7, 2/13, 0, 1/3 and 1: long periods of
both kinds, a terminating point and both ends.  At each point, in this
order, the digest takes f (``eval_exact``), f_a at a = 37/76, F
(``eval_F_exact``) and ``from_ternary(to_ternary(x))``, each as the ASCII
text ``f"{numerator:x}/{denominator:x}"`` of the reduced value, with no
separator.  It prints the number of points and the hex digest.  Two trees
whose closures give the same values print the same line, so a change that
should leave every value alone can be checked against its parent.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction

from bourbaki import FamilyParam, eval_exact, eval_F_exact, from_ternary, to_ternary
from bourbaki.prng import SplitMix64

FIXED_POINTS = (
    Fraction(7, 49999), Fraction(1, 99023), Fraction(5, 6009), Fraction(5, 17991),
    Fraction(1, 7), Fraction(2, 13), Fraction(0), Fraction(1, 3), Fraction(1),
)


def points() -> list[Fraction]:
    rng = SplitMix64(3)
    return [rng.next_fraction(30000) for _ in range(1500)] + list(FIXED_POINTS)


def main() -> None:
    digest = hashlib.sha256()
    param = FamilyParam(Fraction(37, 76))
    xs = points()
    for x in xs:
        for v in (eval_exact(x), eval_exact(x, param), eval_F_exact(x), from_ternary(to_ternary(x))):
            digest.update(f"{v.numerator:x}/{v.denominator:x}".encode())
    print(len(xs), digest.hexdigest())


if __name__ == "__main__":
    main()
