"""Deterministic pseudo-random generator for reproducible verification runs.

SplitMix64 is used because its output is a pure function of a 64-bit seed
and a step counter, so identical seeds give identical case streams across
platforms and Python versions.  The stdlib ``random`` module makes no such
cross-version guarantee for its distribution methods.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ParameterError
from .ternary import check_index

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


class SplitMix64:
    """64-bit counter-based generator (Steele, Lea and Flood's mixer)."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        if type(seed) is not int:
            raise ParameterError(f"seed must be an integer, got {seed!r}")
        self._state = seed & _MASK

    def next_word(self) -> int:
        """Return the next 64-bit output word."""
        self._state = (self._state + _GAMMA) & _MASK
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK
        return (z ^ (z >> 31)) & _MASK

    def next_below(self, n: int) -> int:
        """Return a uniform integer in [0, n) by rejection sampling."""
        check_index(n, "bound", 1)
        # Largest multiple of n not exceeding 2**64; words at or above it
        # would bias the residue, so they are discarded.
        limit = (_MASK + 1) - ((_MASK + 1) % n)
        while True:
            w = self.next_word()
            if w < limit:
                return w % n

    def next_fraction(self, max_denominator: int) -> Fraction:
        """Return a uniform-ish rational in [0, 1] with denominator <= bound.

        The denominator q is uniform in [1, max_denominator] and the
        numerator uniform in [0, q], so small denominators are somewhat
        over-represented after reduction.  That is fine for test-case
        generation, which only needs determinism and coverage.
        """
        check_index(max_denominator, "max_denominator", 1)
        q = 1 + self.next_below(max_denominator)
        p = self.next_below(q + 1)
        return Fraction(p, q)

    def next_ternary_rational(self, max_level: int) -> Fraction:
        """Return a random grid point k/3**i with 1 <= i <= max_level."""
        check_index(max_level, "max_level", 1)
        i = 1 + self.next_below(max_level)
        k = self.next_below(3**i + 1)
        return Fraction(k, 3**i)
