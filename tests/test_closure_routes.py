"""Block and half-period closures against digit-by-digit references.

``to_ternary`` reads periods six digits at a time, and the closures of f,
f_a, F and ``from_ternary`` compose six-digit block leaves, over half the
period when its second half is the digit complement of the first.  The
references here walk one digit at a time:

* f, f_a and ``from_ternary``: ``reference.compose_chain`` over one
  ``Fraction`` ``AffineMap`` per digit, and its ``affine_fixed_point`` for
  the periodic tail;
* F: a ``Fraction`` walk of the (t, F) maps read off the scaling identities
  of F, one digit at a time, then the fixed point of the period composite.

The denominators cover both kinds of period (antiperiodic, when 3**(L/2) is
-1 mod q', and not) at every L mod 6, with preperiods of 0 to 3 digits.

At denominators up to 10**6, where a digit walk would be slow, the values are
enclosed instead: F by its level-8 table, and f_a by a depth-60 segment of its
refinement.  Neither route reads the digit maps.
"""

from fractions import Fraction
import math

import pytest
from hypothesis import example, given, settings, strategies as st

from bourbaki.antiderivative import build_F_iterate, eval_F_exact
from bourbaki.function import FamilyParam, eval_exact
from bourbaki.ternary import from_ternary, to_ternary
from reference import AffineMap, digit_step_map, reference_bracket, reference_close, reference_F

F = Fraction

# q' -> (period length L, antiperiodic); L mod 6 takes every value 0 .. 5.
PERIODS = {
    7: (6, True), 91: (6, False), 73: (12, True), 65: (12, False), 19: (18, True),
    2: (1, False), 1093: (7, False),
    4: (2, True), 8: (2, False), 41: (8, True), 547: (14, True),
    13: (3, False), 757: (9, False),
    5: (4, True), 40: (4, False), 61: (10, True), 17: (16, True),
    11: (5, False), 23: (11, False),
}


def _full_period_primes(limit: int) -> list[int]:
    """Primes p in (3, limit] with 3 a primitive root mod p: one period of p - 1 digits."""
    sieve = bytearray([1]) * (limit + 1)
    sieve[:2] = b"\0\0"
    for k in range(2, math.isqrt(limit) + 1):
        if sieve[k]:
            sieve[k * k::k] = bytes(len(sieve[k * k::k]))
    out = []
    for p in range(5, limit + 1):
        if sieve[p]:
            n, factors = p - 1, set()
            for k in range(2, math.isqrt(n) + 1):
                while n % k == 0:
                    factors.add(k)
                    n //= k
            factors.add(n)
            if all(pow(3, (p - 1) // r, p) != 1 for r in factors if r > 1):
                out.append(p)
    return out


FULL_PERIOD_PRIMES = _full_period_primes(5 * 10**4)


def _points(q_free):
    """x = (P + start/q')/3**m for m <= 3 preperiod digits P and start coprime to q'."""
    return st.tuples(
        q_free, st.integers(0, 3), st.integers(0, 26), st.integers(1, 5 * 10**4)
    ).map(lambda t: _point(*t))


def _point(qp: int, m: int, pre: int, start: int) -> Fraction:
    start = start % qp
    while qp > 1 and math.gcd(start, qp) != 1:
        start += 1
    return (pre % 3**m + F(start, qp)) / 3**m


listed_points = _points(st.sampled_from(sorted(PERIODS)))
small_points = _points(st.integers(1, 3000).filter(lambda n: n % 3))
long_points = _points(st.sampled_from(FULL_PERIOD_PRIMES))
params = st.fractions(min_value=0, max_value=1, max_denominator=60).filter(
    lambda a: 0 < a < 1
).map(FamilyParam)
deep_points = st.fractions(min_value=0, max_value=1, max_denominator=10**6)
F_TABLE = build_F_iterate(8)


def _base3_step(d: int) -> AffineMap:
    return AffineMap(F(1, 3), F(d, 3))


class TestPeriodKinds:
    @pytest.mark.parametrize("qp", sorted(PERIODS))
    def test_listed_periods(self, qp):
        L, anti = PERIODS[qp]
        assert pow(3, L, qp) == 1 % qp
        assert all(pow(3, k, qp) != 1 for k in range(1, L))
        assert anti == (L % 2 == 0 and pow(3, L // 2, qp) == qp - 1)
        period = to_ternary(F(1, qp)).period
        assert len(period) == L
        # antiperiodic: the second half is the first with digits 0 and 2 swapped
        h = L // 2
        swapped = period[:h].translate(bytes.maketrans(b"\x00\x02", b"\x02\x00"))
        assert (L % 2 == 0 and period[h:] == swapped) == anti

    def test_every_residue_of_L_mod_6_in_both_kinds(self):
        kinds = {(L % 6, anti) for L, anti in PERIODS.values()}
        assert {r for r, _ in kinds} == set(range(6))
        assert {r for r, anti in kinds if not anti} == set(range(6))

    def test_full_period_prime_list(self):
        assert FULL_PERIOD_PRIMES[:6] == [5, 7, 17, 19, 29, 31]
        assert FULL_PERIOD_PRIMES[-1] < 5 * 10**4 < FULL_PERIOD_PRIMES[-1] + 100


class TestRoutesAgree:
    @given(listed_points | small_points, params)
    @settings(deadline=None, max_examples=200)
    @example(F(1), FamilyParam(F(2, 3)))
    @example(F(0), FamilyParam(F(2, 3)))
    def test_short_periods(self, x, param):
        e = to_ternary(x)
        assert eval_exact(x) == reference_close(e, digit_step_map)
        assert eval_exact(x, param) == reference_close(e, lambda d: digit_step_map(d, param.a))
        assert from_ternary(e) == reference_close(e, _base3_step) == x
        assert eval_F_exact(x) == reference_F(x)

    @given(long_points, params)
    @settings(deadline=None, max_examples=5)
    def test_full_period_primes(self, x, param):
        # every period here is antiperiodic, of up to 5 * 10**4 digits
        e = to_ternary(x)
        assert eval_exact(x, param) == reference_close(e, lambda d: digit_step_map(d, param.a))
        assert from_ternary(e) == x

    @pytest.mark.parametrize("x", [F(2, 9 * 1999), F(5, 3 * 3041), F(5, 3 * 2003)])
    def test_F_at_long_periods(self, x):
        # antiperiodic periods of 1998 and 3040 digits, after 2 and 1 preperiod
        # digits, and an odd period of 1001 digits, which takes the full route
        assert eval_F_exact(x) == reference_F(x)

    @pytest.mark.parametrize("qp", [2003, 2027, 2039])
    def test_f_a_at_long_odd_periods(self, qp):
        # odd periods of 1001, 1013 and 1019 digits, after one preperiod digit
        x, param = F(7, 3 * qp), FamilyParam(F(37, 76))
        e = to_ternary(x)
        assert len(e.period) % 2 and len(e.preperiod) == 1
        assert eval_exact(x) == reference_close(e, digit_step_map)
        assert eval_exact(x, param) == reference_close(e, lambda d: digit_step_map(d, param.a))
        assert from_ternary(e) == x


class TestEnclosures:
    @given(deep_points)
    @settings(deadline=None, max_examples=60)
    @example(F(1))
    def test_F_lies_in_its_table_enclosure(self, x):
        # F is nondecreasing with slope f <= 1, so over the column k of the
        # level-L grid, F(x) >= F_L(k) and F(x) <= min(F_L(k + 1), F_L(k) + x - k/3**L)
        n = 3**F_TABLE.level
        k = min(int(x * n), n - 1)
        lo, hi = F_TABLE.y_at(k), F_TABLE.y_at(k + 1)
        assert lo <= eval_F_exact(x) <= min(hi, lo + x - F(k, n))

    @given(deep_points, params)
    @settings(deadline=None, max_examples=60)
    def test_f_a_lies_in_its_segment_bracket(self, x, param):
        lo, hi = reference_bracket(x, param.a, 60)
        assert lo <= eval_exact(x, param) <= hi
