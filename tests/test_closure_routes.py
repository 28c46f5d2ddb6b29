"""Block and half-period closures against digit-by-digit references.

``read_point`` reads a rational's digits in one format, six-digit block
values: the preperiod by recursive halving, the period by long division
six digits at a time.  The closures of f, f_a and F compose the table
leaves of those blocks, over half the period when its second half is the
digit complement of the first; ``from_ternary`` values an expansion by
place value and shares no code with them.  The references here walk one
digit at a time, over ``reference.reference_expansion``, a one-digit long
division:

* f, f_a and ``from_ternary``: ``reference.compose_chain`` over one
  ``Fraction`` ``AffineMap`` per digit, and its ``affine_fixed_point`` for
  the periodic tail;
* F: a ``Fraction`` walk of the (t, F) maps read off the scaling identities
  of F, one digit at a time, then the fixed point of the period composite.
  ``eval_F_exact`` instead reads each six-digit block at the long-division
  remainder where it ends, so F(1 - x) - F(x) = 1/2 - x, whose tail
  1 - t walks the remainders from the other end, is checked at full-period
  primes, and long-period values are pinned by their SHA-256.

The denominators cover both kinds of period (antiperiodic, when 3**(L/2) is
-1 mod q', and not) at every L mod 6, so that the division's last block
takes every length from 1 to 6 in both kinds, with preperiods of 0 to 7
digits; f, f_a and F must not build a ``TernaryExpansion`` on the way.

At denominators up to 10**6, where a digit walk would be slow, the values are
enclosed instead: F by its level-8 table, and f_a by a depth-60 segment of its
refinement.  Neither route reads the digit maps.
"""

from fractions import Fraction
import hashlib
import math

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from bourbaki import antiderivative, function, ternary
from bourbaki.antiderivative import build_F_iterate, eval_F_exact
from bourbaki.function import FamilyParam, eval_exact
from bourbaki.ternary import (
    Reading,
    TernaryExpansion,
    from_ternary,
    read_point,
    to_ternary,
)
from reference import (
    AffineMap,
    digit_step_map,
    reference_bracket,
    reference_close,
    reference_expansion,
    reference_F,
)

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


# SHA-256 of f"{numerator:x}/{denominator:x}" for F at long periods
F_DIGESTS = [
    # antiperiodic, 49,998 digits
    (F(7, FULL_PERIOD_PRIMES[-1]), "d3af0d2343df0ad726bd0685a0bec9563b0d6ee4683ff763d3e39a635414e44a"),
    # odd period of 49,511 digits: the full route
    (F(1, 99023), "6d101c73324d51abf26cd1c3d1447131d8ea743e09fd1b3fe0a76fad3aae5632"),
    # two preperiod digits, then an antiperiodic period of 1998 digits
    (F(5, 9 * 1999), "1829e66edd8634552ac7fc22c4e2d1f174a9c6d70147c2b21b860cfbe1e64fef"),
]

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


def _in_F_table_enclosure(x: Fraction, value: Fraction) -> bool:
    # F is nondecreasing with slope f <= 1, so over the column k of the
    # level-L grid, F(x) >= F_L(k) and F(x) <= min(F_L(k + 1), F_L(k) + x - k/3**L)
    n = 3**F_TABLE.level
    k = min(int(x * n), n - 1)
    lo, hi = F_TABLE.y_at(k), F_TABLE.y_at(k + 1)
    return lo <= value <= min(hi, lo + x - F(k, n))


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
    @example(F(7, FULL_PERIOD_PRIMES[-1]), FamilyParam(F(37, 76)))
    def test_full_period_primes(self, x, param):
        # every period here is antiperiodic, of up to 5 * 10**4 digits
        e = to_ternary(x)
        assert eval_exact(x, param) == reference_close(e, lambda d: digit_step_map(d, param.a))
        assert from_ternary(e) == x
        value = eval_F_exact(x)
        assert eval_F_exact(1 - x) - value == F(1, 2) - x
        assert _in_F_table_enclosure(x, value)
        # one constant per block of up to six digits, however long the period
        assert sum(map(len, antiderivative._rows())) == 1 + 3 + 9 + 27 + 81 + 243 + 729

    @pytest.mark.parametrize("x", [F(2, 9 * 1999), F(5, 3 * 3041), F(5, 3 * 2003)])
    def test_F_at_long_periods(self, x):
        # antiperiodic periods of 1998 and 3040 digits, after 2 and 1 preperiod
        # digits, and an odd period of 1001 digits, which takes the full route
        assert eval_F_exact(x) == reference_F(x)

    @pytest.mark.parametrize("x,digest", F_DIGESTS, ids=[str(x) for x, _ in F_DIGESTS])
    def test_F_digests_at_long_periods(self, x, digest):
        v = eval_F_exact(x)
        assert hashlib.sha256(f"{v.numerator:x}/{v.denominator:x}".encode()).hexdigest() == digest

    @pytest.mark.parametrize("qp", [2003, 2027, 2039])
    def test_f_a_at_long_odd_periods(self, qp):
        # odd periods of 1001, 1013 and 1019 digits, after one preperiod digit
        x, param = F(7, 3 * qp), FamilyParam(F(37, 76))
        e = to_ternary(x)
        assert len(e.period) % 2 and len(e.preperiod) == 1
        assert eval_exact(x) == reference_close(e, digit_step_map)
        assert eval_exact(x, param) == reference_close(e, lambda d: digit_step_map(d, param.a))
        assert from_ternary(e) == x


ROUTE_PARAMS = [FamilyParam(F(2, 3)), FamilyParam(F(37, 76)), FamilyParam(F(1, 5))]


def _assert_division_route(x: Fraction) -> None:
    # f, f_a and F from the division's blocks, against one-digit references;
    # to_ternary joins the same division into bytes
    e = reference_expansion(x)
    for param in ROUTE_PARAMS:
        assert eval_exact(x, param) == reference_close(e, lambda d: digit_step_map(d, param.a))
    assert eval_F_exact(x) == reference_F(x)
    assert to_ternary(x) == TernaryExpansion(e.preperiod, e.period)


def _walked(L: int, anti: bool) -> int:
    """The digits the division reads of a period of L digits."""
    return L // 2 if anti else L


class TestDivisionRoute:
    @pytest.mark.parametrize("x", [F(0), F(1), F(1, 2)])
    def test_ends_and_one_half(self, x):
        _assert_division_route(x)

    def test_one_half_reads_the_full_period(self):
        # q' = 2: start = q' - start, and the full-period event wins the tie
        assert read_point(F(1, 2)) == (None, 1, 2, Reading([364], 1, [], False))

    def test_one_reads_a_shared_all_twos_period(self):
        # every read of x = 1 hands out the same reading, so it holds no list
        assert read_point(F(1)) == (None, 1, 1, Reading((728,), 1, (), False))

    @pytest.mark.parametrize(
        "x", [F(1, 3), F(2, 3), F(5, 9), F(26, 27), F(7, 3**5), F(100, 3**6), F(1094, 3**7)]
    )
    def test_terminating_points(self, x):
        assert read_point(x)[3] is None
        _assert_division_route(x)

    @pytest.mark.parametrize(
        "x,pre",
        [
            # 0.21 and 0.2222221: the last block is left-aligned, as a period's
            (F(7, 9), Reading([7 * 3**4], 2)),
            (F(3**7 - 2, 3**7), Reading([728, 3**5], 1)),
            (F(1, 2 * 3**6), Reading([0], 6)),
            (F(1, 7), None),
        ],
    )
    def test_preperiod_reads_six_digit_blocks(self, x, pre):
        assert read_point(x)[0] == pre

    @pytest.mark.parametrize("qp", sorted(PERIODS))
    def test_last_block_of_every_length(self, qp):
        L, anti = PERIODS[qp]
        walked = _walked(L, anti)
        for start in sorted({1, 2, qp // 2, qp - 1}):
            if math.gcd(start, qp) != 1:
                continue
            pre, rho, q_free, (blocks, last, rems, halved) = read_point(F(start, qp))
            assert (pre, rho, q_free, halved) == (None, start, qp, anti)
            assert 6 * len(blocks) - 6 + last == walked and 1 <= last <= 6
            assert len(rems) == len(blocks) - 1
            assert all(0 <= b < 729 for b in blocks)
            _assert_division_route(F(start, qp))

    def test_last_block_lengths_cover_both_kinds(self):
        kinds = {((_walked(L, anti) - 1) % 6 + 1, anti) for L, anti in PERIODS.values()}
        assert kinds == {(n, anti) for n in range(1, 7) for anti in (False, True)}

    @given(
        st.sampled_from(sorted(PERIODS)), st.integers(5, 7), st.integers(0, 3**7),
        st.integers(1, 10**4),
    )
    @settings(deadline=None, max_examples=60)
    @example(7, 7, 3**7 - 2, 1)
    @example(1093, 6, 5, 3)
    def test_preperiods_across_a_block_seam(self, qp, m, pre, start):
        x = _point(qp, m, pre, start)
        assume(len(to_ternary(x).preperiod) == m)
        _assert_division_route(x)

    def test_closures_build_no_expansion(self, monkeypatch):
        points = [
            F(0), F(1), F(1, 2), F(1, 7), F(2, 13), F(5, 9 * 1999), F(1094, 3**7), F(50, 81 * 91),
        ]
        param = FamilyParam(F(37, 76))
        values = [(eval_exact(x), eval_exact(x, param), eval_F_exact(x)) for x in points]

        def refuse(*args, **kwargs):
            raise AssertionError("a closure went through TernaryExpansion")

        for module in (ternary, function, antiderivative):
            for name in ("to_ternary", "TernaryExpansion"):
                monkeypatch.setattr(module, name, refuse, raising=False)
        assert [(eval_exact(x), eval_exact(x, param), eval_F_exact(x)) for x in points] == values


class TestEnclosures:
    @given(deep_points)
    @settings(deadline=None, max_examples=60)
    @example(F(1))
    def test_F_lies_in_its_table_enclosure(self, x):
        assert _in_F_table_enclosure(x, eval_F_exact(x))

    @given(deep_points, params)
    @settings(deadline=None, max_examples=60)
    def test_f_a_lies_in_its_segment_bracket(self, x, param):
        lo, hi = reference_bracket(x, param.a, 60)
        assert lo <= eval_exact(x, param) <= hi
