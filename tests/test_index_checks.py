"""Integer indices across the exact API: levels, depths, case indices, counts.

Every index must be a true ``int``: ``bool`` (an ``int`` subclass) and any
other type raise ``ParameterError``, and an index over its documented cap
raises ``ResourceLimitError``.
"""

from fractions import Fraction

import pytest

from bourbaki.antiderivative import build_F_iterate, integral_closed_form, iter_F_iterates
from bourbaki.errors import ParameterError, ResourceLimitError
from bourbaki.function import bracket_value, build_iterate, closed_form_value, iter_iterates
from bourbaki.geometry import (
    arc_length_profile,
    box_count,
    cover_level,
    mass_bound_check,
    mass_measure,
)
from bourbaki.prng import SplitMix64
from bourbaki.ternary import check_index
from bourbaki.verify import run_verification

INDEXED = {
    "build_iterate": build_iterate,
    "build_F_iterate": build_F_iterate,
    "iter_iterates": iter_iterates,
    "iter_F_iterates": iter_F_iterates,
    "closed_form_value_i": lambda i: closed_form_value("i", i),
    "closed_form_value_j": lambda j: closed_form_value("v", 1, j),
    "integral_closed_form": lambda i: integral_closed_form("i", i),
    "bracket_value": lambda depth: bracket_value(Fraction(1, 7), depth),
    "box_count": box_count,
    "cover_level": cover_level,
    "mass_measure": mass_measure,
    "mass_bound_check": mass_bound_check,
    "arc_length_profile": arc_length_profile,
    "run_verification": lambda n: run_verification("symmetry", 1, n),
    "next_below": lambda n: SplitMix64(1).next_below(n),
    "next_fraction": lambda n: SplitMix64(1).next_fraction(n),
    "next_ternary_rational": lambda n: SplitMix64(1).next_ternary_rational(n),
}

CAPPED = {
    "build_iterate": (build_iterate, 14),
    "build_F_iterate": (build_F_iterate, 14),
    "iter_iterates": (iter_iterates, 14),
    "iter_F_iterates": (iter_F_iterates, 14),
    "closed_form_value_i": (lambda i: closed_form_value("i", i), 1001),
    "closed_form_value_j": (lambda j: closed_form_value("v", 1, j), 1001),
    "integral_closed_form": (lambda i: integral_closed_form("i", i), 1001),
    "box_count": (box_count, 11),
    "cover_level": (cover_level, 11),
    "mass_measure": (mass_measure, 9),
    "mass_bound_check": (mass_bound_check, 9),
    "arc_length_profile": (arc_length_profile, 13),
    "run_verification": (lambda n: run_verification("symmetry", 1, n), 10001),
    "bracket_value": (lambda depth: bracket_value(Fraction(1, 7), depth), 1001),
}


@pytest.mark.parametrize("bad", [True, False, 2.0, "3", Fraction(2), None])
@pytest.mark.parametrize("name", sorted(INDEXED))
def test_non_int_index_rejected(name, bad):
    with pytest.raises(ParameterError):
        INDEXED[name](bad)


@pytest.mark.parametrize("name", sorted(CAPPED))
def test_index_over_cap(name):
    fn, over = CAPPED[name]
    with pytest.raises(ResourceLimitError):
        fn(over)


def test_index_at_its_bounds_accepted():
    assert check_index(4, low=4, cap=4) == 4
    assert closed_form_value("i", 1000)[0] == Fraction(1, 3**1000 + 1)


@pytest.mark.parametrize("seed", [True, False, 1.0])
def test_non_int_seed_rejected(seed):
    with pytest.raises(ParameterError):
        SplitMix64(seed)
