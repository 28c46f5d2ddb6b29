"""Integer indices across the exact API: levels, depths, case indices, counts;
and the typed arguments beside them: family parameters, tables, expansions.

Every index must be a true ``int``: ``bool`` (an ``int`` subclass) and any
other type raise ``ParameterError``, and an index over its documented cap
raises ``ResourceLimitError``.  The seed of ``SplitMix64`` is checked the same
way, and pins the generator's reference stream.  Seeds found by inverting the
output mix give the words next to 2**64 that ``next_below``'s rejection limit
separates.  A family parameter must be a ``FamilyParam``, a table a
``BreakpointTable`` and an expansion a ``TernaryExpansion``: anything else,
a bare ``Fraction`` too, raises ``ParameterError`` naming its type.
"""

from fractions import Fraction

import pytest

from bourbaki.antiderivative import build_F_iterate, integral_closed_form, iter_F_iterates
from bourbaki.errors import ParameterError, ResourceLimitError
from bourbaki.function import (
    bracket_value,
    build_iterate,
    closed_form_value,
    eval_exact,
    eval_iterate,
    ifs_refine,
    iter_iterates,
)
from bourbaki.geometry import (
    arc_length_profile,
    box_count,
    cover_level,
    mass_bound_check,
    mass_measure,
)
from bourbaki.prng import SplitMix64
from bourbaki.ternary import check_index, from_ternary
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


MISTYPED = {
    "eval_exact_fraction_param": (lambda: eval_exact(Fraction(1, 3), Fraction(1, 4)), "Fraction"),
    "eval_exact_list_param": (lambda: eval_exact(Fraction(1, 3), [2]), "list"),
    "build_iterate_fraction_param": (lambda: build_iterate(2, Fraction(1, 4)), "Fraction"),
    "iter_iterates_none_param": (lambda: iter_iterates(2, None), "NoneType"),
    "eval_iterate_none_table": (lambda: eval_iterate(None, Fraction(1, 2)), "NoneType"),
    "ifs_refine_str_table": (lambda: ifs_refine("t"), "str"),
    "from_ternary_fraction": (lambda: from_ternary(Fraction(1, 3)), "Fraction"),
}


@pytest.mark.parametrize("name", sorted(MISTYPED))
def test_mistyped_argument_rejected(name):
    call, type_name = MISTYPED[name]
    with pytest.raises(ParameterError, match=f"got {type_name}"):
        call()


def test_bare_fraction_param_says_to_wrap_it():
    with pytest.raises(ParameterError, match=r"wrap a as FamilyParam\(a\)"):
        eval_exact(Fraction(1, 3), Fraction(1, 4))


def test_index_at_its_bounds_accepted():
    assert check_index(4, low=4, cap=4) == 4
    assert closed_form_value("i", 1000)[0] == Fraction(1, 3**1000 + 1)


@pytest.mark.parametrize("seed", [True, False, 1.0])
def test_non_int_seed_rejected(seed):
    with pytest.raises(ParameterError):
        SplitMix64(seed)


def test_seed_gives_the_reference_stream():
    # the first words of the reference splitmix64.c from seed 0: verify's JSON
    # report holds no drawn input, so only this pins the stream of cases
    rng = SplitMix64(0)
    assert [rng.next_word() for _ in range(3)] == [
        0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F,
    ]



def test_seed_gives_the_reference_fractions():
    # verify's points: a denominator from one word, then a numerator from the next
    rng = SplitMix64(0)
    assert [rng.next_fraction(10**4) for _ in range(3)] == [
        Fraction(256, 471), Fraction(41, 80), Fraction(552, 1187),
    ]


_MASK = 2**64 - 1


def _unshift(y: int, k: int) -> int:
    """The x with x ^ (x >> k) == y: each pass recovers k more of its top bits."""
    x = y
    for _ in range(64 // k):
        x = y ^ (x >> k)
    return x


def _seed_for_first_word(word: int) -> int:
    """The seed whose first SplitMix64 word is ``word``: each step of the output
    mix (an xorshift, or a product by an odd constant mod 2**64) is undone."""
    z = _unshift(word, 31) * pow(0x94D049BB133111EB, -1, 2**64) & _MASK
    z = _unshift(z, 27) * pow(0xBF58476D1CE4E5B9, -1, 2**64) & _MASK
    return (_unshift(z, 30) - 0x9E3779B97F4A7C15) & _MASK


@pytest.mark.parametrize(
    "first,drawn,after",
    [
        # 2**64 = 1 mod 3, so bound 3 rejects only the word 2**64 - 1: the draw
        # takes the second word, and the third comes next
        (2**64 - 1, 0xC0986A9C933F53D1 % 3, 0xCDFA10A2E2FF33D6),
        # the largest word it accepts: the draw takes it, and the second comes next
        (2**64 - 2, (2**64 - 2) % 3, 0xC377F4EE0ADC46A5),
    ],
    ids=["rejected", "accepted"],
)
def test_next_below_rejects_only_words_past_the_limit(first, drawn, after):
    seed = _seed_for_first_word(first)
    assert SplitMix64(seed).next_word() == first
    rng = SplitMix64(seed)
    assert rng.next_below(3) == drawn
    assert rng.next_word() == after
