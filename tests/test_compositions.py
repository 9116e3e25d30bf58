import random
import re

import pytest
from hypothesis import given, strategies as st

from helpers import random_composition
from seaweeds import (
    NULL,
    BiComposition,
    Composition,
    iter_compositions,
    parse_maybe,
    rho,
    scale,
    theta,
)

parts_lists = st.lists(st.integers(min_value=1, max_value=9), min_size=1, max_size=8)


def test_parts_count_examples():
    assert Composition((1,)).num_parts == 1
    assert Composition((2, 3, 2)).num_parts == 3
    assert Composition((1, 4, 4)).num_parts == 3


def test_sum_examples():
    assert Composition((1,)).total == 1
    assert Composition((4, 3)).total == 7
    assert Composition((2, 2, 1, 2, 1)).total == 8


@pytest.mark.parametrize("bad", [(), (0,), (-1, 2), (1, 0, 3)])
def test_rejects_nonpositive_parts(bad):
    with pytest.raises(ValueError):
        Composition(bad)


def test_rejects_non_integer_parts():
    with pytest.raises(ValueError):
        Composition((1.5, 2))
    with pytest.raises(ValueError):
        Composition((True, 1))


def test_int_subclass_parts_pass_and_errors_keep_their_text():
    class Count(int):
        pass

    a = Composition((Count(2), 3))
    assert a.parts == (2, 3) and type(a.parts[0]) is Count
    for bad in ((True, 1), (1, False), (2, 0), (1.0, 2), (2, -1), (Count(0), 1)):
        with pytest.raises(ValueError, match=re.escape(f"parts must be positive integers, got {bad!r}")):
            Composition(bad)


def test_bicomposition_rejects_unequal_sums():
    with pytest.raises(ValueError):
        BiComposition(Composition((1, 2)), Composition((4,)))


def test_swap_rho_examples():
    assert rho(BiComposition.parse("2|1,1")) == BiComposition.parse("1,1|2")
    assert rho(NULL) is NULL
    fixed = BiComposition.parse("1|1")
    assert rho(fixed) == fixed


def test_reverse_theta_examples():
    assert theta(Composition((1, 2))) == Composition((2, 1))
    assert theta(Composition((2, 1, 4))) == Composition((4, 1, 2))
    assert theta(Composition((3,))) == Composition((3,))


def test_scale_examples():
    assert scale(3, BiComposition.parse("1|1")) == BiComposition.parse("3|3")
    assert scale(2, BiComposition.parse("1,2|3")) == BiComposition.parse("2,4|6")
    a = BiComposition.parse("2,3,2|4,3")
    assert scale(1, a) == a
    with pytest.raises(ValueError):
        scale(0, a)


@given(parts_lists)
def test_theta_involution_preserves_stats(parts):
    c = Composition(tuple(parts))
    assert theta(theta(c)) == c
    assert theta(c).num_parts == c.num_parts
    assert theta(c).total == c.total


@given(parts_lists, st.integers(0, 2**32 - 1))
def test_rho_involution(pa, seed):
    minus = random_composition(random.Random(seed), sum(pa))
    a = BiComposition(Composition(tuple(pa)), Composition(minus))
    assert rho(rho(a)) == a
    assert rho(a).parts_pair == (a.parts_pair[1], a.parts_pair[0])
    assert rho(a).num_parts == a.num_parts


@given(parts_lists)
def test_text_round_trip(parts):
    c = Composition(tuple(parts))
    assert Composition.parse(str(c)) == c
    b = BiComposition(c, Composition((c.total,)))
    assert BiComposition.parse(str(b)) == b


def test_parse_rejects_garbage():
    # int alone would take the underscore, the sign, the Arabic-Indic three
    # and the space after the comma
    for text in ["", "1,,2", "a,b", "1, 2x", "1|2", "1_0", "+3", "\u0663", "3, 4"]:
        with pytest.raises(ValueError, match="not a composition"):
            Composition.parse(text)
    with pytest.raises(ValueError):
        BiComposition.parse("1,2")


def test_parse_keeps_outer_whitespace_and_leading_zeros():
    assert Composition.parse(" 3") == Composition.parse("03") == Composition((3,))
    assert Composition.parse("\t2,03\n") == Composition((2, 3))


def test_null_conventions():
    assert NULL.total == 0
    assert NULL.num_parts == 0
    assert NULL.parts_pair == (0, 0)
    assert str(NULL) == "o"
    assert parse_maybe("o") is NULL
    assert parse_maybe("1,2|3") == BiComposition.parse("1,2|3")


@pytest.mark.parametrize("n", range(1, 11))
def test_iter_compositions_complete(n):
    comps = list(iter_compositions(n))
    assert len(comps) == 2 ** (n - 1)
    assert len(set(comps)) == len(comps)
    assert all(sum(c) == n and min(c) >= 1 for c in comps)
    # lexicographic, the order odd_compositions and the census sides rely on
    assert comps == sorted(comps)


def test_iter_compositions_deeper_than_the_recursion_limit():
    assert next(iter_compositions(5000)) == (1,) * 5000


def test_iter_compositions_rejects_zero():
    with pytest.raises(ValueError):
        list(iter_compositions(0))
