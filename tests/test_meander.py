import itertools

import pytest

from helpers import make_rng, random_bicomposition, random_composition, reference_census
from seaweeds import (
    BiComposition,
    Composition,
    build_meander,
    census,
    index_parabolic,
    index_seaweed,
    is_frobenius,
    iter_compositions,
    render,
    rho,
    theta,
)
from seaweeds.compositions import iter_compositions_odd
from seaweeds.meander import MeanderGraph, component_counts, partner_array, path_size

EXAMPLE = BiComposition.parse("2,3,2|4,3")


def test_build_meander_example():
    g = build_meander(EXAMPLE)
    assert g.n == 7
    assert g.top_arcs == {(1, 2), (3, 5), (6, 7)}
    assert g.bottom_arcs == {(1, 4), (2, 3), (5, 7)}


def test_build_meander_trivial_and_single_block():
    g = build_meander(BiComposition.parse("1|1"))
    assert (g.n, g.top_arcs, g.bottom_arcs) == (1, frozenset(), frozenset())
    g = build_meander(BiComposition.parse("2|2"))
    assert g.top_arcs == {(1, 2)} and g.bottom_arcs == {(1, 2)}


def test_census_examples():
    c = census(build_meander(EXAMPLE))
    assert (c.cycles, c.paths) == (0, 1)
    c = census(build_meander(BiComposition.parse("2|2")))
    assert (c.cycles, c.paths) == (1, 0)
    c = census(build_meander(BiComposition.parse("1,1|1,1")))
    assert (c.cycles, c.paths) == (0, 2)


def test_index_examples():
    assert index_seaweed(BiComposition.parse("1|1")) == 0
    assert index_seaweed(BiComposition.parse("3|3")) == 2
    assert index_seaweed(EXAMPLE) == 0


def test_is_frobenius_examples():
    assert is_frobenius(EXAMPLE)
    assert not is_frobenius(BiComposition.parse("2|2"))
    assert is_frobenius(BiComposition.parse("1,2|3"))


def test_index_parabolic_examples():
    assert index_parabolic(Composition((1, 3))) == 0
    assert index_parabolic(Composition((2, 2))) == 1
    for n in range(1, 21):
        assert index_parabolic(Composition((n,))) == n - 1


def test_layer_degree_bound_exhaustive():
    # each vertex gets at most one partner per layer, for every block shape
    for n in range(1, 15):
        for comp in iter_compositions(n):
            nbr = partner_array(comp, n)
            for v, w in enumerate(nbr):
                if w >= 0:
                    assert w != v and nbr[w] == v


def test_meander_graph_rejects_bad_arcs():
    with pytest.raises(ValueError):
        MeanderGraph(2, frozenset({(1, 1)}), frozenset())
    with pytest.raises(ValueError):
        MeanderGraph(2, frozenset({(1, 3)}), frozenset())
    with pytest.raises(ValueError):
        MeanderGraph(3, frozenset({(1, 2), (2, 3)}), frozenset())


def test_census_against_independent_walk():
    """Union-find census vs endpoint-walk census, exhaustively to sum 8."""
    for n in range(1, 9):
        comps = list(iter_compositions(n))
        for plus, minus in itertools.product(comps, repeat=2):
            got = component_counts(partner_array(plus, n), partner_array(minus, n))
            assert got == reference_census(plus, minus)


def test_census_against_independent_walk_large():
    """Union-find vs endpoint walk on seeded pairs with sums up to a few
    thousand: random pairs (many short components), and two- or three-block
    tops against one block, which give single paths through all n vertices
    when gcd(a, b) = 1 or gcd(a + b, b + c) = 1, and otherwise cycles."""
    rng = make_rng()
    single_paths = []
    for case in range(120):
        n = rng.randint(2, 4000)
        if case % 3 == 0:
            plus, minus = random_composition(rng, n), random_composition(rng, n)
        elif case % 3 == 1:
            a = rng.randint(1, n - 1)
            plus, minus = (a, n - a), (n,)
        else:
            a, b = sorted(rng.sample(range(1, n), 2)) if n > 2 else (1, 1)
            plus, minus = (a, b - a, n - b), (n,)
        if rng.random() < 0.5:
            plus, minus = minus, plus
        got = component_counts(partner_array(plus, n), partner_array(minus, n))
        assert got == reference_census(plus, minus), (plus, minus)
        if got == (0, 1):
            single_paths.append(n)
    assert len(single_paths) >= 20 and max(single_paths) >= 1000
    # gcd(10000, 10001) = 1: one path through 20001 vertices, either way up
    n = 20001
    for plus, minus in (((10000, 10001), (n,)), ((n,), (10000, 10001))):
        assert component_counts(partner_array(plus, n), partner_array(minus, n)) == (0, 1)


def test_path_size():
    n = EXAMPLE.total
    top, bot = partner_array(EXAMPLE.plus.parts, n), partner_array(EXAMPLE.minus.parts, n)
    assert top.index(-1) == 3 and bot.index(-1) == 5
    assert path_size(top, bot, 3) == path_size(top, bot, 5) == 7
    one = partner_array((1,), 1)
    assert path_size(one, one, 0) == 1
    top = bot = partner_array((1, 1), 2)
    assert path_size(top, bot, 0) == path_size(top, bot, 1) == 1
    top, bot = partner_array((1, 2), 3), partner_array((3,), 3)  # 1,2|3 is Frobenius
    assert path_size(top, bot, 0) == path_size(top, bot, 1) == 3
    top = bot = partner_array((2,), 2)
    with pytest.raises(ValueError):
        path_size(top, bot, 0)


def _odd_parts(parts):
    return sum(a % 2 for a in parts)


def test_two_odd_parts_prefilter_lemma():
    """Only two odd parts in total can give one path, and on those the walk
    from the first odd block's bare middle vertex decides Frobenius."""
    cases = []
    for n in range(1, 10):
        comps = [(c, partner_array(c, n), _odd_parts(c)) for c in iter_compositions(n)]
        cases.extend((n, p, q) for p, q in itertools.product(comps, repeat=2))
    for n in range(1, 17):
        block = ((n,), partner_array((n,), n), n % 2)
        cases.extend((n, (c, partner_array(c, n), _odd_parts(c)), block)
                     for c in iter_compositions(n))
    walked = 0
    for n, (plus, top, top_odd), (minus, bot, bot_odd) in cases:
        frobenius = component_counts(top, bot) == (0, 1)
        if top_odd + bot_odd != 2:
            assert not frobenius, (plus, minus)
            continue
        end = top.index(-1) if top_odd else bot.index(-1)
        assert (path_size(top, bot, end) == n) == frobenius, (plus, minus)
        walked += 1
    # the census enumerates exactly these candidates
    def count(n, k):
        return sum(1 for _ in iter_compositions_odd(n, k))

    pairs = sum(count(n, k) * count(n, 2 - k) for n in range(1, 10) for k in range(3))
    blocks = sum(count(n, 2 - n % 2) for n in range(1, 17))
    assert walked == pairs + blocks == 9472


def test_component_partition_random():
    rng = make_rng()
    for _ in range(300):
        a = random_bicomposition(rng, 1, 12)
        g = build_meander(a)
        c = census(g)
        # isolated vertices are paths; per-component sizes add up to n
        assert c.cycles + c.paths >= 1
        assert c.cycles * 2 <= g.n  # cycles need at least two vertices
        assert index_seaweed(a) == 2 * c.cycles + c.paths - 1


def test_index_swap_and_reversal_symmetry():
    rng = make_rng()
    cases = [random_bicomposition(rng, 1, 14) for _ in range(300)]
    for n in range(1, 8):
        comps = list(iter_compositions(n))
        cases.extend(
            BiComposition(Composition(p), Composition(q))
            for p, q in itertools.product(comps, repeat=2)
        )
    for a in cases:
        idx = index_seaweed(a)
        assert index_seaweed(rho(a)) == idx
        assert index_seaweed(BiComposition(theta(a.plus), theta(a.minus))) == idx


def test_full_algebra_rank():
    for n in range(1, 51):
        assert index_seaweed(BiComposition.parse(f"{n}|{n}")) == n - 1


def test_render_dot():
    out = render(build_meander(BiComposition.parse("1|1")), "dot")
    assert out.count(";") == 1 + 0  # one node line, no edges
    assert "--" not in out
    out = render(build_meander(BiComposition.parse("2|2")), "dot")
    assert out.count("--") == 2
    assert 'label="top"' in out and 'label="bottom"' in out
    out = render(build_meander(EXAMPLE), "dot")
    assert out.count("--") == 6
    assert out.startswith("graph meander {") and out.rstrip().endswith("}")


def test_render_ascii():
    out = render(build_meander(EXAMPLE), "ascii")
    lines = out.splitlines()
    vertex_row = next(l for l in lines if l.startswith("1 "))
    assert len(vertex_row.split()) == 7
    text = "".join(lines)
    assert text.count("/") == 6 and text.count("\\") == 6  # 3 arcs per layer


def test_render_unknown_format():
    with pytest.raises(ValueError):
        render(build_meander(EXAMPLE), "svg")
