import bisect
import hashlib
import itertools
import math
import re
import sys
import time

import pytest

from helpers import (
    make_rng,
    odd_compositions,
    pair_sweep,
    random_bicomposition,
    random_composition,
    reference_ascii,
    reference_census,
    reference_partners,
)
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
from seaweeds import meander
from seaweeds.meander import MeanderGraph, component_counts, orbit_size, partner_array

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
            assert len(nbr) == n
            for v, w in enumerate(nbr):
                assert 0 <= w < n and nbr[w] == v


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


def test_partner_array_matches_per_position_reference():
    for n in range(1, 13):
        for parts in iter_compositions(n):
            assert partner_array(parts, n) == tuple(reference_partners(parts, n)), parts


@pytest.mark.parametrize("parts, n", [((3, 3), 4), ((1, 1), 4), ((2, 2, 1), 6)])
def test_partner_array_rejects_parts_of_another_sum(parts, n):
    with pytest.raises(ValueError, match=re.escape(f"parts {parts!r} do not sum to {n}")):
        partner_array(parts, n)
    # the index queries keep the error, on either side
    for plus, minus in ((parts, (n,)), ((n,), parts)):
        with pytest.raises(ValueError, match=re.escape(f"parts {parts!r} do not sum to {n}")):
            meander.index_of_parts(plus, minus, n)


def test_partner_array_rejects_a_sum_above_maxsize():
    huge = sys.maxsize + 1
    with pytest.raises(ValueError, match=f"sum {huge} exceeds the largest supported sum {sys.maxsize}"):
        partner_array((huge,), huge)


def _fixed_points(nbr):
    return [v for v, w in enumerate(nbr) if v == w]


def _odd_middles(parts):
    """The middle position of each odd part, in order."""
    return [sum(parts[:i]) + a // 2 for i, a in enumerate(parts) if a % 2]


def test_partner_array_is_an_involution_fixing_the_odd_middles():
    """Exhaustively to n = 10: each layer is an involution of range(n), and
    its fixed points, the bare vertices, are exactly the odd blocks' middles."""
    for n in range(1, 11):
        for parts in iter_compositions(n):
            nbr = partner_array(parts, n)
            assert sorted(nbr) == list(range(n)), parts
            assert all(nbr[w] == v for v, w in enumerate(nbr)), parts
            assert _fixed_points(nbr) == _odd_middles(parts), parts


def _components(top, bot):
    """Each vertex's component, found by a search over both layers."""
    component = [None] * len(top)
    for v in range(len(top)):
        if component[v] is None:
            members, todo = {v}, [v]
            while todo:
                u = todo.pop()
                for w in (top[u], bot[u]):
                    if w not in members:
                        members.add(w)
                        todo.append(w)
            for u in members:
                component[u] = members
    return component


def test_orbit_size_is_a_path_or_half_a_cycle():
    """For every ordered pair with n <= 8 and every vertex v, the sigma orbit
    of v has all the vertices of v's component when it is a path and half of
    them when it is a cycle (every vertex with an arc in both layers); the
    path and cycle tallies are union-find's."""
    checked = 0
    for n in range(1, 9):
        comps, partners, counts = pair_sweep(n)
        for (i, top), (j, bot) in itertools.product(enumerate(partners), repeat=2):
            component = _components(top, bot)
            cycles = set()
            for v in range(n):
                members = component[v]
                cycle = all(top[u] != u and bot[u] != u for u in members)
                if cycle:
                    cycles.add(min(members))
                size = len(members) // 2 if cycle else len(members)
                assert orbit_size(top, bot, v) == size, (comps[i], comps[j], v)
                checked += 1
            paths = len({min(members) for members in component}) - len(cycles)
            assert (len(cycles), paths) == counts[i][j], (comps[i], comps[j])
    assert checked == sum(n * 4 ** (n - 1) for n in range(1, 9))


def test_orbit_size():
    n = EXAMPLE.total
    top, bot = partner_array(EXAMPLE.plus.parts, n), partner_array(EXAMPLE.minus.parts, n)
    assert _fixed_points(top) == [3] and _fixed_points(bot) == [5]
    assert [orbit_size(top, bot, v) for v in range(n)] == [7] * 7
    one = partner_array((1,), 1)
    assert orbit_size(one, one, 0) == 1
    top = bot = partner_array((1, 1), 2)
    assert orbit_size(top, bot, 0) == orbit_size(top, bot, 1) == 1
    top, bot = partner_array((1, 2), 3), partner_array((3,), 3)  # 1,2|3 is Frobenius
    assert orbit_size(top, bot, 0) == orbit_size(top, bot, 1) == orbit_size(top, bot, 2) == 3
    top = bot = partner_array((2,), 2)  # (2|2) is one cycle of 2 vertices, half of it
    assert orbit_size(top, bot, 0) == orbit_size(top, bot, 1) == 1
    top = partner_array((2, 2), 4)
    bot = partner_array((4,), 4)  # one cycle of 4 vertices
    assert [orbit_size(top, bot, v) for v in range(4)] == [2] * 4
    bot = partner_array((1, 2, 1), 4)  # one path of 4 vertices
    assert [orbit_size(top, bot, v) for v in range(4)] == [4] * 4


def _odd_parts(parts):
    return sum(a % 2 for a in parts)


def test_two_odd_parts_prefilter_lemma():
    """Only two odd parts in total can give one path, and the sigma orbit of
    vertex 0 decides Frobenius on every candidate."""
    cases = []
    for n in range(1, 10):
        comps, partners, counts = pair_sweep(n)
        sides = [(c, p, _odd_parts(c)) for c, p in zip(comps, partners)]
        cases.extend((n, top, bottom, counts[i][j]) for (i, top), (j, bottom)
                     in itertools.product(enumerate(sides), repeat=2))
    for n in range(1, 17):
        block = ((n,), partner_array((n,), n), n % 2)
        for c in iter_compositions(n):
            top = partner_array(c, n)
            cases.append((n, (c, top, _odd_parts(c)), block, component_counts(top, block[1])))
    walked = 0
    for n, (plus, top, top_odd), (minus, bot, bot_odd), components in cases:
        frobenius = components == (0, 1)
        assert (orbit_size(top, bot, 0) == n) == frobenius, (plus, minus)
        if top_odd + bot_odd != 2:
            assert not frobenius, (plus, minus)
            continue
        walked += 1
    # the census enumerates exactly these candidates
    def count(n, k):
        return len(odd_compositions(n, k))

    pairs = sum(count(n, k) * count(n, 2 - k) for n in range(1, 10) for k in range(3))
    blocks = sum(count(n, 2 - n % 2) for n in range(1, 17))
    assert walked == pairs + blocks == 9472


def _cuts(parts):
    """The proper partial sums of a composition."""
    return set(itertools.accumulate(parts[:-1]))


def test_common_cut_lemma():
    """No arc crosses a proper partial sum that both sides share, so k shared
    cuts split the graph into at least k + 1 components: never one path."""
    shared = 0
    for n in range(1, 10):
        comps, _, counts = pair_sweep(n)
        cuts = [_cuts(c) for c in comps]
        for i, j in itertools.product(range(len(comps)), repeat=2):
            common = cuts[i] & cuts[j]
            if common:
                cycles, paths = counts[i][j]
                assert cycles + paths >= len(common) + 1, (comps[i], comps[j])
                shared += 1
    assert shared > 50000


def test_component_counts_under_swap_and_reversal():
    """(cycles, paths) is the same for (a, b), (b, a) and (rev a, rev b)."""
    for n in range(1, 10):
        comps, _, counts = pair_sweep(n)
        position = {c: i for i, c in enumerate(comps)}
        rev = [position[c[::-1]] for c in comps]
        for i, j in itertools.product(range(len(comps)), repeat=2):
            assert counts[i][j] == counts[j][i] == counts[rev[i]][rev[j]], (comps[i], comps[j])


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


def _index_by_union_find(plus, minus, n):
    cycles, paths = component_counts(partner_array(plus, n), partner_array(minus, n))
    return 2 * cycles + paths - 1


def test_index_walk_against_union_find_exhaustive():
    """The orbit walk of index_seaweed against union-find's
    2 * cycles + paths - 1 on every ordered pair with sum at most 9."""
    checked = 0
    for n in range(1, 10):
        comps, _, counts = pair_sweep(n)
        sides = [Composition(c) for c in comps]
        for (i, plus), (j, minus) in itertools.product(enumerate(sides), repeat=2):
            cycles, paths = counts[i][j]
            assert index_seaweed(BiComposition(plus, minus)) == 2 * cycles + paths - 1, (plus, minus)
            checked += 1
    assert checked == (4**9 - 1) // 3


# one class each of the shapes the walk meets at n = 20,000, with its
# index: one orbit (three blocks over one, two ones at the ends), few long
# orbits, many short ones, and all-bare or all-arc sides
LARGE_N = 20000
LARGE_CLASSES = [
    ((6003, 6997, 7000), (LARGE_N,), 0),
    ((LARGE_N,), (LARGE_N,), LARGE_N - 1),
    ((5000, 15000), (LARGE_N,), 4999),
    ((2,) * 10000, (1,) + (2,) * 9999 + (1,), 0),
    ((3,) * 6666 + (2,), (LARGE_N,), 3332),
    ((1,) * LARGE_N, (LARGE_N,), LARGE_N // 2 - 1),
    ((2,) * 10000, (2,) * 10000, LARGE_N - 1),
]


def test_index_walk_against_union_find_large():
    """The same on the large classes, either way up, and on the 20001-vertex
    single paths of gcd(10000, 10001) = 1."""
    cases = [(top, bottom, LARGE_N, index) for plus, minus, index in LARGE_CLASSES
             for top, bottom in ((plus, minus), (minus, plus))]
    n = 20001
    cases += [((10000, 10001), (n,), n, 0), ((n,), (10000, 10001), n, 0)]
    for plus, minus, n, index in cases:
        a = BiComposition(Composition(plus), Composition(minus))
        assert index_seaweed(a) == _index_by_union_find(plus, minus, n) == index, (plus[:3], minus[:3])
        assert is_frobenius(a) == (index == 0)


def _halves(a, n):
    """The composition (a, n - a) of n, or (n) when a is 0."""
    return (a, n - a) if a else (n,)


def test_two_block_closed_form_exhaustive():
    """index(a, b | c, d) = gcd(a - c, n) - 1 for every a, c in 0..n-1 and
    n <= 40, where 0 stands for the one block (n): tau+ and tau- are the
    reflections i -> a - 1 - i and i -> c - 1 - i of Z/n, and sigma is the
    rotation by c - a."""
    checked = 0
    for n in range(1, 41):
        for a, c in itertools.product(range(n), repeat=2):
            bc = BiComposition(Composition(_halves(a, n)), Composition(_halves(c, n)))
            assert index_seaweed(bc) == math.gcd(a - c, n) - 1, (a, c, n)
            checked += 1
    assert checked == sum(n * n for n in range(1, 41))


def test_two_block_closed_form_large():
    """The same on seeded pairs with sums up to 2 * 10**4, through both
    index_seaweed and is_frobenius; half the cases pick c - a prime to n."""
    rng = make_rng()
    frobenius = 0
    for case in range(60):
        n = rng.randint(2, 20000)
        a = rng.randint(0, n - 1)
        d = rng.randint(1, n - 1)
        if case % 2:
            while math.gcd(d, n) != 1:
                d = rng.randint(1, n - 1)
        c = (a + d) % n
        bc = BiComposition(Composition(_halves(a, n)), Composition(_halves(c, n)))
        g = math.gcd(a - c, n)
        assert index_seaweed(bc) == g - 1, (a, c, n)
        assert is_frobenius(bc) == (g == 1), (a, c, n)
        frobenius += g == 1
    assert frobenius >= 30


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


def random_crossing_layer(rng, n):
    """Arcs on random disjoint vertex pairs of 1..n, crossings allowed, each
    in random orientation."""
    vertices = rng.sample(range(1, n + 1), 2 * rng.randint(0, n // 2))
    return frozenset(zip(vertices[::2], vertices[1::2]))


def test_render_ascii_matches_the_direct_rule():
    """Every layer of sum <= 8 (as both layers of a pair) and 2,000 seeded
    hand-built graphs with crossing arcs render as the direct rule draws
    them."""
    for n in range(1, 9):
        for c in iter_compositions(n):
            g = build_meander(BiComposition(Composition(c), Composition(c)))
            assert render(g, "ascii") == reference_ascii(g)
    rng = make_rng()
    for _ in range(2000):
        n = rng.randint(1, 14)
        g = MeanderGraph(n, random_crossing_layer(rng, n), random_crossing_layer(rng, n))
        assert render(g, "ascii") == reference_ascii(g)


def test_render_ascii_of_many_arcs_finishes_at_once():
    # 16,000 arcs: the depth sweep takes milliseconds, the direct rule close
    # to a minute
    k = 8000
    plus, minus = Composition((2,) * k), Composition((1,) + (2,) * (k - 1) + (1,))
    g = build_meander(BiComposition(plus, minus))
    start = time.perf_counter()
    lines = render(g, "ascii").splitlines()
    assert time.perf_counter() - start < 2
    assert lines == [
        " ".join(["/-\\"] * k),
        " ".join(str(v % 10) for v in range(1, 2 * k + 1)),
        "  " + " ".join(["\\-/"] * (k - 1)),
    ]


def test_depth_sweep_inserts_at_the_back_of_a_layer_without_crossings(monkeypatch):
    """The depth sweep shifts no stored end when a layer has no crossings,
    so deep nesting costs it linear time.  Counting the shifted ends rather
    than timing the sweep keeps the check independent of the machine: a
    sweep that keeps every right end ascending shifts all stored ends for
    each arc of (n | n), about n^2 / 8 per layer."""
    shifted = []

    def counting_insort(a, x):
        shifted.append(len(a) - bisect.bisect_right(a, x))
        bisect.insort(a, x)

    monkeypatch.setattr(meander, "insort", counting_insort)
    for text in ("400|400", "2,3,2|4,3", "1,2,3,4,5,6,7,8|8,7,6,5,4,3,2,1"):
        g = build_meander(BiComposition.parse(text))
        render(g, "ascii")
        assert len(shifted) == len(g.top_arcs) + len(g.bottom_arcs), text
        assert sum(shifted) == 0, text
        shifted.clear()


# sha256 of the ascii drawings of every pair of sum <= 7, in the order of
# iter_compositions for each side, recorded before drawings got a size limit
SMALL_ASCII_SHA256 = "982ab8893c8c114581d9307596aed01f84a53aeb5aba4395bcf27b0a2b42f055"


def test_render_ascii_of_small_pairs_is_pinned():
    digest = hashlib.sha256()
    for n in range(1, 8):
        comps = [Composition(c) for c in iter_compositions(n)]
        for plus, minus in itertools.product(comps, comps):
            out = render(build_meander(BiComposition(plus, minus)), "ascii")
            assert len(out) <= 2 * n * out.count("\n"), (plus, minus)  # the size bound
            digest.update(out.encode())
    assert digest.hexdigest() == SMALL_ASCII_SHA256


def test_render_ascii_refuses_a_drawing_above_the_limit(monkeypatch):
    # EXAMPLE draws 1 top line, the vertex row and 2 bottom lines: 4 * 14 bytes
    g = build_meander(EXAMPLE)
    monkeypatch.setattr(meander, "_ASCII_LIMIT", 56)
    assert render(g, "ascii").count("\n") == 4
    monkeypatch.setattr(meander, "_ASCII_LIMIT", 55)
    with pytest.raises(ValueError) as raised:
        render(g, "ascii")
    assert str(raised.value) == ("the ascii drawing of 7 vertices would take up to 56 bytes, "
                                 "more than 55; use --format dot")
    assert render(g, "dot").count("--") == 6


def test_render_unknown_format():
    with pytest.raises(ValueError):
        render(build_meander(EXAMPLE), "svg")
