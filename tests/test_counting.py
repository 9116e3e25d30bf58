import hashlib
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import accumulate
from math import comb

import pytest

import seaweeds.counting as counting
import seaweeds.parabolic_words as pw
import seaweeds.seaweed_words as sw
from helpers import (
    make_rng, odd_compositions, pair_sweep, random_composition, reference_fit,
    slicing_readable_side, slicing_truncated_composition,
)
from seaweeds import (
    BudgetExceeded,
    CountTable,
    UnstableSequence,
    brute_table,
    deficiency_sequence,
    deficiency_table,
    fit_polynomial,
    generate_deficiency,
    generate_deficiency_p,
    generate_frobenius,
    generate_frobenius_p,
    generated_table,
    poly_str,
)
from seaweeds.compositions import iter_compositions
from seaweeds.meander import component_counts, partner_array
from seaweeds.parabolic_words import _child_moves_p
from seaweeds.seaweed_words import CollisionError, _child_moves, letter

# frozen from an independent endpoint-walk census (see tests/helpers.py)
SEAWEED_TOTALS = {1: 1, 2: 2, 3: 6, 4: 14, 5: 34, 6: 68, 7: 150, 8: 296}
PARABOLIC_TOTALS = {2: 1, 3: 2, 4: 4, 5: 6, 6: 12, 7: 14, 8: 32, 9: 30, 10: 76, 11: 62, 12: 170}


class TestBruteTable:
    def test_seaweed_small_rows(self):
        table = brute_table("seaweed", 4)
        assert table.count(1, 2) == 1
        assert table.count(2, 2) == 0 and table.count(2, 3) == 2 and table.count(2, 4) == 0
        assert {p: c for (n, p), c in table.entries.items() if n == 3} == {3: 4, 4: 2}
        assert {p: c for (n, p), c in table.entries.items() if n == 4} == {3: 4, 4: 8, 5: 2}

    def test_parabolic_even_row_four(self):
        table = brute_table("parabolic-even", 6)
        assert table.count(4, 1) == 0
        assert table.count(4, 2) == 2
        assert table.count(4, 3) == 2
        assert table.count(4, 4) == 0

    def test_totals(self):
        table = brute_table("seaweed", 8)
        assert {n: table.total(n) for n in SEAWEED_TOTALS} == SEAWEED_TOTALS
        even = brute_table("parabolic-even", 12)
        odd = brute_table("parabolic-odd", 11)
        got = {n: (even if n % 2 == 0 else odd).total(n) for n in PARABOLIC_TOTALS}
        assert got == PARABOLIC_TOTALS

    def test_budget(self, monkeypatch):
        monkeypatch.setattr(counting, "SEAWEED_BRUTE_BUDGET", 5)
        with pytest.raises(BudgetExceeded):
            brute_table("seaweed", 6)
        table = brute_table("seaweed", 6, budget_override=True)
        assert table.total(6) == 68

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            brute_table("mystery", 4)

    def test_equals_the_unfiltered_union_find_census(self):
        # every pair (seaweed n <= 9) or composition against (n) (parabolic
        # n <= 16), with no prefilter, no symmetry and no path walk
        expected = Counter()
        for n in range(1, 10):
            comps, _, counts = pair_sweep(n)
            for top, row in zip(comps, counts):
                for bottom, components in zip(comps, row):
                    if components == (0, 1):
                        expected[n, len(top) + len(bottom)] += 1
        assert brute_table("seaweed", 9).entries == dict(expected)
        for kind, n_max in (("parabolic-even", 16), ("parabolic-odd", 15)):
            expected = Counter()
            for n in range(counting._kind(kind).first_sum, n_max + 1, 2):
                block = partner_array((n,), n)
                for c in iter_compositions(n):
                    if component_counts(partner_array(c, n), block) == (0, 1):
                        expected[n, len(c)] += 1
            assert brute_table(kind, n_max).entries == dict(expected), kind

    def test_walks_one_cut_free_candidate_per_orbit(self, monkeypatch):
        walks = []
        real = counting.orbit_size
        monkeypatch.setattr(counting, "orbit_size", lambda *args: walks.append(1) or real(*args))

        def orbit(a, b):  # under the side swap and reversing both sides
            return frozenset({(a, b), (b, a), (a[::-1], b[::-1]), (b[::-1], a[::-1])})

        expected = 0
        for n in range(1, 10):
            if n % 2:  # both sides with one odd part
                candidates = [(a, b) for a in odd_compositions(n, 1)
                              for b in odd_compositions(n, 1)]
            else:  # the (2, 0) pairs are the swaps of these (0, 2) ones
                candidates = [(a, b) for a in odd_compositions(n, 0)
                              for b in odd_compositions(n, 2)]
            expected += len({orbit(a, b) for a, b in candidates
                             if not cut_sums(a) & cut_sums(b)})
        assert expected == 511  # by the side swap alone, 957
        brute_table("seaweed", 9)
        assert len(walks) == expected
        for kind in ("parabolic-even", "parabolic-odd"):
            walks.clear()
            brute_table(kind, 16 - (kind == "parabolic-odd"))
            first = counting._kind(kind).first_sum
            assert len(walks) == sum(c <= c[::-1] and not has_mirrored_cut(c)
                                     for n in range(first, 17, 2)
                                     for c in odd_compositions(n, 2 - n % 2)), kind


def cut_sums(c):
    """The proper partial sums of a composition."""
    return set(accumulate(c[:-1]))


def has_mirrored_cut(c):
    """Some proper partial sum s != n/2 of ``c`` has n - s as a partial sum too."""
    n, sums = sum(c), cut_sums(c)
    return any(n - s in sums for s in sums if 2 * s != n)


@pytest.mark.parametrize("n", range(1, 15))
def test_mirrored_cuts_split_the_graph_against_the_block(n):
    """The lemma behind skip_mirrored_cuts, against the union-find oracle:
    [0, s) and [n - s, n) are unions of top blocks swapped by the block (n),
    so they and the middle [s, n - s) are apart."""
    block = partner_array((n,), n)
    for c in iter_compositions(n):
        if has_mirrored_cut(c):
            assert sum(component_counts(partner_array(c, n), block)) > 1, c


def test_mirrored_cut_lemma_is_not_vacuous():
    representatives = [c for c in odd_compositions(14, 2) if c <= c[::-1]]
    assert len(representatives) == 576
    assert sum(not has_mirrored_cut(c) for c in representatives) == 269


@pytest.mark.parametrize("n", range(1, 12))
def test_census_sides_are_the_compositions_with_their_arcs(n):
    """The in-place walk yields, in order, what odd_compositions gives,
    dressed as (partners, cuts, mirrored cuts), with the arcs from a block
    table for this sum or a larger one; the bare vertices, the odd parts'
    middles, are their own partners, and one more than the cuts is the part
    count."""
    for block in (counting._block_arcs(n), counting._block_arcs(11)):
        for k in range(4):
            comps = odd_compositions(n, k)
            want = {}
            for c in comps:
                sums = list(accumulate(c[:-1]))
                want[c] = (partner_array(c, n), sum(1 << (s - 1) for s in sums),
                           sum(1 << (n - s - 1) for s in sums))
            for reversal in (False, True):
                for skip in (False, True):
                    got = [(tuple(p), *rest) for p, *rest in counting._census_sides(
                        n, k, block, reversal_representatives=reversal,
                        skip_mirrored_cuts=skip)]
                    # the reversal walk keeps the last part at least the first;
                    # the skip drops every composition with a mirrored cut
                    kept = [c for c in comps if not (reversal and c[-1] < c[0])
                            and not (skip and has_mirrored_cut(c))]
                    assert got == [want[c] for c in kept], (n, k)
                    for (partners, cuts, _), c in zip(got, kept):
                        middles = [sum(c[:i]) + a // 2 for i, a in enumerate(c) if a % 2]
                        assert [v for v, w in enumerate(partners) if v == w] == middles, c
                        assert cuts.bit_count() + 1 == len(c), c
            # what the census walk skips is never a Frobenius representative:
            # not one with cuts <= mirrored, or not one path against (n)
            bottom = partner_array((n,), n)
            for c, (top, cuts, mirrored) in want.items():
                if c[-1] < c[0]:
                    assert cuts > mirrored, c
                elif has_mirrored_cut(c):
                    assert component_counts(top, bottom) != (0, 1), c


class TestOracleEquivalence:
    def test_seaweed(self):
        assert brute_table("seaweed", 8).entries == generated_table("seaweed", 8).entries

    @pytest.mark.parametrize("kind,n", [("parabolic-even", 12), ("parabolic-odd", 13)])
    def test_parabolic(self, kind, n):
        assert brute_table(kind, n).entries == generated_table(kind, n).entries


class TestBounds:
    def test_real_tables_clean(self):
        assert brute_table("seaweed", 7).bound_violations() == []
        assert generated_table("parabolic-even", 12).bound_violations() == []
        assert generated_table("parabolic-odd", 13).bound_violations() == []

    def test_synthetic_violation_detected(self):
        bad = CountTable("seaweed", "brute", {(3, 5): 1})
        assert bad.bound_violations() == [(3, 5, 1)]
        bad = CountTable("parabolic-even", "brute", {(4, 4): 2})
        assert bad.bound_violations() == [(4, 4, 2)]
        bad = CountTable("parabolic-odd", "brute", {(5, 3): 6, (5, 4): 1})
        assert bad.bound_violations() == [(5, 4, 1)]
        with pytest.raises(ValueError, match="unknown kind 'Seaweed'"):
            CountTable("Seaweed", "brute", {(3, 3): 2}).bound_violations()


@pytest.mark.parametrize("kind", counting.KINDS)
@pytest.mark.parametrize("n_max", [0, -3])
def test_every_route_rejects_a_window_below_one(kind, n_max):
    for count in (lambda: brute_table(kind, n_max), lambda: generated_table(kind, n_max),
                  lambda: deficiency_table(kind, 2, n_max),
                  lambda: counting.diagonal_counts(kind, 2, n_max)):
        with pytest.raises(ValueError, match=f"^n_max must be >= 1, got {n_max}$"):
            count()


class TestDeficiency:
    def test_consistency_with_full_table(self):
        full = generated_table("seaweed", 10)
        for t in range(3):
            seq = deficiency_sequence("seaweed", t, range(1, 11))
            assert seq == [full.count(n, n + 1 - t) for n in range(1, 11)]

    @pytest.mark.parametrize("kind,eps", [("parabolic-even", 0), ("parabolic-odd", 1)])
    def test_parabolic_diagonal_indexing(self, kind, eps):
        full = generated_table(kind, 20 + eps)
        seq = deficiency_sequence(kind, 1, range(1, 11))
        assert seq == [full.count(2 * k + eps, k) for k in range(1, 11)]

    def test_table_subset_of_full(self):
        full = generated_table("seaweed", 9)
        pruned = deficiency_table("seaweed", 2, 9)
        for key, c in pruned.entries.items():
            assert full.entries[key] == c

    def test_empty_range(self):
        assert deficiency_sequence("seaweed", 0, range(1, 1)) == []

    def test_deep_window_counts_without_recursion(self):
        seq = deficiency_sequence("seaweed", 0, range(1, 3001))
        assert seq[0] == 1 and set(seq[1:]) == {2}


class TestDiagonalCounts:
    """One truncated-state count gives every diagonal d <= t; each node's
    children are listed once and reused at later sums under a smaller budget."""

    @pytest.mark.parametrize("moves,sides", [(_child_moves, 2), (_child_moves_p, 1)])
    def test_smaller_budget_keeps_the_fitting_moves_in_order(self, moves, sides):
        rng = make_rng()
        for _ in range(300):
            state = [random_composition(rng, rng.randint(1, 12)) for _ in range(sides)]
            b1 = rng.randint(0, 40)
            b2 = b1 + rng.randint(1, 40)
            wide = list(moves(*state, b2))
            assert list(moves(*state, b1)) == [move for move in wide if move[-1] <= b1]
            assert all(move[-1] <= b2 for move in wide)

    @pytest.mark.parametrize("kind", counting.KINDS)
    def test_every_window_gives_the_pruned_search_diagonals(self, kind):
        spec = counting._kind(kind)
        table = deficiency_table(kind, 4, 30)
        for n_max in range(1, 31):
            expected: dict[int, dict[int, int]] = {}
            for (n, p), c in table.entries.items():
                if n <= n_max:
                    expected.setdefault((n - spec.offset) // spec.unit + 1 - p, {})[n] = c
            assert counting.diagonal_counts(kind, 4, n_max) == expected, (kind, n_max)

    @pytest.mark.parametrize("kind,name,moves,n_max", [
        ("seaweed", "_child_moves", _child_moves, 12),
        ("parabolic-even", "_child_moves_p", _child_moves_p, 24),
        ("parabolic-odd", "_child_moves_p", _child_moves_p, 23),
    ])
    def test_expansions_ask_for_the_room_left_at_most(self, monkeypatch, kind, name, moves,
                                                      n_max):
        # t is far above n_max, so no state is truncated and its sum is n;
        # the recorder fails at once, before a budget of ~t could be listed
        budgets = []

        def recorder(*args):
            *state, budget = args
            assert budget <= n_max - sum(state[0]), (state, budget)
            budgets.append(budget)
            return moves(*args)

        monkeypatch.setattr(sw if kind == "seaweed" else pw, name, recorder)
        counting.diagonal_counts(kind, 10**6, n_max)
        assert budgets

    @pytest.mark.parametrize("kind,name,expected", [
        ("seaweed", "_child_moves", {0: {1: 1}}),
        ("parabolic-odd", "_child_moves_p", {}),
    ])
    def test_levels_no_node_reaches_are_skipped(self, monkeypatch, kind, name, expected):
        # with no moves the seed is the only node: every level after the
        # first stays empty, and the odd seed's sum 1 is not counted
        monkeypatch.setattr(sw if kind == "seaweed" else pw, name, lambda *args: iter(()))
        assert counting.diagonal_counts(kind, 4, 10) == expected

    @pytest.mark.parametrize("kind,t,expansions", [
        pytest.param(kind, t, expansions, id=f"{kind}-{t}") for kind, t, expansions in (
            ("seaweed", 4, 64), ("seaweed", 6, 246), ("parabolic-even", 1, 8),
            ("parabolic-odd", 2, 16))
    ])
    def test_each_truncated_state_expands_once(self, monkeypatch, kind, t, expansions):
        # seaweed: (raw + own swaps) / 2 of the 124 and 486 states without the swap merge
        for n_max in (40, 120):
            assert len(_expansions(monkeypatch, kind, t, n_max)[1]) == expansions, (kind, n_max)

    @pytest.mark.parametrize("kind", counting.KINDS)
    def test_room_capped_count_equals_a_count_over_the_full_budget_graph(self, kind):
        # the window-free graph, every node listed at the full budget; a
        # count over it that pushes only the children fitting the room left
        # at each sum is what the room-capped listing must give
        spec = counting._kind(kind)
        for t in range(7):
            graph = counting._Automaton(spec, t)
            node = 0
            while node < len(graph.nodes):
                for step, kid in graph.listing(node, spec.unit * (t + 1)):
                    assert 1 <= step <= t - graph.nodes[node][1] + 1, (kind, t, node)
                node += 1
            if kind == "seaweed" and t in (4, 6):
                assert len(graph.nodes) == {4: 64, 6: 246}[t]
            for n_max in range(1, 41):
                assert (counting.diagonal_counts(kind, t, n_max)
                        == _full_budget_count(graph, n_max)), (kind, t, n_max)

    @pytest.mark.parametrize("kind", counting.KINDS)
    def test_popped_levels_are_freed(self, kind):
        # past the returned counts, the count holds only the levels ahead of
        # the sum it is at: about 0.1 MiB here, and 2.7 MiB more when
        # every popped level stays in the list
        spec = counting._kind(kind)
        tracemalloc.start()
        try:
            counts = counting.diagonal_counts(kind, 4, spec.sum_at(2000))
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sum(map(len, counts.values())) > 5000, kind
        assert peak - kept < 2**20, (kept, peak)

    def test_readable_side_walk_equals_the_slicing_form(self):
        sides = [side for n in range(1, 11) for side in iter_compositions(n)]
        assert len(sides) == 2**10 - 1
        for side in sides:
            for r in range(7):
                assert counting._readable_side(side, r) == slicing_readable_side(side, r), (side, r)


def _full_budget_count(graph, n_max):
    """Diagonal counts over ``graph``, whose every node is listed, pushing a
    child only when its increment fits the room left at the parent's sum."""
    spec = graph.kind
    total = sum(spec.seed[0])
    levels = {total: Counter({0: 1})}
    counts = {}
    for n in range(total, n_max + 1, spec.unit):
        for node, mult in levels.pop(n, {}).items():
            if n >= spec.first_sum:
                counts.setdefault(graph.nodes[node][1], Counter())[n] += mult
            for step, kid in graph.children[node]:
                if n + spec.unit * step <= n_max:
                    levels.setdefault(n + spec.unit * step, Counter())[kid] += mult
    return {d: dict(diagonal) for d, diagonal in counts.items()}


def _expansions(monkeypatch, kind, t, n_max):
    """(diagonal counts, the move listers' arguments, one per state expanded)
    of one count."""
    words, name = (sw, "_child_moves") if kind == "seaweed" else (pw, "_child_moves_p")
    moves = getattr(words, name)
    calls = []
    monkeypatch.setattr(words, name, lambda *args: calls.append(args) or moves(*args))
    counts = counting.diagonal_counts(kind, t, n_max)
    monkeypatch.setattr(words, name, moves)
    return counts, calls


def _read_side(side, r):
    """A pair's side as a subtree with budget r reads it, by the lemma's
    words: the first part capped at r + 2, then each deeper part while the
    sum of the parts from the second one to it is at most r."""
    kept = [min(side[0], r + 2)]
    for depth in range(2, len(side) + 1):
        if sum(side[1:depth]) > r:
            break
        kept.append(side[depth - 1])
    return tuple(kept)


def _lemma_draws():
    """300 seeded pairs of sum <= 14 and 300 compositions of sum <= 24, each
    with a deficiency budget r in 0..5."""
    rng = make_rng()
    for _ in range(300):
        n = rng.randint(1, 14)
        yield "seaweed", tuple(random_composition(rng, n) for _ in range(2)), rng.randint(0, 5)
    for _ in range(300):
        yield "parabolic-even", (random_composition(rng, rng.randint(1, 24)),), rng.randint(0, 5)


def _subtree_tally(spec, state, r, window):
    """(sum increment, deficiency) of every node of the search from ``state``
    pruned to deficiency r, within ``window`` above the state's sum.  A
    letter's deficiency step is its increment in units less the parts it
    adds, so a node's deficiency above ``state`` is read off its sum and
    parts."""
    total, parts = sum(state[0]), sum(map(len, state))
    return Counter((n - total, (n - total) // spec.unit - sum(map(len, node)) + parts)
                   for node, n, _, _ in sw._search(state, spec.moves, total + window, r, spec.unit))


class TestTruncationLemma:
    """A state and its truncation under a budget r have subtrees with the
    same sum increments and deficiencies: the first part is capped at r + 2,
    deeper parts are kept while their running sum is <= r, and a wall r + 1
    stands for a composition's unread middle."""

    def test_truncated_state_has_the_subtree_of_the_state(self):
        for kind, state, r in _lemma_draws():
            spec = counting._kind(kind)
            window = spec.unit * (r + 1)
            assert (_subtree_tally(spec, spec.truncate(state, r), r, window)
                    == _subtree_tally(spec, state, r, window)), (state, r)

    def test_every_affordable_move_commutes_with_truncation(self):
        # one step at a time, so by induction at every depth: the affordable
        # moves of a state and of its truncation have the same increments
        # and families, and children that truncate alike under what is left
        for kind, state, r in _lemma_draws():
            spec = counting._kind(kind)

            def steps(state):
                listed = Counter()
                for l, child, inc in spec.moves(*state, spec.unit * (r + 1)):
                    step = inc // spec.unit - 1 + (l.family == "T")
                    if step <= r:
                        listed[inc, l.family, spec.truncate(child, r - step)] += 1
                return listed

            assert steps(spec.truncate(state, r)) == steps(state), (state, r)

    def test_a_wall_stands_for_the_unread_middle(self):
        spec = counting._kind("parabolic-even")
        # r = 3: the front reads 1 and stops at 9, the back reads 1 + 2
        assert spec.truncate(((3, 1, 9, 2, 1),), 3) == ((3, 1, 4, 2, 1),)
        assert spec.truncate(((3, 1, 9, 8, 2, 1),), 3) == ((3, 1, 4, 2, 1),)
        assert spec.truncate(((9, 1, 1, 1),), 3) == ((5, 1, 1, 1),)
        assert spec.truncate(((2, 9),), 0) == ((2, 1),)
        # r = 3: the front reads 1 + 2 and the back 1 + 2, so the two walks
        # meet, no wall stands, and only the first part is capped
        assert spec.truncate(((5, 1, 2, 1),), 3) == ((5, 1, 2, 1),)
        assert spec.truncate(((9, 1, 2, 1),), 3) == ((5, 1, 2, 1),)

    def test_composition_walks_equal_the_slicing_form(self):
        spec = counting._kind("parabolic-even")
        compositions = [a for n in range(1, 15) for a in iter_compositions(n)]
        assert len(compositions) == 2**14 - 1
        for a in compositions:
            for r in range(10):
                assert spec.truncate((a,), r) == (slicing_truncated_composition(a, r),), (a, r)


class TestSwapMerge:
    """The diagonal count keeps one state per truncated pair and its side swap."""

    def test_swapped_pair_gets_the_mirrored_moves(self):
        # a minus letter is the plus letter on swapped sides: same increment,
        # same family, and within each family and sign the same m order
        def mirror(move):
            l, (plus, minus), inc = move
            return letter(l.family, -l.sign, l.m), (minus, plus), inc

        rng = make_rng()
        for _ in range(300):
            plus, minus = (random_composition(rng, rng.randint(1, 12)) for _ in range(2))
            budget = rng.randint(0, 40)
            mirrored = sorted(map(mirror, _child_moves(plus, minus, budget)),
                              key=lambda move: (move[0].family, -move[0].sign))
            assert list(_child_moves(minus, plus, budget)) == mirrored, (plus, minus, budget)

    def test_truncated_pair_and_its_swap_are_one_state(self):
        spec = counting._kind("seaweed")
        rng = make_rng()
        for _ in range(300):
            plus, minus = (random_composition(rng, rng.randint(1, 12)) for _ in range(2))
            r = rng.randint(0, 6)
            merged = spec.truncate((plus, minus), r)
            assert merged == spec.truncate((minus, plus), r)
            sides = (_read_side(plus, r), _read_side(minus, r))
            assert merged in (sides, sides[::-1]), (plus, minus, r)

    @pytest.mark.parametrize("kind", counting.KINDS)
    def test_merge_off_gives_the_same_counts(self, monkeypatch, kind):
        merge = counting._Kind.truncate

        def unmerged(self, state, r):
            if self.epsilon is None:
                return tuple(_read_side(side, r) for side in state)
            return merge(self, state, r)

        for t in range(7):
            for n_max in (1, 2, 7, 30, 45):
                monkeypatch.setattr(counting._Kind, "truncate", unmerged)
                raw_counts, raw = _expansions(monkeypatch, kind, t, n_max)
                monkeypatch.setattr(counting._Kind, "truncate", merge)
                counts, merged = _expansions(monkeypatch, kind, t, n_max)
                assert raw_counts == counts, (kind, t, n_max)
                # a merged pair stands for itself and its swap, one state
                # when the two are equal
                own_swaps = sum(args[0] == args[1] for args in merged) if kind == "seaweed" else 0
                assert len(raw) == (2 * len(merged) - own_swaps if kind == "seaweed"
                                    else len(merged)), (kind, t, n_max)


def _full_tally(n_max, t=None):
    """The seaweed tally of the full walk, both mirror halves, as ``generate`` walks it."""
    nodes = counting._kind("seaweed").nodes(n_max, t)
    return dict(Counter((n, len(plus) + len(minus)) for (plus, minus), n, _, _ in nodes))


def _planted(plants):
    """The real pair lister, plus the moves ``plants[state]`` at ``state`` and,
    mirrored, at its side swap, so the tree keeps its mirror symmetry."""

    def moves(plus, minus, budget):
        yield from _child_moves(plus, minus, budget)
        for l, child, inc in plants.get((plus, minus), ()):
            if inc <= budget:
                yield l, child, inc
        for l, child, inc in plants.get((minus, plus), ()):
            if inc <= budget:
                yield letter(l.family, -l.sign, l.m), child[::-1], inc

    return moves


def _bogus_lister(plus, minus, budget):
    """Two letters reaching one pair from every state, the seed included."""
    yield letter("S", 1, 0), ((2,), (1, 1)), 1
    yield letter("S", -1, 0), ((2,), (1, 1)), 1


# ((4,), (2, 1, 1)) is S+0 S+0 of the seed, sum 4 and deficiency 1, and
# ((6,), (3, 2, 1)) is S+0 S+1, sum 6, in the sibling subtree: both are in
# the S+ half, and the planted letter takes the first to sum 6
_DEEP, _OTHER = ((4,), (2, 1, 1)), ((6,), (3, 2, 1))

# the two CollisionError texts of the search
_TWICE = "{} reached twice; second route ends with letter {}"
_MIRROR = "{} reached twice; second route is the mirror of one ending with letter {}"


class TestHalfWalk:
    """The seaweed tallies walk the seed and the S+ half of the search and
    count every other node twice; the seen-set holds each node with its
    mirror, so a repeat anywhere in the full tree still raises."""

    def test_generated_table_is_the_full_walk(self):
        for n_max in range(1, 15):
            assert generated_table("seaweed", n_max).entries == _full_tally(n_max), n_max

    def test_deficiency_table_is_the_full_walk(self):
        for t in range(5):
            for n_max in range(1, 25):
                assert deficiency_table("seaweed", t, n_max).entries == \
                    _full_tally(n_max, t), (t, n_max)

    @pytest.mark.parametrize("lister, full, half", [
        pytest.param(_bogus_lister, _TWICE.format("(2,)|(1, 1)", "S+0"),
                     _TWICE.format("(2,)|(1, 1)", "S+0"), id="root"),
        pytest.param(_planted({_DEEP: [(letter("S", 1, 7), _OTHER, 2)]}),
                     _TWICE.format("(6,)|(3, 2, 1)", "S+0"),
                     _TWICE.format("(6,)|(3, 2, 1)", "S+0"), id="deep-in-half"),
        pytest.param(_planted({_DEEP: [(letter("S", 1, 7), _OTHER[::-1], 2)]}),
                     _TWICE.format("(6,)|(3, 2, 1)", "S-7"),
                     _MIRROR.format("(3, 2, 1)|(6,)", "S+0"), id="across-halves"),
        pytest.param(_planted({_DEEP: [(letter("S", 1, 7), ((3, 3), (3, 3)), 2)]}),
                     _TWICE.format("(3, 3)|(3, 3)", "S-7"),
                     _MIRROR.format("(3, 3)|(3, 3)", "S+7"), id="own-swap"),
        # the seed's S+3 child, listed after the S+0 subtree that holds _DEEP
        pytest.param(_planted({_DEEP: [(letter("S", 1, 7), ((5,), (4, 1)), 1)]}),
                     _TWICE.format("(5,)|(4, 1)", "S+3"),
                     _TWICE.format("(5,)|(4, 1)", "S+3"), id="later-root-sibling"),
        # the seed's S-0 child, listed after the whole S+ half, which the half
        # walk skips: the swap check meets the S+0 child it mirrors; planted at
        # sum 8, a leaf, so the full walk does not replay the S-0 subtree under it
        pytest.param(_planted({_DEEP: [(letter("S", 1, 7), ((1, 1), (2,)), 4)]}),
                     _TWICE.format("(1, 1)|(2,)", "S-0"),
                     _MIRROR.format("(2,)|(1, 1)", "S+7"), id="skipped-root-child"),
    ])
    def test_planted_repeat_raises_from_both_tables(self, monkeypatch, lister, full, half):
        """Each error names the repeated pair, not the seen-set's flat key."""
        monkeypatch.setattr(sw, "_child_moves", lister)
        with pytest.raises(CollisionError) as raised:
            list(counting._kind("seaweed").nodes(8))  # the full walk meets the repeat too
        assert str(raised.value) == full
        with pytest.raises(CollisionError) as raised:
            generated_table("seaweed", 8)
        assert str(raised.value) == half
        with pytest.raises(CollisionError) as raised:
            deficiency_table("seaweed", 4, 8)
        assert str(raised.value) == half

    def test_distinct_pairs_have_distinct_flat_keys(self):
        """The seen-set keys a pair by plus + minus: both sides sum to n, so
        plus ends where the running sum first reaches n.  Checked on every
        pair of every sum up to 7."""
        keys = [sum((plus, minus), ()) for n in range(1, 8)
                for plus in iter_compositions(n) for minus in iter_compositions(n)]
        assert len(keys) == sum(4 ** (n - 1) for n in range(1, 8))
        assert len(set(keys)) == len(keys)

    def test_seaweed_table_peak_memory(self):
        """One flat key per walked pair, not a tuple of two side tuples."""
        tracemalloc.start()
        try:
            generated_table("seaweed", 16)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20, peak

    def test_planted_lister_without_a_repeat_tallies_both_halves(self, monkeypatch):
        # a fresh pair planted at _DEEP and, mirrored, at its swap: no repeat,
        # and the half walk still counts what the full walk visits
        lister = _planted({_DEEP: [(letter("S", 1, 7), ((5, 1), (1, 5)), 2)]})
        monkeypatch.setattr(sw, "_child_moves", lister)
        planted = _full_tally(9)
        assert generated_table("seaweed", 9).entries == planted
        monkeypatch.undo()
        assert planted[6, 4] == _full_tally(9)[6, 4] + 2


class TestZeroRoom:
    @pytest.mark.parametrize("kind,n_max,table_calls,walk_calls", [
        ("seaweed", 10, 579, 1157),
        ("parabolic-even", 20, 2975, 2975),
        ("parabolic-odd", 21, 1727, 1727),
    ])
    def test_no_moves_are_listed_without_room(self, monkeypatch, kind, n_max, table_calls,
                                              walk_calls):
        """Every increment is at least the kind's unit, so a node with less
        room left is a leaf and the search never lists its moves.  The pins
        count the listings of the table's walk (the seaweed one walks a
        mirror half) and of the full walk; without the guard every node
        lists its moves, 2,297, 6,035 and 3,217 of them for the full walk."""
        spec = counting._kind(kind)
        words, name = (sw, "_child_moves") if kind == "seaweed" else (pw, "_child_moves_p")
        moves = getattr(words, name)
        rooms = []

        def recorder(*args):
            *state, budget = args
            rooms.append(n_max - sum(state[0]))
            return moves(*args)

        # the table's walk and the full walk read the one binding, in turn
        monkeypatch.setattr(words, name, recorder)
        generated_table(kind, n_max)
        table_rooms = len(rooms)
        list(spec.nodes(n_max))
        assert min(rooms) >= spec.unit
        assert (table_rooms, len(rooms) - table_rooms) == (table_calls, walk_calls)


class TestKindRows:
    """A kind row sets up its search: the seed, the unit and the word module's
    lister.  By the start rule the walk yields the seed unless the seed's sum
    is below the unit, which only the odd seed (1) is."""

    def test_rows_hold_the_seeds_and_units(self):
        rows = {kind: counting._kind(kind) for kind in counting.KINDS}
        assert rows["seaweed"].seed == (sw.SEED.plus.parts, sw.SEED.minus.parts)
        assert rows["parabolic-even"].seed == (pw.seed(0).parts,) == ((1, 1),)
        assert rows["parabolic-odd"].seed == (pw.seed(1).parts,) == ((1,),)
        assert [spec.unit for spec in rows.values()] == [1, 2, 2]

    @pytest.mark.parametrize("kind", counting.KINDS)
    def test_full_walk_starts_at_the_seed_and_its_first_sum(self, kind):
        spec = counting._kind(kind)
        seed_sum = sum(spec.seed[0])
        for n_max in range(1, 9):
            nodes = list(sw._search(spec.seed, spec.moves, n_max, None, spec.unit))
            assert nodes == list(spec.nodes(n_max)), (kind, n_max)
            tallied = generated_table(kind, n_max).entries
            assert (nodes == []) == (tallied == {}) == (n_max < spec.first_sum), (kind, n_max)
            if not nodes:
                continue
            if kind == "parabolic-odd":  # the seed's children come first
                l, child, inc = next(spec.moves(*spec.seed, n_max - seed_sum))
                assert nodes[0] == (child, seed_sum + inc, 1, l), n_max
                assert all(depth for _, _, depth, _ in nodes), n_max
            else:
                assert nodes[0] == (spec.seed, seed_sum, 0, None), (kind, n_max)
            assert min(n for _, n, _, _ in nodes) == spec.first_sum, (kind, n_max)
            assert min(n for n, _ in tallied) == spec.first_sum, (kind, n_max)


class TestGenerators:
    """The four library generators walk the kind rows' searches and build
    value objects from the raw nodes."""

    def test_streams_pinned(self):
        """sha256 of the ``repr`` of each stream, in this order, recorded
        while the generators still lived in the word modules; it pins the
        order, the words and the objects byte for byte."""
        streams = [generate_frobenius(10)]
        streams += [generate_frobenius_p(eps, 20 + eps) for eps in (0, 1)]
        for t in range(4):
            streams += [generate_deficiency(t, 14), generate_deficiency_p(0, t, 30),
                        generate_deficiency_p(1, t, 31)]
        digest = hashlib.sha256()
        for stream in streams:
            digest.update(repr(list(stream)).encode())
        assert digest.hexdigest() == (
            "be052ba8b841c07383c55f74e2e58aed82f65d9765e4c332b0d98354735dddee")

    def test_module_paths(self):
        """Defined in ``counting``; the package and ``cli`` bind the same objects."""
        import seaweeds
        from seaweeds import cli

        for name in ("generate_frobenius", "generate_frobenius_p", "generate_deficiency",
                     "generate_deficiency_p"):
            function = getattr(counting, name)
            assert function.__module__ == "seaweeds.counting"
            assert getattr(seaweeds, name) is function
            assert not hasattr(sw, name) and not hasattr(pw, name)
        assert cli.generate_frobenius is counting.generate_frobenius
        assert cli.generate_frobenius_p is counting.generate_frobenius_p

    def test_a_bad_parity_raises_on_the_first_next(self):
        for generator in (generate_frobenius_p(2, 4), generate_deficiency_p(2, 0, 4)):
            with pytest.raises(ValueError, match=r"^epsilon must be 0 or 1, got 2$"):
                next(generator)


class TestVerifyReport:
    def test_unstable_fit_is_a_mismatch_with_no_fit(self):
        report = counting.verify_published_polynomials(6, 6)
        assert not report.all_match
        row = {row.name: row for row in report.rows}["P_{e,0}"]
        assert not row.matched
        unstable, fit = row.fits
        assert unstable is None
        assert (fit.epsilon, fit.coefficients) == (1, (Fraction(2),))
        assert row.details[0] == ("parabolic-even t=0: no stable fit (order-1 "
                                  "differences still nonzero on the last 5 entries)")
        assert report.render().endswith("SOME CASES FAILED\n")

    def test_a_wrong_published_form_is_a_mismatch_with_its_fit(self, monkeypatch):
        rows = dict(counting._REPORT_ROWS)
        rows["P_2"] = ((("seaweed", 2), (21, 2)),)
        rows["P_{1,2}"] = ((("parabolic-odd", 2), (Fraction(25, 2), Fraction(3, 2))),)
        monkeypatch.setattr(counting, "_REPORT_ROWS", tuple(rows.items()))
        report = counting.verify_published_polynomials(26, 20)
        assert [row.name for row in report.rows if not row.matched] == ["P_2", "P_{1,2}"]
        assert report.rows[2].fits[0].coefficients == (20, 2)
        text = report.render()
        assert ("P_2: MISMATCH\n  seaweed t=2: fit 2T+20 (expected 2T+21), "
                "stable from n=7, window 1..26\n") in text
        assert ("P_{1,2}: MISMATCH\n  parabolic-odd t=2: fit 2T+12 (expected 3/2T+25/2), "
                "stable from n=5, window 1..20\n") in text
        assert text.endswith("SOME CASES FAILED\n")


class TestFitPolynomial:
    def test_constant_tail(self):
        fit = fit_polynomial([7, 3, 2, 2, 2, 2, 2, 2], t=0, n_start=1)
        assert fit.degree == 0
        assert fit.coefficients == (Fraction(2),)
        assert fit.stable_from == 3
        assert fit.window == (1, 8)

    def test_exact_quadratic_recovery(self):
        poly = lambda n: n * n + 33 * n - 138
        seq = [999, -5, 7] + [poly(n) for n in range(4, 18)]
        fit = fit_polynomial(seq, t=4, n_start=1)
        assert fit.coefficients == (Fraction(-138), Fraction(33), Fraction(1))
        assert fit.degree == 2
        assert fit.stable_from == 4
        for n in range(fit.stable_from, 18):
            assert fit.evaluate(n) == poly(n)

    def test_fractional_coefficients_survive(self):
        poly = lambda n: Fraction(n * (n + 1), 2)
        seq = [int(poly(n)) for n in range(1, 14)]
        fit = fit_polynomial(seq, t=4, n_start=1)
        assert fit.coefficients == (Fraction(0), Fraction(1, 2), Fraction(1, 2))

    def test_stable_from_equals_the_exact_evaluation(self):
        poly = lambda n: Fraction(n**4 + 166 * n**3 - 3529 * n**2 + 16274 * n, 12) + 1888
        seq = [int(poly(n)) for n in range(1, 30)]
        for bad in range(1, 10):
            noisy = seq[:]
            noisy[bad - 1] += 1
            fit = fit_polynomial(noisy, t=8, n_start=1)
            assert fit.stable_from == bad + 1
            assert all(fit.evaluate(n) == noisy[n - 1] for n in range(fit.stable_from, 30))
            assert fit.evaluate(bad) != noisy[bad - 1]

    def test_degree_collapse_is_reported(self):
        fit = fit_polynomial([4] * 12, t=2, n_start=1)
        assert fit.degree == 0 and fit.coefficients == (Fraction(4),)

    def test_unstable_short_window(self):
        with pytest.raises(UnstableSequence):
            fit_polynomial([1, 2, 3], t=0)

    @pytest.mark.parametrize("values", [[0] * 10, [1] * 10])
    def test_negative_t_is_refused_before_differencing(self, values):
        # order 0 would take no difference pass: the zeros would read an empty
        # list of heads, and the ones would look unstable
        with pytest.raises(ValueError, match=r"^deficiency bound must be >= 0, got -1$") as err:
            fit_polynomial(values, -1)
        assert type(err.value) is ValueError

    @pytest.mark.parametrize("values,text", [
        ([2.5] * 10, "2.5 at index 0"),
        ([2] * 6 + [Fraction(5, 2)] + [2] * 3, r"Fraction\(5, 2\) at index 6"),
        ([2] * 9 + ["2"], "'2' at index 9"),
        ([float("inf")] * 10, "inf at index 0"),
        ([2] * 4 + [float("-inf")] + [2] * 5, "-inf at index 4"),
        ([2] * 8 + [float("nan"), 2], "nan at index 8"),
        ([2, None] + [2] * 8, "None at index 1"),
        ([2] * 3 + ["3"] + [2] * 6, "'3' at index 3"),
        ([2] * 2 + [2.5, float("inf")] + [2] * 6, "2.5 at index 2"),
        ([2] * 2 + [float("inf"), 2.5] + [2] * 6, "inf at index 2"),
    ])
    def test_non_integral_values_are_refused(self, values, text):
        with pytest.raises(ValueError, match=rf"^counts must be integers, got {text}$"):
            fit_polynomial(values, 0)

    @pytest.mark.parametrize("value", [2, 2.0, Fraction(2), True])
    def test_integral_values_of_any_type_are_read_as_ints(self, value):
        fit = fit_polynomial([value] * 10, 0)
        assert fit.coefficients == (Fraction(int(value)),)
        assert all(type(c) is Fraction for c in fit.coefficients)

    def test_unstable_growth(self):
        with pytest.raises(UnstableSequence):
            fit_polynomial([2**n for n in range(12)], t=2)

    def test_guard_scales_with_t(self):
        # order-3 differences of a cubic vanish, but t=4 expects degree <= 2
        seq = [n**3 for n in range(1, 14)]
        with pytest.raises(UnstableSequence):
            fit_polynomial(seq, t=4)

    def test_agrees_with_lagrange_and_a_backward_scan(self):
        """Seeded random windows against ``helpers.reference_fit``: integer-valued
        polynomials of degree <= t//2 (collapsed degrees included), noisy heads,
        n_start != 1, and tails of degree t//2 + 1, with a late bump or too
        short, which must raise.  t runs to 12, where the integer Newton form
        is scaled by 6! = 720, and n_start to +-10^6, where its Horner steps
        multiply by roots of that size."""
        rng = make_rng()
        seen = {"fit": 0, "raised": 0, "late_start": 0, "collapsed": 0, "scale_720": 0,
                "far_start": 0}
        for _ in range(1000):
            t = min(rng.randint(0, 14), 12)  # t = 12, where d! = 720, three times as often
            d = t // 2
            kind = rng.choice(("poly", "poly", "noisy", "too_steep", "late_bump"))
            degree = d + 1 if kind == "too_steep" else rng.randint(0, d)
            weights = [rng.randint(-30, 30) for _ in range(degree + 1)]
            if kind == "too_steep" and weights[-1] == 0:
                weights[-1] = 1
            n_start = rng.choice((rng.randint(-5, 5), rng.randint(-10**6, 10**6)))
            span = d + 1 + max(5, t + 2)  # the values the certificate reads
            length = rng.randint(span - 2, 30)
            seq = [sum(w * comb(n - n_start + 10, k) for k, w in enumerate(weights))
                   for n in range(n_start, n_start + length)]
            if kind == "noisy":
                for _ in range(rng.randint(1, 3)):
                    seq[rng.randrange(min(6, length))] += rng.choice((-2, -1, 1, 2))
            if kind == "late_bump":
                seq[-rng.randint(1, min(span, length))] += 1
            expected = reference_fit(seq, t, n_start)
            if expected is None:
                seen["raised"] += 1
                with pytest.raises(UnstableSequence):
                    fit_polynomial(seq, t, n_start=n_start)
                continue
            coeffs, stable_from = expected
            fit = fit_polynomial(seq, t, n_start=n_start)
            assert fit.coefficients == tuple(coeffs)
            assert fit.degree == len(coeffs) - 1
            assert fit.stable_from == stable_from
            assert fit.window == (n_start, n_start + length - 1)
            seen["fit"] += 1
            seen["late_start"] += stable_from > n_start
            seen["collapsed"] += fit.degree < d
            seen["scale_720"] += d == 6
            seen["far_start"] += abs(n_start) > 1000
        assert min(seen.values()) >= 50, seen

    def test_json_dict(self):
        fit = fit_polynomial([2] * 8, t=1, n_start=3, epsilon=1)
        data = fit.as_json_dict()
        assert data == {
            "t": 1,
            "degree": 0,
            "coefficients": ["2"],
            "stable_from": 3,
            "window": [3, 10],
            "epsilon": 1,
        }


class TestPolyStr:
    @pytest.mark.parametrize(
        "coeffs,text",
        [
            ((2,), "2"),
            ((8,), "8"),
            ((20, 2), "2T+20"),
            ((4, 12), "12T+4"),
            ((-138, 33, 1), "T^2+33T-138"),
            ((0, 1), "T"),
            ((0, -1), "-T"),
            ((0,), "0"),
            ((Fraction(1, 2), Fraction(-3, 2)), "-3/2T+1/2"),
            ((5, 0, 2), "2T^2+5"),
        ],
    )
    def test_rendering(self, coeffs, text):
        assert poly_str(tuple(Fraction(c) for c in coeffs)) == text

    @pytest.mark.parametrize(
        "coeffs,text",
        [
            ((-138, 33, 1), "T^2+33T-138"),
            ((0.5,), "1/2"),
            ((0.5, -1.5), "-3/2T+1/2"),
            (("-3/4",), "-3/4"),
            (("1/3", 0, "-1"), "-T^2+1/3"),
            ((0, 0, 0, 1), "T^3"),
            ((0, 0, 0, -1), "-T^3"),
            ((2, -1, 0, 1), "T^3-T+2"),
            ((0, 2), "2T"),
            ((0, 0, Fraction(-1, 12)), "-1/12T^2"),
            ((0, 0), "0"),
            ((), ""),
        ],
    )
    def test_reads_ints_floats_and_strings(self, coeffs, text):
        assert poly_str(coeffs) == text


class TestCsv:
    def test_schema_and_order(self):
        table = brute_table("seaweed", 3)
        lines = table.to_csv().splitlines()
        assert lines[0] == "n,p,count"
        assert lines[1:] == ["1,2,1", "2,3,2", "3,3,4", "3,4,2"]
