from collections import Counter
from fractions import Fraction
from itertools import accumulate
from math import comb

import pytest

import seaweeds.counting as counting
import seaweeds.parabolic_words as pw
import seaweeds.seaweed_words as sw
from helpers import make_rng, pair_sweep, random_composition, reference_fit
from seaweeds import (
    BudgetExceeded,
    CountTable,
    UnstableSequence,
    brute_table,
    deficiency_sequence,
    deficiency_table,
    fit_polynomial,
    generated_table,
    poly_str,
)
from seaweeds.compositions import iter_compositions, iter_compositions_odd
from seaweeds.meander import component_counts, partner_array
from seaweeds.parabolic_words import _child_moves_p, composition_nodes
from seaweeds.seaweed_words import CollisionError, _child_moves, letter, pair_nodes

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
        real = counting.path_size
        monkeypatch.setattr(counting, "path_size", lambda *args: walks.append(1) or real(*args))

        def odd(n, k):
            return list(iter_compositions_odd(n, k))

        def orbit(a, b):  # under the side swap and reversing both sides
            return frozenset({(a, b), (b, a), (a[::-1], b[::-1]), (b[::-1], a[::-1])})

        expected = 0
        for n in range(1, 10):
            if n % 2:  # both sides with one odd part
                candidates = [(a, b) for a in odd(n, 1) for b in odd(n, 1)]
            else:  # the (2, 0) pairs are the swaps of these (0, 2) ones
                candidates = [(a, b) for a in odd(n, 0) for b in odd(n, 2)]
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
                                     for c in odd(n, 2 - n % 2)), kind


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
    representatives = [c for c in iter_compositions_odd(14, 2) if c <= c[::-1]]
    assert len(representatives) == 576
    assert sum(not has_mirrored_cut(c) for c in representatives) == 269


@pytest.mark.parametrize("n", range(1, 12))
def test_census_sides_are_the_compositions_with_their_arcs(n):
    """The in-place walk yields, in order, what iter_compositions_odd gives,
    dressed as (partners, cuts, mirrored cuts, first odd middle, parts),
    with the arcs from a block table for this sum or a larger one."""
    for block in (counting._block_arcs(n), counting._block_arcs(11)):
        for k in range(4):
            comps = list(iter_compositions_odd(n, k))
            want = []
            for c in comps:
                sums = list(accumulate(c[:-1]))
                odd_at = [i for i, a in enumerate(c) if a % 2]
                end = sum(c[:odd_at[0]]) + c[odd_at[0]] // 2 if odd_at else -1
                want.append((partner_array(c, n), sum(1 << (s - 1) for s in sums),
                             sum(1 << (n - s - 1) for s in sums), end, len(c)))
            for reversal in (False, True):
                for skip in (False, True):
                    got = [(tuple(p), *rest) for p, *rest in counting._census_sides(
                        n, k, block, reversal_representatives=reversal,
                        skip_mirrored_cuts=skip)]
                    # the reversal walk keeps the last part at least the first;
                    # the skip drops every composition with a mirrored cut
                    assert got == [w for w, c in zip(want, comps)
                                   if not (reversal and c[-1] < c[0])
                                   and not (skip and has_mirrored_cut(c))], (n, k)
            # what the census walk skips is never a Frobenius representative:
            # not one with cuts <= mirrored, or not one path against (n)
            bottom = partner_array((n,), n)
            for (top, cuts, mirrored, _, _), c in zip(want, comps):
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

        monkeypatch.setattr(counting, name, recorder)
        counting.diagonal_counts(kind, 10**6, n_max)
        assert budgets

    @pytest.mark.parametrize("kind,t,expansions", [
        ("seaweed", 4, 233), ("seaweed", 6, 1447), ("parabolic-even", 1, 17),
        ("parabolic-odd", 2, 45),
    ])
    def test_each_truncated_state_expands_once(self, monkeypatch, kind, t, expansions):
        # seaweed: (raw + 1) / 2 of the 465 and 2,893 states without the swap merge
        for n_max in (40, 120):
            assert _expansions(monkeypatch, kind, t, n_max)[1] == expansions, (kind, n_max)


def _expansions(monkeypatch, kind, t, n_max):
    """(diagonal counts, number of states expanded) of one count."""
    name = "_child_moves" if kind == "seaweed" else "_child_moves_p"
    moves = getattr(counting, name)
    calls = []
    monkeypatch.setattr(counting, name, lambda *args: calls.append(args) or moves(*args))
    counts = counting.diagonal_counts(kind, t, n_max)
    monkeypatch.setattr(counting, name, moves)
    return counts, len(calls)


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
            keep = rng.randint(1, 6)
            merged = spec.truncate((plus, minus), keep)
            assert merged == spec.truncate((minus, plus), keep)
            assert merged in ((plus[:keep], minus[:keep]), (minus[:keep], plus[:keep]))

    @pytest.mark.parametrize("kind", counting.KINDS)
    def test_merge_off_gives_the_same_counts(self, monkeypatch, kind):
        merge = counting._Kind.truncate

        def unmerged(self, state, keep):
            if self.epsilon is None:
                return tuple(side[:keep] for side in state)
            return merge(self, state, keep)

        for t in range(7):
            for n_max in (1, 2, 7, 30, 45):
                monkeypatch.setattr(counting._Kind, "truncate", unmerged)
                raw_counts, raw = _expansions(monkeypatch, kind, t, n_max)
                monkeypatch.setattr(counting._Kind, "truncate", merge)
                counts, expansions = _expansions(monkeypatch, kind, t, n_max)
                assert raw_counts == counts, (kind, t, n_max)
                # the seed is the only pair state equal to its own swap
                assert raw == (2 * expansions - 1 if kind == "seaweed" else expansions), \
                    (kind, t, n_max)


def _full_tally(n_max, t=None):
    """The seaweed tally of the full walk, both mirror halves, as ``generate`` walks it."""
    nodes = pair_nodes(n_max, t)
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


def _bogus_root(plus, minus, budget):
    """Two letters reaching one pair from every state, the seed included."""
    yield letter("S", 1, 0), ((2,), (1, 1)), 1
    yield letter("S", -1, 0), ((2,), (1, 1)), 1


# ((4,), (2, 1, 1)) is S+0 S+0 of the seed, sum 4 and deficiency 1, and
# ((6,), (3, 2, 1)) is S+0 S+1, sum 6, in the sibling subtree: both are in
# the S+ half, and the planted letter takes the first to sum 6
_DEEP, _OTHER = ((4,), (2, 1, 1)), ((6,), (3, 2, 1))


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

    @pytest.mark.parametrize("lister", [
        pytest.param(_bogus_root, id="root"),
        pytest.param(_planted({_DEEP: [(letter("S", 1, 7), _OTHER, 2)]}), id="deep-in-half"),
        pytest.param(_planted({_DEEP: [(letter("S", 1, 7), _OTHER[::-1], 2)]}),
                     id="across-halves"),
        pytest.param(_planted({_DEEP: [(letter("S", 1, 7), ((3, 3), (3, 3)), 2)]}),
                     id="own-swap"),
    ])
    def test_planted_repeat_raises_from_both_tables(self, monkeypatch, lister):
        monkeypatch.setattr(counting, "_child_moves", lister)
        monkeypatch.setattr(sw, "_child_moves", lister)
        with pytest.raises(CollisionError):
            list(pair_nodes(8))  # the full walk meets the repeat too
        with pytest.raises(CollisionError):
            generated_table("seaweed", 8)
        with pytest.raises(CollisionError):
            deficiency_table("seaweed", 4, 8)

    def test_planted_lister_without_a_repeat_tallies_both_halves(self, monkeypatch):
        # a fresh pair planted at _DEEP and, mirrored, at its swap: no repeat,
        # and the half walk still counts what the full walk visits
        lister = _planted({_DEEP: [(letter("S", 1, 7), ((5, 1), (1, 5)), 2)]})
        monkeypatch.setattr(counting, "_child_moves", lister)
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
        name, words = ("_child_moves", sw) if kind == "seaweed" else ("_child_moves_p", pw)
        rooms: dict[str, list[int]] = {"table": [], "walk": []}
        for module, walk in ((counting, "table"), (words, "walk")):
            def recorder(*args, moves=getattr(module, name), walk=walk):
                *state, budget = args
                rooms[walk].append(n_max - sum(state[0]))
                return moves(*args)

            monkeypatch.setattr(module, name, recorder)
        generated_table(kind, n_max)
        if spec.epsilon is None:
            list(pair_nodes(n_max))
        else:
            list(composition_nodes(spec.epsilon, n_max))
        assert min(rooms["table"] + rooms["walk"]) >= spec.unit
        assert (len(rooms["table"]), len(rooms["walk"])) == (table_calls, walk_calls)


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
        short, which must raise."""
        rng = make_rng()
        seen = {"fit": 0, "raised": 0, "late_start": 0, "collapsed": 0}
        for _ in range(600):
            t = rng.randint(0, 9)
            d = t // 2
            kind = rng.choice(("poly", "poly", "noisy", "too_steep", "late_bump"))
            degree = d + 1 if kind == "too_steep" else rng.randint(0, d)
            weights = [rng.randint(-30, 30) for _ in range(degree + 1)]
            if kind == "too_steep" and weights[-1] == 0:
                weights[-1] = 1
            n_start = rng.randint(-5, 5)
            span = d + 1 + max(5, t + 2)  # the values the certificate reads
            length = rng.randint(span - 2, 30)
            seq = [sum(w * comb(n + 10, k) for k, w in enumerate(weights))
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


class TestCsv:
    def test_schema_and_order(self):
        table = brute_table("seaweed", 3)
        lines = table.to_csv().splitlines()
        assert lines[0] == "n,p,count"
        assert lines[1:] == ["1,2,1", "2,3,2", "3,3,4", "3,4,2"]
