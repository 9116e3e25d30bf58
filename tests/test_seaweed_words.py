import itertools
import math
import time
from collections import Counter

import pytest

from helpers import make_rng, random_bicomposition, random_seaweed_instance
from seaweeds import (
    IOTA,
    NULL,
    SEED,
    BiComposition,
    Composition,
    FirstPartsEqual,
    NullEncountered,
    SeaweedLetter,
    SeaweedWord,
    apply_letter,
    bar_conjugate,
    delta_decompose,
    evaluate,
    factorize,
    generate_deficiency,
    generate_frobenius,
    index_seaweed,
    is_frobenius,
    iter_compositions,
    reduce_once,
    rho,
    scale,
    w_sequence,
    word_stats,
    zeta,
)
from seaweeds import counting
from seaweeds import seaweed_words as sw
from seaweeds.meander import index_of_parts
from seaweeds.seaweed_words import _child_moves, _walk, letter

# totals of the exhaustive meander census, frozen from an independent
# endpoint-walk enumeration over all pairs of compositions
FROBENIUS_TOTALS = [1, 2, 6, 14, 34, 68, 150, 296]


def bc(text):
    return BiComposition.parse(text)


def all_bicompositions(n):
    comps = [Composition(c) for c in iter_compositions(n)]
    return [BiComposition(p, q) for p, q in itertools.product(comps, repeat=2)]


class TestLetters:
    def test_tokens_round_trip(self):
        for tok in ["S+0", "S-3", "T+1", "T-0", "S+12"]:
            assert SeaweedLetter.parse(tok).token() == tok

    @pytest.mark.parametrize("bad", ["", "S0", "U+1", "S+", "S+x", "s+1", "T*2",
                                     "S++1", "S+1_0", "S+\u0663", "S+-1"])
    def test_bad_tokens(self, bad):
        with pytest.raises(ValueError):
            SeaweedLetter.parse(bad)

    def test_validation(self):
        with pytest.raises(ValueError):
            SeaweedLetter("S", 1, -1)
        with pytest.raises(ValueError):
            SeaweedLetter("X", 1, 0)
        with pytest.raises(ValueError):
            SeaweedLetter("S", 0, 0)

    @pytest.mark.parametrize("sign, m", [(1, 1.5), (1, True), (-1, 2.0), (True, 0), (1.0, 0),
                                         (-1.0, 3), ("+", 0)])
    def test_fields_must_be_ints(self, sign, m):
        """The sign is the int 1 or -1 and m an int, never a bool or a float
        that compares equal: otherwise ``S+1.5`` or a ``sign=True`` letter
        would be built."""
        with pytest.raises(ValueError):
            SeaweedLetter("S", sign, m)
        with pytest.raises(ValueError):
            letter("T", sign, m)

    def test_interning_keeps_the_field_types(self):
        # a fresh key: an earlier bool call must not be handed back for the int
        with pytest.raises(ValueError, match="sign must be"):
            letter("T", True, 12345)
        made = letter("T", 1, 12345)
        assert type(made.sign) is int and type(made.m) is int
        assert repr(made) == "SeaweedLetter(family='T', sign=1, m=12345)"
        assert made is letter("T", 1, 12345) and made.token() == "T+12345"


class TestApply:
    def test_sigma_plus_on_seed(self):
        assert apply_letter(letter("S", 1, 0), SEED) == bc("2|1,1")

    def test_tau_needs_two_parts(self):
        assert apply_letter(letter("T", 1, 0), SEED) is NULL
        assert apply_letter(letter("T", -1, 0), SEED) is NULL

    def test_tau_minus_example(self):
        assert apply_letter(letter("T", -1, 0), bc("2|1,1")) == bc("1,2|3")

    def test_null_absorbs(self):
        for fam, sign in itertools.product("ST", (1, -1)):
            assert apply_letter(letter(fam, sign, 2), NULL) is NULL

    def test_minus_letters_are_mirror_images(self):
        rng = make_rng()
        for _ in range(200):
            a = random_bicomposition(rng)
            for fam in "ST":
                for m in range(3):
                    direct = apply_letter(letter(fam, -1, m), a)
                    mirrored = rho(apply_letter(letter(fam, 1, m), rho(a)))
                    assert direct == mirrored


class TestEvaluate:
    def test_two_letter_word(self):
        w = SeaweedWord.parse("T-0 S+0")
        assert evaluate(w, SEED) == bc("1,2|3")

    def test_zeta3(self):
        assert evaluate(zeta(3, 1), SEED) == bc("2,2|1,2,1")

    def test_identity(self):
        a = bc("2,3,2|4,3")
        assert evaluate(IOTA, a) == a

    def test_null_propagates(self):
        w = SeaweedWord.parse("S+0 T+5")
        assert evaluate(w, SEED) is NULL

    def test_long_word_takes_linear_time(self):
        # 60,000 letters of O(1) each take well under a second
        b = BiComposition(Composition((2,) * 40_000 + (1,)), Composition((80_001,)))
        w = factorize(b)
        start = time.perf_counter()
        assert evaluate(w, SEED) == b
        seq = w_sequence(w, SEED)
        blocks = delta_decompose(w, SEED).blocks
        assert time.perf_counter() - start < 2
        assert sum(seq.values) == b.total - SEED.total
        assert SeaweedWord(tuple(l for block in blocks for l in block.letters)) == w

    def test_word_text_round_trip(self):
        for text in ["", "S+0", "T-0 S+0", "S-1 T+2 S+0"]:
            assert str(SeaweedWord.parse(text)) == text


class TestWordStats:
    def test_examples(self):
        s = word_stats(SeaweedWord.parse("T-0 S+0"))
        assert (s.ell, s.sigma_plus, s.sigma_minus, s.tau_plus, s.tau_minus) == (2, 1, 0, 0, 1)
        s = word_stats(zeta(4, 1))
        assert (s.ell, s.sigma_plus, s.sigma_minus, s.tau) == (4, 2, 2, 0)
        s = word_stats(IOTA)
        assert (s.ell, s.sigma, s.tau) == (0, 0, 0)

    def test_counts_each_letter_by_family_and_sign(self):
        for w, _ in generate_frobenius(10):
            s = word_stats(w)
            count = {(family, sign): sum(1 for l in w if (l.family, l.sign) == (family, sign))
                     for family in "ST" for sign in (1, -1)}
            assert (s.ell, s.sigma_plus, s.sigma_minus, s.tau_plus, s.tau_minus) == (
                len(w), count["S", 1], count["S", -1], count["T", 1], count["T", -1])
            assert (s.sigma, s.tau) == (s.sigma_plus + s.sigma_minus, s.tau_plus + s.tau_minus)


class TestWSequence:
    def test_examples(self):
        assert w_sequence(SeaweedWord.parse("T-0 S+0"), SEED).values == (1, 1)
        assert w_sequence(zeta(2, 1), SEED).values == (1, 1)
        assert w_sequence(IOTA, bc("2,3,2|4,3")).values == ()

    def test_beta(self):
        seq = w_sequence(SeaweedWord.parse("S+1 S+0"), SEED)
        assert seq.values == (4, 1) and seq.beta == 1

    def test_null_raises(self):
        with pytest.raises(NullEncountered):
            w_sequence(SeaweedWord.parse("T+0"), SEED)

    def test_null_base_raises(self):
        with pytest.raises(NullEncountered) as caught:
            w_sequence(IOTA, NULL)
        assert str(caught.value) == "base pair is the null element"

    @pytest.mark.parametrize("text, culprit", [
        ("T+0", "T+0"),          # the first-applied letter
        ("S+0 T-5 S-0", "T-5"),  # S-0 leaves one minus part, so T-5 makes null
        ("T+1 S+0", "T+1"),      # the last-applied letter
    ])
    def test_null_names_the_letter(self, text, culprit):
        with pytest.raises(NullEncountered) as caught:
            w_sequence(SeaweedWord.parse(text), SEED)
        assert str(caught.value) == f"suffix ending at letter {culprit} evaluates to null"


class TestZeta:
    def test_examples(self):
        assert str(zeta(1, 1)) == "S+0"
        assert str(zeta(2, 1)) == "S-0 S+0"
        assert str(zeta(3, 1)) == "S+0 S-0 S+0"
        assert str(zeta(3, -1)) == "S-0 S+0 S-0"

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            zeta(0, 1)
        with pytest.raises(ValueError):
            zeta(2, 0)

    def test_closed_form_on_first_part_one(self):
        """zeta applied where the matching first part is 1: explicit shape."""
        rng = make_rng()
        for _ in range(100):
            base = random_bicomposition(rng, 1, 8)
            plus = (1,) + base.plus.parts[1:]
            a = BiComposition(
                Composition(plus), Composition(random_pad(base.minus.parts, sum(plus)))
            )
            for r in range(1, 10):
                got = evaluate(zeta(r, 1), a)
                m, odd = divmod(r, 2)
                if odd:
                    want_plus = (2,) * (m + 1) + a.plus.parts[1:]
                    want_minus = (1,) + (2,) * m + a.minus.parts
                else:
                    want_plus = (1,) + (2,) * m + a.plus.parts[1:]
                    want_minus = (2,) * m + a.minus.parts
                assert got == BiComposition(Composition(want_plus), Composition(want_minus))
                # the mirrored form, with the roles of the sides exchanged
                assert evaluate(zeta(r, -1), rho(a)) == rho(got)


def random_pad(parts, target):
    """Adjust a part tuple to the given sum, keeping every part positive."""
    total = sum(parts)
    if total < target:
        return parts + (target - total,)
    while total > target and len(parts) > 1:
        total -= parts[-1]
        parts = parts[:-1]
    if total == target:
        return parts
    return (target,)


class TestBarConjugate:
    def test_examples(self):
        assert str(bar_conjugate(SeaweedWord.parse("S+0"))) == "S-0"
        assert str(bar_conjugate(SeaweedWord.parse("T-1 S+2"))) == "T+1 S-2"
        assert bar_conjugate(IOTA) == IOTA

    def test_involution_and_rho_conjugation(self):
        rng = make_rng()
        for _ in range(100):
            a, w = random_seaweed_instance(rng)
            assert bar_conjugate(bar_conjugate(w)) == w
            assert evaluate(bar_conjugate(w), rho(a)) == rho(evaluate(w, a))


class TestDeltaDecompose:
    def test_examples(self):
        d = delta_decompose(SeaweedWord.parse("T-0 S+0"), SEED)
        assert [str(b) for b in d.blocks] == ["T-0", "S+0", ""]
        assert d.q == 1

        d = delta_decompose(zeta(4, 1), SEED)
        assert d.blocks == (IOTA, zeta(4, 1), IOTA)

        d = delta_decompose(IOTA, bc("1,2|3"))
        assert d.blocks == (IOTA,) and d.q == 0

    def test_block_structure_on_generated_words(self):
        for w, _ in generate_frobenius(9):
            d = delta_decompose(w, SEED)
            assert len(d.blocks) % 2 == 1
            joined = SeaweedWord(tuple(l for b in d.blocks for l in b.letters))
            assert joined == w
            for z in d.z_blocks:
                assert len(z) > 0
                assert all(l.family == "S" and l.m == 0 for l in z)
            for interior in d.w_blocks[1:-1]:
                assert len(interior) > 0

    def test_z_blocks_are_the_maximal_unit_step_s0_runs(self):
        for w, _ in generate_frobenius(10):
            increments = w_sequence(w, SEED).values
            is_z = [l.family == "S" and l.m == 0 and inc == 1
                    for l, inc in zip(w.letters, increments)]
            start = 0
            for i, block in enumerate(delta_decompose(w, SEED).blocks):
                end = start + len(block)
                if i % 2:  # a z-block: a nonempty run of S+-0 letters of increment 1 ...
                    assert start < end and all(is_z[start:end])
                    # ... that no such letter extends on either side
                    assert start == 0 or not is_z[start - 1]
                    assert end == len(w) or not is_z[end]
                else:  # a w-block holds none of them
                    assert not any(is_z[start:end])
                start = end
            assert start == len(w)


class TestReduceOnce:
    def test_examples(self):
        b, l = reduce_once(bc("1,2|3"))
        assert (b, l.token()) == (bc("2|1,1"), "T-0")
        b, l = reduce_once(bc("2|1,1"))
        assert (b, l.token()) == (bc("1|1"), "S+0")
        b, l = reduce_once(bc("2,2|1,2,1"))
        assert (b, l.token()) == (bc("1,2|2,1"), "S+0")

    def test_equal_first_parts(self):
        with pytest.raises(FirstPartsEqual):
            reduce_once(bc("1,1|1,1"))

    def test_inverts_every_letter(self):
        rng = make_rng()
        for _ in range(300):
            a = random_bicomposition(rng)
            for fam, sign in itertools.product("ST", (1, -1)):
                m = rng.randint(0, 3)
                b = apply_letter(letter(fam, sign, m), a)
                if b is NULL:
                    continue
                back, stripped = reduce_once(b)
                assert back == a and stripped == letter(fam, sign, m)

    def test_sum_strictly_decreases(self):
        rng = make_rng()
        for _ in range(200):
            a = random_bicomposition(rng, 2, 14)
            if a.plus.parts[0] == a.minus.parts[0]:
                continue
            b, _ = reduce_once(a)
            assert b.total < a.total


class TestFactorize:
    def test_examples(self):
        assert str(factorize(bc("1,2|3"))) == "T-0 S+0"
        assert factorize(bc("1,1|1,1")) is None
        assert factorize(SEED) == IOTA

    def test_matches_meander_small(self):
        for n in range(1, 8):
            comps = [Composition(c) for c in iter_compositions(n)]
            for p, q in itertools.product(comps, repeat=2):
                a = BiComposition(p, q)
                word = factorize(a)
                assert (word is not None) == is_frobenius(a)
                if word is not None:
                    assert evaluate(word, SEED) == a

    def test_random_long_words_round_trip(self):
        rng = make_rng()
        for _ in range(500):
            _, w = random_seaweed_instance(rng, math.inf, max_len=60, base=SEED, max_m=12)
            b = evaluate(w, SEED)
            one_at_a_time = SEED
            for l in reversed(w.letters):
                one_at_a_time = apply_letter(l, one_at_a_time)
            assert one_at_a_time == b
            assert factorize(b) == w
            if w.letters:  # reduce_once is the first strip of factorize
                rest = SeaweedWord(w.letters[1:])
                assert reduce_once(b) == (evaluate(rest, SEED), w.letters[0])

    def test_long_input_takes_linear_time(self):
        # 50,000 strips of O(1) each take well under a second
        n = 100_000
        b = BiComposition(Composition((1,) * n), Composition((n,)))
        start = time.perf_counter()
        assert factorize(b) is None
        assert time.perf_counter() - start < 2


class TestGenerate:
    def test_smallest_cases(self):
        assert list(generate_frobenius(1)) == [(IOTA, SEED)]
        by_sum = {}
        for w, b in generate_frobenius(2):
            by_sum.setdefault(b.total, set()).add((str(w), str(b)))
        assert by_sum[2] == {("S+0", "2|1,1"), ("S-0", "1,1|2")}

    def test_counts_match_brute_frozen(self):
        tally = {}
        for _, b in generate_frobenius(8):
            tally[b.total] = tally.get(b.total, 0) + 1
        assert [tally[n] for n in range(1, 9)] == FROBENIUS_TOTALS

    def test_round_trip_to_ten(self):
        for w, b in generate_frobenius(10):
            assert factorize(b) == w

    def test_all_emitted_are_frobenius(self):
        for _, b in generate_frobenius(9):
            assert is_frobenius(b)

    def test_rejects_bad_budget(self):
        with pytest.raises(ValueError):
            list(generate_frobenius(0))


class TestGenerateDeficiency:
    def test_t0_is_the_zeta_chain(self):
        items = list(generate_deficiency(0, 9))
        for n in range(2, 10):
            level = [(p, b) for (m, p, b) in items if m == n]
            assert len(level) == 2
            assert all(p == n + 1 for p, _ in level)

    def test_subsumption_and_exactness(self):
        full = {}
        for w, b in generate_frobenius(9):
            full[b] = (b.total, b.num_parts)
        for t in range(4):
            got = {b for (_, _, b) in generate_deficiency(t, 9)}
            want = {b for b, (n, p) in full.items() if p >= n + 1 - t}
            assert got == want

    def test_emitted_annotations(self):
        for n, p, b in generate_deficiency(2, 8):
            assert (n, p) == (b.total, b.num_parts)
            assert p >= n + 1 - 2

    def test_chain_deeper_than_the_recursion_limit(self):
        depths = [depth for _, _, depth, _ in counting._kind("seaweed").nodes(3000, 0)]
        assert len(depths) == 2 * 3000 - 1
        assert max(depths) == 2999

    def test_capped_budget_discards_only_t_letters(self, monkeypatch):
        """Under the deficit cap every S letter offered fits; T letters sit
        one deficiency step above S letters of equal increment."""
        import seaweeds.seaweed_words as sw

        offered = []
        real = sw._child_moves

        def recording(plus, minus, budget):
            for move in real(plus, minus, budget):
                offered.append(move)
                yield move

        monkeypatch.setattr(sw, "_child_moves", recording)
        kept = {(b.plus.parts, b.minus.parts) for _, _, b in generate_deficiency(3, 14)}
        dropped = [l for l, child, _ in offered if child not in kept]
        assert len(offered) - len(dropped) == len(kept) - 1
        assert dropped and all(l.family == "T" for l in dropped)


def evaluated_moves(plus, minus, top):
    """Every (letter, child, increment) with increment <= top, from ``_walk``:
    family and sign in S+, S-, T+, T- order, m rising."""
    n = sum(plus)
    want = []
    for family, sign in (("S", 1), ("S", -1), ("T", 1), ("T", -1)):
        for m in itertools.count():
            child = _walk((letter(family, sign, m),), plus, minus)[0]
            if child is None or sum(child[0]) - n > top:
                break
            want.append((letter(family, sign, m), child, sum(child[0]) - n))
    return want


class TestListerMatchesEvaluator:
    def test_every_move_is_its_letter_applied(self):
        """Exhaustive over the pairs of sum <= 7 and the budgets 0..12: the
        lister yields, in order, exactly the letters whose increment fits,
        each with the child ``_walk`` gives and the sum difference as
        its increment."""
        top = 12
        for n in range(1, 8):
            sides = list(iter_compositions(n))
            for plus, minus in itertools.product(sides, sides):
                want = evaluated_moves(plus, minus, top)
                for budget in range(top + 1):
                    got = list(_child_moves(plus, minus, budget))
                    assert got == [move for move in want if move[2] <= budget], \
                        (plus, minus, budget)

    def test_nothing_fits_below_the_smallest_increment(self):
        """300 seeded random pairs of sum <= 12, budgets 0 to 2 above the
        smallest increment (a1+ and a1- for S+0 and S-0, a2+ and a2- for T+0
        and T-0 where a side has a second part): the lister yields nothing
        exactly below it, and otherwise what the evaluator gives."""
        rng = make_rng()
        for _ in range(300):
            a = random_bicomposition(rng, 1, 12)
            plus, minus = a.plus.parts, a.minus.parts
            smallest = min(plus[:2] + minus[:2])
            want = evaluated_moves(plus, minus, smallest + 2)
            for budget in range(smallest + 3):
                got = list(_child_moves(plus, minus, budget))
                assert (got == []) == (budget < smallest), (plus, minus, budget)
                assert got == [move for move in want if move[2] <= budget], \
                    (plus, minus, budget)


class TestSearchOrder:
    def test_pre_order_with_children_in_move_order(self):
        def reference(plus, minus, total, n_max, path):
            yield " ".join(l.token() for l in reversed(path)), f"{plus}|{minus}"
            for l, (child_plus, child_minus), inc in _child_moves(plus, minus, n_max - total):
                yield from reference(child_plus, child_minus, total + inc, n_max, path + [l])

        want = list(reference((1,), (1,), 1, 8, []))
        got = [
            (str(w), f"{b.plus.parts}|{b.minus.parts}") for w, b in generate_frobenius(8)
        ]
        assert got == want


class TestOperatorLaws:
    def test_p_vector_and_sum_laws_small(self):
        """Exhaustive over sums <= 6, m <= 5 (acceptance reruns at sum 8)."""
        for n in range(1, 7):
            for a in all_bicompositions(n):
                pp, pm = a.parts_pair
                for m in range(6):
                    b = apply_letter(letter("S", 1, m), a)
                    assert b.parts_pair == (pp, pm + 1)
                    assert b.total == a.total + (m + 1) * a.plus.parts[0]
                    b = apply_letter(letter("S", -1, m), a)
                    assert b.parts_pair == (pp + 1, pm)
                    assert b.total == a.total + (m + 1) * a.minus.parts[0]
                    b = apply_letter(letter("T", 1, m), a)
                    if pp > 1:
                        assert b.parts_pair == (pp - 1, pm + 1)
                        assert b.total == a.total + m * a.plus.parts[0] + (m + 1) * a.plus.parts[1]
                    else:
                        assert b is NULL and b.parts_pair == (0, 0)
                    b = apply_letter(letter("T", -1, m), a)
                    if pm > 1:
                        assert b.parts_pair == (pp + 1, pm - 1)
                        assert b.total == a.total + m * a.minus.parts[0] + (m + 1) * a.minus.parts[1]
                    else:
                        assert b is NULL

    def test_word_level_displacement(self):
        rng = make_rng()
        for _ in range(300):
            a, w = random_seaweed_instance(rng)
            b = evaluate(w, a)
            s = word_stats(w)
            assert b.num_parts == a.num_parts + s.sigma
            dp = (s.sigma_minus + s.tau_minus - s.tau_plus,
                  s.sigma_plus + s.tau_plus - s.tau_minus)
            assert b.parts_pair == (a.parts_pair[0] + dp[0], a.parts_pair[1] + dp[1])

    def test_increment_lower_bounds(self):
        rng = make_rng()
        for _ in range(300):
            a, w = random_seaweed_instance(rng)
            seq = w_sequence(w, a)
            assert all(v >= 1 for v in seq.values)
            assert len(w) + seq.beta <= sum(seq.values)


class TestSharedPrefix:
    def test_w_sequence_depends_on_prefix_only(self):
        rng = make_rng()
        for _ in range(200):
            k = rng.randint(1, 5)
            letters = []
            for _ in range(k):
                fam = rng.choice("ST")
                letters.append(letter(fam, rng.choice((1, -1)), rng.randint(0, 3)))
            w = SeaweedWord(tuple(letters))
            prefix_plus = tuple(rng.randint(1, 5) for _ in range(k + 1))
            prefix_minus = tuple(rng.randint(1, 5) for _ in range(k + 1))
            pairs = []
            for _ in range(2):
                tail_plus = tuple(rng.randint(1, 5) for _ in range(rng.randint(0, 3)))
                tail_minus = tuple(rng.randint(1, 5) for _ in range(rng.randint(0, 3)))
                plus, minus = prefix_plus + tail_plus, prefix_minus + tail_minus
                diff = sum(plus) - sum(minus)
                if diff > 0:
                    minus = minus + (diff,)
                elif diff < 0:
                    plus = plus + (-diff,)
                pairs.append(BiComposition(Composition(plus), Composition(minus)))
            a, b = pairs
            sa, sb = w_sequence(w, a), w_sequence(w, b)
            assert sa.values == sb.values
            ca, cb = evaluate(w, a), evaluate(w, b)
            assert ca.plus.parts[0] == cb.plus.parts[0]
            assert ca.minus.parts[0] == cb.minus.parts[0]


class TestScaling:
    def test_words_commute_with_scaling(self):
        rng = make_rng()
        pool = [w for w, _ in generate_frobenius(8)]
        for w in rng.sample(pool, 60):
            for k in range(1, 6):
                assert evaluate(w, scale(k, SEED)) == scale(k, evaluate(w, SEED))


class TestIndexPreservation:
    def test_letters_preserve_index_random(self):
        rng = make_rng()
        for _ in range(300):
            a, w = random_seaweed_instance(rng)
            assert index_seaweed(evaluate(w, a)) == index_seaweed(a)


class TestCollisionMachinery:
    def test_duplicate_child_raises(self, monkeypatch):
        """A generator step claiming an already-seen value must fail loudly."""
        import seaweeds.seaweed_words as sw

        def bogus(plus, minus, budget):
            yield sw.letter("S", 1, 0), ((2,), (1, 1)), 1
            yield sw.letter("S", -1, 0), ((2,), (1, 1)), 1

        monkeypatch.setattr(sw, "_child_moves", bogus)
        with pytest.raises(sw.CollisionError):
            list(counting.generate_frobenius(3))

    def test_duplicate_child_raises_in_deficiency_run(self, monkeypatch):
        import seaweeds.seaweed_words as sw

        def bogus(plus, minus, budget):
            yield sw.letter("S", 1, 0), ((2,), (1, 1)), 1
            yield sw.letter("S", -1, 0), ((2,), (1, 1)), 1

        monkeypatch.setattr(sw, "_child_moves", bogus)
        with pytest.raises(sw.CollisionError):
            list(counting.generate_deficiency(2, 3))


def terminal_pairs(n_max):
    """Every pair of sum <= n_max whose first parts are equal: (s | s), and
    (c, x | c, y) over the pairs (x | y) of sum s - c."""
    for s in range(1, n_max + 1):
        yield (s,), (s,)
        for c in range(1, s):
            for x, y in itertools.product(iter_compositions(s - c), repeat=2):
                yield (c,) + x, (c,) + y


class TestEveryPairFromTheTerminals:
    """The pair oracle of freeness: a strip reduces any pair while its first
    parts differ, so every pair is w(R) for exactly one word w and one
    terminal pair R, whose first parts are equal.  The search from each
    terminal pair must then reach every pair once over all the trees, and
    letters keep the index, so each tree has its root's index."""

    N_MAX = 9

    @pytest.fixture(scope="class")
    def forest(self):
        """Each terminal pair with the states of its tree; a repeat inside
        one tree raises CollisionError here."""
        return [(root, [node[0] for node in sw._search(root, sw._child_moves, self.N_MAX)])
                for root in terminal_pairs(self.N_MAX)]

    def test_every_pair_comes_exactly_once(self, forest):
        assert len(forest) == 29133
        counts = Counter(state for _, states in forest for state in states)
        pairs = {pair for n in range(1, self.N_MAX + 1)
                 for pair in itertools.product(iter_compositions(n), repeat=2)}
        assert len(pairs) == sum(4 ** (n - 1) for n in range(1, self.N_MAX + 1)) == 87381
        assert set(counts) == pairs
        assert [pair for pair, count in counts.items() if count > 1] == []

    def test_every_tree_keeps_its_roots_index(self, forest):
        for root, states in forest:
            index = index_of_parts(*root, sum(root[0]))
            assert [state for state in states
                    if index_of_parts(*state, sum(state[0])) != index] == [], root

    def test_root_rule(self):
        """index(c | c) = c - 1, and the shared cut of (c, x | c, y) splits it
        into (c | c) and (x | y), the one more component adding 1: index(c, x
        | c, y) = (c - 1) + index(x | y) + 1."""
        for plus, minus in terminal_pairs(self.N_MAX):
            c, n = plus[0], sum(plus)
            rule = c - 1 if c == n else c + index_of_parts(plus[1:], minus[1:], n - c)
            assert index_of_parts(plus, minus, n) == rule, (plus, minus)
