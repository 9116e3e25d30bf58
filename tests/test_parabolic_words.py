import itertools
import math
import time

import pytest

from helpers import make_rng, random_composition, random_parabolic_instance
from seaweeds import (
    IOTA_P,
    SEED_EVEN,
    SEED_ODD,
    BiComposition,
    Composition,
    FirstLastEqual,
    ParabolicLetter,
    ParabolicWord,
    apply_letter_p,
    evaluate,
    evaluate_p,
    factorize_p,
    generate_deficiency_p,
    generate_frobenius_p,
    index_parabolic,
    iter_compositions,
    reduce_once_p,
    theta,
    w_sequence_p,
)
from seaweeds import counting
from seaweeds.parabolic_words import _child_moves_p, _walk_p, letter_p, seed
from seaweeds.seaweed_words import IOTA, SeaweedWord

V_WORD = ParabolicWord.parse("T~0 S~0 S0")


def comp(*parts):
    return Composition(tuple(parts))


class TestLetters:
    def test_tokens_round_trip(self):
        for tok in ["S0", "S~0", "T1", "T~12"]:
            assert ParabolicLetter.parse(tok).token() == tok

    @pytest.mark.parametrize("bad", ["", "X0", "S~", "S-1", "T~x", "S+0", "S-0", "T~+2"])
    def test_bad_tokens(self, bad):
        with pytest.raises(ValueError):
            ParabolicLetter.parse(bad)

    @pytest.mark.parametrize("tilde, m", [("yes", 0), (1, 0), (0, 2), (None, 1), (False, 1.5),
                                          (True, 2.0), (False, True)])
    def test_fields_must_be_typed(self, tilde, m):
        """The tilde is a bool and m an int (not a bool): otherwise
        ``ParabolicLetter('S', 'yes', 0)`` would be the letter ``S~0``."""
        with pytest.raises(ValueError):
            ParabolicLetter("S", tilde, m)
        with pytest.raises(ValueError):
            letter_p("T", tilde, m)

    def test_interning_keeps_the_field_types(self):
        # a fresh key: an earlier int call must not be handed back for the bool
        with pytest.raises(ValueError, match="tilde must be a bool"):
            letter_p("T", 1, 54321)
        made = letter_p("T", True, 54321)
        assert made.tilde is True and type(made.m) is int
        assert repr(made) == "ParabolicLetter(family='T', tilde=True, m=54321)"
        assert made is letter_p("T", True, 54321) and made.token() == "T~54321"

    def test_seed_lookup(self):
        assert seed(0) == SEED_EVEN and seed(1) == SEED_ODD
        with pytest.raises(ValueError):
            seed(2)


class TestWords:
    def test_concatenation_keeps_the_class(self):
        w = ParabolicWord.parse("S0") * ParabolicWord.parse("T~1")
        assert type(w) is ParabolicWord and str(w) == "S0 T~1"

    def test_empty_words_of_the_two_alphabets_differ(self):
        assert IOTA_P != IOTA


class TestApply:
    def test_examples(self):
        assert apply_letter_p(letter_p("S", False, 0), comp(1)) == comp(2, 1)
        assert apply_letter_p(letter_p("T", False, 0), comp(1)) == comp(1)
        assert apply_letter_p(letter_p("S", True, 0), comp(2, 1)) == comp(2, 1, 4)

    def test_tilde_is_reversal_after(self):
        rng = make_rng()
        for _ in range(200):
            a = Composition(random_composition(rng, rng.randint(1, 9)))
            for fam in "ST":
                m = rng.randint(0, 3)
                plain = apply_letter_p(letter_p(fam, False, m), a)
                tilded = apply_letter_p(letter_p(fam, True, m), a)
                assert tilded == theta(plain)


class TestEvaluate:
    def test_v_word(self):
        assert evaluate_p(V_WORD, comp(1)) == comp(1, 4, 4)
        assert evaluate_p(V_WORD, comp(1, 2)) == comp(1, 4, 2, 4)

    def test_v_word_general_shape(self):
        rng = make_rng()
        for _ in range(50):
            tail = tuple(rng.randint(1, 5) for _ in range(rng.randint(0, 4)))
            a = comp(1, *tail)
            assert evaluate_p(V_WORD, a) == Composition((1, 4) + tail + (4,))

    def test_identity(self):
        a = comp(2, 1, 4)
        assert evaluate_p(IOTA_P, a) == a

    def test_word_text_round_trip(self):
        for text in ["", "S0", "T~0 S~0 S0", "S~2 T1"]:
            assert str(ParabolicWord.parse(text)) == text


class TestWSequenceP:
    def test_examples(self):
        assert w_sequence_p(ParabolicWord.parse("S0"), comp(1)).values == (2,)
        assert w_sequence_p(ParabolicWord.parse("T0"), comp(1)).values == (0,)
        seq = w_sequence_p(V_WORD, comp(1))
        assert seq.values == (2, 4, 2) and seq.beta == 1

    def test_increments_even(self):
        rng = make_rng()
        for _ in range(200):
            a, w = random_parabolic_instance(rng)
            seq = w_sequence_p(w, a)
            assert all(v % 2 == 0 for v in seq.values)
            assert seq.beta == sum(1 for v in seq.values if v > 2)

    def test_long_word_takes_linear_time(self):
        # 50,000 letters of O(1) each take well under a second
        a = Composition((2,) * 50_000 + (1,))
        eps, w = factorize_p(a)
        start = time.perf_counter()
        seq = w_sequence_p(w, seed(eps))
        assert time.perf_counter() - start < 2
        assert len(seq.values) == len(w)
        assert sum(seq.values) == a.total - seed(eps).total


class TestParity:
    def test_sum_difference_even_and_zero_case(self):
        rng = make_rng()
        for _ in range(400):
            a, w = random_parabolic_instance(rng)
            b = evaluate_p(w, a)
            diff = b.total - a.total
            assert diff % 2 == 0 and diff >= 0
            all_t = all(l.family == "T" for l in w.letters)
            if diff == 0 and len(w) > 0:
                assert a.num_parts == 1 and all_t
            if a.num_parts == 1 and all_t:
                assert diff == 0
        # the generator can only produce idle words over one-part bases
        base = comp(3)
        idle = ParabolicWord.parse("T~2 T0")
        assert evaluate_p(idle, base) == base


class TestReduceOnce:
    def test_examples(self):
        b, l = reduce_once_p(comp(2, 1))
        assert (b, l.token()) == (comp(1), "S0")
        b, l = reduce_once_p(comp(1, 4, 4))
        assert (b, l.token()) == (comp(2, 1, 4), "T~0")
        with pytest.raises(FirstLastEqual):
            reduce_once_p(comp(1, 1))
        with pytest.raises(FirstLastEqual):
            reduce_once_p(comp(5))

    def test_inverts_every_letter(self):
        rng = make_rng()
        for _ in range(300):
            n = rng.randint(2, 12)
            a = Composition(random_composition(rng, n))
            fam = rng.choice("ST")
            if fam == "T" and a.num_parts == 1:
                continue
            l = letter_p(fam, rng.choice((False, True)), rng.randint(0, 3))
            b = apply_letter_p(l, a)
            back, stripped = reduce_once_p(b)
            assert back == a and stripped == l


class TestFactorize:
    def test_examples(self):
        assert factorize_p(comp(1, 2)) == (1, ParabolicWord.parse("S~0"))
        assert factorize_p(comp(2, 2)) is None
        assert factorize_p(comp(1, 1)) == (0, IOTA_P)

    def test_rejects_sum_one(self):
        with pytest.raises(ValueError):
            factorize_p(comp(1))

    def test_matches_meander_small(self):
        for n in range(2, 13):
            for parts in iter_compositions(n):
                a = Composition(parts)
                result = factorize_p(a)
                assert (result is not None) == (index_parabolic(a) == 0)
                if result is not None:
                    eps, word = result
                    assert eps == n % 2
                    assert evaluate_p(word, seed(eps)) == a

    def test_odd_words_start_with_growth_letter(self):
        for n in range(3, 14, 2):
            for parts in iter_compositions(n):
                result = factorize_p(Composition(parts))
                if result is not None:
                    _, word = result
                    assert word.letters[-1].family == "S"

    def test_random_long_words_round_trip(self):
        rng = make_rng()
        for _ in range(500):
            eps = rng.randint(0, 1)
            _, w = random_parabolic_instance(rng, math.inf, max_len=60, base=seed(eps), max_m=12)
            c = evaluate_p(w, seed(eps))
            one_at_a_time = seed(eps)
            for l in reversed(w.letters):
                one_at_a_time = apply_letter_p(l, one_at_a_time)
            assert one_at_a_time == c
            if c.total < 2:
                continue  # the empty word on the odd seed: outside the scheme
            assert factorize_p(c) == (eps, w)
            if w.letters:  # reduce_once_p is the first strip of factorize_p
                rest = ParabolicWord(w.letters[1:])
                assert reduce_once_p(c) == (evaluate_p(rest, seed(eps)), w.letters[0])

    def test_long_input_takes_linear_time(self):
        # 50,000 strips of O(1) each take well under a second
        a = Composition((2,) * 50_000 + (1,))
        start = time.perf_counter()
        eps, w = factorize_p(a)
        assert time.perf_counter() - start < 2
        assert evaluate_p(w, seed(eps)) == a


class TestGenerate:
    def test_smallest_cases(self):
        odd3 = {str(c) for _, c in generate_frobenius_p(1, 3)}
        assert odd3 == {"1,2", "2,1"}
        even2 = [(str(w), str(c)) for w, c in generate_frobenius_p(0, 2)]
        assert even2 == [("", "1,1")]

    def test_even_four_matches_census(self):
        got = {str(c) for _, c in generate_frobenius_p(0, 4)}
        # census over all 8 compositions of 4 finds four Frobenius ones
        assert got == {"1,1", "3,1", "1,3", "2,1,1", "1,1,2"}

    def test_counts_match_brute(self):
        for eps in (0, 1):
            tally = {}
            for _, c in generate_frobenius_p(eps, 14):
                tally[c.total] = tally.get(c.total, 0) + 1
            brute = {}
            for n in range(2 + eps, 15, 2):
                brute[n] = sum(
                    1 for parts in iter_compositions(n)
                    if index_parabolic(Composition(parts)) == 0
                )
            assert tally == brute

    def test_round_trip(self):
        for eps in (0, 1):
            for w, c in generate_frobenius_p(eps, 12):
                assert factorize_p(c) == (eps, w)

    def test_seed_above_n_max_is_not_emitted(self):
        assert list(generate_frobenius_p(0, 1)) == []
        assert list(generate_deficiency_p(0, 2, 1)) == []
        assert list(generate_frobenius_p(1, 2)) == []
        assert list(generate_frobenius_p(0, 2)) == [(IOTA_P, SEED_EVEN)]

    @pytest.mark.parametrize("run", [
        lambda: generate_frobenius_p(0, 0),
        lambda: generate_deficiency_p(1, 1, 0),
        lambda: generate_deficiency_p(0, -1, 4),
        lambda: generate_frobenius_p(2, 4),
    ])
    def test_rejects_bad_arguments(self, run):
        with pytest.raises(ValueError):
            list(run())

    def test_pre_order_with_children_in_move_order(self):
        def reference(a, total, n_max, path):
            yield str(ParabolicWord(tuple(reversed(path)))), a
            for l, (child,), inc in _child_moves_p(a, n_max - total):
                yield from reference(child, total + inc, n_max, path + [l])

        for eps, start in ((0, (1, 1)), (1, (1,))):
            want = list(reference(start, 2 - eps, 16, []))[eps:]  # the odd seed is skipped
            got = [(str(w), c.parts) for w, c in generate_frobenius_p(eps, 16)]
            assert got == want

    def test_first_last_equal_only_at_seeds(self):
        for eps in (0, 1):
            for _, c in generate_frobenius_p(eps, 18 - eps):
                if c.parts[0] == c.parts[-1]:
                    assert c in (SEED_EVEN, SEED_ODD)


def evaluated_moves(a, top):
    """Every (letter, (child,), increment) with increment <= top, from
    ``_walk_p``: S, S~, T, T~ order, m rising, and no T letter on one part."""
    n = sum(a)
    want = []
    for family, tilde in (("S", False), ("S", True), ("T", False), ("T", True)):
        for m in itertools.count():
            child = _walk_p((letter_p(family, tilde, m),), a)[0]
            if child == a or sum(child) - n > top:
                break
            want.append((letter_p(family, tilde, m), (child,), sum(child) - n))
    return want


class TestListerMatchesEvaluator:
    def test_every_move_is_its_letter_applied(self):
        """Exhaustive over the compositions of sum <= 9 and the budgets 0..12:
        the lister yields, in order, exactly the letters whose increment
        fits, each with the child ``_walk_p`` gives and the sum
        difference as its increment."""
        top = 12
        for n in range(1, 10):
            for a in iter_compositions(n):
                want = evaluated_moves(a, top)
                for budget in range(top + 1):
                    got = list(_child_moves_p(a, budget))
                    assert got == [move for move in want if move[2] <= budget], (a, budget)

    def test_nothing_fits_below_the_smallest_increment(self):
        """300 seeded random compositions of sum <= 12, budgets 0 to 2 above
        the smallest increment (2 a1 for S0 and S~0, 2 a2 for T0 and T~0
        where there is a second part): the lister yields nothing exactly
        below it, and otherwise what the evaluator gives."""
        rng = make_rng()
        for _ in range(300):
            a = random_composition(rng, rng.randint(1, 12))
            smallest = 2 * min(a[:2])
            want = evaluated_moves(a, smallest + 2)
            for budget in range(smallest + 3):
                got = list(_child_moves_p(a, budget))
                assert (got == []) == (budget < smallest), (a, budget)
                assert got == [move for move in want if move[2] <= budget], (a, budget)


class TestGenerateDeficiency:
    def test_t0_tail_is_two(self):
        for eps in (0, 1):
            tally = {}
            for n, p, _ in generate_deficiency_p(eps, 0, 20):
                tally[n] = tally.get(n, 0) + 1
            for n in range(4 + eps, 21 - eps, 2):
                assert tally[n] == 2

    def test_subsumption_and_exactness(self):
        for eps in (0, 1):
            full = {c: (c.total, c.num_parts) for _, c in generate_frobenius_p(eps, 13)}
            for t in range(3):
                got = {c for (_, _, c) in generate_deficiency_p(eps, t, 13)}
                want = {
                    c for c, (n, p) in full.items() if p >= (n - eps) // 2 + 1 - t
                }
                assert got == want

    def test_capped_budget_discards_only_t_letters(self, monkeypatch):
        import seaweeds.parabolic_words as pw

        offered = []
        real = pw._child_moves_p

        def recording(a, budget):
            for move in real(a, budget):
                offered.append(move)
                yield move

        monkeypatch.setattr(pw, "_child_moves_p", recording)
        kept = {c.parts for _, _, c in generate_deficiency_p(1, 2, 31)}
        dropped = [l for l, (child,), _ in offered if child not in kept]
        assert len(offered) - len(dropped) == len(kept)  # the odd seed is not emitted
        assert dropped and all(l.family == "T" for l in dropped)

    def test_counts_match_brute_diagonal(self):
        for k in range(2, 10):
            n = 2 * k + 1
            want = sum(
                1 for parts in iter_compositions(n)
                if len(parts) == k - 1 and index_parabolic(Composition(parts)) == 0
            )
            tally = sum(
                1 for (m, p, _) in generate_deficiency_p(1, 2, n) if (m, p) == (n, k - 1)
            )
            assert tally == want


class TestOperatorLaws:
    def test_sum_and_parts_laws_small(self):
        """Exhaustive over sums <= 6, m <= 5 (acceptance reruns at sum 8)."""
        for n in range(1, 7):
            for parts in iter_compositions(n):
                a = Composition(parts)
                r = a.num_parts
                for m in range(6):
                    for tilde in (False, True):
                        b = apply_letter_p(letter_p("S", tilde, m), a)
                        assert b.total == n + 2 * (m + 1) * parts[0]
                        assert b.num_parts == r + 1
                        b = apply_letter_p(letter_p("T", tilde, m), a)
                        if r > 1:
                            assert b.total == n + 2 * m * parts[0] + 2 * (m + 1) * parts[1]
                        else:
                            assert b == a
                        assert b.num_parts == r


class TestIndexBridge:
    def test_letters_preserve_parabolic_index(self):
        rng = make_rng()
        for _ in range(300):
            a, w = random_parabolic_instance(rng)
            assert index_parabolic(evaluate_p(w, a)) == index_parabolic(a)

    def test_growth_letter_through_pair_operators(self):
        """The composition operators factor through the pair alphabet."""
        rng = make_rng()

        def Theta(b):
            return BiComposition(theta(b.plus), theta(b.minus))

        for _ in range(200):
            n = rng.randint(1, 9)
            a = Composition(random_composition(rng, n))
            m = rng.randint(0, 3)
            pair = BiComposition(a, Composition((n,)))
            via_pairs = Theta(
                evaluate(
                    SeaweedWord.parse("T-0"),
                    Theta(evaluate(SeaweedWord.parse(f"S+{m}"), pair)),
                )
            )
            lhs = BiComposition(
                apply_letter_p(letter_p("S", False, m), a),
                Composition((n + 2 * (m + 1) * a.parts[0],)),
            )
            assert via_pairs == lhs
            if a.num_parts > 1:
                via_pairs = Theta(
                    evaluate(
                        SeaweedWord.parse("T-0"),
                        Theta(evaluate(SeaweedWord.parse(f"T+{m}"), pair)),
                    )
                )
                lhs = BiComposition(
                    apply_letter_p(letter_p("T", False, m), a),
                    Composition(
                        (n + 2 * m * a.parts[0] + 2 * (m + 1) * a.parts[1],)
                    ),
                )
                assert via_pairs == lhs


class TestFreenessMachinery:
    def test_duplicate_child_raises(self, monkeypatch):
        import seaweeds.parabolic_words as pw

        def bogus(a, budget):
            yield pw.letter_p("S", False, 0), ((2, 1),), 2
            yield pw.letter_p("S", True, 0), ((2, 1),), 2

        monkeypatch.setattr(pw, "_child_moves_p", bogus)
        # the error names the composition, which is also its seen-set key
        with pytest.raises(pw.CollisionError) as raised:
            list(counting.generate_frobenius_p(1, 5))
        assert str(raised.value) == "(2, 1) reached twice; second route ends with letter S0"

    def test_failed_inverse_raises(self, monkeypatch):
        import seaweeds.parabolic_words as pw

        # the letter arithmetic that both _walk_p and the strip's map-back run
        monkeypatch.setattr(pw, "_ends", lambda *args: (999, 1))
        with pytest.raises(pw.AmbiguousInverse):
            pw.reduce_once_p(comp(2, 1))
        with pytest.raises(pw.AmbiguousInverse, match=r"from \(1, 4, 4\) suggested predecessor \(2, 1, 4\)"):
            pw.factorize_p(comp(1, 4, 4))

    def test_odd_seed_reached_by_a_t_strip_raises(self, monkeypatch):
        import seaweeds.parabolic_words as pw

        def bogus(parts, rev):
            parts.clear()
            parts.append(1)
            return pw.letter_p("T", False, 0), rev

        monkeypatch.setattr(pw, "_strip_p", bogus)
        with pytest.raises(pw.AmbiguousInverse, match="not by stripping an S letter"):
            pw.factorize_p(comp(1, 2))
