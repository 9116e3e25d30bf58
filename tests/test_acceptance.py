"""Acceptance suite: one test per criterion, one PASS line each (run -s).

Heavy shared artifacts (exhaustive tables, full generation runs) are
session fixtures so each is computed once.
"""

import itertools

import pytest

from helpers import (
    diagonal,
    low_part_columns,
    make_rng,
    random_parabolic_instance,
    random_seaweed_instance,
)
from seaweeds import (
    SEED,
    BiComposition,
    Composition,
    brute_table,
    deficiency_table,
    evaluate,
    evaluate_p,
    factorize,
    factorize_p,
    generate_deficiency,
    generate_deficiency_p,
    generate_frobenius,
    generate_frobenius_p,
    generated_table,
    index_parabolic,
    index_seaweed,
    iter_compositions,
    rho,
    scale,
    verify_published_polynomials,
    w_sequence,
    w_sequence_p,
    word_stats,
    zeta,
)
from seaweeds.counting import _kind, diagonal_counts
from seaweeds.meander import component_counts, partner_array
from seaweeds.parabolic_words import _walk_p, letter_p
from seaweeds.seaweed_words import _factorize_raw, _walk, letter


@pytest.fixture(scope="session")
def seaweed_generated_14():
    return list(generate_frobenius(14))


@pytest.fixture(scope="session")
def parabolic_generated_18():
    return {eps: list(generate_frobenius_p(eps, 18 - (eps % 2))) for eps in (0, 1)}


@pytest.fixture(scope="session")
def seaweed_brute_16():
    return brute_table("seaweed", 16)


@pytest.fixture(scope="session")
def parabolic_brute_24():
    return {
        0: brute_table("parabolic-even", 24),
        1: brute_table("parabolic-odd", 23),
    }


def test_criterion_1_published_polynomials():
    report = verify_published_polynomials(seaweed_n_max=40, parabolic_n_max=30)
    assert len(report.rows) == 9
    for row in report.rows:
        assert row.matched, row.details
        for fit in row.fits:
            lo, hi = fit.window
            assert hi - lo + 1 >= 15
            assert hi - fit.stable_from + 1 >= 15
            assert fit.degree == fit.t // 2
            assert fit.coefficients[-1] > 0
    # independent re-evaluation of the heaviest tails, exact integer equality
    from seaweeds import deficiency_sequence

    for t, (c0, c1, c2) in [(3, (4, 12, 0)), (4, (-138, 33, 1))]:
        seq = deficiency_sequence("seaweed", t, range(1, 41))
        tail = range(26, 41)
        assert all(seq[n - 1] == c0 + c1 * n + c2 * n * n for n in tail)
    print("\nPASS criterion 1: all nine published polynomials reproduced exactly")


def test_criterion_2_oracle_equivalence(
    seaweed_brute_16, parabolic_brute_24
):
    assert generated_table("seaweed", 16).entries == seaweed_brute_16.entries
    assert (
        generated_table("parabolic-even", 24).entries == parabolic_brute_24[0].entries
    )
    assert (
        generated_table("parabolic-odd", 23).entries == parabolic_brute_24[1].entries
    )
    print(
        "PASS criterion 2: brute census equals generation census "
        "(seaweed n<=16, parabolic n<=24)"
    )


def test_criterion_3_emptiness_bounds(seaweed_brute_16, parabolic_brute_24):
    assert seaweed_brute_16.bound_violations() == []
    assert parabolic_brute_24[0].bound_violations() == []
    assert parabolic_brute_24[1].bound_violations() == []
    print("PASS criterion 3: no counts above p=n+1 (pairs) or p=floor(n/2)+1")


def test_low_part_columns_match_their_gcd_closed_forms(seaweed_brute_16, parabolic_brute_24):
    """The far end of every table from the other diagonals: the two smallest
    part counts at each sum n >= 2, against both routes' tables."""
    tables = [seaweed_brute_16, parabolic_brute_24[0], parabolic_brute_24[1],
              generated_table("seaweed", 16), generated_table("parabolic-even", 30),
              generated_table("parabolic-odd", 31)]
    checked = 0
    for table, n_max in zip(tables, (16, 24, 23, 16, 30, 31)):
        spec = _kind(table.kind)
        for n in range(max(2, spec.first_sum), n_max + 1, spec.unit):
            for p, count in low_part_columns(table.kind, n).items():
                assert table.count(n, p) == count, (table.kind, table.method, n, p)
                checked += 1
    assert checked == 2 * (15 + 12 + 11 + 15 + 15 + 15)
    print("PASS low-part columns: gcd closed forms equal the census and generation")


def test_criterion_4_bijection_round_trip(seaweed_generated_14, parabolic_generated_18):
    for w, b in seaweed_generated_14:
        assert factorize(b) == w
    for eps, items in parabolic_generated_18.items():
        for w, c in items:
            assert factorize_p(c) == (eps, w)
    # exact complement against the meander oracle, exhaustively to sum 11,
    # through the raw-tuple core that factorize itself runs on
    for n in range(1, 12):
        comps = list(iter_compositions(n))
        partners = [partner_array(c, n) for c in comps]
        for ci, ti in zip(comps, partners):
            for cj, tj in zip(comps, partners):
                frob = component_counts(ti, tj) == (0, 1)
                assert (_factorize_raw(ci, cj) is not None) == frob
    print(
        "PASS criterion 4: factorize inverts generation (sums 14/18) and flags "
        "exactly the non-Frobenius pairs (n<=11)"
    )


def test_criterion_5_collision_freedom(seaweed_generated_14, parabolic_generated_18):
    # the generators raise CollisionError internally; re-check the streams
    values = [b for _, b in seaweed_generated_14]
    assert len(values) == len(set(values))
    words = [w for w, _ in seaweed_generated_14]
    assert len(words) == len(set(words))
    for items in parabolic_generated_18.values():
        vals = [c for _, c in items]
        assert len(vals) == len(set(vals))
    deficiency_runs = [
        [b for _, _, b in generate_deficiency(3, 20)],
        [c for _, _, c in generate_deficiency_p(0, 2, 30)],
        [c for _, _, c in generate_deficiency_p(1, 2, 31)],
    ]
    for run in deficiency_runs:
        assert run and len(run) == len(set(run))
    print("PASS criterion 5: zero duplicate outputs across all generation runs")


def test_criterion_6_operator_laws():
    # pair alphabet: p-vector and sum laws, exhaustively to sum 8, m <= 5
    for n in range(1, 9):
        comps = list(iter_compositions(n))
        for plus, minus in itertools.product(comps, repeat=2):
            pp, pm = len(plus), len(minus)
            total = n
            for m in range(6):
                out = _walk((letter("S", 1, m),), plus, minus)[0]
                assert (len(out[0]), len(out[1])) == (pp, pm + 1)
                assert sum(out[0]) == total + (m + 1) * plus[0] == sum(out[1])
                out = _walk((letter("S", -1, m),), plus, minus)[0]
                assert (len(out[0]), len(out[1])) == (pp + 1, pm)
                assert sum(out[0]) == total + (m + 1) * minus[0]
                out = _walk((letter("T", 1, m),), plus, minus)[0]
                if pp > 1:
                    assert (len(out[0]), len(out[1])) == (pp - 1, pm + 1)
                    assert sum(out[0]) == total + m * plus[0] + (m + 1) * plus[1]
                else:
                    assert out is None
                out = _walk((letter("T", -1, m),), plus, minus)[0]
                if pm > 1:
                    assert (len(out[0]), len(out[1])) == (pp + 1, pm - 1)
                    assert sum(out[0]) == total + m * minus[0] + (m + 1) * minus[1]
                else:
                    assert out is None
    # composition alphabet: sum and part laws, same sweep
    for n in range(1, 9):
        for parts in iter_compositions(n):
            r = len(parts)
            for m in range(6):
                for tilde in (False, True):
                    out = _walk_p((letter_p("S", tilde, m),), parts)[0]
                    assert len(out) == r + 1
                    assert sum(out) == n + 2 * (m + 1) * parts[0]
                    out = _walk_p((letter_p("T", tilde, m),), parts)[0]
                    assert len(out) == r
                    if r > 1:
                        assert sum(out) == n + 2 * m * parts[0] + 2 * (m + 1) * parts[1]
                    else:
                        assert out == parts
    # word-level statistics on 1000 seeded random words
    rng = make_rng()
    for _ in range(1000):
        a, w = random_seaweed_instance(rng)
        b = evaluate(w, a)
        stats = word_stats(w)
        assert stats.ell == stats.sigma + stats.tau
        assert b.num_parts == a.num_parts + stats.sigma
        dp = (
            stats.sigma_minus + stats.tau_minus - stats.tau_plus,
            stats.sigma_plus + stats.tau_plus - stats.tau_minus,
        )
        assert b.parts_pair == (a.parts_pair[0] + dp[0], a.parts_pair[1] + dp[1])
        seq = w_sequence(w, a)
        assert all(v >= 1 for v in seq.values)
        assert stats.ell + seq.beta <= sum(seq.values)
        assert sum(seq.values) == b.total - a.total
    print("PASS criterion 6: operator laws hold (exhaustive sum<=8, m<=5; 1000 words)")


def test_criterion_7_index_invariance():
    rng = make_rng()
    for _ in range(1000):
        a, w = random_seaweed_instance(rng)
        assert index_seaweed(evaluate(w, a)) == index_seaweed(a)
    for _ in range(1000):
        a, w = random_parabolic_instance(rng)
        assert index_parabolic(evaluate_p(w, a)) == index_parabolic(a)
    print("PASS criterion 7: 2x1000 random words preserve the index")


def test_criterion_8_scaling():
    rng = make_rng()
    pool = [w for w, _ in generate_frobenius(9)]
    sample = rng.sample(pool, 200)
    for w in sample:
        for k in range(1, 6):
            assert evaluate(w, scale(k, SEED)) == scale(k, evaluate(w, SEED))
    print("PASS criterion 8: words commute with scaling for 200 words, k<=5")


def test_criterion_9_rank_sanity():
    for n in range(1, 51):
        assert index_seaweed(BiComposition.parse(f"{n}|{n}")) == n - 1
        assert index_parabolic(Composition((n,))) == n - 1
    print("PASS criterion 9: full-algebra index equals n-1 for n<=50")


def _check_seaweed_unit_step_laws(w):
    applied = list(reversed(w.letters))
    chain = [((1,), (1,))]
    for l in applied:
        chain.append(_walk((l,), *chain[-1])[0])
    incs = [
        sum(chain[s + 1][0]) - sum(chain[s][0]) for s in range(len(applied))
    ]

    def side_first(value, sign):
        return value[0][0] if sign == 1 else value[1][0]

    for s, l in enumerate(applied):
        base, nxt = chain[s], chain[s + 1]
        if incs[s] == 1:
            # unit steps force m=0 and a 1 in the consumed/produced slots
            assert l.m == 0
            if l.family == "S":
                assert side_first(base, l.sign) == 1
            else:
                src = base[0] if l.sign == 1 else base[1]
                assert len(src) >= 2 and src[1] == 1
            assert side_first(nxt, -l.sign) == 1
        if min(nxt[0][0], nxt[1][0]) == 1:
            assert l.m == 0
            if l.family == "S":
                assert incs[s] == 1

    def is_unit_s(s):
        return applied[s].family == "S" and applied[s].m == 0 and incs[s] == 1

    for s in range(len(applied) - 1):
        if is_unit_s(s) and is_unit_s(s + 1):
            assert applied[s].sign != applied[s + 1].sign
            assert side_first(chain[s], applied[s].sign) == 1
            if (
                s + 2 < len(applied)
                and incs[s + 2] == 1
                and chain[s] != ((1,), (1,))
            ):
                assert applied[s + 2] == letter("S", applied[s].sign, 0)

    # maximal unit-S runs alternate and start against a first part 1
    s = 0
    while s < len(applied):
        if not is_unit_s(s):
            s += 1
            continue
        run_start = s
        while s + 1 < len(applied) and is_unit_s(s + 1):
            s += 1
        run = applied[run_start : s + 1]
        assert all(x.sign != y.sign for x, y in zip(run, run[1:]))
        assert side_first(chain[run_start], run[0].sign) == 1
        s += 1


def _check_parabolic_unit_step_laws(w, start):
    applied = list(reversed(w.letters))
    chain = [start]
    for l in applied:
        chain.append(_walk_p((l,), chain[-1])[0])
    incs = [sum(chain[s + 1]) - sum(chain[s]) for s in range(len(applied))]

    for s, l in enumerate(applied):
        base, nxt = chain[s], chain[s + 1]
        if incs[s] == 2:
            assert l.m == 0
            if l.family == "S":
                assert base[0] == 1
            else:
                assert len(base) >= 2 and base[1] == 1
        if incs[s] > 2:
            assert nxt[0] >= 2
        if nxt != base and nxt[0] == 1:
            assert l.tilde and l.m == 0
            if l.family == "S":
                assert base[0] == 1
            else:
                assert len(base) >= 2 and base[1] == 1

    def is_unit_stilde(s):
        l = applied[s]
        return l.family == "S" and l.tilde and l.m == 0 and incs[s] == 2

    for s in range(len(applied) - 1):
        if is_unit_stilde(s) and is_unit_stilde(s + 1):
            if s + 2 < len(applied) and incs[s + 2] == 2:
                nxt_l = applied[s + 2]
                assert nxt_l.family == "S" and nxt_l.m == 0
                if s + 3 < len(applied) and incs[s + 3] == 2:
                    assert nxt_l == letter_p("S", True, 0)
                    after = applied[s + 3]
                    assert after.family == "S" and after.m == 0


def test_criterion_10_unit_step_law_suite():
    count = 0
    for w, _ in generate_frobenius(12):
        _check_seaweed_unit_step_laws(w)
        count += 1
    # the explicit shapes of alternating unit words, up to length 11
    for r in range(1, 12):
        value = evaluate(zeta(r, 1), SEED)
        m, odd = divmod(r, 2)
        if odd:
            assert value.plus.parts == (2,) * (m + 1)
            assert value.minus.parts == (1,) + (2,) * m + (1,)
        else:
            assert value.plus.parts == (1,) + (2,) * m
            assert value.minus.parts == (2,) * m + (1,)
        assert evaluate(zeta(r, -1), SEED) == rho(value)
        seq = w_sequence(zeta(r, 1), SEED)
        assert seq.values == (1,) * r and seq.beta == 0
    pcount = 0
    for eps in (0, 1):
        start = (1, 1) if eps == 0 else (1,)
        for w, _ in generate_frobenius_p(eps, 12 - eps):
            _check_parabolic_unit_step_laws(w, start)
            pcount += 1
    for eps in (0, 1):
        for w, c in generate_frobenius_p(eps, 12 - eps):
            seq = w_sequence_p(w, Composition((1, 1)) if eps == 0 else Composition((1,)))
            assert all(v >= 2 and v % 2 == 0 for v in seq.values)
    assert count > 2000 and pcount > 50
    print(
        f"PASS criterion 10: unit-step laws hold on {count} pair words and "
        f"{pcount} composition words (sums <= 12), zero counterexamples"
    )


def test_criterion_11_diagonal_counts_match_both_oracles(seaweed_brute_16, parabolic_brute_24):
    # route 2: the pruned search, on the default verify windows; one count
    # with bound 4 gives every diagonal t <= 4
    for kind, k_max in (("seaweed", 40), ("parabolic-even", 30), ("parabolic-odd", 30)):
        spec = _kind(kind)
        window = range(1, k_max + 1)
        table = deficiency_table(kind, 4, spec.sum_at(k_max))
        counts = diagonal_counts(kind, 4, spec.sum_at(k_max))
        for t in range(5):
            seq = spec.sequence(counts.get(t, {}), window)
            assert seq == diagonal(table, t, k_max), (kind, t)
    # route 1: the meander census, on its budgets; one count with bound 8
    for table, k_max in ((seaweed_brute_16, 16), (parabolic_brute_24[0], 12),
                         (parabolic_brute_24[1], 11)):
        spec = _kind(table.kind)
        counts = diagonal_counts(table.kind, 8, spec.sum_at(k_max))
        for t in range(9):
            seq = spec.sequence(counts.get(t, {}), range(1, k_max + 1))
            assert seq == diagonal(table, t, k_max), (table.kind, t)
    print(
        "PASS criterion 11: truncated-state diagonal counts equal the pruned search "
        "(t<=4; seaweed n<=40, parabolic k<=30) and the census (t<=8)"
    )
