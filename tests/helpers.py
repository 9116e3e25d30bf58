"""Shared test utilities: seeded random builders, a reference census and a
reference polynomial fit.

The reference census here is deliberately independent of the package's
union-find implementation: it walks components from their endpoints,
alternating layers.  Keeping a second route lets the meander tests
cross-check classification instead of trusting one code path.
"""

from __future__ import annotations

import os
import random
from fractions import Fraction
from functools import cache
from math import gcd

from seaweeds import BiComposition, Composition, iter_compositions
from seaweeds.counting import _Automaton, _kind
from seaweeds.meander import component_counts, partner_array
from seaweeds.parabolic_words import ParabolicWord, _walk_p, letter_p
from seaweeds.seaweed_words import SeaweedWord, _walk, letter

DEFAULT_SEED = 20120521


def fixed_seed() -> int:
    return int(os.environ.get("SEAWEEDS_TEST_SEED", DEFAULT_SEED))


def make_rng() -> random.Random:
    return random.Random(fixed_seed())


def random_composition(rng: random.Random, n: int) -> tuple[int, ...]:
    cuts = sorted(rng.sample(range(1, n), rng.randint(0, n - 1))) if n > 1 else []
    bounds = [0] + cuts + [n]
    return tuple(b - a for a, b in zip(bounds, bounds[1:]))


def random_bicomposition(rng: random.Random, n_lo: int = 1, n_hi: int = 8) -> BiComposition:
    n = rng.randint(n_lo, n_hi)
    return BiComposition(
        Composition(random_composition(rng, n)),
        Composition(random_composition(rng, n)),
    )


def random_seaweed_instance(
    rng: random.Random, sum_cap: int = 40, max_len: int = 6, base: BiComposition = None,
    max_m: int = 3,
) -> tuple[BiComposition, SeaweedWord]:
    """A pair (a, w) with w(a) a genuine pair of sum <= sum_cap, m <= max_m."""
    a = base if base is not None else random_bicomposition(rng)
    plus, minus = a.plus.parts, a.minus.parts
    applied = []
    for _ in range(rng.randint(0, max_len)):
        budget = sum_cap - sum(plus)
        options = []
        for fam in ("S", "T"):
            for sign in (1, -1):
                side = plus if sign == 1 else minus
                if fam == "T" and len(side) < 2:
                    continue
                for m in range(max_m + 1):
                    inc = (m + 1) * side[0] if fam == "S" else m * side[0] + (m + 1) * side[1]
                    if inc <= budget:
                        options.append((fam, sign, m))
        if not options:
            break
        fam, sign, m = rng.choice(options)
        plus, minus = _walk((letter(fam, sign, m),), plus, minus)[0]
        applied.append(letter(fam, sign, m))
    return a, SeaweedWord(tuple(reversed(applied)))


def random_parabolic_instance(
    rng: random.Random, sum_cap: int = 40, max_len: int = 6, base: Composition = None,
    max_m: int = 3,
) -> tuple[Composition, ParabolicWord]:
    """A pair (a, w) over the parabolic alphabet with s(w(a)) <= sum_cap, m <= max_m."""
    if base is None:
        n = rng.randint(1, 8)
        base = Composition(random_composition(rng, n))
    a = base.parts
    applied = []
    for _ in range(rng.randint(0, max_len)):
        budget = sum_cap - sum(a)
        options = []
        for fam in ("S", "T"):
            if fam == "T" and len(a) < 2:
                # T letters idle on one-part compositions; keep generation free
                continue
            for tilde in (False, True):
                for m in range(max_m + 1):
                    inc = 2 * (m + 1) * a[0] if fam == "S" else 2 * m * a[0] + 2 * (m + 1) * a[1]
                    if inc <= budget:
                        options.append((fam, tilde, m))
        if not options:
            break
        fam, tilde, m = rng.choice(options)
        a = _walk_p((letter_p(fam, tilde, m),), a)[0]
        applied.append(letter_p(fam, tilde, m))
    return base, ParabolicWord(tuple(reversed(applied)))


@cache
def pair_sweep(n: int) -> tuple[list, list, list[list[tuple[int, int]]]]:
    """Every composition of n, its partner array, and the union-find
    (cycles, paths) of every ordered pair of them, indexed like the list;
    computed once per session for the exhaustive meander sweeps."""
    comps = list(iter_compositions(n))
    partners = [partner_array(c, n) for c in comps]
    return comps, partners, [[component_counts(p, q) for q in partners] for p in partners]


def reference_partners(parts: tuple[int, ...], n: int) -> list[int]:
    """Partner of each position under one layer of arcs, written one
    position at a time over the identity, so a bare vertex is its own
    partner."""
    nbr = list(range(n))
    lo = 0
    for part in parts:
        hi = lo + part - 1
        for i in range(part // 2):
            nbr[lo + i] = hi - i
            nbr[hi - i] = lo + i
        lo = hi + 1
    return nbr


def reference_ascii(g) -> str:
    """An ascii meander diagram drawn by the direct rule: an arc's depth is
    found by scanning every arc of its layer for one around it, and each
    depth's row is filled in the layer's arc order."""
    width = 2 * g.n - 1

    def arc_rows(arcs, opening, closing):
        by_depth = {}
        for u, v in arcs:
            u, v = min(u, v), max(u, v)
            depth = sum(1 for x, y in arcs if min(x, y) < u and max(x, y) > v)
            by_depth.setdefault(depth, []).append((u, v))
        rows = []
        for depth in sorted(by_depth):
            row = [" "] * width
            for u, v in by_depth[depth]:
                row[2 * u - 2] = opening
                row[2 * v - 2] = closing
                for c in range(2 * u - 1, 2 * v - 2):
                    row[c] = "-"
            rows.append("".join(row).rstrip())
        return rows

    vertex_row = " ".join(str(v % 10) for v in range(1, g.n + 1))
    top_rows = arc_rows(g.top_arcs, "/", "\\")
    bottom_rows = arc_rows(g.bottom_arcs, "\\", "/")
    return "\n".join(top_rows + [vertex_row] + bottom_rows[::-1]) + "\n"


def reference_census(plus: tuple[int, ...], minus: tuple[int, ...]) -> tuple[int, int]:
    """(cycles, paths) by endpoint walking; independent of union-find."""
    n = sum(plus)
    top, bot = reference_partners(plus, n), reference_partners(minus, n)
    seen = [False] * n
    cycles = paths = 0
    for v in range(n):
        if seen[v] or (top[v] != v and bot[v] != v):
            continue
        paths += 1
        seen[v] = True
        cur, use_top = v, top[v] != v
        while True:
            nxt = top[cur] if use_top else bot[cur]
            if nxt == cur or seen[nxt]:
                break
            seen[nxt] = True
            cur, use_top = nxt, not use_top
    for v in range(n):
        if seen[v]:
            continue
        cycles += 1
        seen[v] = True
        cur, use_top = top[v], False
        while cur != v:
            seen[cur] = True
            cur = top[cur] if use_top else bot[cur]
            use_top = not use_top
    return cycles, paths


def low_part_columns(kind: str, n: int) -> dict[int, int]:
    """{p: F(n, p)} for the two smallest part counts p of a kind at a sum
    n >= 2, from ``math.gcd`` alone, by the criteria of Coll, Giaquinto and
    Magnant: (a, b | n) is Frobenius iff gcd(a, b) = 1, (a, b, c | n) iff
    gcd(a + b, b + c) = 1, and (a, b | c, d) iff gcd(a - c, n) = 1.  With
    T3(n) the number of Frobenius (a, b, c | n), a composition against (n)
    has F(n, 2) = phi(n) and F(n, 3) = T3(n); a pair has F(n, 3) = 2 phi(n)
    (a two-block side against (n), either way up) and F(n, 4) = 2 T3(n)
    (three blocks against (n), either way up) + the number of 1 <= a, c < n
    with gcd(a - c, n) = 1 (two blocks a side)."""
    phi = sum(gcd(a, n) == 1 for a in range(1, n))
    t3 = sum(gcd(a + b, n - a) == 1 for a in range(1, n - 1) for b in range(1, n - a))
    if _kind(kind).epsilon is not None:
        return {2: phi, 3: t3}
    two_by_two = sum(gcd(a - c, n) == 1 for a in range(1, n) for c in range(1, n))
    return {3: 2 * phi, 4: 2 * t3 + two_by_two}


def odd_compositions(n: int, k: int) -> list[tuple[int, ...]]:
    """The compositions of ``n`` with exactly ``k`` odd parts, in
    :func:`iter_compositions` order."""
    return [c for c in iter_compositions(n) if sum(a % 2 for a in c) == k]


def slicing_readable_side(side: tuple[int, ...], r: int) -> tuple[int, ...]:
    """``counting._readable_side`` in its slicing form, the reference for the
    walk that replaced it: the first part capped at r + 2, then the parts
    of ``side[1:]`` while their running sum is <= r."""
    depth, budget = 1, r
    for part in side[1:]:
        budget -= part
        if budget < 0:
            break
        depth += 1
    if side[0] <= r + 2:
        return side if depth == len(side) else side[:depth]
    return (r + 2,) + side[1:depth]


def slicing_truncated_composition(a: tuple[int, ...], r: int) -> tuple[int, ...]:
    """``_Kind.truncate`` on a composition in its slicing form, the reference
    for the walk that reads the front as a pair side: the parts of ``a[1:]``
    and, reversed, of ``a[:0:-1]`` each counted while their running sum is
    <= r; where the two counts meet only the first part is capped at r + 2,
    and otherwise the unread middle becomes one wall part r + 1."""
    def affordable(parts: tuple[int, ...]) -> int:
        budget, count = r, 0
        for part in parts:
            budget -= part
            if budget < 0:
                break
            count += 1
        return count

    front = 1 + affordable(a[1:])
    back = len(a) - affordable(a[:0:-1])
    if front >= back:
        return a if a[0] <= r + 2 else (r + 2,) + a[1:]
    return (min(a[0], r + 2),) + a[1:front] + (r + 1,) + a[back:]


def diagonal(table, t: int, k_max: int) -> list[int]:
    """The deficiency-t diagonal F(unit*k + eps, k + 1 - t) of a count table,
    at k = 1..k_max."""
    spec = _kind(table.kind)
    return [table.count(spec.unit * k + spec.offset, k + 1 - t) for k in range(1, k_max + 1)]


def full_budget_graph(spec, t: int) -> _Automaton:
    """The window-free truncated-state graph of the kind row ``spec`` under
    the bound t: every node, the ones that listing appends included, listed
    in id order with the room unit*(t + 1), which no node's budget exceeds."""
    graph = _Automaton(spec, t)
    node = 0
    while node < len(graph.nodes):  # listing a node may append new ones
        graph.listing(node, spec.unit * (t + 1))
        node += 1
    return graph


def lagrange_coefficients(xs, ys) -> list[Fraction]:
    """Monomial coefficients, constant first, of the polynomial through the
    points (xs[i], ys[i]): the sum of ys[i] * prod_{j != i} (x - xs[j]) / (xs[i] - xs[j]),
    each product expanded on its own.  Trailing zeros are dropped."""
    coeffs = [Fraction(0)] * len(xs)
    for i, (xi, yi) in enumerate(zip(xs, ys)):
        term = [Fraction(yi)]
        for j, xj in enumerate(xs):
            if j != i:
                # multiply by (x - xj) / (xi - xj)
                shifted = [Fraction(0)] + term
                for k, c in enumerate(term):
                    shifted[k] -= xj * c
                term = [c / (xi - xj) for c in shifted]
        for k, c in enumerate(term):
            coeffs[k] += c
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def reference_fit(values, t: int, n_start: int = 1):
    """(coefficients, stable_from) that ``fit_polynomial`` must return, or None
    when it must raise, found without differences or Newton forms.

    P is the Lagrange polynomial through the last t//2 + 1 values;
    ``stable_from`` is the last x a backward scan, evaluating P term by term,
    finds on P before it meets a value off P.  The fit is certified when P holds the last
    t//2 + 1 + max(5, t + 2) values (the order-(t//2 + 1) differences vanish
    on the last max(5, t + 2) entries exactly then)."""
    d = t // 2
    span = d + 1 + max(5, t + 2)
    if len(values) < span:
        return None
    xs = list(range(n_start, n_start + len(values)))
    coeffs = lagrange_coefficients(xs[-(d + 1):], values[-(d + 1):])
    stable_from = xs[-1]
    for x, v in zip(reversed(xs), reversed(values)):
        if sum(c * x**k for k, c in enumerate(coeffs)) != v:
            break
        stable_from = x
    if stable_from > xs[-span]:
        return None
    return coeffs, stable_from
