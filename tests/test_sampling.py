"""Exact uniform sampling of the Frobenius objects of one sum and one
deficiency, as a scale check of the truncation lemma.

This is the recursive method for uniform random generation
(Nijenhuis–Wilf, *Combinatorial Algorithms*, 1978; Flajolet–Zimmermann–
Van Cutsem, Theoret. Comput. Sci. 132, 1994), run on the truncated-state
graph of :class:`~seaweeds.counting._Automaton`:

* **The count.**  Every node of the graph is listed with the full room
  unit*(t + 1), which makes the window-free graph.  ``C[id][r]`` is the
  number of objects of deficiency exactly t, sum r units above the node's,
  in the node's subtree: ``[r == 0 and d == t]`` plus ``C[child][r - step]``
  over the children whose step fits.  Every step is at least one unit, so
  the levels fill by increasing r, with explicit loops.
* **The draw.**  A draw walks the real search from the seed, with the
  kind's move lister and the pruned walk's budget and deficiency step, and
  weights each real child by ``C`` of its truncated state; it stops with
  the weight ``[r == 0 and d == t]``.  At every step the stop weight and
  the children's weights must add up to ``C`` of the node's own truncated
  state: that is the truncation lemma, checked on real states 500 to
  1,000 levels deep, at sums no enumeration reaches.

The counts are checked against :func:`~seaweeds.counting.diagonal_counts`
at every sum and against the published polynomial at n; each draw must be
Frobenius, of sum n and deficiency t.
"""

from fractions import Fraction

import pytest

from helpers import full_budget_graph, make_rng
from seaweeds.counting import EXPECTED_COEFFS, _Automaton, _kind, diagonal_counts
from seaweeds.meander import index_of_parts

# the pinned seaweed t = 6 form of tests/test_extended_forms.py,
# 1/3T^3+27T^2-952/3T+682, constant first
SEAWEED_6 = (682, Fraction(-952, 3), 27, Fraction(1, 3))

# (kind, t, n, coefficients): every published case, at n = 1000 (1001 for
# the odd compositions), and the pinned seaweed t = 6 at n = 500
CASES = (
    [("seaweed", t, 1000, EXPECTED_COEFFS["seaweed", t]) for t in range(5)]
    + [("parabolic-even", t, 1000, EXPECTED_COEFFS["parabolic-even", t]) for t in range(2)]
    + [("parabolic-odd", t, 1001, EXPECTED_COEFFS["parabolic-odd", t]) for t in range(3)]
    + [("seaweed", 6, 500, SEAWEED_6)]
)

DRAWS = 10


def subtree_counts(spec, t: int, n: int) -> tuple[_Automaton, list[list[int]]]:
    """The window-free graph of ``spec`` under the bound t, and ``C[id][r]``
    for r up to the units between the seed's sum and n."""
    graph = full_budget_graph(spec, t)
    levels = (n - sum(spec.seed[0])) // spec.unit
    deficits = [deficit for _, deficit in graph.nodes]
    counts = [[0] * (levels + 1) for _ in graph.nodes]
    for r in range(levels + 1):
        for node, kids in enumerate(graph.children):
            total = int(r == 0 and deficits[node] == t)
            for step, kid in kids:
                if step <= r:
                    total += counts[kid][r - step]
            counts[node][r] = total
    return graph, counts


def draw(spec, t: int, n: int, graph: _Automaton, counts: list[list[int]], rng):
    """One uniform object of sum n and deficiency t, drawn down the real
    search from the seed; returns its state, its deficiency and the number
    of letters walked.  Each step checks the truncation lemma's sum."""
    unit = spec.unit
    state, deficit = spec.seed, 0
    r = (n - sum(state[0])) // unit
    letters = 0
    while True:
        own = counts[graph.ids[spec.truncate(state, t - deficit), deficit]][r]
        stop = int(r == 0 and deficit == t)
        children = []
        for l, child, inc in spec.moves(*state, min(unit * r, unit * (t - deficit + 1))):
            step = inc // unit
            child_deficit = deficit + step - 1 + (l.family == "T")
            if child_deficit <= t:
                kid = graph.ids.get((spec.truncate(child, t - child_deficit), child_deficit))
                assert kid is not None, (state, l)
                children.append((counts[kid][r - step], child, child_deficit, r - step))
        assert stop + sum(weight for weight, *_ in children) == own, (state, deficit, r)
        pick = rng.randrange(own)
        if pick < stop:
            return state, deficit, letters
        pick -= stop
        for weight, child, child_deficit, rest in children:
            if pick < weight:
                break
            pick -= weight
        state, deficit, r = child, child_deficit, rest
        letters += 1


@pytest.fixture(scope="module", params=CASES, ids=lambda case: f"{case[0]}-t{case[1]}-n{case[2]}")
def case(request):
    kind, t, n, coefficients = request.param
    spec = _kind(kind)
    graph, counts = subtree_counts(spec, t, n)
    return spec, t, n, coefficients, graph, counts


def test_counts_equal_the_diagonal_count_at_every_sum(case):
    spec, t, n, _, _, counts = case
    diagonal = diagonal_counts(spec.name, t, n).get(t, {})
    seed_sum = sum(spec.seed[0])
    got = {seed_sum + spec.unit * r: c for r, c in enumerate(counts[0])
           if seed_sum + spec.unit * r >= spec.first_sum}  # the odd seed (1) is not counted
    assert got == {s: diagonal.get(s, 0) for s in range(spec.first_sum, n + 1, spec.unit)}


def test_count_at_n_equals_the_polynomial(case):
    spec, t, n, coefficients, _, counts = case
    k = (n - spec.offset) // spec.unit
    assert counts[0][-1] == sum(Fraction(c) * k**power for power, c in enumerate(coefficients))


def test_seaweed_t4_count_at_1000():
    _, counts = subtree_counts(_kind("seaweed"), 4, 1000)
    assert counts[0][-1] == 1_032_862  # P_4(1000) = 1000^2 + 33*1000 - 138


def test_draws_check_the_lemma_at_every_step_and_are_frobenius(case):
    spec, t, n, _, graph, counts = case
    rng = make_rng()
    levels = (n - sum(spec.seed[0])) // spec.unit
    for _ in range(DRAWS):
        state, deficit, letters = draw(spec, t, n, graph, counts, rng)
        # a letter steps at least one unit, and at most t of the steps go
        # to the deficiency
        assert letters >= levels - t
        assert sum(state[0]) == n and deficit == t
        if spec.epsilon is None:
            plus, minus = state
            assert index_of_parts(plus, minus, n) == 0
            assert len(plus) + len(minus) == n + 1 - t
        else:
            (a,) = state
            assert index_of_parts(a, (n,), n) == 0
            assert len(a) == n // spec.unit + 1 - t
