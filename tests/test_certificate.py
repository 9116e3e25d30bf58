"""The certificate of the deficiency diagonals, read off the window-free
truncated-state graph (:func:`helpers.full_budget_graph`) under the bound d;
the argument is in :func:`~seaweeds.counting.diagonal_counts`.

* **The facts.**  With its self-loop edges set aside the graph is acyclic,
  and exactly d + 1 nodes carry a self-loop, one per deficiency 0..d, each
  with one loop edge, of step 1.
* **The bound.**  With C_d the most loop nodes and W_d the largest step
  sum on a loop-free path from the seed to a node of deficiency d, both
  from one pass in Kahn's order, the diagonal is one polynomial of degree
  C_d - 1 at every index k >= k_seed + W_d + 1, k_seed being the seed's
  own index, and the C_d counts from there fix it.

The tests check the facts for seaweed d <= 10 and parabolic d <= 8, and,
for every published and pinned diagonal, that C_d = floor(d/2) + 1, that
the interpolant through those C_d counts is the diagonal's form, that the
fit is stable by k_seed + W_d + 1, and that every window that fits the
diagonal reaches k_seed + W_d + C_d.
"""

from fractions import Fraction

import pytest

from helpers import full_budget_graph, lagrange_coefficients
from seaweeds import fit_polynomial, poly_str
from seaweeds.counting import EXPECTED_COEFFS, KINDS, _kind, diagonal_counts
from seaweeds.counting import verify_published_polynomials
from test_extended_forms import EXTENDED_FORMS, window

# (W_d, C_d) for d = 0, 1, ...: seaweed d <= 10, parabolic d <= 8
MEASURED = {
    "seaweed": ((1, 1), (5, 1), (7, 2), (11, 2), (15, 3), (19, 3), (25, 4), (29, 4), (37, 5),
                (41, 5), (51, 6)),
    "parabolic-even": ((1, 1), (5, 1), (7, 2), (11, 2), (15, 3), (19, 3), (25, 4), (29, 4),
                       (37, 5)),
    "parabolic-odd": ((2, 1), (4, 1), (8, 2), (10, 2), (16, 3), (18, 3), (26, 4), (28, 4),
                      (38, 5)),
}

# the windows that fit the published diagonals: verify's defaults and the
# benchmark's verify workload, seaweed sums and parabolic half-sums
VERIFY_WINDOWS = (verify_published_polynomials.__defaults__, (26, 20))

PUBLISHED = sorted(EXPECTED_COEFFS)
PINNED = [(kind, t) for kind, rows in EXTENDED_FORMS.items() for t, _, _ in rows]


def k_seed(spec) -> int:
    """The diagonal index of the kind's seed: 1, 1 and 0."""
    return (sum(spec.seed[0]) - spec.offset) // spec.unit


def loop_counts(graph) -> list[int]:
    """The number of self-loop edges of each node."""
    return [sum(kid == node for _, kid in kids) for node, kids in enumerate(graph.children)]


def kahn_order(graph) -> list[int]:
    """The nodes in Kahn's order, with the self-loop edges set aside; a node
    on a longer cycle is never taken."""
    indegree = [0] * len(graph.nodes)
    for node, kids in enumerate(graph.children):
        for _, kid in kids:
            if kid != node:
                indegree[kid] += 1
    order = [node for node, count in enumerate(indegree) if not count]
    for node in order:  # the list grows as it is read
        for _, kid in graph.children[node]:
            if kid != node:
                indegree[kid] -= 1
                if not indegree[kid]:
                    order.append(kid)
    return order


def certificate(graph, d: int) -> tuple[int, int]:
    """(W_d, C_d): the largest step sum and the most loop nodes on a
    loop-free path from the seed to a node of deficiency d.  Every node but
    the seed is some other node's child, so each is reached from the seed,
    after all its parents in Kahn's order."""
    loops = [int(count > 0) for count in loop_counts(graph)]
    steps, nodes = [0] * len(graph.nodes), loops[:]
    for node in kahn_order(graph):
        for step, kid in graph.children[node]:
            if kid != node:
                steps[kid] = max(steps[kid], steps[node] + step)
                nodes[kid] = max(nodes[kid], nodes[node] + loops[kid])
    ends = [node for node, (_, deficit) in enumerate(graph.nodes) if deficit == d]
    return max(steps[node] for node in ends), max(nodes[node] for node in ends)


@pytest.fixture(scope="module")
def graphs():
    """(kind, d) -> the window-free graph under the bound d, for every
    measured d."""
    return {(kind, d): full_budget_graph(_kind(kind), d)
            for kind, rows in MEASURED.items() for d in range(len(rows))}


@pytest.fixture(scope="module")
def sequences():
    """(kind, d) -> the deficiency-d counts at k = 1 .. the largest window
    or certified end of the kind, from one diagonal count per kind."""
    out = {}
    for kind, rows in MEASURED.items():
        spec = _kind(kind)
        k_max = max([max(windows) for windows in VERIFY_WINDOWS]
                    + [window(kind, t, s)[-1] for t, _, s in EXTENDED_FORMS[kind]]
                    + [k_seed(spec) + w + c for w, c in rows])
        counts = diagonal_counts(kind, len(rows) - 1, spec.sum_at(k_max))
        for d in range(len(rows)):
            out[kind, d] = spec.sequence(counts.get(d, {}), range(1, k_max + 1))
    return out


def test_the_seeds_sit_at_k_1_1_and_0():
    assert [k_seed(_kind(kind)) for kind in KINDS] == [1, 1, 0]


@pytest.mark.parametrize("kind", sorted(MEASURED))
def test_self_loops_aside_the_graph_is_acyclic(kind, graphs):
    for d in range(len(MEASURED[kind])):
        graph = graphs[kind, d]
        assert sorted(kahn_order(graph)) == list(range(len(graph.nodes))), (kind, d)


@pytest.mark.parametrize("kind", sorted(MEASURED))
def test_one_unit_self_loop_per_deficiency(kind, graphs):
    for d in range(len(MEASURED[kind])):
        graph = graphs[kind, d]
        looped = [node for node, count in enumerate(loop_counts(graph)) if count]
        assert sorted(graph.nodes[node][1] for node in looped) == list(range(d + 1)), (kind, d)
        for node in looped:
            assert [step for step, kid in graph.children[node] if kid == node] == [1], (kind, d)


@pytest.mark.parametrize("kind", sorted(MEASURED))
def test_certificates_are_the_measured_ones(kind, graphs):
    got = tuple(certificate(graphs[kind, d], d) for d in range(len(MEASURED[kind])))
    assert got == MEASURED[kind]


@pytest.mark.parametrize("kind,d", [pytest.param(kind, d, id=f"{kind}-{d}")
                                    for kind, d in PUBLISHED + PINNED])
def test_every_published_and_pinned_form_is_certified(kind, d, graphs, sequences):
    spec = _kind(kind)
    w, c = certificate(graphs[kind, d], d)
    first = k_seed(spec) + w + 1
    assert c == d // 2 + 1
    ks = range(first, first + c)
    coefficients = lagrange_coefficients(ks, [sequences[kind, d][k - 1] for k in ks])
    if (kind, d) in EXPECTED_COEFFS:
        assert coefficients == [Fraction(x) for x in EXPECTED_COEFFS[kind, d]]
        windows = [pair[spec.epsilon is not None] for pair in VERIFY_WINDOWS]
        stable_from = fit_polynomial(sequences[kind, d][:windows[0]], d).stable_from
    else:
        ((form, stable_from),) = [(f, s) for t, f, s in EXTENDED_FORMS[kind] if t == d]
        assert poly_str(coefficients) == form
        windows = [window(kind, d, stable_from)[-1]]
    assert stable_from <= first
    assert all(k_max >= first + c - 1 for k_max in windows), (windows, first + c - 1)
