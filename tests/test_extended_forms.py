"""Diagonal polynomials beyond the published ones.

Each row is (t, form, stable_from): the deficiency-t diagonal of the
kind agrees with ``form`` from ``stable_from`` on.  The fits run on
windows of 4 * stable_from, or wider where ``WINDOWS`` says so, all read
from one diagonal count per kind,
and the counts are compared with the pruned search on a cheap overlap
(seaweed n <= 20, parabolic k <= 14).  These forms are not part of
``verify``, which checks the published ones only.
"""

from fractions import Fraction
from math import factorial

import pytest

from helpers import diagonal
from seaweeds import deficiency_table, fit_polynomial, poly_str
from seaweeds.counting import EXPECTED_COEFFS, _kind, diagonal_counts

EXTENDED_FORMS = {
    "seaweed": (
        (5, "8T^2-304", 13),
        (6, "1/3T^3+27T^2-952/3T+682", 15),
        (7, "10/3T^3+8T^2-2458/3T+4452", 17),
        (8, "1/12T^4+83/6T^3-3529/12T^2+8137/6T+1888", 19),
    ),
    "parabolic-even": (
        (2, "2T+40", 7),
        (3, "16T+50", 9),
        (4, "T^2+61T-142", 11),
        (5, "10T^2+80T-672", 13),
        (6, "1/3T^3+45T^2-970/3T-42", 15),
    ),
    "parabolic-odd": (
        (3, "10T-8", 7),
        (4, "T^2+21T-100", 9),
        (5, "7T^2-25T-94", 11),
        (6, "1/3T^3+19T^2-778/3T+788", 13),
    ),
}

OVERLAP = {"seaweed": 20, "parabolic-even": 14, "parabolic-odd": 14}

# the truncated-state automaton bounds where a fit is certain by its
# heaviest path plus two steps per cycle: for seaweed t=8 that is n = 78,
# past 4 * stable_from = 76
WINDOWS = {("seaweed", 8): 78}


def window(kind, t, stable_from):
    return range(1, WINDOWS.get((kind, t), 4 * stable_from) + 1)


@pytest.fixture(scope="module")
def sequences():
    """(kind, t) -> the deficiency-t counts on the row's window."""
    out = {}
    for kind, rows in EXTENDED_FORMS.items():
        spec = _kind(kind)
        t_max = max(t for t, _, _ in rows)
        k_max = max(window(kind, t, s)[-1] for t, _, s in rows)
        counts = diagonal_counts(kind, t_max, spec.sum_at(k_max))
        for t, _, stable_from in rows:
            out[kind, t] = spec.sequence(counts.get(t, {}), window(kind, t, stable_from))
    return out


@pytest.mark.parametrize("kind", sorted(EXTENDED_FORMS))
def test_extended_forms(kind, sequences):
    spec = _kind(kind)
    k_max = OVERLAP[kind]
    t_max = max(t for t, _, _ in EXTENDED_FORMS[kind])
    table = deficiency_table(kind, t_max, spec.sum_at(k_max))
    for t, form, stable_from in EXTENDED_FORMS[kind]:
        assert (kind, t) not in EXPECTED_COEFFS
        seq = sequences[kind, t]
        fit = fit_polynomial(seq, t, n_start=1, epsilon=spec.epsilon)
        assert (poly_str(fit.coefficients), fit.stable_from) == (form, stable_from), (kind, t)
        assert fit.degree == t // 2
        assert seq[:k_max] == diagonal(table, t, k_max), (kind, t)


def test_even_diagonals_lead_with_two_over_s_factorial(sequences):
    # An observed pattern, not a theorem: on every published and extended
    # diagonal t = 2s, of every kind, the leading coefficient is 2/s!.
    leading = {key: Fraction(coeffs[-1]) for key, coeffs in EXPECTED_COEFFS.items()}
    for (kind, t), seq in sequences.items():
        leading[kind, t] = fit_polynomial(seq, t).coefficients[-1]
    even = {key: c for key, c in leading.items() if key[1] % 2 == 0}
    assert len(even) == 13
    for (kind, t), c in even.items():
        assert c == Fraction(2, factorial(t // 2)), (kind, t)
