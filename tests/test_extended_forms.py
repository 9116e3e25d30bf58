"""Diagonal polynomials beyond the published ones.

Each row is (t, form, stable_from): the deficiency-t diagonal of the
kind agrees with ``form`` from ``stable_from`` on.  The fits run on
windows of 4 * stable_from, and the counts are compared with the pruned
search on a cheap overlap (seaweed n <= 20, parabolic k <= 14).  These
forms are not part of ``verify``, which checks the published ones only.
"""

import pytest

from helpers import diagonal
from seaweeds import deficiency_sequence, deficiency_table, fit_polynomial, poly_str
from seaweeds.counting import EXPECTED_COEFFS, _kind

EXTENDED_FORMS = {
    "seaweed": (
        (5, "8T^2-304", 13),
        (6, "1/3T^3+27T^2-952/3T+682", 15),
        (7, "10/3T^3+8T^2-2458/3T+4452", 17),
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


@pytest.mark.parametrize("kind", sorted(EXTENDED_FORMS))
def test_extended_forms(kind):
    spec = _kind(kind)
    k_max = OVERLAP[kind]
    t_max = max(t for t, _, _ in EXTENDED_FORMS[kind])
    table = deficiency_table(kind, t_max, spec.unit * k_max + spec.offset)
    for t, form, stable_from in EXTENDED_FORMS[kind]:
        assert (kind, t) not in EXPECTED_COEFFS
        window = 4 * stable_from
        seq = deficiency_sequence(kind, t, range(1, window + 1))
        fit = fit_polynomial(seq, t, n_start=1, epsilon=spec.epsilon)
        assert (poly_str(fit.coefficients), fit.stable_from) == (form, stable_from), (kind, t)
        assert fit.degree == t // 2
        assert seq[:k_max] == diagonal(table, t, k_max), (kind, t)
