"""Exact count tables, deficiency sequences, and polynomial tails.

Two independent routes produce the tables F(n, p) = number of Frobenius
objects with sum n and p parts (total parts, for pairs):

* ``brute_table`` enumerates every composition (or pair) and asks the
  meander oracle whether the index is zero;
* ``generated_table`` tallies the free-monoid generation, straight from
  the raw search nodes.

Their agreement on the overlap is the central correctness check of this
package.  Three table kinds exist: ``seaweed`` (pairs, all sums),
``parabolic-even`` (sums 2, 4, ...) and ``parabolic-odd`` (sums 3, 5,
...; the sum-1 composition stays outside the generation scheme and is
excluded from the odd tables).

For a fixed deficiency t, the diagonal counts

    seaweed          F(n, n+1-t)           as a function of n
    parabolic        F(2k+eps, k+1-t)      as a function of k

eventually agree with a polynomial of degree floor(t/2).  The published
closed forms are::

    seaweed    t=0..4:   2,  8,  2T+20,  12T+4,  T^2+33T-138
    parabolic  (eps,t):  (0,0) and (1,0): 2,   (0,1): 12,
                         (1,1): 6,   (1,2): 2T+12

``fit_polynomial`` detects the stable tail with integer forward
differences, reconstructs the polynomial in exact rational arithmetic,
and reports from which n onward it matches.  ``verify_published_polynomials``
runs all nine published cases end to end.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from .compositions import iter_compositions
from .meander import component_counts, partner_array
# The generate_* names are not called here; they stay bound because
# perfbench/tracing.py wraps this module's bindings of them.
from .parabolic_words import (  # noqa: F401
    composition_nodes, generate_deficiency_p, generate_frobenius_p,
)
from .seaweed_words import generate_deficiency, generate_frobenius, pair_nodes  # noqa: F401

KINDS = ("seaweed", "parabolic-even", "parabolic-odd")

SEAWEED_BRUTE_BUDGET = 14
PARABOLIC_BRUTE_BUDGET = 20


class BudgetExceeded(ValueError):
    """Brute-force enumeration past the default budget needs an override."""


class UnstableSequence(ValueError):
    """No qualifying constant tail in the higher finite differences."""


def _check_kind(kind: str) -> None:
    if kind not in KINDS:
        raise ValueError(f"unknown kind {kind!r}; expected one of {KINDS}")


def _epsilon(kind: str) -> int:
    return 0 if kind == "parabolic-even" else 1


@dataclass(frozen=True)
class CountTable:
    """Counts per (sum, parts); entries hold positive counts only."""

    kind: str
    method: str
    entries: dict[tuple[int, int], int] = field(default_factory=dict)

    def count(self, n: int, p: int) -> int:
        return self.entries.get((n, p), 0)

    def total(self, n: int) -> int:
        return sum(c for (m, _), c in self.entries.items() if m == n)

    def rows(self) -> list[tuple[int, int, int]]:
        return [(n, p, c) for (n, p), c in sorted(self.entries.items())]

    def to_csv(self) -> str:
        lines = ["n,p,count"]
        lines.extend(f"{n},{p},{c}" for n, p, c in self.rows())
        return "\n".join(lines) + "\n"

    def bound_violations(self) -> list[tuple[int, int, int]]:
        """Entries sitting above the hard part-count ceiling for the kind.

        Seaweed pairs vanish for p > n + 1; parabolic compositions vanish
        for p > floor(n/2) + 1.  A nonempty result is a correctness bug.
        """
        if self.kind == "seaweed":
            return [(n, p, c) for (n, p), c in sorted(self.entries.items()) if p > n + 1]
        return [(n, p, c) for (n, p), c in sorted(self.entries.items()) if p > n // 2 + 1]


def brute_table(kind: str, n_max: int, budget_override: bool = False) -> CountTable:
    """Exhaustive meander census, tallied by (sum, parts).

    The seaweed kind walks 4^(n-1) pairs per sum and is budgeted at
    n_max <= 14 unless overridden; parabolic kinds walk 2^(n-1)
    compositions per sum, budget 20.
    """
    _check_kind(kind)
    budget = SEAWEED_BRUTE_BUDGET if kind == "seaweed" else PARABOLIC_BRUTE_BUDGET
    if n_max > budget and not budget_override:
        raise BudgetExceeded(
            f"brute {kind} table to n={n_max} exceeds the default budget {budget}; "
            f"pass budget_override to force"
        )
    entries: dict[tuple[int, int], int] = {}
    if kind == "seaweed":
        for n in range(1, n_max + 1):
            comps = list(iter_compositions(n))
            partners = [partner_array(c, n) for c in comps]
            for ci, ti in zip(comps, partners):
                for cj, tj in zip(comps, partners):
                    cycles, paths = component_counts(ti, tj)
                    if cycles == 0 and paths == 1:
                        key = (n, len(ci) + len(cj))
                        entries[key] = entries.get(key, 0) + 1
    else:
        eps = _epsilon(kind)
        start = 2 if eps == 0 else 3
        for n in range(start, n_max + 1, 2):
            full = partner_array((n,), n)
            for c in iter_compositions(n):
                cycles, paths = component_counts(partner_array(c, n), full)
                if cycles == 0 and paths == 1:
                    key = (n, len(c))
                    entries[key] = entries.get(key, 0) + 1
    return CountTable(kind=kind, method="brute", entries=entries)


def _tally(kind: str, method: str, n_max: int, t: Optional[int]) -> CountTable:
    """Tally the raw search nodes by (sum, parts); no objects are built."""
    _check_kind(kind)
    if kind == "seaweed":
        nodes = pair_nodes(n_max, t)
        sizes = ((n, len(plus) + len(minus)) for (plus, minus), n, _, _ in nodes)
    else:
        nodes = composition_nodes(_epsilon(kind), n_max, t)
        sizes = ((n, len(a)) for (a,), n, _, _ in nodes)
    return CountTable(kind=kind, method=method, entries=dict(Counter(sizes)))


def generated_table(kind: str, n_max: int) -> CountTable:
    """Free-monoid generation, tallied by (sum, parts)."""
    return _tally(kind, "generated", n_max, None)


def deficiency_table(kind: str, t: int, n_max: int) -> CountTable:
    """Pruned generation: only objects within deficiency t of the part ceiling."""
    return _tally(kind, "deficiency", n_max, t)


def deficiency_sequence(kind: str, t: int, n_range: range) -> list[int]:
    """Counts along the deficiency-t diagonal, indexed by ``n_range``.

    For the seaweed kind the index n is the sum and the count is
    F(n, n+1-t).  For parabolic kinds the index is the half-variable k:
    the count is F(2k+eps, k+1-t), with eps fixed by the kind.
    """
    _check_kind(kind)
    if len(n_range) == 0:
        return []
    hi = max(n_range)
    if kind == "seaweed":
        table = deficiency_table(kind, t, hi)
        return [table.count(n, n + 1 - t) for n in n_range]
    eps = _epsilon(kind)
    table = deficiency_table(kind, t, 2 * hi + eps)
    return [table.count(2 * k + eps, k + 1 - t) for k in n_range]


@dataclass(frozen=True)
class PolyFit:
    """A polynomial matching a counting sequence from some point on.

    ``coefficients`` are exact rationals in the monomial basis, constant
    term first.  ``stable_from`` is the smallest index n in the window
    such that the polynomial equals the raw counts for every n' >= n up
    to the window's end.
    """

    t: int
    degree: int
    coefficients: tuple[Fraction, ...]
    stable_from: int
    window: tuple[int, int]
    epsilon: Optional[int] = None

    def evaluate(self, n: int) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coefficients):
            acc = acc * n + c
        return acc

    def as_json_dict(self) -> dict:
        out = {
            "t": self.t,
            "degree": self.degree,
            "coefficients": [str(c) for c in self.coefficients],
            "stable_from": self.stable_from,
            "window": list(self.window),
        }
        if self.epsilon is not None:
            out["epsilon"] = self.epsilon
        return out


def poly_str(coefficients: Sequence[Fraction]) -> str:
    """Human form, highest power first: (20, 2) -> ``2T+20``."""
    terms = []
    for power in range(len(coefficients) - 1, -1, -1):
        c = Fraction(coefficients[power])
        if c == 0 and not (power == 0 and not terms):
            continue
        if power == 0:
            mag = str(abs(c))
        else:
            var = "T" if power == 1 else f"T^{power}"
            mag = var if abs(c) == 1 else f"{abs(c)}{var}"
        sign = "-" if c < 0 else ("+" if terms else "")
        terms.append(f"{sign}{mag}")
    return "".join(terms)


def fit_polynomial(
    seq: Sequence[int], t: int, n_start: int = 1, epsilon: Optional[int] = None
) -> PolyFit:
    """Detect and reconstruct the eventual polynomial of a count sequence.

    The sequence must hold counts at consecutive indices starting at
    ``n_start``.  Stability requires the forward differences of order
    floor(t/2) + 1 to vanish on the last max(5, t+2) entries of the
    difference sequence; otherwise :class:`UnstableSequence` is raised.
    The polynomial (degree <= floor(t/2)) is interpolated through the
    tail in Newton form and converted to exact monomial coefficients.
    """
    d = t // 2
    order = d + 1
    guard = max(5, t + 2)
    values = [int(v) for v in seq]
    diffs = values
    for _ in range(order):
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
    if len(diffs) < guard:
        raise UnstableSequence(
            f"window of {len(values)} values is too short to certify a "
            f"degree-{d} tail (need {order + guard} values)"
        )
    if any(diffs[-guard:]):
        raise UnstableSequence(
            f"order-{order} differences still nonzero on the last {guard} entries"
        )

    n_hi = n_start + len(values) - 1
    nodes = list(range(n_hi - d, n_hi + 1))
    ys = [Fraction(v) for v in values[-(d + 1):]]
    # divided differences over the integer nodes
    dd = ys[:]
    for level in range(1, d + 1):
        for i in range(d, level - 1, -1):
            dd[i] = (dd[i] - dd[i - 1]) / (nodes[i] - nodes[i - level])
    # Newton form -> monomial coefficients
    coeffs = [Fraction(0)] * (d + 1)
    basis = [Fraction(1)]  # product of (x - node_j), expanded
    for i in range(d + 1):
        for j, b in enumerate(basis):
            coeffs[j] += dd[i] * b
        new_basis = [Fraction(0)] * (len(basis) + 1)
        for j, b in enumerate(basis):
            new_basis[j] -= b * nodes[i]
            new_basis[j + 1] += b
        basis = new_basis

    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    fit = PolyFit(
        t=t,
        degree=len(coeffs) - 1,
        coefficients=tuple(coeffs),
        stable_from=n_hi,
        window=(n_start, n_hi),
        epsilon=epsilon,
    )
    stable_from = n_hi
    for idx in range(len(values) - 1, -1, -1):
        n = n_start + idx
        if fit.evaluate(n) != values[idx]:
            break
        stable_from = n
    return PolyFit(
        t=fit.t,
        degree=fit.degree,
        coefficients=fit.coefficients,
        stable_from=stable_from,
        window=fit.window,
        epsilon=epsilon,
    )


EXPECTED_COEFFS: dict[tuple[str, int], tuple[int, ...]] = {
    ("seaweed", 0): (2,),
    ("seaweed", 1): (8,),
    ("seaweed", 2): (20, 2),
    ("seaweed", 3): (4, 12),
    ("seaweed", 4): (-138, 33, 1),
    ("parabolic-even", 0): (2,),
    ("parabolic-odd", 0): (2,),
    ("parabolic-even", 1): (12,),
    ("parabolic-odd", 1): (6,),
    ("parabolic-odd", 2): (12, 2),
}

_REPORT_ROWS: list[tuple[str, list[tuple[str, int]]]] = [
    ("P_0", [("seaweed", 0)]),
    ("P_1", [("seaweed", 1)]),
    ("P_2", [("seaweed", 2)]),
    ("P_3", [("seaweed", 3)]),
    ("P_4", [("seaweed", 4)]),
    ("P_{e,0}", [("parabolic-even", 0), ("parabolic-odd", 0)]),
    ("P_{0,1}", [("parabolic-even", 1)]),
    ("P_{1,1}", [("parabolic-odd", 1)]),
    ("P_{1,2}", [("parabolic-odd", 2)]),
]


@dataclass(frozen=True)
class VerifyRow:
    name: str
    matched: bool
    details: tuple[str, ...]
    fits: tuple[Optional[PolyFit], ...]


@dataclass(frozen=True)
class VerifyReport:
    rows: tuple[VerifyRow, ...]

    @property
    def all_match(self) -> bool:
        return all(row.matched for row in self.rows)

    def render(self) -> str:
        lines = []
        for row in self.rows:
            verdict = "match" if row.matched else "MISMATCH"
            lines.append(f"{row.name}: {verdict}")
            for detail in row.details:
                lines.append(f"  {detail}")
        lines.append("all cases match" if self.all_match else "SOME CASES FAILED")
        return "\n".join(lines) + "\n"


def verify_published_polynomials(
    seaweed_n_max: int = 40, parabolic_n_max: int = 30
) -> VerifyReport:
    """Fit all nine published diagonal polynomials and compare exactly.

    Windows default to n = 1..40 (seaweed sums) and k = 1..30 (parabolic
    half-variable, i.e. sums up to 60/61).  A case matches when the fit
    is stable and its exact coefficients equal the published ones; a
    fitting failure is reported as a mismatch, never an exception.
    """
    rows = []
    for name, cases in _REPORT_ROWS:
        details = []
        fits: list[Optional[PolyFit]] = []
        matched = True
        for kind, t in cases:
            n_max = seaweed_n_max if kind == "seaweed" else parabolic_n_max
            eps = None if kind == "seaweed" else _epsilon(kind)
            seq = deficiency_sequence(kind, t, range(1, n_max + 1))
            expected = tuple(Fraction(c) for c in EXPECTED_COEFFS[(kind, t)])
            try:
                fit = fit_polynomial(seq, t, n_start=1, epsilon=eps)
            except UnstableSequence as err:
                fits.append(None)
                matched = False
                details.append(f"{kind} t={t}: no stable fit ({err})")
                continue
            fits.append(fit)
            ok = fit.coefficients == expected
            matched = matched and ok
            details.append(
                f"{kind} t={t}: fit {poly_str(fit.coefficients)}"
                f"{'' if ok else ' (expected ' + poly_str(expected) + ')'}"
                f", stable from n={fit.stable_from}, window {fit.window[0]}..{fit.window[1]}"
            )
        rows.append(VerifyRow(name, matched, tuple(details), tuple(fits)))
    return VerifyReport(tuple(rows))
