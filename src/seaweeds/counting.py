"""Exact count tables, deficiency sequences, and polynomial tails.

Two independent routes produce the tables F(n, p) = number of Frobenius
objects with sum n and p parts (total parts, for pairs):

* ``brute_table`` enumerates the compositions (or pairs) with exactly two
  odd parts in total, the only ones whose meander graph can be one path,
  and walks each graph to see whether it is;
* ``generated_table`` tallies the free-monoid generation, straight from
  the raw search nodes.

Their agreement on the overlap is the central correctness check of this
package.  Three table kinds exist, each on the sums unit*k + eps for
k >= 1: ``seaweed`` (pairs, unit 1, eps 0), ``parabolic-even`` (unit 2,
eps 0) and ``parabolic-odd`` (unit 2, eps 1; the sum-1 composition stays
outside the generation scheme).  For a fixed deficiency t, the diagonal
counts F(unit*k + eps, k+1-t), as a function of k, eventually agree with
a polynomial of degree floor(t/2).  The published closed forms are::

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
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Iterable, Optional, Sequence

# iter_compositions, component_counts and the generate_* names are not called
# here; they stay bound because perfbench/tracing.py wraps this module's
# bindings of them.
from .compositions import iter_compositions, iter_compositions_odd  # noqa: F401
from .meander import component_counts, partner_array, path_size  # noqa: F401
from .parabolic_words import (  # noqa: F401
    composition_nodes, generate_deficiency_p, generate_frobenius_p,
)
from .seaweed_words import generate_deficiency, generate_frobenius, pair_nodes  # noqa: F401

SEAWEED_BRUTE_BUDGET = 14
PARABOLIC_BRUTE_BUDGET = 20


class BudgetExceeded(ValueError):
    """Brute-force enumeration past the default budget needs an override."""


class UnstableSequence(ValueError):
    """No qualifying constant tail in the higher finite differences."""


@dataclass(frozen=True)
class _Kind:
    """Pairs (no epsilon), or compositions of parity epsilon: a composition
    ``a`` of n is the seaweed ``(a | (n))`` with the bottom block uncounted."""

    name: str
    epsilon: Optional[int]

    @property
    def unit(self) -> int:
        return 1 if self.epsilon is None else 2

    @property
    def offset(self) -> int:
        return self.epsilon or 0

    def bottoms(self, n: int) -> dict[int, list[tuple[tuple[int, ...], int]]]:
        """(bottom, counted parts) of sum n that can close a Frobenius pair,
        keyed by the bottom's number of odd parts, which is at most two."""
        if self.epsilon is None:
            return {k: [(c, len(c)) for c in iter_compositions_odd(n, k)]
                    for k in range(n % 2, 3, 2)}
        return {n % 2: [((n,), 0)]}

    def sizes(self, n_max: int, t: Optional[int]) -> Iterable[tuple[int, int]]:
        """(sum, parts) of every raw search node; no objects are built."""
        if self.epsilon is None:
            nodes = pair_nodes(n_max, t)
            return ((n, len(plus) + len(minus)) for (plus, minus), n, _, _ in nodes)
        nodes = composition_nodes(self.epsilon, n_max, t)
        return ((n, len(a)) for (a,), n, _, _ in nodes)


_KIND_TABLE = (_Kind("seaweed", None), _Kind("parabolic-even", 0), _Kind("parabolic-odd", 1))
KINDS = tuple(kind.name for kind in _KIND_TABLE)


def _kind(name: str) -> _Kind:
    for kind in _KIND_TABLE:
        if kind.name == name:
            return kind
    raise ValueError(f"unknown kind {name!r}; expected one of {KINDS}")


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

        Counts vanish for p > n // unit + 1: p > n + 1 for seaweed pairs,
        p > floor(n/2) + 1 for parabolic compositions.  A nonempty result
        is a correctness bug.
        """
        unit = _kind(self.kind).unit
        return [(n, p, c) for (n, p), c in sorted(self.entries.items()) if p > n // unit + 1]


def brute_table(kind: str, n_max: int, budget_override: bool = False) -> CountTable:
    """Exhaustive meander census, tallied by (sum, parts).

    A block of size a gives floor(a/2) arcs, so a candidate with k odd
    parts in total has n - k/2 arcs, while a single path on n vertices has
    n - 1.  Hence only candidates with exactly two odd parts in total can
    be Frobenius, and only those are enumerated: top and bottom odd-part
    counts (0, 2), (1, 1) or (2, 0) for pairs, and a top with
    2 - (n mod 2) odd parts against the block (n) for compositions.  Such
    a graph is one path plus cycles, so it is Frobenius exactly when the
    walk from the bare middle vertex of its first odd block covers all n
    vertices.  The seaweed kind is budgeted at n_max <= 14 unless
    overridden, the parabolic kinds at 20.
    """
    spec = _kind(kind)
    budget = SEAWEED_BRUTE_BUDGET if spec.epsilon is None else PARABOLIC_BRUTE_BUDGET
    if n_max > budget and not budget_override:
        raise BudgetExceeded(
            f"brute {kind} table to n={n_max} exceeds the default budget {budget}; "
            f"pass budget_override to force"
        )
    entries: dict[tuple[int, int], int] = {}
    for n in range(spec.unit + spec.offset, n_max + 1, spec.unit):
        for k, group in spec.bottoms(n).items():
            bottoms = [(partner_array(c, n), parts) for c, parts in group]
            for top in iter_compositions_odd(n, 2 - k):
                top_partners = partner_array(top, n)
                for bottom_partners, parts in bottoms:
                    first_odd = top_partners if k < 2 else bottom_partners
                    if path_size(top_partners, bottom_partners, first_odd.index(-1)) == n:
                        key = (n, len(top) + parts)
                        entries[key] = entries.get(key, 0) + 1
    return CountTable(kind=kind, method="brute", entries=entries)


def _tally(kind: str, method: str, n_max: int, t: Optional[int]) -> CountTable:
    """Tally the raw search nodes by (sum, parts)."""
    sizes = _kind(kind).sizes(n_max, t)
    return CountTable(kind=kind, method=method, entries=dict(Counter(sizes)))


def generated_table(kind: str, n_max: int) -> CountTable:
    """Free-monoid generation, tallied by (sum, parts)."""
    return _tally(kind, "generated", n_max, None)


def deficiency_table(kind: str, t: int, n_max: int) -> CountTable:
    """Pruned generation: only objects within deficiency t of the part ceiling."""
    return _tally(kind, "deficiency", n_max, t)


def deficiency_sequence(kind: str, t: int, n_range: range) -> list[int]:
    """Counts along the deficiency-t diagonal, indexed by ``n_range``.

    The count at index k is F(unit*k + eps, k + 1 - t): for the seaweed
    kind k is the sum itself, for parabolic kinds the half-variable of
    the sum 2k + eps, with eps fixed by the kind.
    """
    spec = _kind(kind)
    if len(n_range) == 0:
        return []
    table = deficiency_table(kind, t, spec.unit * max(n_range) + spec.offset)
    return [table.count(spec.unit * k + spec.offset, k + 1 - t) for k in n_range]


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
    return replace(fit, stable_from=stable_from)


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
            eps = _kind(kind).epsilon
            n_max = seaweed_n_max if eps is None else parabolic_n_max
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
