"""Exact count tables, deficiency sequences, and polynomial tails.

Three routes count F(n, p) = number of Frobenius objects with sum n and
p parts (total parts, for pairs):

* ``brute_table`` enumerates the compositions (or pairs) with exactly two
  odd parts in total, the only ones whose meander graph can be one path,
  keeps one per orbit of the group generated by the side swap and the
  reversal of both sides, counted with the orbit's size (1, 2 or 4),
  drops the pairs whose sides share a proper partial sum, and drops the
  compositions with partial sums s < n/2 and n - s: the block (n) maps
  [0, s) and [n - s, n), unions of top blocks, onto each other, so their
  union and the nonempty [s, n - s) are apart.  It walks each graph that
  is left to see whether it is one path (``table --method brute``);
* ``generated_table`` and ``deficiency_table`` tally the free-monoid
  generation, straight from the raw search nodes, in full or pruned to
  deficiency <= t (``table --method generated|deficiency``).  For pairs
  the search walks the seed and the half below its S+ children, and
  every other node counts twice: the minus letters are the plus letters
  conjugated by the side swap, so the S- half is the mirror image of the
  S+ half, with the same sums and part counts.  Each node walked enters
  the seen-set with its mirror, so a repeat in either half still raises.
  ``generate`` streams every node with its word, so it walks all of it;
* ``diagonal_counts`` counts the deficiency diagonals without
  enumerating them: by the truncation lemma, a node at deficiency d
  under bound t has a subtree that reads only its first t - d + 1 parts
  per side, so the pruned search collapses to a sum-by-sum count over
  truncated states.  A truncated pair and its side swap are one state:
  the swap mirrors every move and keeps its increment and family, so the
  two subtrees have the same sums and deficiencies.  One count with bound
  t gives every diagonal d <= t, and each truncated state lists its
  children once (``fit`` and ``verify``, through ``deficiency_sequence``;
  ``verify`` runs one count per kind).

Their agreement on the overlap is the central correctness check of this
package.  Only the search raises :class:`CollisionError` on a repeated
object; the diagonal count merges truncated states by design.

Three table kinds exist, each on the sums unit*k + eps for k >= 1:
``seaweed`` (pairs, unit 1, eps 0), ``parabolic-even`` (unit 2, eps 0)
and ``parabolic-odd`` (unit 2, eps 1; the sum-1 composition stays
outside the generation scheme).  For a fixed deficiency t, the diagonal
counts F(unit*k + eps, k+1-t), as a function of k, eventually agree with
a polynomial of degree floor(t/2).  The published closed forms are::

    seaweed    t=0..4:   2,  8,  2T+20,  12T+4,  T^2+33T-138
    parabolic  (eps,t):  (0,0) and (1,0): 2,   (0,1): 12,
                         (1,1): 6,   (1,2): 2T+12

``fit_polynomial`` reads everything off one table of integer forward
differences: the vanishing of the order floor(t/2) + 1 differences on
the window's end certifies the tail, the lower differences at the first
of the last floor(t/2) + 1 values give the polynomial in Newton form
(expanded to exact rational monomial coefficients), and the last nonzero
top-order difference marks from which n onward it matches.
``verify_published_polynomials`` runs all nine published cases end to end.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterator, Optional, Sequence

# iter_compositions, component_counts, partner_array and the generate_* names
# are not called here; they stay bound because perfbench/tracing.py wraps this
# module's bindings of them.
from .compositions import iter_compositions  # noqa: F401
from .meander import component_counts, partner_array, path_size  # noqa: F401
from .parabolic_words import (  # noqa: F401
    _SEEDS_RAW, _child_moves_p, generate_deficiency_p, generate_frobenius_p,
)
from .seaweed_words import (  # noqa: F401
    _SEED_RAW, _check_bounds, _child_moves, _search, _swap_sides, generate_deficiency,
    generate_frobenius,
)

SEAWEED_BRUTE_BUDGET = 18
PARABOLIC_BRUTE_BUDGET = 24


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

    def census(self, n: int, block: list[list[list[int]]]) -> Iterator[tuple[int, int]]:
        """(counted parts, orbit size) of every Frobenius orbit representative
        of sum n among the census candidates, with ``block`` from
        :func:`_block_arcs`; see :func:`brute_table`."""
        if self.epsilon is not None:  # one of each composition and its reversal
            bottom = block[0][n]
            for top, cuts, mirrored, end, parts in _census_sides(
                    n, 2 - n % 2, block, reversal_representatives=True,
                    skip_mirrored_cuts=True):
                if cuts <= mirrored and path_size(top, bottom, end) == n:
                    yield parts, 1 if cuts == mirrored else 2
        elif n % 2:  # (1, 1) odd parts: each unordered pair {x, y} once per orbit
            sides = sorted((cuts, mirrored, tuple(side), end, parts)
                           for side, cuts, mirrored, end, parts in _census_sides(n, 1, block))
            for i, (cuts, mirrored, top, end, top_parts) in enumerate(sides):
                if cuts > mirrored:  # x leads the sorted cut pair, so cuts <= mirrored
                    continue
                for bottom_cuts, bottom_mirrored, bottom, _, parts in sides[i:]:
                    if cuts & bottom_cuts:
                        continue
                    pair = (cuts, bottom_cuts)  # sorted, as sides is
                    mirror = ((mirrored, bottom_mirrored) if mirrored <= bottom_mirrored
                              else (bottom_mirrored, mirrored))
                    if pair <= mirror and path_size(top, bottom, end) == n:
                        yield top_parts + parts, ((1 if bottom_cuts == cuts else 2)
                                                  * (1 if pair == mirror else 2))
        else:  # (0, 2) odd parts, each standing for its (2, 0) swap too
            bottoms = [(tuple(bottom), cuts, mirrored, end, parts)
                       for bottom, cuts, mirrored, end, parts in _census_sides(n, 2, block)]
            bottom_representatives = [side for side in bottoms if side[1] <= side[2]]
            for top, cuts, mirrored, _, top_parts in _census_sides(
                    n, 0, block, reversal_representatives=True):
                if cuts > mirrored:
                    continue
                palindrome = cuts == mirrored
                for bottom, bottom_cuts, bottom_mirrored, end, parts in (
                        bottom_representatives if palindrome else bottoms):
                    if not cuts & bottom_cuts and path_size(top, bottom, end) == n:
                        yield top_parts + parts, (
                            2 if palindrome and bottom_cuts == bottom_mirrored else 4)

    def sum_at(self, k: int) -> int:
        """The sum unit*k + eps at index k of a diagonal."""
        return self.unit * k + self.offset

    def sequence(self, diagonal: dict[int, int], n_range: range) -> list[int]:
        """One diagonal's counts by sum, read at the indices ``n_range``."""
        return [diagonal.get(self.sum_at(k), 0) for k in n_range]

    @property
    def first_sum(self) -> int:
        """The smallest sum counted: 1, 2 and 3; the odd seed (1) is not counted."""
        return self.unit + self.offset

    def root(self) -> tuple[tuple, int, Callable]:
        """(seed state, its sum, child moves) of the kind's search."""
        if self.epsilon is None:
            return _SEED_RAW, 1, _child_moves
        return (_SEEDS_RAW[self.epsilon],), 2 - self.epsilon, _child_moves_p

    def truncate(self, state: tuple, keep: int) -> tuple:
        """The parts of ``state`` a subtree can still read: the first ``keep``
        of each side of a pair, the first and last ``keep`` of a composition
        (a tilde letter reverses it).

        A pair comes back with its sides in a canonical order, so a pair and
        its side swap are one state of :func:`diagonal_counts` (its swap
        lemma says why that is exact).  Reversal is no such symmetry of a
        composition's moves (an S letter reads its first part, not its
        last), so compositions keep their order."""
        if self.epsilon is None:
            plus, minus = state
            plus, minus = plus[:keep], minus[:keep]
            return (plus, minus) if plus <= minus else (minus, plus)
        (a,) = state
        return state if len(a) <= 2 * keep else (a[:keep] + a[-keep:],)

    @property
    def mirror(self) -> Optional[Callable[[tuple], tuple]]:
        """The side swap for pairs: the minus letters are the plus letters
        conjugated by it, so the search below the seed splits into two
        mirror halves.  None for compositions, which have no such half."""
        return _swap_sides if self.epsilon is None else None

    def tally(self, n_max: int, t: Optional[int]) -> dict[tuple[int, int], int]:
        """Raw search nodes by (sum, parts); no objects are built.

        With a :attr:`mirror` the search walks the seed and one mirror half
        (see :func:`~seaweeds.seaweed_words._search`), and every node but
        the seed is counted twice; its mirror has the same sum and parts."""
        start, total, moves = self.root()
        nodes = _search(start, moves, n_max, total, t, self.unit,
                        emit_start=total >= self.first_sum, mirror=self.mirror)
        if self.epsilon is not None:
            return dict(Counter((n, len(a)) for (a,), n, _, _ in nodes))
        counts = Counter((n, len(plus) + len(minus)) for (plus, minus), n, _, _ in nodes)
        seed = (total, 2)  # the seed (1)|(1) has no mirror twin
        return {key: 2 * count - (key == seed) for key, count in counts.items()}


_KIND_TABLE = (_Kind("seaweed", None), _Kind("parabolic-even", 0), _Kind("parabolic-odd", 1))
KINDS = tuple(kind.name for kind in _KIND_TABLE)


def _kind(name: str) -> _Kind:
    for kind in _KIND_TABLE:
        if kind.name == name:
            return kind
    raise ValueError(f"unknown kind {name!r}; expected one of {KINDS}")


def _block_arcs(n_max: int) -> list[list[list[int]]]:
    """block[lo][size]: the partners of positions lo..lo+size-1 under one block
    of that size placed at lo, its bare middle vertex -1, for lo + size <=
    n_max.  An entry depends on lo and size alone, so one table serves every
    sum up to n_max."""
    block = [[list(range(lo + size - 1, lo - 1, -1)) for size in range(n_max - lo + 1)]
             for lo in range(n_max + 1)]
    for row in block:
        for size in range(1, len(row), 2):
            row[size][size // 2] = -1
    return block


def _census_sides(
    n: int, odd: int, block: list[list[list[int]]],
    reversal_representatives: bool = False, skip_mirrored_cuts: bool = False,
) -> Iterator[tuple[list[int], int, int, int, int]]:
    """The compositions of ``n`` with exactly ``odd`` odd parts, in the order of
    :func:`~seaweeds.compositions.iter_compositions_odd`, as
    (partners, cuts, mirrored, end, parts); ``block`` is a
    :func:`_block_arcs` table for a sum of at least n.

    One explicit-stack walk writes each block's arcs into the one list
    ``partners`` as the block is placed, so a prefix shared by many
    compositions is written once.  The list is complete at each yield and
    rewritten after it: a caller that keeps it must copy it.  ``cuts`` has
    bit s - 1 set for each proper partial sum s, ``mirrored`` bit n - s - 1
    (the cuts of the reversed composition), ``end`` is the bare middle
    vertex of the first odd block (-1 when there is none) and ``parts``
    the number of parts.

    A part is placed only when the odd parts still owed fit in what is left
    after it, so with neither option no branch is a dead end.

    ``reversal_representatives``: the last part must be at least the
    first, and a part that is not the last must leave at least that much.
    This skips only compositions with ``cuts > mirrored``, which do not
    represent their reversal orbit.  A branch can then die without a
    yield, when the odd parts it still owes leave no room for a last part
    that large.

    ``skip_mirrored_cuts``: skip every composition with a proper partial
    sum s != n/2 whose mirror n - s is a partial sum too; against the
    block (n) none of them is one path (see :func:`brute_table`).  Both
    cuts are known once the part ending at the larger one is placed, so
    that prefix's whole subtree is dropped.
    """
    if odd < 0 or odd > n or (n - odd) % 2:
        return
    partners = [-1] * n
    # any first size leaves room for the odd parts owed: up to n - odd + 1
    # while one is owed, else the even sizes; floor is the smallest last part
    stack = [(0, size, odd - (size & 1), 0, 0, -1, 1, size if reversal_representatives else 1)
             for size in (range(n - odd + 1, 0, -1) if odd else range(n, 0, -2))]
    while stack:
        lo, size, left, cuts, mirrored, end, parts, floor = stack.pop()
        hi = lo + size
        rest = n - hi
        # a new cut hi > n/2 meets its mirror rest when rest is already a cut
        if skip_mirrored_cuts and 0 < rest < hi and cuts >> (rest - 1) & 1:
            continue
        partners[lo:hi] = block[lo][size]
        if size & 1 and end < 0:
            end = lo + size // 2
        if not rest:
            yield partners, cuts, mirrored, end, parts
            continue
        cuts |= 1 << (hi - 1)
        mirrored |= 1 << (rest - 1)
        parts += 1
        if left <= 1 and rest >= floor:  # rest as the last part has the owed parity
            stack.append((hi, rest, 0, cuts, mirrored, end, parts, floor))
        room = rest - floor  # the largest part that is not the last
        stack += [(hi, size, left - (size & 1), cuts, mirrored, end, parts, floor)
                  for size in (range(min(room, rest - left + 1), 0, -1) if left
                               else range(room - (room & 1), 0, -2))]


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
    be Frobenius: top and bottom odd-part counts (0, 2), (1, 1) or (2, 0)
    for pairs, and a top with 2 - (n mod 2) odd parts against the block
    (n) for compositions.  Such a graph is one path plus cycles, so it is
    Frobenius exactly when the walk from the bare middle vertex of its
    first odd block covers all n vertices.

    Three more lemmas thin the candidates, and each one left gets exactly
    one such walk:

    * Swapping the two sides of a pair, or reversing both sides, gives the
      same graph up to mirroring, with the same number of parts.  So one
      candidate per orbit of the group they generate is walked and counted
      with the orbit's size.  Cuts order the sides: ``cuts`` is the
      bitmask of a side's proper partial sums, ``mirrored`` that of its
      reversal, and a side is a palindrome exactly when the two are equal.

      - Even sum: the (2, 0) pairs are the swaps of the (0, 2) ones.  A
        top with ``cuts < mirrored`` takes every bottom and counts 4; a
        palindromic top takes the bottoms with ``cuts <= mirrored`` and
        counts 4, or 2 when the bottom is a palindrome too (reversal then
        fixes the pair).
      - Odd sum: the unordered (1, 1) pair {x, y} is walked when its
        sorted cut pair is at most its sorted mirrored pair, and counts
        (1 if x is y else 2) * (1 if the two sorted pairs are equal
        else 2).
      - A composition against (n): one of it and its reversal, twice
        unless it is a palindrome.
    * No arc crosses a proper partial sum that both sides share, so such a
      pair has at least two components.  A pair is walked only when the
      cut bitmasks of its sides are disjoint.
    * Mirrored cuts, against (n) only: the block (n) joins i and n - 1 - i.
      If s < n/2 and n - s are both partial sums of the top, then
      [0, s) and [n - s, n) are unions of top blocks, and the bottom arcs
      swap them, so their union is a union of components; so is its
      nonempty complement [s, n - s), and the graph is not one path.  In
      bits, ``cuts & mirrored`` is nonzero once bit n/2 - 1 is cleared for
      an even n.  Both cuts are known once the part ending at n - s is
      placed, so :func:`_census_sides` drops that prefix's whole subtree.
      This leaves 269 of the 576 composition orbits at n = 14.

    The sides come from :func:`_census_sides`, which writes each block's
    arcs in place as it is placed, from one :func:`_block_arcs` table built
    for n_max.  The seaweed kind is budgeted at n_max <= 18 unless
    overridden, the parabolic kinds at 24.
    """
    spec = _kind(kind)
    budget = SEAWEED_BRUTE_BUDGET if spec.epsilon is None else PARABOLIC_BRUTE_BUDGET
    if n_max > budget and not budget_override:
        raise BudgetExceeded(
            f"brute {kind} table to n={n_max} exceeds the default budget {budget}; "
            f"pass budget_override to force"
        )
    entries: dict[tuple[int, int], int] = {}
    block = _block_arcs(n_max)
    for n in range(spec.first_sum, n_max + 1, spec.unit):
        for parts, weight in spec.census(n, block):
            entries[n, parts] = entries.get((n, parts), 0) + weight
    return CountTable(kind=kind, method="brute", entries=entries)


def _tally(kind: str, method: str, n_max: int, t: Optional[int]) -> CountTable:
    """Tally the raw search nodes by (sum, parts)."""
    return CountTable(kind=kind, method=method, entries=_kind(kind).tally(n_max, t))


def generated_table(kind: str, n_max: int) -> CountTable:
    """Free-monoid generation, tallied by (sum, parts).

    The seaweed search walks one mirror half and counts each node but the
    seed twice (see :meth:`_Kind.tally`); a repeat in either half raises
    :class:`~seaweeds.seaweed_words.CollisionError`."""
    return _tally(kind, "generated", n_max, None)


def deficiency_table(kind: str, t: int, n_max: int) -> CountTable:
    """Pruned generation: only objects within deficiency t of the part ceiling,
    tallied like :func:`generated_table`; the side swap keeps deficiencies."""
    return _tally(kind, "deficiency", n_max, t)


def diagonal_counts(kind: str, t: int, n_max: int) -> dict[int, dict[int, int]]:
    """Objects of every deficiency d <= t, by d and then by sum n <= n_max,
    counted without enumerating them; a diagonal with no object is absent.

    Truncation lemma: a node at deficiency d < t has a subtree that reads
    no more than the first t - d + 1 parts of each side of a pair, or the
    first and last t - d + 1 parts of a composition (a tilde letter
    reverses it).  An S letter reads the first part only; a T letter
    reads the first two and raises the deficiency by at least 1, so at
    most t - d of them follow, and the j-th one on a side reads the part
    at depth j.  At d = t no T letter fits, and one part per side is kept.

    Swap lemma: the minus letters are the plus letters conjugated by the
    side swap, so the moves of a swapped pair are the mirrored moves, with
    the same increments and families, and truncation commutes with the
    swap.  A pair and its swap therefore have subtrees with the same sums
    and deficiencies, and :meth:`_Kind.truncate` puts a pair's sides in a
    canonical order.  This halves the seaweed states (233, 1,447 and
    7,851 for t <= 4, 6 and 8); the seed is the only pair equal to its
    swap.

    Nodes are therefore kept truncated and merged, with multiplicities,
    per (truncated state, deficiency).  Each level of equal sum is popped
    in increasing order and pushes its children, with the budgets and
    deficiency steps of the pruned search, into the level of their sum.
    The deficiency never decreases, so every node of deficiency d <= t is
    visited under the bound t, and one count yields every diagonal up to
    t.  A node's children are listed once, on its first visit, when its
    budget is the largest it will get; at every later sum the list is
    reused without the children whose increment no longer fits, which
    are exactly the moves the smaller budget drops.

    The count reads the deficiency only: it equals n + 1 - p for pairs
    and k + 1 - p for compositions of sum 2k + eps.
    """
    _check_bounds(n_max, t)
    spec = _kind(kind)
    unit, first = spec.unit, spec.first_sum
    start, total, moves = spec.root()
    # each (truncated state, deficiency) gets a small int id when first seen,
    # so the levels hash ints, not nested tuples
    nodes = [(start, 0)]
    ids = {nodes[0]: 0}
    children: list[Optional[list[tuple[int, int]]]] = [None]
    levels: dict[int, dict[int, int]] = {total: {0: 1}}
    counts: dict[int, dict[int, int]] = {}
    for n in range(total, n_max + 1, unit):
        room = n_max - n
        for node, mult in levels.pop(n, {}).items():
            state, deficit = nodes[node]
            if n >= first:
                diagonal = counts.setdefault(deficit, {})
                diagonal[n] = diagonal.get(n, 0) + mult
            kids = children[node]
            if kids is None:
                kids = children[node] = []
                for l, child, inc in moves(*state, min(room, unit * (t - deficit + 1))):
                    child_deficit = deficit + inc // unit - 1 + (l.family == "T")
                    if child_deficit <= t:
                        keep = t - child_deficit + 1
                        key = (spec.truncate(child, keep), child_deficit)
                        kid = ids.setdefault(key, len(nodes))
                        if kid == len(nodes):
                            nodes.append(key)
                            children.append(None)
                        kids.append((inc, kid))
            for inc, kid in kids:
                if inc <= room:
                    level = levels.setdefault(n + inc, {})
                    level[kid] = level.get(kid, 0) + mult
    return counts


def deficiency_sequence(kind: str, t: int, n_range: range) -> list[int]:
    """Counts along the deficiency-t diagonal, indexed by ``n_range``.

    The count at index k is F(unit*k + eps, k + 1 - t): for the seaweed
    kind k is the sum itself, for parabolic kinds the half-variable of
    the sum 2k + eps, with eps fixed by the kind.
    """
    spec = _kind(kind)
    if len(n_range) == 0:
        return []
    counts = diagonal_counts(kind, t, spec.sum_at(max(n_range)))
    return spec.sequence(counts.get(t, {}), n_range)


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
    ``n_start``.  With d = floor(t/2), stability requires the forward
    differences of order d + 1 to vanish on the last max(5, t+2) entries
    of the difference sequence; otherwise :class:`UnstableSequence` is
    raised.  The same d + 1 passes give the polynomial: with x0 the first
    of the last d + 1 indices and heads[k] the k-th difference at x0,
    P(x) = sum_k heads[k] * binomial(x - x0, k) (forward-difference Newton
    form), expanded to exact monomial coefficients.  ``stable_from`` is
    one past the last nonzero order-(d + 1) difference, or ``n_start`` if
    none is nonzero: a zero difference at j, with the d + 1 values after
    j on P, puts the value at j on P, and a nonzero one puts it off P.
    """
    d = t // 2
    order = d + 1
    guard = max(5, t + 2)
    values = [int(v) for v in seq]
    # checked before differencing, which would take order passes
    if len(values) < order + guard:
        raise UnstableSequence(
            f"window of {len(values)} values is too short to certify a "
            f"degree-{d} tail (need {order + guard} values)"
        )
    x0 = len(values) - order  # heads[k]: the k-th difference at x0
    heads = []
    diffs = values
    for _ in range(order):
        heads.append(diffs[x0])
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
    if any(diffs[-guard:]):
        raise UnstableSequence(
            f"order-{order} differences still nonzero on the last {guard} entries"
        )
    last_nonzero = next((j for j in range(len(diffs) - 1, -1, -1) if diffs[j]), -1)
    stable_from = n_start + last_nonzero + 1
    # Newton form, expanded Horner-style: times (x - x0 - k) / (k + 1), plus heads[k]
    coeffs = [Fraction(heads[d])]
    for k in range(d - 1, -1, -1):
        root = n_start + x0 + k
        coeffs = [(hi - root * lo) / (k + 1) for lo, hi in zip(coeffs + [0], [0] + coeffs)]
        coeffs[0] += heads[k]
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return PolyFit(
        t=t,
        degree=len(coeffs) - 1,
        coefficients=tuple(coeffs),
        stable_from=stable_from,
        window=(n_start, n_start + len(values) - 1),
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
    half-variable, i.e. sums up to 60/61).  One diagonal count per kind,
    up to the largest published t of that kind, gives every sequence.  A
    case matches when the fit is stable and its exact coefficients equal
    the published ones; a fitting failure is reported as a mismatch,
    never an exception.
    """
    top: dict[str, int] = {}
    for kind, t in EXPECTED_COEFFS:
        top[kind] = max(t, top.get(kind, t))
    sequences: dict[tuple[str, int], list[int]] = {}
    for kind, t in top.items():
        spec = _kind(kind)
        window = range(1, (seaweed_n_max if spec.epsilon is None else parabolic_n_max) + 1)
        counts = diagonal_counts(kind, t, spec.sum_at(window[-1])) if window else {}
        for d in range(t + 1):
            sequences[kind, d] = spec.sequence(counts.get(d, {}), window)
    rows = []
    for name, cases in _REPORT_ROWS:
        details = []
        fits: list[Optional[PolyFit]] = []
        matched = True
        for kind, t in cases:
            eps = _kind(kind).epsilon
            seq = sequences[kind, t]
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
