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
  the search walks the seed and one side-swap half of the tree, and
  every other node counts twice; a repeat in either half still raises
  (``_search``'s ``halve`` gives the argument for both).  Every search
  starts at the kind's seed and reads its sum off the seed's first side.
  The tallies read each node's sum and state only; a node also carries
  its depth and its last letter, from which ``generate`` rebuilds each
  word in pre-order.
  ``generate`` streams every node with its word, so it walks all of it;
* ``diagonal_counts`` counts the deficiency diagonals without
  enumerating them: by the truncation lemma, a node with deficiency
  budget r = t - d left has a subtree that reads only the parts it can
  afford.  An S letter spends (m+1)*a1 - 1 of the budget and a T letter
  m*a1 + (m+1)*a2 >= a2, so a first part is capped at r + 2, and the
  parts after it are kept while their running sum stays <= r (from both
  ends of a composition, with one wall part r + 1 for the dropped
  middle).  The pruned search then collapses to a sum-by-sum count over
  truncated states.  A truncated pair and its side swap are one state:
  the swap mirrors every move and keeps its increment and family, so the
  two subtrees have the same sums and deficiencies.  The count has two
  halves: :class:`_Automaton`, the graph of (truncated state,
  deficiency) nodes, each listing its children once, on its first visit
  (the budget rule is in ``diagonal_counts``), and the level-by-sum count
  over it.  One count with bound t gives every diagonal d <= t (``fit``
  and ``verify``, through ``deficiency_sequence``; ``verify`` runs one
  count per kind).

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
(expanded in integers scaled by floor(t/2)!, then divided once per
monomial coefficient into an exact ``Fraction``), and the last nonzero
top-order difference marks from which n onward it matches.
``verify_published_polynomials`` runs all nine published cases end to end.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from typing import Callable, Iterator, Optional, Sequence

from . import parabolic_words, seaweed_words
from .compositions import BiComposition, Composition, _Value
# iter_compositions, component_counts and partner_array are not called here;
# they stay bound because perfbench/tracing.py wraps this module's bindings
# of them.
from .compositions import iter_compositions  # noqa: F401
from .meander import component_counts, orbit_size, partner_array  # noqa: F401
from .parabolic_words import ParabolicWord, seed
from .seaweed_words import _SEED_RAW, SeaweedWord, _check_bounds, _search

SEAWEED_BRUTE_BUDGET = 18
PARABOLIC_BRUTE_BUDGET = 24


class BudgetExceeded(ValueError):
    """Brute-force enumeration past the default budget needs an override."""


class UnstableSequence(ValueError):
    """No qualifying constant tail in the higher finite differences."""


class _Kind(_Value):
    """Pairs (no epsilon), or compositions of parity epsilon: a composition
    ``a`` of n is the seaweed ``(a | (n))`` with the bottom block uncounted.

    A row holds what sets up the kind's search: ``unit``, the smallest sum
    increment of a letter (and the step between the sums counted), and
    ``seed``, the raw start state, whose sum is that of its first side.
    Every walk of the package is :meth:`nodes`: the tallies, the
    ``generate`` records and the four public generators below.
    By the start rule of :func:`~seaweeds.seaweed_words._search` a walk
    yields its seed unless the seed's sum is below ``unit``; only the odd
    seed (1) is, so a walk that yields anything yields ``first_sum`` first.
    The fields are ``name: str``, ``epsilon: Optional[int]``, ``unit: int``
    and ``seed: tuple``.
    """

    __slots__ = _fields = ("name", "epsilon", "unit", "seed")

    @property
    def moves(self) -> Callable:
        """The move lister, read from its word module at each call, so a test
        that plants a lister patches one binding."""
        if self.epsilon is None:
            return seaweed_words._child_moves
        return parabolic_words._child_moves_p

    @property
    def offset(self) -> int:
        return self.epsilon or 0

    def census(self, n: int, block: list[list[list[int]]]) -> Iterator[tuple[int, int]]:
        """(counted parts, orbit size) of every Frobenius orbit representative
        of sum n among the census candidates, with ``block`` from
        :func:`_block_arcs`; see :func:`brute_table`.  Only a candidate
        that passes the cut tests gets its sigma walk from vertex 0 and its
        part count, one more than its cuts per side (a pair's sides share
        none)."""
        if self.epsilon is not None:  # one of each composition and its reversal
            bottom = block[0][n]
            for top, cuts, mirrored in _census_sides(
                    n, 2 - n % 2, block, reversal_representatives=True,
                    skip_mirrored_cuts=True):
                if cuts <= mirrored and orbit_size(top, bottom, 0) == n:
                    yield cuts.bit_count() + 1, 1 if cuts == mirrored else 2
        elif n % 2:  # (1, 1) odd parts: each unordered pair {x, y} once per orbit
            sides = sorted((cuts, mirrored, tuple(side))
                           for side, cuts, mirrored in _census_sides(n, 1, block))
            for i, (cuts, mirrored, top) in enumerate(sides):
                if cuts > mirrored:  # x leads the sorted cut pair, so cuts <= mirrored
                    continue
                for bottom_cuts, bottom_mirrored, bottom in sides[i:]:
                    if cuts & bottom_cuts:
                        continue
                    pair = (cuts, bottom_cuts)  # sorted, as sides is
                    mirror = ((mirrored, bottom_mirrored) if mirrored <= bottom_mirrored
                              else (bottom_mirrored, mirrored))
                    if pair <= mirror and orbit_size(top, bottom, 0) == n:
                        yield (cuts | bottom_cuts).bit_count() + 2, (
                            (1 if bottom_cuts == cuts else 2) * (1 if pair == mirror else 2))
        else:  # (0, 2) odd parts, each standing for its (2, 0) swap too
            bottoms = [(tuple(bottom), cuts, mirrored)
                       for bottom, cuts, mirrored in _census_sides(n, 2, block)]
            bottom_representatives = [side for side in bottoms if side[1] <= side[2]]
            for top, cuts, mirrored in _census_sides(
                    n, 0, block, reversal_representatives=True):
                if cuts > mirrored:
                    continue
                palindrome = cuts == mirrored
                for bottom, bottom_cuts, bottom_mirrored in (
                        bottom_representatives if palindrome else bottoms):
                    if not cuts & bottom_cuts and orbit_size(top, bottom, 0) == n:
                        yield (cuts | bottom_cuts).bit_count() + 2, (
                            2 if palindrome and bottom_cuts == bottom_mirrored else 4)

    def sum_at(self, k: int) -> int:
        """The sum unit*k + eps at index k of a diagonal."""
        return self.unit * k + self.offset

    def sequence(self, diagonal: dict[int, int], n_range: range) -> list[int]:
        """One diagonal's counts by sum, read at the indices ``n_range``."""
        unit, offset = self.unit, self.offset
        return [diagonal.get(unit * k + offset, 0) for k in n_range]

    @property
    def first_sum(self) -> int:
        """The smallest sum counted: 1, 2 and 3; the odd seed (1) is not counted."""
        return self.sum_at(1)

    def truncate(self, state: tuple, r: int) -> tuple:
        """The parts of ``state`` a subtree with deficiency budget ``r`` can
        still read (see :func:`diagonal_counts` for the lemma): each side,
        and a composition's front, as :func:`_readable_side` reads it.
        Only two things are a composition's own: the running sum also
        walks in from its back (a tilde letter brings its last part to
        second place), and one wall part r + 1, which neither walk can read
        across, stands for a dropped middle.

        A pair comes back with its sides in a canonical order, so a pair and
        its side swap are one state of :func:`diagonal_counts` (its swap
        lemma says why that is exact).  Reversal is no such symmetry of a
        composition's moves (an S letter reads its first part, not its
        last), so compositions keep their order."""
        if self.epsilon is None:
            plus, minus = state
            plus = _readable_side(plus, r)
            minus = _readable_side(minus, r)
            return (plus, minus) if plus <= minus else (minus, plus)
        (a,) = state
        head = _readable_side(a, r)
        back = len(a) - _readable_depth(a[:0:-1], r, 0)  # a[len(head):back] is unread
        if len(head) >= back:
            return (head[:1] + a[1:],)
        return (head + (r + 1,) + a[back:],)

    def nodes(self, n_max: int, t: Optional[int] = None, halve: bool = False) -> Iterator[tuple]:
        """The raw search nodes ``(state, n, depth, letter)`` of the kind's
        walk from its seed, with sum <= n_max (and deficiency <= t when
        given), in pre-order, as :func:`~seaweeds.seaweed_words._search`
        yields them; ``halve`` walks one side-swap half of a pair walk."""
        return _search(self.seed, self.moves, n_max, t, self.unit, halve)

    def tally(self, n_max: int, t: Optional[int]) -> dict[tuple[int, int], int]:
        """Raw search nodes by (sum, parts); no objects are built.

        For pairs the search walks the seed and one side-swap half, and
        every node but the seed is counted twice; its ``halve`` (see
        :func:`~seaweeds.seaweed_words._search`) says why that is exact and
        still raises on a repeat in the skipped half.  Compositions have no
        such half."""
        nodes = self.nodes(n_max, t, halve=self.epsilon is None)
        if self.epsilon is not None:
            return dict(Counter((n, len(a)) for (a,), n, _, _ in nodes))
        counts = Counter((n, len(plus) + len(minus)) for (plus, minus), n, _, _ in nodes)
        own_swap = (self.first_sum, 2)  # the seed (1)|(1)
        return {key: 2 * count - (key == own_swap) for key, count in counts.items()}


_KIND_TABLE = (
    _Kind("seaweed", None, 1, _SEED_RAW),
    _Kind("parabolic-even", 0, 2, (seed(0).parts,)),
    _Kind("parabolic-odd", 1, 2, (seed(1).parts,)),
)
KINDS = tuple(kind.name for kind in _KIND_TABLE)


def _kind(name: str) -> _Kind:
    for kind in _KIND_TABLE:
        if kind.name == name:
            return kind
    raise ValueError(f"unknown kind {name!r}; expected one of {KINDS}")


def _parity(epsilon: int) -> _Kind:
    """The composition row of parity ``epsilon``; a bad parity raises
    ValueError through :func:`~seaweeds.parabolic_words.seed`."""
    seed(epsilon)
    return next(kind for kind in _KIND_TABLE if kind.epsilon == epsilon)


def _worded(nodes: Iterator[tuple]) -> Iterator[tuple[tuple, tuple]]:
    """(word letters, state) of each node, the last-applied letter first.
    The nodes come in pre-order, so a node's word is its letter followed by
    the latest word one level up; ``words[d]`` holds the latest word of d
    letters."""
    words = [()]
    for state, _, depth, l in nodes:
        if depth:
            words[depth:] = ((l,) + words[depth - 1],)
        yield words[depth], state


def generate_frobenius(n_max: int) -> Iterator[tuple[SeaweedWord, BiComposition]]:
    """Every Frobenius pair with sum <= n_max, each with its unique word.

    Depth-first closure of the seed under all letters whose sum increment
    fits the budget, in pre-order with children in
    :func:`~seaweeds.seaweed_words._child_moves` order; reaching any pair
    twice raises :class:`~seaweeds.seaweed_words.CollisionError`.
    """
    for word, (plus, minus) in _worded(_kind("seaweed").nodes(n_max)):
        yield SeaweedWord(word), BiComposition(Composition(plus), Composition(minus))


def generate_deficiency(t: int, n_max: int) -> Iterator[tuple[int, int, BiComposition]]:
    """Frobenius pairs with sum n <= n_max and at least n + 1 - t total parts.

    Same closure as :func:`generate_frobenius`, but pruned on the running
    deficiency tau(w) + sum(increment - 1), which equals n + 1 - p of the
    current pair and never decreases.  Every visited pair is therefore
    emitted, annotated as (n, p, pair), and the stream is exactly the
    deficiency <= t slice of the full generator's output.
    """
    for (plus, minus), n, _, _ in _kind("seaweed").nodes(n_max, t):
        yield n, len(plus) + len(minus), BiComposition(Composition(plus), Composition(minus))


def generate_frobenius_p(epsilon: int, n_max: int) -> Iterator[tuple[ParabolicWord, Composition]]:
    """Every Frobenius composition of parity ``epsilon`` with sum <= n_max.

    Depth-first closure of the parity seed in pre-order, children in
    :func:`~seaweeds.parabolic_words._child_moves_p` order; each
    composition comes with its unique word.  The odd seed (1) itself is
    not emitted -- the odd world starts at sum 3.  Reaching any
    composition twice raises :class:`~seaweeds.seaweed_words.CollisionError`.
    """
    for word, (a,) in _worded(_parity(epsilon).nodes(n_max)):
        yield ParabolicWord(word), Composition(a)


def generate_deficiency_p(
    epsilon: int, t: int, n_max: int
) -> Iterator[tuple[int, int, Composition]]:
    """Frobenius compositions of parity ``epsilon`` with high part counts.

    Emits (n, p, composition) for every Frobenius composition of sum
    n = 2k + epsilon <= n_max whose part count satisfies p >= k + 1 - t.
    Pruned on the running deficiency tau(w) + sum(increment/2 - 1), which
    equals k + 1 - p of the current composition and never decreases.
    """
    for (a,), n, _, _ in _parity(epsilon).nodes(n_max, t):
        yield n, len(a), Composition(a)


def _readable_depth(parts: tuple, r: int, depth: int) -> int:
    """The index past the parts of ``parts`` from ``depth`` on whose running
    sum stays <= ``r``: T letters on one side read its parts after the first
    one by one, each at a deficiency cost of at least the part it reads."""
    size = len(parts)
    while depth < size:
        r -= parts[depth]
        if r < 0:
            break
        depth += 1
    return depth


def _readable_side(side: tuple, r: int) -> tuple:
    """One side of a pair, or a composition's front, as a subtree with budget
    ``r`` reads it: the first part capped at r + 2, then the parts while
    their running sum is <= r."""
    depth = _readable_depth(side, r, 1)
    if side[0] <= r + 2:
        return side[:depth]
    return (r + 2,) + side[1:depth]


def _block_arcs(n_max: int) -> list[list[list[int]]]:
    """block[lo][size]: the partners of positions lo..lo+size-1 under one block
    of that size placed at lo, i -> 2 lo + size - 1 - i, so its bare middle
    vertex is its own partner, for lo + size <= n_max.  An entry depends on
    lo and size alone, so one table serves every sum up to n_max."""
    return [[list(range(lo + size - 1, lo - 1, -1)) for size in range(n_max - lo + 1)]
            for lo in range(n_max + 1)]


def _census_sides(
    n: int, odd: int, block: list[list[list[int]]],
    reversal_representatives: bool = False, skip_mirrored_cuts: bool = False,
) -> Iterator[tuple[list[int], int, int]]:
    """The compositions of ``n`` with exactly ``odd`` odd parts, in the order of
    :func:`~seaweeds.compositions.iter_compositions`, as
    (partners, cuts, mirrored); ``block`` is a :func:`_block_arcs` table
    for a sum of at least n.

    One explicit-stack walk writes each block's arcs into the one list
    ``partners`` as the block is placed, so a prefix shared by many
    compositions is written once.  The list is complete at each yield and
    rewritten after it: a caller that keeps it must copy it.  ``cuts`` has
    bit s - 1 set for each proper partial sum s, and ``mirrored`` bit
    n - s - 1 (the cuts of the reversed composition).  The bare middle
    vertex of each odd block is its own partner in ``partners``, and the
    number of parts is one more than the number of cuts.

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
    cuts are known once the part ending at the larger one is chosen, so
    that part is never pushed and the prefix's whole subtree is dropped.
    """
    if odd < 0 or odd > n or (n - odd) % 2:
        return
    partners = [-1] * n
    # any first size leaves room for the odd parts owed: up to n - odd + 1
    # while one is owed, else the even sizes; floor is the smallest last part
    stack = [(0, size, odd - (size & 1), 0, 0, size if reversal_representatives else 1)
             for size in (range(n - odd + 1, 0, -1) if odd else range(n, 0, -2))]
    while stack:
        lo, size, left, cuts, mirrored, floor = stack.pop()
        hi = lo + size
        rest = n - hi
        partners[lo:hi] = block[lo][size]
        if not rest:
            yield partners, cuts, mirrored
            continue
        cuts |= 1 << (hi - 1)
        mirrored |= 1 << (rest - 1)
        if left <= 1 and rest >= floor:  # rest as the last part has the owed parity
            stack.append((hi, rest, 0, cuts, mirrored, floor))
        room = rest - floor  # the largest part that is not the last
        # a part that is not the last makes a new cut hi + size, whose mirror
        # rest - size >= floor > 0; past n/2, that mirror may be a cut already
        stack += [(hi, size, left - (size & 1), cuts, mirrored, floor)
                  for size in (range(min(room, rest - left + 1), 0, -1) if left
                               else range(room - (room & 1), 0, -2))
                  if not (skip_mirrored_cuts and rest - size < hi + size
                          and cuts >> (rest - size - 1) & 1)]


class CountTable(_Value):
    """Counts per (sum, parts); entries hold positive counts only."""

    __slots__ = _fields = ("kind", "method", "entries")

    def __init__(self, kind: str, method: str, entries: Optional[dict] = None):
        super().__init__(kind, method, {} if entries is None else entries)

    def count(self, n: int, p: int) -> int:
        return self.entries.get((n, p), 0)

    def total(self, n: int) -> int:
        return sum(c for (m, _), c in self.entries.items() if m == n)

    def to_csv(self) -> str:
        lines = ["n,p,count"]
        lines.extend(f"{n},{p},{c}" for (n, p), c in sorted(self.entries.items()))
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
    (n) for compositions.  Such a graph is Frobenius exactly when sigma =
    tau- . tau+ is one n-cycle (see :mod:`~seaweeds.meander`), that is,
    when the sigma orbit of vertex 0 (:func:`~seaweeds.meander.orbit_size`)
    has all n vertices.

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
    _check_bounds(n_max, None)
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


def generated_table(kind: str, n_max: int) -> CountTable:
    """Free-monoid generation, tallied by (sum, parts).

    The seaweed search walks one swap half and counts each node but the
    seed twice (:meth:`_Kind.tally`); a repeat in either half raises
    :class:`~seaweeds.seaweed_words.CollisionError`, as the ``halve``
    argument of :func:`~seaweeds.seaweed_words._search` shows."""
    return CountTable(kind, "generated", _kind(kind).tally(n_max, None))


def deficiency_table(kind: str, t: int, n_max: int) -> CountTable:
    """Pruned generation: only objects within deficiency t of the part ceiling,
    tallied like :func:`generated_table`; the side swap keeps deficiencies."""
    return CountTable(kind, "deficiency", _kind(kind).tally(n_max, t))


class _Automaton:
    """The truncated-state graph of one kind under the deficiency bound t,
    the first half of :func:`diagonal_counts`.

    ``nodes[id]`` is the (truncated state, deficiency) pair with that
    small int id; id 0 is the kind's seed at deficiency 0.
    ``children[id]`` is the node's list of (step, child id), the step
    being the sum increment in units, or None until :meth:`listing` lists
    it.  No node's budget exceeds unit*(t + 1), so a graph whose every
    node is listed with that room is the window-free one."""

    __slots__ = ("kind", "t", "moves", "nodes", "ids", "children")

    def __init__(self, kind: _Kind, t: int):
        self.kind, self.t, self.moves = kind, t, kind.moves
        self.nodes: list[tuple[tuple, int]] = [(kind.seed, 0)]
        self.ids = {self.nodes[0]: 0}
        self.children: list[Optional[list[tuple[int, int]]]] = [None]

    def listing(self, node: int, room: int) -> list[tuple[int, int]]:
        """The children of ``node``, listed with the budget
        min(room, unit*(t - d + 1)) and kept in ``children[node]``.  A caller
        lists each node once, while ``children[node]`` is None, and reads
        the kept list after that."""
        kind, t, nodes, ids, children = self.kind, self.t, self.nodes, self.ids, self.children
        unit = kind.unit
        state, deficit = nodes[node]
        budget = unit * (t - deficit + 1)
        kids = children[node] = []
        for l, child, inc in self.moves(*state, min(room, budget)):
            step = inc // unit
            child_deficit = deficit + step - 1 + (l.family == "T")
            if child_deficit <= t:
                key = (kind.truncate(child, t - child_deficit), child_deficit)
                kid = ids.get(key)
                if kid is None:
                    kid = ids[key] = len(nodes)
                    nodes.append(key)
                    children.append(None)
                kids.append((step, kid))
        return kids


def diagonal_counts(kind: str, t: int, n_max: int) -> dict[int, dict[int, int]]:
    """Objects of every deficiency d <= t, by d and then by sum n <= n_max,
    counted without enumerating them; a diagonal with no object is absent.

    Truncation lemma: a node at deficiency d has the budget r = t - d
    left, and each letter spends its deficiency step, (m+1)*a1 - 1 for an
    S letter and m*a1 + (m+1)*a2 >= a2 for a T letter, for pairs and
    compositions alike.  So its subtree reads only these parts
    (:meth:`_Kind.truncate`):

    * First part: an S letter fits only when a1 <= r + 1, so a1 is
      capped at r + 2.  A larger a1 changes no fitting move, and no child
      can read it: a first part built from it stays above the child's
      cap, and pushed to depth 2 it exceeds the child's budget.
    * Deeper parts of a side: a part at depth j >= 2 is read only as the
      a2 of a T letter on its own side, after that side's T letters have
      consumed every part in front of it, at a cost of at least
      a2 + ... + aj.  Letters on the other side only push parts deeper.
      So parts are kept while their running sum from a2 stays <= r.
    * Compositions: the front is read by the two rules above, as a pair
      side is.  Only two things are their own: a tilde letter brings the
      last part to depth 2, so the same running sum also walks in from
      the back (ak + ak-1 + ... <= r), and one wall part of value r + 1
      replaces a dropped middle, so that neither walk can read across it.
    * The budget only shrinks: r never grows along a path, so a dropped
      part never becomes readable again, and a wall stays unreadable.

    Swap lemma: the minus letters are the plus letters conjugated by the
    side swap, so the moves of a swapped pair are the mirrored moves, with
    the same increments and families, and truncation commutes with the
    swap.  A pair and its swap therefore have subtrees with the same sums
    and deficiencies, and :meth:`_Kind.truncate` puts a pair's sides in a
    canonical order.  The seaweed states number 64, 246, 814 and 2,386
    for t <= 4, 6, 8 and 10; without the merge a state and its swap count
    twice unless they are equal.

    Nodes are therefore kept truncated and merged, with multiplicities,
    per (truncated state, deficiency), in two halves:

    * :class:`_Automaton`, the graph: each (truncated state, deficiency)
      gets a small int id, and each node's children are listed once, as
      (step in units, child id), with the budgets and deficiency steps of
      the pruned search;
    * the count below, level by sum: the levels are one list indexed by
      (n - seed sum) / unit, each a dict {node: multiplicity} made on its
      first push, popped in increasing order up to the window's last;
      each node adds its multiplicity to its diagonal at n and pushes it
      to each of its children.

    The deficiency never decreases, so every node of deficiency d <= t is
    visited under the bound t, and one count yields every diagonal up to
    t.  A node is listed on its first visit, when the room left is the
    largest it will get, with the budget min(room, unit*(t - d + 1)); that
    room is the count's one window rule.  At every later sum the whole
    list is pushed again: a child whose step runs past the window, a move
    the smaller room would drop, lands in a level past the window, which
    is never read.  A node first met at level i is listed with room
    size - 1 - i units, size being the window's levels, and a budget of at
    most t + 1 units, so such a child lands at most min(t + 1, size - 1)
    levels past the window, and the list is padded by min(t + 1, size).

    Certificate (argued here, checked by ``tests/test_certificate.py``):
    list every node of the graph under the bound d with the room
    unit*(d + 1), which no budget exceeds.  For seaweed d <= 10 and
    parabolic d <= 8 that graph is acyclic but for d + 1 self-loops, one
    per deficiency 0..d, each one edge of step 1.  An object of
    deficiency d is then a walk from the seed to a node of deficiency d:
    a loop-free path P, of step sum w(P) through c(P) loop nodes, with any
    number of turns around each of those loops.  So the diagonal's
    generating function, in x per unit step, is N(x)/(1 - x)^C, with
    N(x) the sum over P of x^w(P) (1 - x)^(C - c(P)), C the most loop
    nodes on one path and deg N <= W + C, W the largest w(P).  Its
    coefficients are one polynomial of degree C - 1 from W + 1 steps past
    the seed on: at every index k >= k_seed + W + 1, with k_seed = 1, 1
    and 0, the seed's index, for seaweed, parabolic-even and
    parabolic-odd.  C came out as floor(d/2) + 1, the fits' degree plus
    one, so the C counts from k_seed + W + 1 on prove a fit; seaweed d = 4
    is certain from k = 17 and needs a window to 19.

    The count reads the deficiency only: it equals n + 1 - p for pairs
    and k + 1 - p for compositions of sum 2k + eps.
    """
    _check_bounds(n_max, t)
    spec = _kind(kind)
    graph = _Automaton(spec, t)
    unit, first, nodes, children = spec.unit, spec.first_sum, graph.nodes, graph.children
    total = sum(spec.seed[0])
    size = (n_max - total) // unit + 1  # the window's levels
    # a push lands at most min(t + 1, size - 1) levels past the window
    levels: list[Optional[dict[int, int]]] = [{0: 1}] + [None] * (size - 1 + min(t + 1, size))
    counts: dict[int, dict[int, int]] = {}
    for i in range(size):
        level = levels[i]
        if level is None:
            continue
        levels[i] = None  # a popped level is never pushed to again
        n = total + unit * i
        for node, mult in level.items():
            if n >= first:
                deficit = nodes[node][1]
                diagonal = counts.get(deficit)
                if diagonal is None:
                    diagonal = counts[deficit] = {}
                diagonal[n] = diagonal.get(n, 0) + mult
            kids = children[node]
            if kids is None:
                kids = graph.listing(node, n_max - n)
            for step, kid in kids:
                target = levels[i + step]
                if target is None:
                    levels[i + step] = {kid: mult}
                else:
                    target[kid] = target.get(kid, 0) + mult
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


class PolyFit(_Value):
    """A polynomial matching a counting sequence from some point on.

    ``coefficients`` are exact rationals in the monomial basis, constant
    term first.  ``stable_from`` is the smallest index n in the window
    such that the polynomial equals the raw counts for every n' >= n up
    to the window's end.  The fields are ``t: int``, ``degree: int``,
    ``coefficients: tuple[Fraction, ...]``, ``stable_from: int``,
    ``window: tuple[int, int]`` and ``epsilon: Optional[int] = None``.
    """

    __slots__ = _fields = ("t", "degree", "coefficients", "stable_from", "window", "epsilon")
    _defaults = {"epsilon": None}

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
    """Human form, highest power first: (20, 2) -> ``2T+20``.  Each
    coefficient is read as a ``Fraction`` (ints, floats and strings such
    as ``"-3/4"`` too) and written from its numerator and denominator."""
    terms = []
    for power in range(len(coefficients) - 1, -1, -1):
        c = Fraction(coefficients[power])
        num, den = c.numerator, c.denominator
        if not num and (power or terms):
            continue
        mag = str(abs(num)) if den == 1 else f"{abs(num)}/{den}"
        if power:  # a coefficient of 1 is not written before T
            mag = ("" if mag == "1" else mag) + ("T" if power == 1 else f"T^{power}")
        terms.append(("-" if num < 0 else "+" if terms else "") + mag)
    return "".join(terms)


def _fit_orders(t: int, length: int) -> tuple[int, int]:
    """The difference order d + 1 that a deficiency-t fit takes, d = floor(t/2),
    and the number of trailing differences it checks; raises ValueError for
    a negative t, and :class:`UnstableSequence` when ``length`` values are
    too few for both.  The verdict needs only t and the window's length,
    not its counts."""
    if t < 0:
        raise ValueError(f"deficiency bound must be >= 0, got {t}")
    order, guard = t // 2 + 1, max(5, t + 2)
    if length < order + guard:
        raise UnstableSequence(
            f"window of {length} values is too short to certify a "
            f"degree-{order - 1} tail (need {order + guard} values)"
        )
    return order, guard


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
    form).  The expansion stays in integers scaled by d!: with y = x - x0,
    V_d = heads[d] and V_k = heads[k] * d!/k! + (y - k) * V_{k+1}, so
    V_0 = d! * P has integer coefficients, and each monomial coefficient
    is one ``Fraction(c, d!)``.  ``stable_from`` is
    one past the last nonzero order-(d + 1) difference, or ``n_start`` if
    none is nonzero: a zero difference at j, with the d + 1 values after
    j on P, puts the value at j on P, and a nonzero one puts it off P.
    A negative t, or a count that is not integral (``2.0``,
    ``Fraction(4)`` and ``True`` are; ``2.5``, ``"3"``, None, NaN and
    infinities are not), raises ValueError before any differencing, the
    latter naming the first such count and its index.
    """
    d = t // 2
    raw, values = list(seq), []
    try:  # values stops at the first count that int() refuses: inf, nan, None, "x"
        for v in raw:
            values.append(int(v))
    except (TypeError, ValueError, OverflowError):
        pass
    if values != raw:
        i = next((i for i, (v, w) in enumerate(zip(raw, values)) if v != w), len(values))
        raise ValueError(f"counts must be integers, got {raw[i]!r} at index {i}")
    # checked before differencing, which would take order passes
    order, guard = _fit_orders(t, len(values))
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
    # d! times the Newton form, expanded Horner-style: times (x - x0 - k), plus heads[k] * d!/k!
    coeffs, scale = [heads[d]], 1
    for k in range(d - 1, -1, -1):
        scale *= k + 1
        root = n_start + x0 + k
        coeffs = [hi - root * lo for lo, hi in zip(coeffs + [0], [0] + coeffs)]
        coeffs[0] += heads[k] * scale
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return PolyFit(
        t=t,
        degree=len(coeffs) - 1,
        coefficients=tuple(Fraction(c, scale) for c in coeffs),
        stable_from=stable_from,
        window=(n_start, n_start + len(values) - 1),
        epsilon=epsilon,
    )


# the published cases, by report row: ((kind, t), coefficients, constant first)
_REPORT_ROWS: tuple[tuple[str, tuple], ...] = (
    ("P_0", ((("seaweed", 0), (2,)),)),
    ("P_1", ((("seaweed", 1), (8,)),)),
    ("P_2", ((("seaweed", 2), (20, 2)),)),
    ("P_3", ((("seaweed", 3), (4, 12)),)),
    ("P_4", ((("seaweed", 4), (-138, 33, 1)),)),
    ("P_{e,0}", ((("parabolic-even", 0), (2,)), (("parabolic-odd", 0), (2,)))),
    ("P_{0,1}", ((("parabolic-even", 1), (12,)),)),
    ("P_{1,1}", ((("parabolic-odd", 1), (6,)),)),
    ("P_{1,2}", ((("parabolic-odd", 2), (12, 2)),)),
)

EXPECTED_COEFFS: dict[tuple[str, int], tuple[int, ...]] = {
    case: coefficients for _, cases in _REPORT_ROWS for case, coefficients in cases
}


class VerifyRow(_Value):
    """One row of the published-forms report: ``name: str``,
    ``matched: bool``, ``details: tuple[str, ...]`` and
    ``fits: tuple[Optional[PolyFit], ...]``."""

    __slots__ = _fields = ("name", "matched", "details", "fits")


class VerifyReport(_Value):
    """The published-forms report: ``rows: tuple[VerifyRow, ...]``."""

    __slots__ = _fields = ("rows",)

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
    sequences: dict[tuple[str, int], list[int]] = {}
    for kind in KINDS:
        spec = _kind(kind)
        t = max(bound for k, bound in EXPECTED_COEFFS if k == kind)  # largest published t
        window = range(1, (seaweed_n_max if spec.epsilon is None else parabolic_n_max) + 1)
        counts = diagonal_counts(kind, t, spec.sum_at(window[-1])) if window else {}
        for d in range(t + 1):
            sequences[kind, d] = spec.sequence(counts.get(d, {}), window)
    rows = []
    for name, cases in _REPORT_ROWS:
        details = []
        fits: list[Optional[PolyFit]] = []
        matched = True
        for (kind, t), coefficients in cases:
            try:
                fit = fit_polynomial(sequences[kind, t], t, n_start=1, epsilon=_kind(kind).epsilon)
            except UnstableSequence as err:
                fits.append(None)
                matched = False
                details.append(f"{kind} t={t}: no stable fit ({err})")
                continue
            fits.append(fit)
            ok = fit.coefficients == coefficients
            matched = matched and ok
            details.append(
                f"{kind} t={t}: fit {poly_str(fit.coefficients)}"
                f"{'' if ok else ' (expected ' + poly_str(coefficients) + ')'}"
                f", stable from n={fit.stable_from}, window {fit.window[0]}..{fit.window[1]}"
            )
        rows.append(VerifyRow(name, matched, tuple(details), tuple(fits)))
    return VerifyReport(tuple(rows))
