"""Meander graphs and the index of seaweed subalgebras of sl_n.

The meander graph of a bicomposition (a+, a-) has vertices 1..n.  Each
block of a+ spanning positions l..r contributes nested "top" arcs
{l, r}, {l+1, r-1}, ...; the middle vertex of an odd block is left bare.
Blocks of a- contribute "bottom" arcs the same way.  Every vertex meets
at most one top and one bottom arc, so the connected components are
simple paths (isolated vertices count as one-vertex paths) and cycles.

The index of the seaweed subalgebra attached to (a+, a-) is

    2 * cycles + paths - 1.

Index queries count it as orbits(sigma) - 1, where sigma = tau- . tau+
and tau+ (tau-) is the involution that swaps the two ends of each top
(bottom) arc and fixes a bare vertex; :func:`partner_array` builds each
layer as that involution.  The components are the orbits of the group
<tau+, tau->, which acts on each as a dihedral group.  Number a
component's vertices along it, so that its arcs join neighbours and
alternate layers.  On a path of v vertices, sigma moves two steps along
it and turns at each end, so it visits the even positions one way and
the odd ones back: one v-cycle.
On a cycle of 2k vertices it moves the even positions two steps one way
and the odd positions two steps the other: two k-cycles.  Hence
orbits(sigma) = paths + 2 * cycles, and the orbit of one vertex
(:func:`orbit_size`) is all of a path or half of a cycle.  Union-find
over the arcs (:func:`component_counts`) counts the components
themselves; it serves :func:`census` and the tests' oracle, not the
index queries.

The formula is pinned by invariants rather than taken on faith: the full
algebra ((n),(n)) must come out with index n-1 (the rank of sl_n), the
index must be invariant under swapping the two sides and under reversing
both, every operator letter must preserve it, and "index zero" must agree
exhaustively with the generator route on small sums.  The test suite
checks all of these, and checks the orbit count against union-find; a
discrepancy is a reportable finding, not something to patch silently.

Frobenius means index zero, equivalently the graph is one single path.
"""

from __future__ import annotations

import sys
from bisect import bisect_left, insort
from typing import Sequence

from .compositions import BiComposition, Composition, _Value


def partner_array(parts, n: int) -> tuple[int, ...]:
    """Partner vertex of each position 0..n-1 under one layer of arcs.

    The layer is an involution of range(n): a block at positions lo..hi-1
    maps i to lo + hi - 1 - i, so the middle of an odd block, which meets
    no arc, is its own partner.  This flat form serves the index queries
    (:func:`index_of_parts`, which reads it as the involution tau of one
    side), ``build_meander``, which dresses it up as arc sets, and the
    tests' union-find sweeps; the census counts from
    ``counting._block_arcs`` instead.
    A sum above ``sys.maxsize``, or parts that do not sum to ``n``, are
    rejected before anything is allocated.  A block of two or more vertices
    is one extend from a range, a block of one vertex one append: O(n)
    C-level steps and O(1) interpreted steps per part.
    """
    if n > sys.maxsize:
        raise ValueError(f"sum {n} exceeds the largest supported sum {sys.maxsize}")
    if sum(parts) != n:
        raise ValueError(f"parts {parts!r} do not sum to {n}")
    nbr = []
    lo = 0
    for part in parts:
        hi = lo + part
        if part > 1:
            nbr += range(hi - 1, lo - 1, -1)
        else:
            nbr.append(lo)
        lo = hi
    return tuple(nbr)


def component_counts(top: Sequence[int], bot: Sequence[int]) -> tuple[int, int]:
    """(cycles, paths) of the meander graph given by two partner arrays.

    One pass of union-find over the arcs, with path halving.  Every vertex
    meets at most one arc per layer, so every component is a path or a
    cycle: a path of v vertices has v - 1 arcs and a cycle v.  Hence each
    cycle has exactly one arc whose ends are already joined when it comes,
    so cycles = such arcs, and paths = n - successful joins - cycles.
    An arc is read from its smaller end (``v > u``), so a bare vertex,
    its own partner, adds none.  It serves :func:`census` and the tests'
    oracle; the index queries count orbits instead (:func:`index_of_parts`).
    """
    n = len(top)
    parent = list(range(n))
    joins = cycles = 0
    for layer in (top, bot):
        for u, v in enumerate(layer):
            if v > u:
                while parent[u] != u:
                    parent[u] = u = parent[parent[u]]
                while parent[v] != v:
                    parent[v] = v = parent[parent[v]]
                if u == v:
                    cycles += 1
                else:
                    parent[v] = u
                    joins += 1
    return cycles, n - joins - cycles


def orbit_size(top: Sequence[int], bot: Sequence[int], v: int) -> int:
    """Length of the orbit of vertex ``v`` under sigma = tau- . tau+.

    That is the number of vertices of ``v``'s component when it is a
    path, and half of it when it is a cycle (see the module docstring).
    So the graph is one single path (Frobenius) exactly when this returns
    n, from any vertex: sigma is then one n-cycle.
    """
    size = 1
    w = bot[top[v]]
    while w != v:
        size += 1
        w = bot[top[w]]
    return size


class MeanderGraph(_Value):
    """Meander graph on vertices 1..n with top and bottom arc sets."""

    __slots__ = _fields = ("n", "top_arcs", "bottom_arcs")

    def __init__(
        self, n: int, top_arcs: frozenset[tuple[int, int]], bottom_arcs: frozenset[tuple[int, int]]
    ):
        for arcs in (top_arcs, bottom_arcs):
            touched = set()
            for u, v in arcs:
                if u == v:
                    raise ValueError(f"arc pairs a vertex with itself: {(u, v)}")
                if not (1 <= u <= n and 1 <= v <= n):
                    raise ValueError(f"arc {(u, v)} leaves the vertex range 1..{n}")
                if u in touched or v in touched:
                    raise ValueError(f"vertex reused within one layer by arc {(u, v)}")
                touched.update((u, v))
        super().__init__(n, top_arcs, bottom_arcs)


class ComponentCensus(_Value):
    """Connected-component tally: ``cycles: int`` cycle components and
    ``paths: int`` path components."""

    __slots__ = _fields = ("cycles", "paths")


def build_meander(a: BiComposition) -> MeanderGraph:
    """Meander graph of a bicomposition: top arcs from plus, bottom from minus."""
    n = a.total
    top = partner_array(a.plus.parts, n)
    bot = partner_array(a.minus.parts, n)
    top_arcs = frozenset((u + 1, v + 1) for u, v in enumerate(top) if v > u)
    bottom_arcs = frozenset((u + 1, v + 1) for u, v in enumerate(bot) if v > u)
    return MeanderGraph(n, top_arcs, bottom_arcs)


def census(g: MeanderGraph) -> ComponentCensus:
    """Classify the components of a meander graph: partner arrays that start
    as the identity, so a bare vertex is its own partner, then the arcs."""
    top = list(range(g.n))
    bot = list(range(g.n))
    for arr, arcs in ((top, g.top_arcs), (bot, g.bottom_arcs)):
        for u, v in arcs:
            arr[u - 1] = v - 1
            arr[v - 1] = u - 1
    cycles, paths = component_counts(top, bot)
    return ComponentCensus(cycles=cycles, paths=paths)


def index_of_parts(plus: tuple[int, ...], minus: tuple[int, ...], n: int) -> int:
    """Index from raw part tuples; every index query runs through it.

    The index is orbits(sigma) - 1 for sigma = tau- . tau+ (see the module
    docstring), where tau+ and tau- are the partner arrays of ``plus`` and
    ``minus``; each fixes its bare vertices, so a step is
    ``v = bot[top[v]]`` with no branch.  Each orbit is walked once from its
    smallest vertex, marking the vertices it meets in a ``bytearray``; each
    orbit starts at the first unmarked vertex, which ``bytearray.find``
    gives, searching on from the last start.  That is O(n) steps and n
    bytes beyond the two partner arrays; sigma itself is never built.

    Two blocks a side have a closed form: index(a, b | c, d) =
    gcd(a - c, n) - 1.  A block at positions lo..hi-1 maps i to
    lo + hi - 1 - i, so both blocks of (a, b) map i to a - 1 - i modulo n,
    their bare middles included, and tau+ and tau- are the reflections
    i -> a - 1 - i and i -> c - 1 - i of Z/n.  Then sigma is the rotation
    i -> i + c - a, whose gcd(c - a, n) orbits give the index.  One block
    is the case c = 0 (or n): index(a, b | n) = gcd(a, b) - 1, the
    Frobenius criterion of Coll, Giaquinto and Magnant, and (n | n) has
    index gcd(0, n) - 1 = n - 1.
    """
    top = partner_array(plus, n)
    bot = partner_array(minus, n)
    seen = bytearray(n)
    orbits = 0
    start = seen.find(0)
    while start >= 0:
        orbits += 1
        v = start
        while True:
            seen[v] = 1
            v = bot[top[v]]
            if v == start:
                break
        start = seen.find(0, start)
    return orbits - 1


def index_seaweed(a: BiComposition) -> int:
    """Index of the standard seaweed subalgebra attached to ``a``."""
    return index_of_parts(a.plus.parts, a.minus.parts, a.total)


def is_frobenius(a: BiComposition) -> bool:
    """True when the index is zero, i.e. the meander graph is one path."""
    return index_of_parts(a.plus.parts, a.minus.parts, a.total) == 0


def index_parabolic(a: Composition) -> int:
    """Index of the standard parabolic subalgebra of ``a``: the seaweed (a, (n))."""
    n = a.total
    return index_of_parts(a.parts, (n,), n)


# the largest ascii drawing rendered, in bytes; its bound grows as n^2
_ASCII_LIMIT = 2**26


def render(g: MeanderGraph, format: str) -> str:
    """Render a meander graph as Graphviz ``dot`` or a plain ``ascii`` diagram."""
    if format == "dot":
        return _render_dot(g)
    if format == "ascii":
        return _render_ascii(g)
    raise ValueError(f"unknown format {format!r}; expected 'dot' or 'ascii'")


def _render_dot(g: MeanderGraph) -> str:
    lines = ["graph meander {"]
    for v in range(1, g.n + 1):
        lines.append(f"  {v};")
    for u, v in sorted(g.top_arcs):
        lines.append(f'  {u} -- {v} [label="top"];')
    for u, v in sorted(g.bottom_arcs):
        lines.append(f'  {u} -- {v} [label="bottom"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _render_ascii(g: MeanderGraph) -> str:
    """Two-region arc diagram: top arcs above the vertex row, bottom below.

    One text column per vertex (vertices are printed mod 10); nesting
    depth gets its own line, outermost arc highest/lowest.  An arc's depth
    is the number of arcs that start left of it and end right of it,
    counted in one sweep by left end: no two arcs of a layer share a
    vertex, so those are the earlier arcs whose right end lies beyond its
    own.  The sweep keeps only the right ends of arcs still open, negated
    and ascending: an arc that ended left of u contains no later arc, so
    it is popped before the arc (u, v) is counted, crossing arcs included.
    Without crossings every end goes on at the back, and the sweep is
    linear after the sort.  Each row is filled in the layer's arc order.

    A line is at most 2n bytes with its newline, so the sweep bounds the
    drawing by its number of lines times 2n before any line is built; a
    bound above ``_ASCII_LIMIT`` bytes raises :class:`ValueError`.
    """
    width = 2 * g.n - 1

    def by_depth(arcs):
        spans = [(min(u, v), max(u, v)) for u, v in arcs]
        depth, ends = {}, []  # ends: minus the right ends of the open arcs
        for u, v in sorted(spans):
            while ends and -ends[-1] < u:
                ends.pop()
            depth[u, v] = bisect_left(ends, -v)
            insort(ends, -v)
        layers: dict[int, list[tuple[int, int]]] = {}
        for arc in spans:
            layers.setdefault(depth[arc], []).append(arc)
        return layers

    def arc_rows(layers, opening, closing):
        rows = []
        for d in sorted(layers):
            row = [" "] * width
            for u, v in layers[d]:  # vertex v sits in column 2v - 2
                row[2 * u - 2:2 * v - 1] = opening + "-" * (2 * (v - u) - 1) + closing
            rows.append("".join(row).rstrip())
        return rows

    top, bottom = by_depth(g.top_arcs), by_depth(g.bottom_arcs)
    size = (len(top) + 1 + len(bottom)) * 2 * g.n
    if size > _ASCII_LIMIT:
        raise ValueError(
            f"the ascii drawing of {g.n} vertices would take up to {size} bytes, "
            f"more than {_ASCII_LIMIT}; use --format dot"
        )
    vertex_row = " ".join(str(v % 10) for v in range(1, g.n + 1))
    lines = arc_rows(top, "/", "\\") + [vertex_row] + arc_rows(bottom, "\\", "/")[::-1]
    return "\n".join(lines) + "\n"
