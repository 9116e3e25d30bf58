"""Meander graphs and the index of seaweed subalgebras of sl_n.

The meander graph of a bicomposition (a+, a-) has vertices 1..n.  Each
block of a+ spanning positions l..r contributes nested "top" arcs
{l, r}, {l+1, r-1}, ...; the middle vertex of an odd block is left bare.
Blocks of a- contribute "bottom" arcs the same way.  Every vertex meets
at most one top and one bottom arc, so the connected components are
simple paths (isolated vertices count as one-vertex paths) and cycles.

The index of the seaweed subalgebra attached to (a+, a-) is

    2 * cycles + paths - 1.

The formula is pinned by invariants rather than taken on faith: the full
algebra ((n),(n)) must come out with index n-1 (the rank of sl_n), the
index must be invariant under swapping the two sides and under reversing
both, every operator letter must preserve it, and "index zero" must agree
exhaustively with the generator route on small sums.  The test suite
checks all of these; a discrepancy is a reportable finding, not something
to patch silently.

Frobenius means index zero, equivalently the graph is one single path.
"""

from __future__ import annotations

from dataclasses import dataclass

from .compositions import BiComposition, Composition


def partner_array(parts, n: int) -> tuple[int, ...]:
    """Partner vertex of each position 0..n-1 under one layer of arcs.

    Entry -1 marks a bare vertex.  This flat form is what the exhaustive
    counting loops consume; ``build_meander`` dresses it up as arc sets.
    """
    nbr = [-1] * n
    lo = 0
    for part in parts:
        hi = lo + part - 1
        for i in range(part // 2):
            nbr[lo + i] = hi - i
            nbr[hi - i] = lo + i
        lo = hi + 1
    if lo != n:
        raise ValueError(f"parts {parts!r} do not sum to {n}")
    return tuple(nbr)


def component_counts(top: tuple[int, ...], bot: tuple[int, ...]) -> tuple[int, int]:
    """(cycles, paths) of the meander graph given by two partner arrays.

    One pass of union-find over the arcs, with path halving.  Every vertex
    meets at most one arc per layer, so every component is a path or a
    cycle: a path of v vertices has v - 1 arcs and a cycle v.  Hence each
    cycle has exactly one arc whose ends are already joined when it comes,
    so cycles = such arcs, and paths = n - successful joins - cycles.
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


def path_size(top: tuple[int, ...], bot: tuple[int, ...], end: int) -> int:
    """Number of vertices on the path component that ends at vertex ``end``.

    ``end`` must be bare in at least one layer (a path end, or an isolated
    vertex); the walk leaves it through its one arc and alternates layers
    until it reaches the other end.  When the graph has n - 1 arcs it is
    one path plus cycles, so it is one single path (Frobenius) exactly
    when this returns n.
    """
    layer, other = (bot, top) if top[end] < 0 else (top, bot)
    if other[end] >= 0:
        raise ValueError(f"vertex {end} has an arc in both layers; it ends no path")
    size = 1
    v = layer[end]
    while v >= 0:
        size += 1
        layer, other = other, layer
        v = layer[v]
    return size


@dataclass(frozen=True)
class MeanderGraph:
    """Meander graph on vertices 1..n with top and bottom arc sets."""

    n: int
    top_arcs: frozenset[tuple[int, int]]
    bottom_arcs: frozenset[tuple[int, int]]

    def __post_init__(self):
        for arcs in (self.top_arcs, self.bottom_arcs):
            touched = set()
            for u, v in arcs:
                if u == v:
                    raise ValueError(f"arc pairs a vertex with itself: {(u, v)}")
                if not (1 <= u <= self.n and 1 <= v <= self.n):
                    raise ValueError(f"arc {(u, v)} leaves the vertex range 1..{self.n}")
                if u in touched or v in touched:
                    raise ValueError(f"vertex reused within one layer by arc {(u, v)}")
                touched.update((u, v))


@dataclass(frozen=True)
class ComponentCensus:
    """Connected-component tally: cycle components and path components."""

    cycles: int
    paths: int


def build_meander(a: BiComposition) -> MeanderGraph:
    """Meander graph of a bicomposition: top arcs from plus, bottom from minus."""
    n = a.total
    top = partner_array(a.plus.parts, n)
    bot = partner_array(a.minus.parts, n)
    top_arcs = frozenset((u + 1, v + 1) for u, v in enumerate(top) if v > u)
    bottom_arcs = frozenset((u + 1, v + 1) for u, v in enumerate(bot) if v > u)
    return MeanderGraph(n, top_arcs, bottom_arcs)


def census(g: MeanderGraph) -> ComponentCensus:
    """Classify the components of a meander graph."""
    top = [-1] * g.n
    bot = [-1] * g.n
    for arr, arcs in ((top, g.top_arcs), (bot, g.bottom_arcs)):
        for u, v in arcs:
            arr[u - 1] = v - 1
            arr[v - 1] = u - 1
    cycles, paths = component_counts(tuple(top), tuple(bot))
    return ComponentCensus(cycles=cycles, paths=paths)


def index_of_parts(plus: tuple[int, ...], minus: tuple[int, ...], n: int) -> int:
    """Index from raw part tuples; fast path for the exhaustive oracles."""
    cycles, paths = component_counts(partner_array(plus, n), partner_array(minus, n))
    return 2 * cycles + paths - 1


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
    depth gets its own line, outermost arc highest/lowest.
    """
    col = {v: 2 * (v - 1) for v in range(1, g.n + 1)}
    width = 2 * g.n - 1

    def arc_rows(arcs, opening, closing):
        by_depth: dict[int, list[tuple[int, int]]] = {}
        for u, v in arcs:
            u, v = min(u, v), max(u, v)
            depth = sum(1 for x, y in arcs if min(x, y) < u and max(x, y) > v)
            by_depth.setdefault(depth, []).append((u, v))
        rows = []
        for depth in sorted(by_depth):
            row = [" "] * width
            for u, v in by_depth[depth]:
                row[col[u]] = opening
                row[col[v]] = closing
                for c in range(col[u] + 1, col[v]):
                    row[c] = "-"
            rows.append("".join(row).rstrip())
        return rows

    vertex_row = " ".join(str(v % 10) for v in range(1, g.n + 1))
    top_rows = arc_rows(g.top_arcs, "/", "\\")
    bottom_rows = arc_rows(g.bottom_arcs, "\\", "/")
    lines = top_rows + [vertex_row] + bottom_rows[::-1]
    return "\n".join(lines) + "\n"
