"""Independent ground truth for small instances.

`verify_coloring` is the full-scan checker used to validate algorithm
output, and `exact_chromatic_index` computes the true chromatic index by
exhaustive backtracking. Deciding between max_degree and max_degree + 1 is
NP-complete in general, so the exact search is capped by edge count and
meant for desk-scale validation only. Neither function consults the main
algorithm in any way.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .errors import DimensionMismatchError, TooLargeError
from .graph import Graph

if TYPE_CHECKING:  # `cli` imports this module in every process
    from .coloring import EdgeColoring, Verdict

DEFAULT_MAX_EDGES = 25


def verify_coloring(g: Graph, coloring: EdgeColoring) -> Verdict:
    """Check a coloring against `g`: structure, properness, completeness, bound."""
    if coloring.graph.n != g.n:
        raise DimensionMismatchError(
            f"coloring is over {coloring.graph.n} vertices, graph has {g.n}"
        )
    if coloring.graph is not g and coloring.graph != g:
        raise DimensionMismatchError("coloring belongs to a different graph")
    return coloring.is_proper()


def backtrack_color(
    g: Graph, k: int, max_edges: int = DEFAULT_MAX_EDGES
) -> EdgeColoring | None:
    """A complete proper k-edge-coloring of `g`, or None if none exists.

    Exhaustive backtracking over edges in canonical order; the first edge is
    pinned to color 0 (colors are interchangeable, so this loses nothing).
    Worst-case cost is k**m, hence the edge cap.
    """
    edges = g.edge_set()
    m = len(edges)
    if m > max_edges:
        raise TooLargeError(
            f"{m} edges exceeds the exact-search cap of {max_edges}"
        )
    from .coloring import EdgeColoring

    if k < 1:
        return EdgeColoring(g, 1) if m == 0 else None

    incident: list[set[int]] = [set() for _ in range(g.n)]
    assignment: list[int] = [0] * m

    def place(i: int) -> bool:
        if i == m:
            return True
        u, v = edges[i]
        choices = range(1) if i == 0 else range(k)
        for col in choices:
            if col in incident[u] or col in incident[v]:
                continue
            incident[u].add(col)
            incident[v].add(col)
            assignment[i] = col
            if place(i + 1):
                return True
            incident[u].remove(col)
            incident[v].remove(col)
        return False

    if not place(0):
        return None
    witness = EdgeColoring(g, k)
    for (u, v), col in zip(edges, assignment):
        witness.set_edge_color(u, v, col)
    return witness


def exact_chromatic_index(g: Graph, max_edges: int = DEFAULT_MAX_EDGES) -> int:
    """The least k admitting a complete proper k-edge-coloring; 0 if edgeless.

    Only k = max_degree and k = max_degree + 1 are tried: the first is a
    lower bound (a vertex's edges need pairwise distinct colors) and one of
    the two must succeed. Raises TooLargeError beyond the edge cap.
    """
    if g.m == 0:
        return 0
    delta = g.max_degree()
    if backtrack_color(g, delta, max_edges) is not None:
        return delta
    if backtrack_color(g, delta + 1, max_edges) is None:
        raise AssertionError(
            "no (max_degree + 1)-edge-coloring found; the search is broken"
        )
    return delta + 1
