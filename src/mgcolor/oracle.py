"""Independent ground truth for small instances.

`verify_coloring` is the full-scan checker used to validate algorithm
output, and `exact_chromatic_index` computes the true chromatic index by
exhaustive backtracking. Deciding between max_degree and max_degree + 1 is
NP-complete in general, so the exact search is capped by edge count and
meant for desk-scale validation only. Neither function consults the main
algorithm in any way. The exact search does not touch `EdgeColoring` at
all: it reads only the graph and returns its witness as a plain tuple of
colors, so the `oracle` command never compiles `coloring.py`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .errors import BadParamsError, DimensionMismatchError, InvalidColorError, TooLargeError
from .graph import Graph

if TYPE_CHECKING:  # `cli` imports this module in every process
    from .certify import Verdict
    from .coloring import EdgeColoring

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
) -> tuple[int, ...] | None:
    """A complete proper k-edge-coloring of `g`, or None if none exists.

    The witness is one color per edge of `g.edge_set()`, in that order: the
    lexicographically first proper assignment. Exhaustive backtracking over
    the edges, colors lowest first; an edge may take a color no earlier edge
    has used only if it is the lowest such color. Relabeling any solution by
    first use makes it smaller, so this loses nothing and tries each
    coloring once up to relabeling. Worst-case cost is k**m, hence the edge
    cap, which must be nonnegative. The witness is re-checked before it is
    returned.
    """
    if max_edges < 0:
        raise BadParamsError(f"edge cap must be nonnegative, got {max_edges}")
    edges = g.edge_set()
    m = len(edges)
    if m > max_edges:
        raise TooLargeError(
            f"{m} edges exceeds the exact-search cap of {max_edges}"
        )
    incident: list[set[int]] = [set() for _ in range(g.n)]
    assignment: list[int] = [0] * m

    def place(i: int, opened: int) -> bool:
        if i == m:
            return True
        u, v = edges[i]
        at_u, at_v = incident[u], incident[v]
        for col in range(min(k, opened + 1)):
            if col in at_u or col in at_v:
                continue
            at_u.add(col)
            at_v.add(col)
            assignment[i] = col
            if place(i + 1, opened + (col == opened)):
                return True
            at_u.remove(col)
            at_v.remove(col)
        return False

    if not place(0, 0):
        return None
    seen: set[tuple[int, int]] = set()
    for (u, v), col in zip(edges, assignment):
        if not 0 <= col < k or (u, col) in seen or (v, col) in seen:
            raise InvalidColorError(
                f"exact search gave edge ({u}, {v}) color {col}, out of range "
                "or already at one of its ends"
            )
        seen.add((u, col))
        seen.add((v, col))
    return tuple(assignment)


def exact_chromatic_index(g: Graph, max_edges: int = DEFAULT_MAX_EDGES) -> int:
    """The least k admitting a complete proper k-edge-coloring; 0 if edgeless.

    Only k = max_degree and k = max_degree + 1 are tried: the first is a
    lower bound (a vertex's edges need pairwise distinct colors) and one of
    the two must succeed; on an edgeless graph the first is k = 0, which the
    empty witness meets. Raises TooLargeError beyond the edge cap, and
    BadParamsError for a negative cap.
    """
    delta = g.max_degree()
    if backtrack_color(g, delta, max_edges) is not None:
        return delta
    if backtrack_color(g, delta + 1, max_edges) is None:
        raise AssertionError(
            "no (max_degree + 1)-edge-coloring found; the search is broken"
        )
    return delta + 1
