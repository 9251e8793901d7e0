"""Alternating (Kempe) paths: the path checkers, construction, inversion.

An alternating path for colors (a, b) starting at x is a sequence of
distinct vertices whose consecutive edges are colored a, b, a, b, ...
Inverting a maximal path swaps a and b along it, which keeps the coloring
proper and swaps which of the two colors is free at x.
"""

from __future__ import annotations

from typing import NamedTuple

from .coloring import Color, EdgeColoring
from .errors import (
    InvariantError,
    NotMaximalError,
    PathInvariantError,
    PreconditionError,
)
from .graph import Edge


class AltPath(NamedTuple):
    """Colors (a, b) plus the vertex sequence; seq[0] is the start vertex."""

    a: int
    b: int
    seq: tuple[int, ...]


def check_path(coloring: EdgeColoring, path: AltPath) -> None:
    """Raise PathInvariantError unless `path` is a valid alternating path.

    Edge i of the path (from seq[i] to seq[i + 1]) must be colored a when i
    is even and b when i is odd.
    """
    seq = path.seq
    if not seq:
        raise PathInvariantError("path sequence is empty")
    if len(set(seq)) != len(seq):
        raise PathInvariantError(f"path sequence {seq} has duplicates")
    if path.a is None or path.b is None:
        raise PathInvariantError("path colors must be real colors")
    if path.a == path.b:
        raise PathInvariantError(f"path colors must differ, got {path.a} twice")
    for i in range(len(seq) - 1):
        if coloring.color_of(seq[i], seq[i + 1]) != (path.b if i % 2 else path.a):
            raise PathInvariantError(
                f"edges along {seq} do not alternate colors {path.a}, {path.b}"
            )


def maximal_path(
    coloring: EdgeColoring, a: int, b: int, x: int, debug: bool = False
) -> AltPath:
    """Maximal alternating (a, b)-path starting at x; b must be free on x.

    Extends [x] forward along the next color (a after an odd number of
    vertices, b after an even one) until that color is free on the last
    vertex. Properness allows one edge of each color at a vertex, so each
    step has at most one candidate. Forward maximality is full maximality
    here: b is free on x and properness allows at most one a-edge at x, and
    that edge (when present) is the path's first step, so the path can
    never be extended backwards either.
    """
    if a is None or b is None:
        raise PreconditionError("path colors must be real colors")
    if a == b:
        raise PreconditionError(f"path colors must differ, got {a} twice")
    if not coloring.is_free(x, b):
        raise PreconditionError(f"color {b} must be free on start vertex {x}")

    seq = [x]
    on_path = {x}
    while (z := coloring.neighbor(seq[-1], a if len(seq) % 2 else b)) is not None:
        if z in on_path:
            # Impossible while the coloring is proper; guard against loops.
            raise InvariantError(
                f"path extension revisited vertex {z}; coloring state is broken"
            )
        seq.append(z)
        on_path.add(z)
    path = AltPath(a, b, tuple(seq))
    if debug:
        check_path(coloring, path)
        if not is_maximal_path(coloring, path):
            raise NotMaximalError(f"constructed path {seq} is not maximal")
        for z in coloring.graph.adj[x]:
            if coloring.color_of(x, z) in (a, b) and z not in on_path:
                raise InvariantError(
                    f"backward extension exists at {x} via {z}; "
                    "one-sided construction assumption violated"
                )
    return path


def is_maximal_path(coloring: EdgeColoring, path: AltPath) -> bool:
    """True iff the color the next edge would need is free on the last vertex.

    That color is a when the path has an odd number of vertices, else b.
    """
    want = path.a if len(path.seq) % 2 else path.b
    return coloring.is_free(path.seq[-1], want)


def invert(coloring: EdgeColoring, path: AltPath, debug: bool = False) -> None:
    """Swap colors a and b along a maximal alternating path. In place.

    One pass front to back writes each path edge once, through the trusted
    `assign`, starting with b, which re-establishes alternation with the
    two colors swapped. Maximality is what makes the swap valid at the
    endpoints; debug mode checks it up front.

    Debug mode then journals the color each write replaced, checks the
    swap contract of `is_inverted` from that journal, and checks properness
    only on the rows of the path vertices, the only rows the inversion
    wrote. It assumes the coloring was proper before the call (as
    `extend_coloring` establishes with its first full scan), copies
    nothing, and costs O(the path vertices' degrees).
    """
    seq = path.seq
    if debug:
        check_path(coloring, path)
        if not is_maximal_path(coloring, path):
            raise NotMaximalError(f"cannot invert non-maximal path {seq}")
        replaced: dict[Edge, Color] = {}
        col, other = path.b, path.a
        for u, v in zip(seq, seq[1:]):
            replaced[(u, v) if u < v else (v, u)] = coloring.assign(u, v, col)
            col, other = other, col
        if not _swapped(coloring, path, replaced):
            raise InvariantError(f"inversion of {seq} violated the swap contract")
        if (bad := coloring.violation_at(seq)) is not None:
            raise InvariantError(f"inversion broke properness: {bad}")
        return
    col, other = path.b, path.a
    for i in range(len(seq) - 1):
        coloring.assign(seq[i], seq[i + 1], col)
        col, other = other, col


def is_inverted(
    before: EdgeColoring, after: EdgeColoring, path: AltPath
) -> bool:
    """Check that `after` is `before` with a and b swapped along `path`.

    Each path edge colored a must now be b and each one colored b must now
    be a; every other edge, on the path or off it, must keep its color.
    The edges that differ between the two colorings, with their colors in
    `before`, are the journal the swap contract is checked from; a debug
    `invert` checks the same contract from the colors its writes replaced.
    """
    replaced = {(u, v): before.color_of(u, v) for u, v in before.changed_edges(after)}
    return (
        before.graph.n == after.graph.n
        and before.palette == after.palette
        and _swapped(after, path, replaced)
    )


def _swapped(after: EdgeColoring, path: AltPath, replaced: dict[Edge, Color]) -> bool:
    """The swap contract, from a journal of the edges that may have changed.

    `replaced` maps such edges (u, v), u < v, to their color before; every
    other edge kept its color. Each path edge must now hold that color with
    a and b swapped (once per time the path crosses it), and every journal
    entry must be a path edge.
    """
    swap = {path.a: path.b, path.b: path.a}
    expected: dict[Edge, Color] = {}
    seq = path.seq
    for i in range(len(seq) - 1):
        u, v = sorted(seq[i : i + 2])
        old = expected.get((u, v), replaced.get((u, v), after.color_of(u, v)))
        expected[(u, v)] = swap.get(old, old)
    return replaced.keys() <= expected.keys() and all(
        after.color_of(u, v) == col for (u, v), col in expected.items()
    )
