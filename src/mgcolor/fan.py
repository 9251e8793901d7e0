"""Fans: construction of maximal fans and the color-rotation step.

A fan around a center x is a nonempty sequence of distinct neighbors
f_1..f_k of x such that the color of edge {x, f_(i+1)} is a real color that
is free on f_i. Rotating shifts each fan edge's color onto its predecessor
and gives the last fan edge a new color, which provably keeps the coloring
proper.

`maximal_fan` and `rotate_fan` check their call preconditions, then make
one trusted `EdgeColoring` call. Each tests the range of its two vertices
once, then reads the graph's neighbor lists and the edge map directly,
raising what `Graph.has_edge` and `EdgeColoring.color_of` would.
`extend_coloring(debug=True)` runs `check_fan` and `is_maximal_fan` on the
fans it builds and rotates. The checkers read the neighbor index, the edge
maps and the table directly, in one pass, and call none of the kernels
whose fans they certify.
"""

from __future__ import annotations

from typing import NamedTuple

from .coloring import Color, EdgeColoring
from .errors import (
    EdgeAlreadyColoredError,
    FanInvariantError,
    NotAnEdgeError,
    PreconditionError,
    VertexRangeError,
)


class Fan(NamedTuple):
    """Center vertex plus the ordered neighbor sequence f_1..f_k."""

    center: int
    seq: tuple[int, ...]

    def last(self) -> int:
        return self.seq[-1]


def maximal_fan(coloring: EdgeColoring, x: int, y: int) -> Fan:
    """Greedy maximal fan around x starting at y; {x, y} must be uncolored.

    `EdgeColoring.fan_extension` scans the neighbors of x in adjacency order
    and appends the first unused z whose edge color is free on the last fan
    vertex, until none is; uncolored edges, {x, y} among them, never do.
    """
    g = coloring.graph
    n = g.n
    if not 0 <= x < n:
        raise VertexRangeError(x, n)
    if not 0 <= y < n:
        raise VertexRangeError(y, n)
    # Scanned from y's side: the loop's x is the lower end, and in canonical
    # edge order, as `gen` writes it, a vertex lists its lower neighbors first.
    if x not in g.adj[y]:
        raise NotAnEdgeError(x, y)
    if coloring._colors[x].get(y) is not None:
        raise EdgeAlreadyColoredError(f"edge ({x}, {y}) is already colored")

    return tuple.__new__(Fan, (x, (y, *coloring.fan_extension(x, y, g.adj[x]))))


def check_fan(coloring: EdgeColoring, fan: Fan) -> None:
    """Raise FanInvariantError unless `fan` is a valid fan on `coloring`.

    In order: the sequence is nonempty and has no repeat; the center and
    then each fan vertex is in range (VertexRangeError) and a neighbor of
    the center, which one subset test of the neighbor index settles when
    all are; then, position by position, each fan edge but the first is
    colored, with a color free on the fan vertex before it, read from the
    center's edge map and the table. It raises what `Graph.has_edge`,
    `EdgeColoring.color_of` and `is_free` would.
    """
    g = coloring.graph
    x, seq = fan
    if not seq:
        raise FanInvariantError("fan sequence is empty")
    members = set(seq)
    if len(members) != len(seq):
        raise FanInvariantError(f"fan sequence {seq} has duplicates")
    n = g.n
    if not 0 <= x < n:
        raise VertexRangeError(x, n)
    at_x = (g._adj_index or g._index())[x]
    if not at_x.keys() >= members:  # the index holds vertices in range only
        f = next(f for f in seq if not (0 <= f < n and f in at_x))
        if not 0 <= f < n:
            raise VertexRangeError(f, n)
        raise FanInvariantError(f"fan vertex {f} is not a neighbor of {x}")
    cx = coloring._colors[x]
    nbr = coloring._nbr
    w = seq[0]
    for f in seq[1:]:
        col = cx.get(f)
        if col is None:
            raise FanInvariantError(f"fan edge ({x}, {f}) is uncolored but not first")
        # A table dropped by a fault is rebuilt, or refused, where `is_free`
        # would first have read it.
        row = (nbr or coloring._table())[w]
        if 0 <= col < len(row) and row[col] >= 0:
            raise FanInvariantError(f"color {col} of edge ({x}, {f}) is not free on {w}")
        w = f


def is_maximal_fan(coloring: EdgeColoring, fan: Fan) -> bool:
    """True iff no neighbor of the center outside the fan can be appended.

    A neighbor z extends the fan when {x, z} is colored with a color free
    on the last fan vertex. The center's colored edges are scanned against
    the last vertex's table row here, not through `fan_extension`, the
    kernel whose fans this certifies.
    """
    seq = fan.seq
    if not seq:
        raise FanInvariantError("fan sequence is empty")
    x, last = fan.center, seq[-1]
    g = coloring.graph
    n = g.n
    for v in (x, last):
        if not 0 <= v < n:
            raise VertexRangeError(v, n)
    cx = coloring._colors[x]
    row = (coloring._nbr or coloring._table())[last]
    members = set(seq)
    at_x = (g._adj_index or g._index())[x]
    for z, c in cx.items():
        # A colored non-edge, which only a fault writes, extends no fan.
        if row[c] < 0 and z not in members and z in at_x:
            return False
    return True


def rotate_fan(coloring: EdgeColoring, fan: Fan, color: Color) -> None:
    """Rotate the fan and color its last edge with `color`. In place.

    Each edge {x, f_i} (i < k) receives the old color of {x, f_(i+1)} and
    {x, f_k} receives `color`, which must be valid for it. The trusted
    `EdgeColoring.shift_fan` writes each edge once, from the back, so every
    intermediate state is proper: the displaced color has just been removed
    from x's edges and is free on the predecessor by the fan property. Only
    the uncolored first edge and the color's range, None or a table slot,
    are checked; the fan and the color's validity are the caller's to prove.
    """
    x, seq = fan
    if not seq:
        raise PreconditionError("cannot rotate an empty fan")
    n = coloring.graph.n
    if not 0 <= x < n:
        raise VertexRangeError(x, n)
    if not 0 <= seq[0] < n:
        raise VertexRangeError(seq[0], n)
    if coloring._colors[x].get(seq[0]) is not None:
        raise PreconditionError(
            f"first fan edge ({x}, {seq[0]}) must be uncolored before rotation"
        )
    width = len((coloring._nbr or coloring._table())[x])
    if color is not None and not 0 <= color < width:
        raise PreconditionError(f"color {color} lies outside the table [0, {width})")
    coloring.shift_fan(x, seq, color)
