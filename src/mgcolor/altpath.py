"""Alternating (Kempe) paths: the path checkers, construction, inversion.

An alternating path for colors (a, b) starting at x is a sequence of
distinct vertices whose consecutive edges are colored a, b, a, b, ...
Inverting a maximal path swaps a and b along it, which keeps the coloring
proper and swaps which of the two colors is free at x.

`maximal_path` checks its call preconditions only, its colors' range among
them, then makes one trusted `EdgeColoring.kempe_walk`; `invert` has none
and is one trusted `EdgeColoring.kempe_swap`. `extend_coloring(debug=True)`
runs the path checkers on the paths it builds and inverts; it checks an
inversion as `check_path` of the path with a and b swapped plus
`violation_at` of its vertices. The checkers read the edge maps and the
table directly and call neither kernel.
"""

from __future__ import annotations

from typing import NamedTuple

from .coloring import EdgeColoring
from .errors import PathInvariantError, PreconditionError, VertexRangeError


class AltPath(NamedTuple):
    """Colors (a, b) plus the vertex sequence; seq[0] is the start vertex."""

    a: int
    b: int
    seq: tuple[int, ...]


def check_path(coloring: EdgeColoring, path: AltPath) -> None:
    """Raise PathInvariantError unless `path` is a valid alternating path.

    Edge i of the path (from seq[i] to seq[i + 1]) must be colored a when i
    is even and b when i is odd. After the sequence and color tests, one
    pass reads the edge maps directly, in path order: each vertex's range
    (VertexRangeError, as `EdgeColoring.color_of` raises it) is tested
    before the edge that ends at it, and seq[0]'s first, so a path of one
    vertex is range-checked as `is_maximal_path` checks it.
    """
    seq = path.seq
    if not seq:
        raise PathInvariantError("path sequence is empty")
    if len(set(seq)) != len(seq):
        raise PathInvariantError(f"path sequence {seq} has duplicates")
    a, b = path.a, path.b
    if a is None or b is None:
        raise PathInvariantError("path colors must be real colors")
    if a == b:
        raise PathInvariantError(f"path colors must differ, got {a} twice")
    colors = coloring._colors
    n = coloring.graph.n
    u = seq[0]
    if not 0 <= u < n:
        raise VertexRangeError(u, n)
    want, other = a, b
    for v in seq[1:]:
        if not 0 <= v < n:
            raise VertexRangeError(v, n)
        if colors[u].get(v) != want:
            raise PathInvariantError(f"edges along {seq} do not alternate colors {a}, {b}")
        u, want, other = v, other, want


def maximal_path(coloring: EdgeColoring, a: int, b: int, x: int) -> AltPath:
    """Maximal alternating (a, b)-path starting at x; b must be free on x.

    `EdgeColoring.kempe_walk` extends [x] along the next color (a after an
    odd number of vertices, b after an even one) until it is free on the
    last vertex. Properness allows one edge of each color at a vertex, so
    each step has one candidate at most. Forward maximality is full
    maximality here: b is free on x and properness allows at most one a-edge
    at x, and that edge (when present) is the path's first step, so the
    path can never be extended backwards either.
    """
    if a is None or b is None:
        raise PreconditionError("path colors must be real colors")
    if a == b:
        raise PreconditionError(f"path colors must differ, got {a} twice")
    if coloring.neighbor(x, b) is not None:  # range-checks x
        raise PreconditionError(f"color {b} must be free on start vertex {x}")
    width = len(coloring._nbr[x])
    if not (0 <= a < width and 0 <= b < width):
        raise PreconditionError(f"path colors {a}, {b} must lie in the table [0, {width})")

    return tuple.__new__(AltPath, (a, b, coloring.kempe_walk(x, a, b)))


def is_maximal_path(coloring: EdgeColoring, path: AltPath) -> bool:
    """True iff the color the next edge would need is free on the last vertex.

    That color is a when the path has an odd number of vertices, else b.
    It is read from the last vertex's table row, as `is_free` reads it.
    """
    if not path.seq:
        raise PathInvariantError("path sequence is empty")
    want = path.a if len(path.seq) % 2 else path.b
    nbr = coloring._nbr or coloring._table()
    v = path.seq[-1]
    if not 0 <= v < len(nbr):
        raise VertexRangeError(v, len(nbr))
    row = nbr[v]
    return not (0 <= want < len(row) and row[want] >= 0)


def invert(coloring: EdgeColoring, path: AltPath) -> None:
    """Swap colors a and b along a maximal alternating path. In place.

    One trusted `EdgeColoring.kempe_swap` writes each path edge once,
    starting with b, and moves the a and b table slots of every path vertex:
    the inversion lemma, that a and b change places at each vertex of the
    path. Maximality is what makes the swap valid at the endpoints; it and
    colors in the table are the caller's to prove, and nothing is checked.
    """
    coloring.kempe_swap(path.seq, path.a, path.b)

