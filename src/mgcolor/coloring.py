"""Partial proper edge colorings over a fixed palette.

Colors are integers in [0, palette); an uncolored edge is `None`. Each
vertex keeps a map from its colored edges (by neighbor) to their colors,
stored in both orientations; that map is the coloring, all that the
checker (`certify`) and the file format read, in O(n + m) memory. The
loop's queries and writes add the Misra-Gries table nbr[v][c], the
neighbor of v along color c or -1, in O(n * max_degree): with it, a color
lookup, a free-color test, the next step of an alternating path and the
least free color are one lookup each.

The table covers the colors below min(palette, max_degree + 1); a proper
coloring never needs more. Its first reader builds it from the edge maps,
and a built table indexes every color in them, each once at a vertex: its
readers refuse a coloring holding a color beyond it, or one a vertex
repeats, with PreconditionError.

Each write rule has one entry point: `set_edge_color` validates the edge
and the color, then writes it as the one-edge `shift_fan`; the trusted
kernels `shift_fan` (fan rotation) and `kempe_swap` (path inversion)
validate nothing. All of them write in place, so the previous value is
gone afterwards; take a `copy()` first where a before/after comparison is
needed.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from functools import cache
from typing import TYPE_CHECKING

from .errors import (
    BadPaletteError,
    InvalidColorError,
    InvariantError,
    NotAnEdgeError,
    PreconditionError,
    VertexRangeError,
)
from .graph import Graph

if TYPE_CHECKING:
    from .certify import Verdict, Violation

Color = int | None


@cache
def _certify():
    # The checker, imported by the first check, so a plain run never loads
    # it; cached, since an import statement per debug step costs 13 %.
    import mgcolor.certify

    return mgcolor.certify


class EdgeColoring:
    """Partial proper edge coloring of a graph with a fixed palette size.

    Constructing one gives the empty coloring (everything uncolored).
    """

    __slots__ = ("graph", "palette", "_colors", "_nbr")

    def __init__(self, graph: Graph, palette: int):
        if palette < 1:
            raise BadPaletteError(f"palette size must be >= 1, got {palette}")
        self.graph = graph
        self.palette = palette
        # neighbor -> color of each colored edge at v; the coloring itself.
        self._colors: list[dict[int, int]] = [{} for _ in range(graph.n)]
        # nbr[v][c]: the neighbor of v along color c, or -1. An index of
        # _colors, None until `_table()` builds it.
        self._nbr: list[list[int]] | None = None

    def _table(self) -> list[list[int]]:
        """The table, built from the edge maps on first use; its readers take
        it as `self._nbr or self._table()`. Each slot names one edge, so a
        color outside the table, or repeated at a vertex, is refused."""
        if self._nbr is None:
            width = min(self.palette, self.graph.max_degree() + 1)
            nbr = [[-1] * width for _ in self._colors]
            for u, (row, slots) in enumerate(zip(self._colors, nbr)):
                for z, c in row.items():
                    if not 0 <= c < width:
                        raise PreconditionError(
                            f"color {c} of edge ({u}, {z}) lies outside the table [0, {width})"
                        )
                    if slots[c] >= 0:
                        raise PreconditionError(f"color {c} of edge ({u}, {z}) repeats at {u}")
                    slots[c] = z
            self._nbr = nbr
        return self._nbr

    # -- queries ---------------------------------------------------------

    def color_of(self, u: int, v: int) -> Color:
        """Color of edge {u, v}; None for uncolored edges and non-edges."""
        n = self.graph.n
        if not 0 <= u < n:
            raise VertexRangeError(u, n)
        if not 0 <= v < n:
            raise VertexRangeError(v, n)
        return self._colors[u].get(v)

    def is_free(self, v: int, color: int) -> bool:
        """True iff `color` appears on no edge incident to v."""
        return self.neighbor(v, color) is None

    def neighbor(self, v: int, color: int) -> int | None:
        """The neighbor of v along `color`; None when `color` is free on v."""
        nbr = self._nbr or self._table()
        if not 0 <= v < len(nbr):
            raise VertexRangeError(v, len(nbr))
        row = nbr[v]
        z = row[color] if 0 <= color < len(row) else -1
        return z if z >= 0 else None

    def fan_extension(self, x: int, w: int, candidates: Iterable[int]) -> list[int]:
        """The vertices a fan around x with last vertex w grows by, in order:
        each is the first unused z of `candidates` whose edge {x, z} has a
        color free on the fan's last vertex so far. Trusted, read-only."""
        colors, nbr = self._colors[x], self._nbr or self._table()
        nx = nbr[x]
        out: list[int] = []
        cs = [colors[z] for z in candidates if z in colors]
        while True:
            row = nbr[w]
            for c in cs:
                if row[c] < 0:
                    break
            else:
                return out
            cs.remove(c)
            w = nx[c]
            out.append(w)

    def min_free_color(self, v: int) -> int:
        """Smallest free color on v in the table; the deterministic 'choose
        a free color'."""
        nbr = self._nbr or self._table()
        if not 0 <= v < len(nbr):
            raise VertexRangeError(v, len(nbr))
        row = nbr[v]
        try:
            return row.index(-1)
        except ValueError:  # every color of the table is used on v
            raise InvalidColorError(f"no free color on vertex {v} (palette {self.palette})")

    def edge_color_valid(self, u: int, v: int, color: Color) -> bool:
        """True iff `color` is None or free on both endpoints of edge {u, v}."""
        if not self.graph.has_edge(u, v):
            raise NotAnEdgeError(u, v)
        if color is None:
            return True
        return self.is_free(u, color) and self.is_free(v, color)

    def count_colored(self) -> int:
        """Number of undirected edges currently colored."""
        return sum(map(len, self._colors)) // 2

    def colors_used(self) -> int:
        """Number of distinct color ids currently present."""
        return len({c for row in self._colors for c in row.values()})

    # -- mutation --------------------------------------------------------

    def set_edge_color(self, u: int, v: int, color: Color) -> None:
        """Recolor edge {u, v} with `color` (None uncolors it). In place.

        Requires {u, v} to be a graph edge and the color to be valid there:
        in the palette and the table, and free on both ends. An InvalidColorError
        coming out of algorithm code means the algorithm itself is broken.
        The write is the one-edge `shift_fan`.
        """
        if not self.graph.has_edge(u, v):
            raise NotAnEdgeError(u, v)
        if color is not None:
            if not 0 <= color < self.palette:
                raise InvalidColorError(
                    f"color {color} outside palette [0, {self.palette})"
                )
            if color >= (width := len(self._table()[u])):
                raise InvalidColorError(f"color {color} outside the table [0, {width})")
            if not (self.is_free(u, color) and self.is_free(v, color)):
                raise InvalidColorError(
                    f"color {color} is not free on both endpoints of ({u}, {v})"
                )
        self.shift_fan(u, (v,), color)

    def shift_fan(self, x: int, seq: Sequence[int], color: Color) -> None:
        """Trusted rotation around x: {x, seq[i]} takes the color of
        {x, seq[i + 1]} and {x, seq[-1]} takes `color`, each edge in turn
        from the back. A recolored edge is overwritten in place, so only
        uncoloring leaves a deleted slot in the edge maps."""
        colors, nbr = self._colors, self._nbr or self._table()
        cx, nx = colors[x], nbr[x]
        carry = color
        for f in reversed(seq):
            nf = nbr[f]
            old = cx.get(f)
            # x's slot for `old` may name a later vertex of seq that this
            # rotation has just given `old` (seq revisits a vertex, or `color`
            # was on an earlier edge of it): clear it only while it names f.
            # f's slot names x or -1.
            if old is not None:
                if nx[old] == f:
                    nx[old] = -1
                nf[old] = -1
            if carry is not None:
                cx[f] = colors[f][x] = carry
                nx[carry] = f
                nf[carry] = x
            elif old is not None:
                del cx[f], colors[f][x]
            carry = old

    def kempe_walk(self, x: int, a: int, b: int) -> tuple[int, ...]:
        """The alternating path from x along a, b, a, ... to the first vertex
        where the next color is free. Trusted: a, b in the table and b free
        on x are the caller's."""
        nbr = self._nbr or self._table()
        path = {x: None}  # the vertices in order, with O(1) membership
        while (z := nbr[x][a]) >= 0:
            if z in path:  # impossible while the coloring is proper
                raise InvariantError(
                    f"path extension revisited vertex {z}; coloring state is broken"
                )
            path[z] = None
            x, a, b = z, b, a
        return tuple(path)

    def kempe_swap(self, seq: Sequence[int], a: int, b: int) -> None:
        """Trusted inversion of the alternating path `seq`: its edges, colored
        a, b, a, ... from seq[0], take b, a, b, .... Each edge's two map
        entries are written once, and each path vertex's a and b slots are
        cleared before the edges at it set theirs. The path is the caller's
        to prove maximal on a proper coloring, with a and b in the table."""
        colors, nbr = self._colors, self._nbr or self._table()
        u = nu = None
        col, other = a, b
        for v in seq:
            nv = nbr[v]
            nv[a] = nv[b] = -1
            if nu is not None:  # the edge from the previous vertex
                colors[u][v] = colors[v][u] = col
                nu[col] = v
                nv[col] = u
            u, nu, col, other = v, nv, other, col

    def copy(self) -> EdgeColoring:
        """Independent snapshot sharing only the (immutable) graph."""
        dup = EdgeColoring.__new__(EdgeColoring)
        dup.graph = self.graph
        dup.palette = self.palette
        dup._colors = [dict(row) for row in self._colors]
        dup._nbr = self._nbr and [row[:] for row in self._nbr]
        return dup

    # -- checking --------------------------------------------------------

    def is_proper(self) -> Verdict:
        """`certify.is_proper` of this coloring's edge maps."""
        return _certify().is_proper(self.graph, self.palette, self._colors)

    def violation_at(self, vertices: Iterable[int]) -> Violation | None:
        """`certify.violation_at`: `is_proper()`'s verdict from some rows."""
        return _certify().violation_at(self.graph, self.palette, self._colors, vertices)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EdgeColoring):
            return NotImplemented
        return (
            self.graph.n == other.graph.n
            and self.palette == other.palette
            and self._colors == other._colors
        )

    def __repr__(self) -> str:
        n, palette, colored = self.graph.n, self.palette, self.count_colored()
        return f"EdgeColoring(n={n}, palette={palette}, colored={colored})"


# The file format lives in `formats`; these names stay bound here too.
from .formats import format_coloring, parse_coloring  # noqa: E402
