"""Partial proper edge colorings over a fixed palette.

Colors are integers in [0, palette); an uncolored edge is `None`. Each
vertex keeps a map from its colored edges (by neighbor) to their colors,
stored in both orientations; that map is the coloring, all that `is_proper`
and the file format read, in O(n + m) memory. The loop's queries and writes
add the Misra-Gries table nbr[v][c], the neighbor of v along color c or -1,
in O(n * max_degree): with it, a color lookup, a free-color test, the next
step of an alternating path and the least free color are one lookup each.

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
from typing import NamedTuple

from .errors import (
    BadPaletteError,
    InvalidColorError,
    InvariantError,
    NotAnEdgeError,
    PreconditionError,
    VertexRangeError,
)
from .graph import Edge, Graph

Color = int | None


class Violation(NamedTuple):
    """First defect found by a full-scan check.

    kind is one of: non_edge, duplicate_color, incomplete, bound.
    """

    kind: str
    edge: tuple[int, int] | None = None
    vertex: int | None = None
    colors: tuple[int, ...] = ()

    def __str__(self) -> str:
        parts = [self.kind]
        if self.edge is not None:
            parts.append(f"edge ({self.edge[0]}, {self.edge[1]})")
        if self.vertex is not None:
            parts.append(f"vertex {self.vertex}")
        if self.colors:
            parts.append("colors " + ", ".join(str(c) for c in self.colors))
        return " ".join(parts)


class Verdict(NamedTuple):
    """Structured result of a full coloring check.

    proper: structural invariants hold (only real edges colored, no two
    incident edges share a color).
    complete: every graph edge is colored.
    bound_ok: every color id fits the palette.
    first_violation is present exactly when one of the three is false; when
    several categories fail, the reported one follows the fixed priority
    non_edge, duplicate_color, incomplete, bound, with ascending scan order
    inside each category.
    """

    proper: bool
    complete: bool
    colors_used: int
    bound_ok: bool
    first_violation: Violation | None = None

    @property
    def ok(self) -> bool:
        return self.proper and self.complete and self.bound_ok


class EdgeColoring:
    """Partial proper edge coloring of a graph with a fixed palette size.

    Constructing one gives the empty coloring (everything uncolored).
    """

    __slots__ = ("graph", "palette", "_colors", "_nbr", "_colored")

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
        self._colored = 0

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
        return self._colored

    def colors_used(self) -> int:
        """Number of distinct color ids currently present."""
        return len({c for row in self._colors for c in row.values()})

    def first_colored(self, edges: Iterable[Edge]) -> Edge | None:
        """First edge of `edges` that is colored; None when all are uncolored."""
        return next(((u, v) for u, v in edges if self.color_of(u, v) is not None), None)

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
        # Each edge takes the color the next one gave up: the sum telescopes.
        self._colored += (color is not None) - (carry is not None)

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
        to prove maximal on a proper coloring, with a and b in the table; its
        edges stay colored, so the colored count is left alone."""
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
        dup._colored = self._colored
        return dup

    # -- checking --------------------------------------------------------

    def is_proper(self) -> Verdict:
        """Full check of every invariant against the graph.

        Reads each vertex's colored edges, never the table, so it also
        diagnoses improper states, such as `parse_coloring` may load. Set
        operations decide in O(degree) whether a vertex's colors are
        distinct and its colored neighbors are graph neighbors; only a
        vertex that fails is walked in sorted order, O(degree log degree).
        One min/max over all colors decides the palette bound, and only
        when it fails are the colored edges searched for the first one
        outside it. A proper coloring costs O(n + m). Within each kind the
        first violation is the first in (u, v) order, except `incomplete`,
        which follows canonical edge order; a vertex whose colored edges
        are exactly its graph edges is skipped there.
        """
        g = self.graph
        n, c = g.n, self.palette
        rows = self._colors
        adj, index = g.adj, g._adj_index
        non_edge = duplicate = bound = incomplete = None
        seen_colors: set[int] = set()
        for u, row in enumerate(rows):
            used = set(row.values())
            seen_colors |= used
            on_edges = row.keys() <= index[u].keys()
            if incomplete is None and not (on_edges and len(row) == len(adj[u])):
                v = next((v for v in adj[u] if v > u and v not in row), None)
                if v is not None:
                    incomplete = Violation("incomplete", edge=(u, v))
            if on_edges and len(used) == len(row):
                continue
            row_seen: set[int] = set()
            for v in sorted(row):
                x = row[v]
                if duplicate is None and x in row_seen:
                    duplicate = Violation(
                        "duplicate_color", vertex=u, edge=(u, v), colors=(x,)
                    )
                row_seen.add(x)
                # A non-edge is reported from its lower row; a key outside
                # [0, n) has no row of its own, so it is reported from here.
                if non_edge is None and v not in index[u] and (v > u or not 0 <= v < n):
                    non_edge = Violation("non_edge", edge=(u, v), colors=(x,))
        if seen_colors and not (min(seen_colors) >= 0 and max(seen_colors) < c):
            # Both orientations are stored, so some (u, v > u) carries it,
            # or a row holds it under a key outside [0, n).
            u, v = min((u, v) for u, row in enumerate(rows) for v, x in row.items()
                       if (v > u or not 0 <= v < n) and not 0 <= x < c)
            bound = Violation("bound", edge=(u, v), colors=(rows[u][v],))

        proper = non_edge is None and duplicate is None
        return Verdict(
            proper=proper,
            complete=incomplete is None,
            colors_used=len(seen_colors),
            bound_ok=bound is None,
            first_violation=non_edge or duplicate or incomplete or bound,
        )

    def violation_at(self, vertices: Iterable[int]) -> Violation | None:
        """Properness check of the rows of `vertices` only.

        A non_edge or duplicate_color defect lives in one vertex's row, and
        writing edge {u, v} changes only rows u and v. So if the coloring
        was proper and has since been written only on edges between
        `vertices`, this gives the verdict of `is_proper()` in O(sum of
        their degrees). None when every listed row is clean; otherwise the
        full scan runs, and its first violation is returned.
        """
        rows = self._colors
        index = self.graph._adj_index
        for u in vertices:
            row = rows[u]
            if not (row.keys() <= index[u].keys() and len(set(row.values())) == len(row)):
                verdict = self.is_proper()
                return None if verdict.proper else verdict.first_violation
        return None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EdgeColoring):
            return NotImplemented
        return (
            self.graph.n == other.graph.n
            and self.palette == other.palette
            and self._colors == other._colors
        )

    def __repr__(self) -> str:
        n, palette, colored = self.graph.n, self.palette, self._colored
        return f"EdgeColoring(n={n}, palette={palette}, colored={colored})"


# The file format lives in `formats`; these names stay bound here too.
from .formats import format_coloring, parse_coloring  # noqa: E402
