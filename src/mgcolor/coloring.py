"""Partial proper edge colorings over a fixed palette.

Colors are integers in [0, palette); an uncolored edge is `None`. Each
vertex keeps a map from its colored edges (by neighbor) to their colors,
stored in both orientations; that map is the coloring. Beside it sits the
Misra-Gries table nbr[v][c]: the neighbor of v along color c, or -1 when c
is free on v. With it, a color lookup, a free-color test, the next step of
an alternating path and the least free color are each one lookup. Memory
is O(n * max_degree + m).

The table covers the colors below min(palette, max_degree + 1). A proper
coloring never needs more, and a palette read from a file cannot make it
larger; colors beyond it are answered from the edge map.

`set_edge_color` mutates the coloring in place; the previous logical value
is gone afterwards. Use `copy()` first wherever a before/after comparison
is needed (the invariant checkers treat colorings as values).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    BadPaletteError,
    DimensionMismatchError,
    InvalidColorError,
    NotAnEdgeError,
    ParseError,
    SelfLoopError,
    VertexRangeError,
)
from .graph import Graph, _int_field

Color = int | None


@dataclass(frozen=True)
class Violation:
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


@dataclass(frozen=True)
class Verdict:
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
        n = graph.n
        width = min(palette, graph.max_degree() + 1)
        # neighbor -> color of each colored edge at v; the coloring itself.
        self._colors: list[dict[int, int]] = [{} for _ in range(n)]
        # nbr[v][c]: the neighbor of v along color c, or -1. An index of
        # _colors; where deliberately improper states give v several edges
        # of color c, it holds one of them.
        self._nbr: list[list[int]] = [[-1] * width for _ in range(n)]
        self._colored = 0

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
        self._check_vertex(v)
        return self.neighbor(v, color) is None

    def neighbor(self, v: int, color: int) -> int | None:
        """The neighbor of v along `color`; None when `color` is free on v."""
        row = self._nbr[v]
        if 0 <= color < len(row):
            z = row[color]
            return z if z >= 0 else None
        return next((z for z, c in self._colors[v].items() if c == color), None)

    def fan_candidate(self, x: int, w: int, candidates: list[int]) -> int | None:
        """First z of `candidates` whose edge {x, z} has a color free on w.

        None when there is none; uncolored edges never qualify. This is the
        test that extends a fan around x whose last vertex is w.
        """
        colors = self._colors[x]
        row = self._nbr[w]
        width = len(row)
        for z in candidates:
            c = colors.get(z)
            if c is not None and (
                row[c] < 0 if 0 <= c < width else self.neighbor(w, c) is None
            ):
                return z
        return None

    def free_colors_on(self, v: int) -> list[int]:
        """Palette colors absent from v's incident edges, ascending."""
        self._check_vertex(v)
        used = set(self._colors[v].values())
        return [a for a in range(self.palette) if a not in used]

    def min_free_color(self, v: int) -> int:
        """Smallest free color on v; the deterministic 'choose a free color'."""
        row = self._nbr[v]
        if -1 in row:
            return row.index(-1)
        used = set(self._colors[v].values())
        a = len(row)
        while a in used:
            a += 1
        if a < self.palette:
            return a
        raise InvalidColorError(f"no free color on vertex {v} (palette {self.palette})")

    def edge_color_valid(self, u: int, v: int, color: Color) -> bool:
        """True iff `color` is None or free on both endpoints of edge {u, v}."""
        if not self.graph.has_edge(u, v):
            raise NotAnEdgeError(u, v)
        if color is None:
            return True
        return self.is_free(u, color) and self.is_free(v, color)

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self.graph.n:
            raise VertexRangeError(v, self.graph.n)

    def count_colored(self) -> int:
        """Number of undirected edges currently colored."""
        return self._colored

    def colors_used(self) -> int:
        """Number of distinct color ids currently present."""
        return len({c for row in self._colors for c in row.values()})

    # -- mutation --------------------------------------------------------

    def set_edge_color(self, u: int, v: int, color: Color) -> None:
        """Recolor edge {u, v} with `color` (None uncolors it). In place.

        Requires {u, v} to be a graph edge and the color to be valid there;
        an InvalidColorError coming out of algorithm code means the
        algorithm itself is broken.
        """
        if not self.graph.has_edge(u, v):
            raise NotAnEdgeError(u, v)
        if color is not None:
            if not 0 <= color < self.palette:
                raise InvalidColorError(
                    f"color {color} outside palette [0, {self.palette})"
                )
            if not (self.is_free(u, color) and self.is_free(v, color)):
                raise InvalidColorError(
                    f"color {color} is not free on both endpoints of ({u}, {v})"
                )
        self._store(u, v, color)

    def set_edge_color_unchecked(self, u: int, v: int, color: Color) -> None:
        """Write a color with no edge or properness validation.

        For callers and tests that need to materialize deliberately invalid
        states for the full-scan checker. Indices must still be in range,
        and u != v.
        """
        self._check_vertex(u)
        self._check_vertex(v)
        if u == v:
            raise SelfLoopError(u)
        self._store(u, v, color)

    def assign(self, u: int, v: int, color: Color) -> Color:
        """Trusted write of edge {u, v}; returns the color it replaced.

        For the coloring loop. Nothing is validated: the caller has proved
        that {u, v} is an edge and `color` is None or free on both endpoints
        (or will be after the next write of a Kempe-chain swap). Library
        callers want `set_edge_color`.
        """
        cu = self._colors[u]
        cv = self._colors[v]
        nu = self._nbr[u]
        nv = self._nbr[v]
        width = len(nu)
        old = cu.pop(v, None)
        if old is not None:
            del cv[u]
            # Within a swap the slot may already name the edge that now
            # carries `old`; only clear a slot that still names this edge.
            if 0 <= old < width:
                if nu[old] == v:
                    nu[old] = -1
                if nv[old] == u:
                    nv[old] = -1
            self._colored -= 1
        if color is not None:
            cu[v] = cv[u] = color
            if 0 <= color < width:
                nu[color] = v
                nv[color] = u
            self._colored += 1
        return old

    def _store(self, u: int, v: int, color: Color) -> None:
        """`assign`, then re-point the table at any other edge still
        carrying the replaced color (only improper states have one)."""
        old = self.assign(u, v, color)
        for w in (u, v):
            row = self._nbr[w]
            if old is not None and 0 <= old < len(row) and row[old] < 0:
                row[old] = next((z for z, c in self._colors[w].items() if c == old), -1)

    def copy(self) -> EdgeColoring:
        """Independent snapshot sharing only the (immutable) graph."""
        dup = EdgeColoring.__new__(EdgeColoring)
        dup.graph = self.graph
        dup.palette = self.palette
        dup._colors = [dict(row) for row in self._colors]
        dup._nbr = [row[:] for row in self._nbr]
        dup._colored = self._colored
        return dup

    # -- checking --------------------------------------------------------

    def is_proper(self) -> Verdict:
        """Full check of every invariant against the graph.

        Walks each vertex's colored edges, never the table, so it also
        diagnoses states produced by `set_edge_color_unchecked`, and costs
        O(n + m log max_degree). Within each kind the first violation is
        the first in (u, v) order, except `incomplete`, which follows
        canonical edge order.
        """
        g = self.graph
        c = self.palette
        non_edge = duplicate = bound = None
        seen_colors: set[int] = set()
        for u, row in enumerate(self._colors):
            row_seen: set[int] = set()
            for v in sorted(row):
                x = row[v]
                if duplicate is None and x in row_seen:
                    duplicate = Violation(
                        "duplicate_color", vertex=u, edge=(u, v), colors=(x,)
                    )
                row_seen.add(x)
                if v > u:
                    if non_edge is None and not g.has_edge(u, v):
                        non_edge = Violation("non_edge", edge=(u, v), colors=(x,))
                    if bound is None and not 0 <= x < c:
                        bound = Violation("bound", edge=(u, v), colors=(x,))
            seen_colors |= row_seen

        missing = next(((u, v) for u, nbrs in enumerate(g.adj) for v in nbrs
                        if v > u and v not in self._colors[u]), None)
        incomplete = None if missing is None else Violation("incomplete", edge=missing)

        proper = non_edge is None and duplicate is None
        return Verdict(
            proper=proper,
            complete=incomplete is None,
            colors_used=len(seen_colors),
            bound_ok=bound is None,
            first_violation=non_edge or duplicate or incomplete or bound,
        )

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


def format_coloring(coloring: EdgeColoring) -> str:
    """Serialize a coloring: `s <n> <m> <palette> <colors_used>` header, then
    one `e <u> <v> <color>` line per colored edge (all fields 1-based),
    canonical edge order, uncolored edges omitted."""
    g = coloring.graph
    colors = coloring._colors
    lines = [f"s {g.n} {g.m} {coloring.palette} {coloring.colors_used()}"]
    for u, v in g.edge_set():
        col = colors[u].get(v)
        if col is not None:
            lines.append(f"e {u + 1} {v + 1} {col + 1}")
    return "\n".join(lines) + "\n"


def parse_coloring(graph: Graph, text: str) -> EdgeColoring:
    """Parse the coloring format against `graph`.

    The parser is deliberately permissive about *semantic* defects so the
    checker can classify them: colors beyond the palette and lines naming
    non-edges are loaded as-is and reported by the verdict, not here. It is
    strict about syntax, duplicate edge lines, and dimensions; the header's
    colors_used field is informational and not validated. Memory follows
    the graph and the number of lines, never the header's palette.
    """
    coloring: EdgeColoring | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        fields = line.split()
        if fields[0] == "s":
            if coloring is not None:
                raise ParseError("duplicate 's' header", lineno)
            if len(fields) != 5:
                raise ParseError(
                    "header must be 's <n> <m> <palette> <colors_used>'", lineno
                )
            n, m, palette, _used = (_int_field(f, lineno) for f in fields[1:])
            if n != graph.n or m != graph.m:
                raise DimensionMismatchError(
                    f"coloring header n={n} m={m} does not match graph "
                    f"n={graph.n} m={graph.m}"
                )
            if palette < 1:
                raise ParseError("palette must be >= 1", lineno)
            coloring = EdgeColoring(graph, palette)
        elif fields[0] == "e":
            if coloring is None:
                raise ParseError("edge line before 's' header", lineno)
            if len(fields) != 4:
                raise ParseError("edge line must be 'e <u> <v> <color>'", lineno)
            u, v, col = (_int_field(f, lineno) for f in fields[1:])
            if not 1 <= u <= graph.n or not 1 <= v <= graph.n:
                raise ParseError(f"vertex out of range 1..{graph.n}", lineno)
            if u == v:
                raise ParseError(f"self-loop at vertex {u}", lineno)
            if col < 1:
                raise ParseError("colors are 1-based and must be >= 1", lineno)
            if v - 1 in coloring._colors[u - 1]:
                raise ParseError(f"duplicate edge line ({u}, {v})", lineno)
            # Each edge is written once, so the trusted write replaces nothing.
            coloring.assign(u - 1, v - 1, col - 1)
        else:
            raise ParseError(f"unknown line type {fields[0]!r}", lineno)
    if coloring is None:
        raise ParseError("missing 's' header")
    return coloring
