"""The checker: verdicts on a coloring from the graph, the palette and the
per-vertex edge maps alone, as `check` reads them from a file and as
`EdgeColoring.is_proper` and `violation_at` hand them over. It imports none
of the code it judges: no table, kernel or loop."""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from typing import NamedTuple

from .graph import Graph


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


def is_proper(g: Graph, palette: int, rows: Sequence[dict[int, int]]) -> Verdict:
    """Full check of every invariant against the graph, where row u maps
    each colored neighbor of u to its color.

    Reads each vertex's colored edges, never a table, so it also
    diagnoses improper states, such as `parse_coloring` may load. In
    O(degree), a set decides whether a vertex's colors are distinct, and
    a count of its neighbors among its colored ones whether those are
    all neighbors; only a vertex that fails is walked in sorted order,
    O(degree log degree), against the graph's neighbor index.
    One min/max over all colors decides the palette bound, and only
    when it fails are the colored edges searched for the first one
    outside it. A proper coloring costs O(n + m). Within each kind the
    first violation is the first in (u, v) order, except `incomplete`,
    which follows canonical edge order; a vertex whose colored edges
    are exactly its graph edges is skipped there.
    """
    n, c = g.n, palette
    adj = g.adj
    non_edge = duplicate = bound = incomplete = None
    seen_colors: set[int] = set()
    for u, row in enumerate(rows):
        used = set(row.values())
        seen_colors |= used
        # adj[u] names each neighbor once, so the count reaches len(row)
        # exactly when every colored neighbor is a graph neighbor.
        on_edges = sum(map(row.__contains__, adj[u])) == len(row)
        if incomplete is None and not (on_edges and len(row) == len(adj[u])):
            v = next((v for v in adj[u] if v > u and v not in row), None)
            if v is not None:
                incomplete = Violation("incomplete", edge=(u, v))
        if on_edges and len(used) == len(row):
            continue
        index = g._index()
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


def violation_at(
    g: Graph, palette: int, rows: Sequence[dict[int, int]], vertices: Iterable[int]
) -> Violation | None:
    """Properness check of the rows of `vertices` only.

    A non_edge or duplicate_color defect lives in one vertex's row, and
    writing edge {u, v} changes only rows u and v. So if the coloring
    was proper and has since been written only on edges between
    `vertices`, this gives the verdict of `is_proper` in O(sum of
    their degrees). None when every listed row is clean; otherwise the
    full scan runs, and its first violation is returned.
    """
    index = g._adj_index or g._index()
    for u in vertices:
        row = rows[u]
        if not (row.keys() <= index[u].keys() and len(set(row.values())) == len(row)):
            verdict = is_proper(g, palette, rows)
            return None if verdict.proper else verdict.first_violation
    return None
