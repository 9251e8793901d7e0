"""The coloring file format: `format_coloring` writes it, `parse_coloring`
reads it back against a graph, and `_read_rows`, the reader inside
`parse_coloring`, gives `check` its edge maps alone.

`mgcolor.coloring` binds both public functions too, as the same objects,
and imports this module at its end; so this module imports `EdgeColoring`
only inside `parse_coloring`, and either module may be imported first.
The two are split so that neither compile is as large as both together:
where no bytecode is cached, a process's max RSS follows its largest
compile (README, "Memory").
"""

from __future__ import annotations

from typing import TYPE_CHECKING, TextIO

from .errors import DimensionMismatchError, ParseError
from .graph import Graph, _int_field, _lines

if TYPE_CHECKING:
    from .coloring import EdgeColoring


def format_coloring(coloring: EdgeColoring, out: TextIO | None = None) -> str | None:
    """Serialize a coloring: `s <n> <m> <palette> <colors_used>` header, then
    one `e <u> <v> <color>` line per colored edge (all fields 1-based),
    canonical edge order, uncolored edges omitted.

    Returns the text, or with `out` writes it there one vertex's lines at a
    time, so the whole text is never held, and returns None."""
    g = coloring.graph
    header = f"s {g.n} {g.m} {coloring.palette} {coloring.colors_used()}\n"
    chunks = (
        "".join(f"e {u + 1} {v + 1} {c + 1}\n" for v in nbrs
                if v > u and (c := row.get(v)) is not None)
        for u, (nbrs, row) in enumerate(zip(g.adj, coloring._colors))
    )
    if out is None:
        return header + "".join(chunks)
    out.write(header)
    out.writelines(chunks)
    return None


def parse_coloring(graph: Graph, text: str) -> EdgeColoring:
    """Parse the coloring format against `graph`.

    The parser is deliberately permissive about *semantic* defects so the
    checker can classify them: colors beyond the palette and lines naming
    non-edges are loaded as-is and reported by the verdict, not here. It is
    strict about syntax, duplicate edge lines, and dimensions; the header's
    colors_used field is informational and not validated. Memory follows
    the graph and the number of lines, never the header's palette.
    """
    from .coloring import EdgeColoring  # here: `coloring` imports this module

    # As in `copy`: `__init__`'s empty rows would stand beside these.
    coloring = EdgeColoring.__new__(EdgeColoring)
    coloring.graph, coloring._nbr = graph, None
    coloring.palette, coloring._colors = _read_rows(graph, text)
    return coloring


def _read_rows(graph: Graph, text: str) -> tuple[int, list[dict[int, int]]]:
    """The header's palette and the edge maps, row u mapping each colored
    neighbor of u to its color. One pass validates each line once and
    writes each edge line into both maps, and no table: O(n + m) memory."""
    n = graph.n
    rows: list[dict[int, int]] | None = None
    for lineno, line in enumerate(_lines(text), start=1):
        fields = line.split()
        if not fields:
            continue
        tag = fields[0]
        if tag == "e":
            if rows is None:
                raise ParseError("edge line before 's' header", lineno)
            if len(fields) != 4:
                raise ParseError("edge line must be 'e <u> <v> <color>'", lineno)
            try:
                u, v, col = int(fields[1]), int(fields[2]), int(fields[3])
            except ValueError:
                # Names the first field that is not an integer.
                u, v, col = (_int_field(f, lineno) for f in fields[1:])
            if not (0 < u <= n and 0 < v <= n):
                raise ParseError(f"vertex out of range 1..{n}", lineno)
            if u == v:
                raise ParseError(f"self-loop at vertex {u}", lineno)
            if col < 1:
                raise ParseError("colors are 1-based and must be >= 1", lineno)
            x, y = ids[u - 1], ids[v - 1]
            if y in rows[x]:
                raise ParseError(f"duplicate edge line ({u}, {v})", lineno)
            rows[x][y] = rows[y][x] = col - 1
        elif tag[0] == "c":
            continue
        elif tag == "s":
            if rows is not None:
                raise ParseError("duplicate 's' header", lineno)
            if len(fields) != 5:
                raise ParseError(
                    "header must be 's <n> <m> <palette> <colors_used>'", lineno
                )
            hn, hm, palette, _used = (_int_field(f, lineno) for f in fields[1:])
            if hn != n or hm != graph.m:
                raise DimensionMismatchError(
                    f"coloring header n={hn} m={hm} does not match graph "
                    f"n={n} m={graph.m}"
                )
            if palette < 1:
                raise ParseError("palette must be >= 1", lineno)
            ids = list(range(n))  # one int object per vertex, as in `Graph`
            rows = [{} for _ in ids]
        else:
            raise ParseError(f"unknown line type {tag!r}", lineno)
    if rows is None:
        raise ParseError("missing 's' header")
    return palette, rows
