"""Shared builders for randomized tests.

Everything here is seeded by the caller, so test runs are reproducible.
`set_edge_color_unchecked` writes a color into the edge maps with no edge
or properness check, to build the deliberately invalid states the
full-scan checkers must diagnose, and drops the table, which its next
reader rebuilds or refuses; `table_refusal` is the refusal it gives.
`cycle_in_the_table` writes an improper state straight into a built
table, as only a faulty kernel could, for the walk's revisit guard.
`is_inverted` is the inversion lemma as a before/after comparison of two
colorings, with `changed_edges` the diff of their edge maps; the debug
loop checks an inversion more cheaply, so these serve only as the tests'
reference.
`rotate_fan_direct` is the independent shift-then-color formulation of fan
rotation used to cross-check the library's fused implementation, and
`ordered_verdict` the edge-by-edge scan `EdgeColoring.is_proper` must agree
with. `reference_parse_dimacs` and `reference_parse_coloring` are the
line-by-line parsers the single-pass library parsers must agree with on
every text, errors included; `reference_format_coloring` is the formatter
that builds every line before joining them, whose bytes `format_coloring`
must match in both its forms. `reference_gnp_graph` is G(n, p) drawn one
`random()` per vertex pair, which `gnp_graph` must equal in adjacency
order, and `reference_format_dimacs` the formatter that writes one
f-string per edge, whose bytes `format_dimacs` must match.
`reference_maximal_fan`,
`reference_rotate_fan` and `reference_maximal_path` are the building
blocks as they were before each became one `EdgeColoring` kernel call: one
first-match scan per fan extension, one `reference_assign` per rotated
edge, one `neighbor` lookup per path vertex. `reference_assign` pops the
edge from the private maps and inserts it again with its new color; the
kernels, which write in place, must leave the same state.
`reference_rotate_fan` and `reference_parse_coloring` write through it,
not through the code they check. `reference_backtrack_color` is the exact
search that pins only its first edge to color 0, and so repeats each dead
end under every relabeling of the other colors; `backtrack_color` must
return its witness unchanged. `witness_coloring` writes such a witness
through the validated setter. `free_colors_on` lists a vertex's free
colors through the public `is_free`. The building blocks check nothing
themselves, so the `checked_*` wrappers run the lemma checkers around each
one, as `extend_coloring(debug=True)` does.
"""

from __future__ import annotations

import random

from mgcolor import (
    AltPath,
    Color,
    EdgeColoring,
    Fan,
    Graph,
    Verdict,
    Violation,
    check_fan,
    check_path,
    gnp_graph,
    invert,
    is_maximal_fan,
    is_maximal_path,
    maximal_fan,
    maximal_path,
    rotate_fan,
)
from mgcolor.errors import (
    DimensionMismatchError,
    EdgeAlreadyColoredError,
    InvariantError,
    NotAnEdgeError,
    ParseError,
    PreconditionError,
    SelfLoopError,
)
from mgcolor.graph import _int_field


def set_edge_color_unchecked(coloring: EdgeColoring, u: int, v: int, color: Color) -> None:
    """Write a color with no edge or properness validation.

    Materializes deliberately invalid states for the full-scan checker.
    Indices must still be in range, and u != v. The color goes into the two
    edge maps only, and the table is dropped: its next reader rebuilds it,
    or refuses a coloring it cannot represent, as for a file holding it.
    """
    coloring.color_of(u, v)  # range-checks both ends
    if u == v:
        raise SelfLoopError(u)
    cu, cv = coloring._colors[u], coloring._colors[v]
    old = cu.get(v)
    if color is not None:
        cu[v] = cv[u] = color
    elif old is not None:
        del cu[v], cv[u]
    coloring._colored += (color is not None) - (old is not None)
    coloring._nbr = None


def table_refusal(coloring: EdgeColoring) -> str | None:
    """The message of the PreconditionError with which the table's build
    refuses `coloring`, or None when it can represent it: the first edge,
    row by row, whose color lies outside the table or repeats at the row's
    vertex."""
    width = min(coloring.palette, coloring.graph.max_degree() + 1)
    for u, row in enumerate(coloring._colors):
        seen: set[int] = set()
        for z, c in row.items():
            if not 0 <= c < width:
                return f"color {c} of edge ({u}, {z}) lies outside the table [0, {width})"
            if c in seen:
                return f"color {c} of edge ({u}, {z}) repeats at {u}"
            seen.add(c)
    return None


def cycle_in_the_table() -> EdgeColoring:
    """K3 with {0, 1} and {1, 2} colored 0 and 1 through the setter, then
    {2, 0} colored 0 in the edge maps and 2's slot, as only a faulty kernel
    could write it: vertex 0 holds color 0 twice, its slot names 1, and the
    (0, 1)-walk from 0 comes back to it."""
    coloring = EdgeColoring(Graph(3, [(0, 1), (1, 2), (0, 2)]), 3)
    coloring.set_edge_color(0, 1, 0)
    coloring.set_edge_color(1, 2, 1)
    coloring._colors[0][2] = coloring._colors[2][0] = 0
    coloring._nbr[2][0] = 0
    coloring._colored += 1
    return coloring


def changed_edges(before: EdgeColoring, after: EdgeColoring) -> set[tuple[int, int]]:
    """Pairs (u, v), u < v, colored differently in `after`.

    `after` must color a graph on the same vertices. Colored non-edges
    count too; vertices whose colored edges match are skipped at once.
    """
    changed: set[tuple[int, int]] = set()
    for u, (mine, theirs) in enumerate(zip(before._colors, after._colors)):
        if mine != theirs:
            changed.update((u, v) for v in mine.keys() | theirs.keys()
                           if v > u and mine.get(v) != theirs.get(v))
    return changed


def is_inverted(before: EdgeColoring, after: EdgeColoring, path: AltPath) -> bool:
    """Check that `after` is `before` with a and b swapped along `path`.

    Each path edge colored a must now be b and each one colored b must now
    be a (once per time the path crosses it); every other edge, on the path
    or off it, must keep its color.
    """
    if before.graph.n != after.graph.n or before.palette != after.palette:
        return False
    swap = {path.a: path.b, path.b: path.a}
    expected: dict[tuple[int, int], Color] = {}
    seq = path.seq
    for i in range(len(seq) - 1):
        u, v = sorted(seq[i : i + 2])
        old = expected.get((u, v), before.color_of(u, v))
        expected[(u, v)] = swap.get(old, old)
    return changed_edges(before, after) <= expected.keys() and all(
        after.color_of(u, v) == col for (u, v), col in expected.items()
    )


def rand_graph(rng: random.Random, n_max: int = 10) -> Graph:
    n = rng.randint(0, n_max)
    p = rng.choice([0.0, 0.15, 0.35, 0.6, 0.9])
    return gnp_graph(n, p, rng.randrange(2**63))


def rand_proper_coloring(
    rng: random.Random,
    g: Graph,
    palette: int | None = None,
    steps: int | None = None,
) -> EdgeColoring:
    """Random reachable coloring state: a random valid mutation sequence.

    Attempts `steps` random recolorings (including uncolorings) with colors
    of the table, which stops at max_degree + 1 whatever the palette, and
    applies each one only when it is valid, so every state produced here is
    reachable from the empty coloring through the validated setter.
    """
    if palette is None:
        palette = g.max_degree() + 1
    coloring = EdgeColoring(g, palette)
    edges = g.edge_set()
    if not edges:
        return coloring
    if steps is None:
        steps = rng.randint(0, 4 * len(edges))
    colors = [None, *range(min(palette, g.max_degree() + 1))]
    for _ in range(steps):
        u, v = edges[rng.randrange(len(edges))]
        color = rng.choice(colors)
        if coloring.edge_color_valid(u, v, color):
            coloring.set_edge_color(u, v, color)
    return coloring


def free_colors_on(coloring: EdgeColoring, v: int) -> list[int]:
    """Palette colors absent from v's incident edges, ascending."""
    return [c for c in range(coloring.palette) if coloring.is_free(v, c)]


def checked_maximal_fan(coloring: EdgeColoring, x: int, y: int) -> Fan:
    """`maximal_fan`, asserted valid and maximal."""
    fan = maximal_fan(coloring, x, y)
    check_fan(coloring, fan)
    assert is_maximal_fan(coloring, fan)
    return fan


def checked_maximal_path(coloring: EdgeColoring, a: int, b: int, x: int) -> AltPath:
    """`maximal_path`, asserted valid, maximal and not extendable at x."""
    path = maximal_path(coloring, a, b, x)
    check_path(coloring, path)
    assert is_maximal_path(coloring, path)
    for z in coloring.graph.adj[x]:
        assert coloring.color_of(x, z) not in (a, b) or z in path.seq
    return path


def checked_rotate_fan(coloring: EdgeColoring, fan: Fan, color: int | None) -> None:
    """`rotate_fan` of a valid fan with a valid color, asserted proper after."""
    check_fan(coloring, fan)
    assert coloring.edge_color_valid(fan.center, fan.last(), color)
    rotate_fan(coloring, fan, color)
    assert coloring.is_proper().proper


def checked_invert(coloring: EdgeColoring, path: AltPath) -> None:
    """`invert` of a valid maximal path, asserted swapped and proper after."""
    check_path(coloring, path)
    assert is_maximal_path(coloring, path)
    before = coloring.copy()
    invert(coloring, path)
    assert is_inverted(before, coloring, path)
    assert coloring.is_proper().proper


def uncolored_edges(coloring: EdgeColoring) -> list[tuple[int, int]]:
    return [
        (u, v)
        for u, v in coloring.graph.edge_set()
        if coloring.color_of(u, v) is None
    ]


def pick_rotation_color(
    rng: random.Random, coloring: EdgeColoring, fan: Fan
) -> int | None:
    """A random color valid for the last fan edge; None when nothing else is."""
    x = fan.center
    shared = [
        c
        for c in free_colors_on(coloring, x)
        if coloring.is_free(fan.last(), c)
    ]
    if shared and rng.random() < 0.9:
        return rng.choice(shared)
    return None


def rotate_fan_direct(
    coloring: EdgeColoring, fan: Fan, color: int | None
) -> EdgeColoring:
    """Reference rotation: snapshot, uncolor the fan, then color the shift.

    Works on a copy and returns it; the original is untouched. Every write
    goes through the validated setter, so this independently demonstrates
    that the shifted assignment is reachable by valid recolorings.
    """
    out = coloring.copy()
    x = fan.center
    seq = fan.seq
    old = [coloring.color_of(x, f) for f in seq]
    for f in seq:
        out.set_edge_color(x, f, None)
    for i in range(len(seq) - 1):
        out.set_edge_color(x, seq[i], old[i + 1])
    out.set_edge_color(x, seq[-1], color)
    return out


def ordered_verdict(coloring: EdgeColoring) -> Verdict:
    """Reference full check: every colored pair visited in (u, v) order.

    Public queries only, O(n^2); `EdgeColoring.is_proper` must return an
    equal `Verdict` on every state.
    """
    g = coloring.graph
    c = coloring.palette
    non_edge = duplicate = bound = None
    seen_colors: set[int] = set()
    for u in range(g.n):
        row_seen: set[int] = set()
        for v in range(g.n):
            x = coloring.color_of(u, v)
            if x is None:
                continue
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
    missing = next(
        (e for e in g.edge_set() if coloring.color_of(*e) is None), None
    )
    incomplete = None if missing is None else Violation("incomplete", edge=missing)
    return Verdict(
        proper=non_edge is None and duplicate is None,
        complete=incomplete is None,
        colors_used=len(seen_colors),
        bound_ok=bound is None,
        first_violation=non_edge or duplicate or incomplete or bound,
    )


def reference_parse_dimacs(text: str) -> Graph:
    """Reference graph parser: each line stripped, tested and split, each
    field converted on its own, the edges then handed to the validated
    `Graph(n, edges)`. `parse_dimacs` must agree with it on every text."""
    n: int | None = None
    m: int | None = None
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        fields = line.split()
        if fields[0] == "p":
            if n is not None:
                raise ParseError("duplicate 'p' header", lineno)
            if len(fields) != 4 or fields[1] != "edge":
                raise ParseError("header must be 'p edge <n> <m>'", lineno)
            n, m = _int_field(fields[2], lineno), _int_field(fields[3], lineno)
            if n < 0 or m < 0:
                raise ParseError("n and m must be nonnegative", lineno)
        elif fields[0] == "e":
            if n is None:
                raise ParseError("edge line before 'p edge' header", lineno)
            if len(fields) != 3:
                raise ParseError("edge line must be 'e <u> <v>'", lineno)
            u, v = _int_field(fields[1], lineno), _int_field(fields[2], lineno)
            if not 1 <= u <= n or not 1 <= v <= n:
                raise ParseError(f"vertex out of range 1..{n}", lineno)
            if u == v:
                raise ParseError(f"self-loop at vertex {u}", lineno)
            key = (u - 1, v - 1) if u < v else (v - 1, u - 1)
            if key in seen:
                raise ParseError(f"duplicate edge ({u}, {v})", lineno)
            seen.add(key)
            edges.append((u - 1, v - 1))
        else:
            raise ParseError(f"unknown line type {fields[0]!r}", lineno)
    if n is None:
        raise ParseError("missing 'p edge' header")
    if len(edges) != m:
        raise ParseError(f"header declares {m} edges, file has {len(edges)}")
    return Graph(n, edges)


def reference_gnp_graph(n: int, p: float, seed: int) -> Graph:
    """G(n, p) with one `random()` per vertex pair in ascending (u, v) order,
    kept when it is below p, built through the validated constructor."""
    rand = random.Random(seed).random
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rand() < p]
    return Graph(n, edges)


def reference_format_dimacs(g: Graph) -> str:
    """One line per edge of `edge_set()`, each its own f-string, joined."""
    lines = [f"p edge {g.n} {g.m}"]
    lines.extend(f"e {u + 1} {v + 1}" for u, v in g.edge_set())
    return "\n".join(lines) + "\n"


def reference_parse_coloring(graph: Graph, text: str) -> EdgeColoring:
    """Reference coloring parser, line by line like `reference_parse_dimacs`.
    `parse_coloring` must agree with it on every text."""
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
            if coloring.color_of(u - 1, v - 1) is not None:
                raise ParseError(f"duplicate edge line ({u}, {v})", lineno)
            reference_assign(coloring, u - 1, v - 1, col - 1)
        else:
            raise ParseError(f"unknown line type {fields[0]!r}", lineno)
    if coloring is None:
        raise ParseError("missing 's' header")
    return coloring


def reference_format_coloring(coloring: EdgeColoring) -> str:
    """One line per colored graph edge in `edge_set()` order, joined."""
    lines = [f"s {coloring.graph.n} {coloring.graph.m} {coloring.palette} "
             f"{coloring.colors_used()}"]
    for u, v in coloring.graph.edge_set():
        col = coloring.color_of(u, v)
        if col is not None:
            lines.append(f"e {u + 1} {v + 1} {col + 1}")
    return "\n".join(lines) + "\n"


def reference_maximal_fan(coloring: EdgeColoring, x: int, y: int) -> Fan:
    """Reference `maximal_fan`: each extension scans the unused neighbors
    of x in adjacency order for the first whose edge color is free on the
    last fan vertex, and removes the one it appends."""
    g = coloring.graph
    if not g.has_edge(x, y):
        raise NotAnEdgeError(x, y)
    if coloring.color_of(x, y) is not None:
        raise EdgeAlreadyColoredError(f"edge ({x}, {y}) is already colored")
    seq = [y]
    remaining = [z for z in g.adj[x] if z != y]
    while (z := reference_fan_candidate(coloring, x, seq[-1], remaining)) is not None:
        seq.append(z)
        remaining.remove(z)
    return Fan(x, tuple(seq))


def reference_fan_candidate(
    coloring: EdgeColoring, x: int, w: int, candidates: list[int]
) -> int | None:
    """First z of `candidates` whose edge {x, z} has a color free on w."""
    for z in candidates:
        c = coloring.color_of(x, z)
        if c is not None and coloring.neighbor(w, c) is None:
            return z
    return None


def reference_rotate_fan(coloring: EdgeColoring, fan: Fan, color: int | None) -> None:
    """Reference `rotate_fan`: one `reference_assign` per edge, from the back."""
    x = fan.center
    seq = fan.seq
    if not seq:
        raise PreconditionError("cannot rotate an empty fan")
    if coloring.color_of(x, seq[0]) is not None:
        raise PreconditionError(
            f"first fan edge ({x}, {seq[0]}) must be uncolored before rotation"
        )
    carry = color
    for f in reversed(seq):
        carry = reference_assign(coloring, x, f, carry)


def reference_assign(
    coloring: EdgeColoring, u: int, v: int, color: int | None
) -> int | None:
    """Reference one-edge write, returning the color it replaced: pop {u, v}
    from both edge maps, clear the table slots that still name it, then
    insert it again when `color` is not None."""
    cu, cv = coloring._colors[u], coloring._colors[v]
    nbr = coloring._nbr or coloring._table()
    nu, nv = nbr[u], nbr[v]
    old = cu.pop(v, None)
    if old is not None:
        del cv[u]
        if 0 <= old < len(nu):
            if nu[old] == v:
                nu[old] = -1
            if nv[old] == u:
                nv[old] = -1
        coloring._colored -= 1
    if color is not None:
        cu[v] = cv[u] = color
        if 0 <= color < len(nu):
            nu[color] = v
            nv[color] = u
        coloring._colored += 1
    return old


def reference_maximal_path(coloring: EdgeColoring, a: int, b: int, x: int) -> AltPath:
    """Reference `maximal_path`: one `neighbor` lookup per path vertex."""
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
            raise InvariantError(
                f"path extension revisited vertex {z}; coloring state is broken"
            )
        seq.append(z)
        on_path.add(z)
    return AltPath(a, b, tuple(seq))


def reference_backtrack_color(g: Graph, k: int) -> tuple[int, ...] | None:
    """Reference exact search: edges in `edge_set()` order, colors lowest
    first, every color open to every edge but the first, which is pinned
    to color 0. No edge cap."""
    edges = g.edge_set()
    m = len(edges)
    if k < 1:
        return () if m == 0 else None
    incident: list[set[int]] = [set() for _ in range(g.n)]
    assignment: list[int] = [0] * m

    def place(i: int) -> bool:
        if i == m:
            return True
        u, v = edges[i]
        for col in range(1) if i == 0 else range(k):
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

    return tuple(assignment) if place(0) else None


def witness_coloring(g: Graph, k: int, witness: tuple[int, ...]) -> EdgeColoring:
    """The k-coloring that gives each edge of `g.edge_set()` its witness
    color, written through the validated `set_edge_color`."""
    coloring = EdgeColoring(g, k)
    for (u, v), col in zip(g.edge_set(), witness, strict=True):
        coloring.set_edge_color(u, v, col)
    return coloring


# LF, CRLF, or LF, CRLF, "\x0b" and "\x1c" in turn.
LONG_FILE_BREAKS = {"lf": ["\n"], "crlf": ["\r\n"], "mixed": ["\n", "\r\n", "\x0b", "\x1c"]}


def long_file_with_a_bad_line(header: str, line: str, bad: str, breaks: list[str]) -> str:
    """A 20,000-line file: `header`, then line i is `line.format(i)`, except
    that line 15,000 is `bad` and, where `breaks` mixes several line ends,
    every 97th line is blank and every 89th a comment. Line i ends with
    `breaks[i % len(breaks)]`."""
    lines = [header] + [line.format(i) for i in range(2, 20_001)]
    if len(breaks) > 1:
        lines[96::97] = [""] * len(lines[96::97])
        lines[88::89] = ["c note"] * len(lines[88::89])
    lines[15_000 - 1] = bad
    text = "".join(x + breaks[i % len(breaks)] for i, x in enumerate(lines, start=1))
    assert text.splitlines()[15_000 - 1] == bad
    return text
