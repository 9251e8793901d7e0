"""Shared builders for randomized tests.

Everything here is seeded by the caller, so test runs are reproducible.
`rotate_fan_direct` is the independent shift-then-color formulation of fan
rotation used to cross-check the library's fused implementation, and
`ordered_verdict` the edge-by-edge scan `EdgeColoring.is_proper` must agree
with. `free_colors_on` lists a vertex's free colors through the public
`is_free`. The building blocks check nothing themselves, so the
`checked_*` wrappers run the lemma checkers around each one, as
`extend_coloring(debug=True)` does.
"""

from __future__ import annotations

import random

from mgcolor import (
    AltPath,
    EdgeColoring,
    Fan,
    Graph,
    Verdict,
    Violation,
    check_fan,
    check_path,
    gnp_graph,
    invert,
    is_inverted,
    is_maximal_fan,
    is_maximal_path,
    maximal_fan,
    maximal_path,
    rotate_fan,
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

    Attempts `steps` random recolorings (including uncolorings) and applies
    each one only when it is valid, so every state produced here is
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
    for _ in range(steps):
        u, v = edges[rng.randrange(len(edges))]
        color = rng.choice([None] + list(range(palette)))
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
