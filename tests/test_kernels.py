"""The one-pass `EdgeColoring` kernels against the per-edge building blocks.

`maximal_fan`, `is_maximal_fan`, `rotate_fan`, `maximal_path` and `invert`
each make one kernel call (`fan_extension`, `shift_fan`, `kempe_walk`,
`kempe_swap`). On every state they must do what the reference blocks in
`tests.helpers` do: return the same fan, verdict or path, or raise the same
error, and leave the same coloring behind. The kernels' contract is a
coloring the table can represent, its colors all in the table and none
repeated at a vertex: the table's build refuses any other. The states are
drawn to it: proper ones, with palettes above Δ+1 whose colors stay below
it, and loop colorings partly uncolored again and written with the
unchecked setter, colored non-edges included. Rows are compared as
neighbor→color maps: the order of a row's keys is not behaviour. The
writes `shift_fan` (whose one-edge case `set_edge_color` writes) and
`kempe_swap`, which overwrite a recolored edge in place, are held to
`reference_assign`, which pops it and inserts it again: `shift_fan` on
those states with any color and any sequence, and `kempe_swap`, through
`invert`, on maximal paths of proper states, the inversion lemma's
premises. The walk's revisit guard, which no such state reaches, is held
on a cycle written into a built table.
"""

from __future__ import annotations

import random

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mgcolor import (
    EdgeColoring,
    Fan,
    Graph,
    gnp_graph,
    invert,
    is_maximal_fan,
    maximal_fan,
    maximal_path,
    mk_edge_coloring,
    path_graph,
    rotate_fan,
)
from mgcolor.errors import InvariantError, PreconditionError
from tests.helpers import (
    cycle_in_the_table,
    rand_proper_coloring,
    reference_assign,
    reference_fan_candidate,
    reference_maximal_fan,
    reference_maximal_path,
    reference_rotate_fan,
    set_edge_color_unchecked,
)


@st.composite
def wide_palette_states(draw):
    # Reachable states whose palette may exceed Δ+1; the table stops at
    # Δ+1 all the same, and so do their colors.
    rng = random.Random(draw(st.integers(0, 2**32)))
    n, p = draw(st.integers(2, 8)), rng.choice([0.35, 0.6, 0.9])
    g = gnp_graph(n, p, rng.randrange(2**63))
    return rand_proper_coloring(rng, g, g.max_degree() + 1 + draw(st.integers(0, 3)))


@st.composite
def table_states(draw):
    # A complete loop coloring under a palette that may cut the table short,
    # some of it uncolored again, then a few unchecked writes of table
    # colors on any pair, non-edges included. Colors beyond the table are
    # left out, and so is a write that would repeat a color at either end.
    n = draw(st.integers(min_value=2, max_value=7))
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    g = Graph(n, draw(st.lists(st.sampled_from(possible), unique=True)))
    full = mk_edge_coloring(g)
    C = EdgeColoring(g, draw(st.integers(1, full.palette + 2)))
    width = min(C.palette, full.palette)
    edges = g.edge_set()
    dropped = draw(st.sets(st.sampled_from(edges))) if edges else set()
    for u, v in edges:
        if (u, v) not in dropped and full.color_of(u, v) < width:
            set_edge_color_unchecked(C, u, v, full.color_of(u, v))
    ops = st.tuples(
        st.sampled_from(possible),
        st.one_of(st.none(), st.integers(0, width - 1)),
        st.booleans(),
    )
    rows = C._colors
    for (u, v), col, flip in draw(st.lists(ops, max_size=6)):
        if col is None or not any(
            c == col for w, x in ((u, v), (v, u)) for z, c in rows[w].items() if z != x
        ):
            set_edge_color_unchecked(C, *((v, u) if flip else (u, v)), col)
    return C


states = st.one_of(wide_palette_states(), table_states())


def outcome(block, C: EdgeColoring, *args):
    """What `block` returns or raises on a copy of C, and the state after."""
    C = C.copy()
    try:
        result = block(C, *args)
    except Exception as exc:  # compared by class and message
        result = (type(exc), str(exc))
    return result, [dict(row) for row in C._colors], C._table(), C.count_colored()


def assert_same(block, reference, C: EdgeColoring, *args):
    assert outcome(block, C, *args) == outcome(reference, C, *args)


def draw_fan(data, C: EdgeColoring) -> Fan:
    """A fan as the loop builds it (maybe cut to a prefix), or any sequence."""
    n = C.graph.n
    x = data.draw(st.integers(0, n - 1))
    uncolored = [z for z in C.graph.adj[x] if C.color_of(x, z) is None]
    if uncolored and data.draw(st.booleans()):
        seq = reference_maximal_fan(C, x, data.draw(st.sampled_from(uncolored))).seq
        return Fan(x, seq[: data.draw(st.integers(1, len(seq)))])
    others = [v for v in range(n) if v != x]
    seq = data.draw(st.lists(st.sampled_from(others), max_size=4))
    free = [v for v in others if C.color_of(x, v) is None]
    if free and data.draw(st.booleans()):
        # An uncolored first edge meets rotate_fan's precondition.
        seq = [data.draw(st.sampled_from(free)), *seq]
    return Fan(x, tuple(seq))


def colors_for(data, C: EdgeColoring, v: int):
    """Mostly colors at v or at either end of the table, sometimes None."""
    width = len(C._table()[v])
    pool = sorted({*C._colors[v].values(), *range(min(2, width)), width - 1})
    return data.draw(st.one_of(st.sampled_from(pool), st.none()))


@given(states, st.data())
@settings(max_examples=300, deadline=None)
def test_maximal_fan_matches_the_reference(C, data):
    n = C.graph.n
    x = data.draw(st.integers(0, n - 1))
    # Mostly a neighbor of x; any vertex also reaches the precondition errors.
    near = st.sampled_from(C.graph.adj[x] or [x])
    y = data.draw(st.one_of(near, st.integers(0, n - 1)))
    assert_same(maximal_fan, reference_maximal_fan, C, x, y)


@given(states, st.data())
@settings(max_examples=300, deadline=None)
def test_is_maximal_fan_matches_the_reference(C, data):
    fan = draw_fan(data, C)
    if fan.seq:
        members = set(fan.seq)
        outside = [z for z in C.graph.adj[fan.center] if z not in members]
        expect = reference_fan_candidate(C, fan.center, fan.last(), outside) is None
        assert is_maximal_fan(C, fan) == expect


@given(states, st.data())
@settings(max_examples=300, deadline=None)
def test_rotate_fan_matches_the_reference(C, data):
    fan = draw_fan(data, C)
    color = colors_for(data, C, fan.center)
    assert_same(rotate_fan, reference_rotate_fan, C, fan, color)


@given(states, st.data())
@settings(max_examples=300, deadline=None)
def test_maximal_path_matches_the_reference(C, data):
    x = data.draw(st.integers(0, C.graph.n - 1))
    a, b = colors_for(data, C, x), colors_for(data, C, x)
    assert_same(maximal_path, reference_maximal_path, C, a, b, x)


def after_write(write, C: EdgeColoring, *args):
    """What `write` returns on a copy of C, the state after and, when that
    state is proper, the neighbor of every vertex along every color."""
    C = C.copy()
    result = write(C, *args)
    colors = range(-1, C.palette + 2)
    along = C.is_proper().proper and [
        [C.neighbor(v, c) for c in colors] for v in range(C.graph.n)
    ]
    return result, [dict(row) for row in C._colors], C._table(), C.count_colored(), along


def reference_shift_fan(C: EdgeColoring, x: int, seq, color):
    carry = color
    for f in reversed(seq):
        carry = reference_assign(C, x, f, carry)


@given(states, st.data())
@settings(max_examples=300, deadline=None)
def test_shift_fan_matches_the_pop_and_insert_reference(C, data):
    fan = draw_fan(data, C)
    color = colors_for(data, C, fan.center)
    args = (fan.center, fan.seq, color)
    assert after_write(EdgeColoring.shift_fan, C, *args) == after_write(
        reference_shift_fan, C, *args
    )


def reference_set_edge_color(C: EdgeColoring, u: int, v: int, color):
    reference_assign(C, u, v, color)


def reference_invert(C: EdgeColoring, path):
    """Reference `invert`: one `reference_assign` per path edge, front to back."""
    col, other = path.b, path.a
    for u, v in zip(path.seq, path.seq[1:]):
        reference_assign(C, u, v, col)
        col, other = other, col


@given(wide_palette_states(), st.data())
@settings(max_examples=300, deadline=None)
def test_invert_matches_the_per_edge_reference(C, data):
    # A maximal path of a proper state: b free on x, and a a color at x
    # when there is one, so that the path has an edge.
    x = data.draw(st.integers(0, C.graph.n - 1))
    width = len(C._table()[x])
    b = data.draw(st.sampled_from([c for c in range(width) if C.is_free(x, c)]))
    at_x = sorted(set(C._colors[x].values()))
    others = [c for c in range(width) if c != b]
    assume(at_x or others)
    a = data.draw(st.sampled_from(at_x or others))
    path = maximal_path(C, a, b, x)
    got = after_write(invert, C, path)
    assert got == after_write(reference_invert, C, path)
    assert got[4]  # the state after is proper, so every `neighbor` was compared


def test_each_fan_extension_is_the_first_match_of_a_fresh_scan():
    # Around 0 the candidates are 1, 2, 3, and {0, 2}, {0, 3} have colors
    # 0, 1. Both are free on 1, so the fan takes 2, the first match, then 3.
    C = EdgeColoring(Graph(5, [(0, 1), (0, 2), (0, 3), (1, 4)]), 4)
    C.set_edge_color(0, 2, 0)
    C.set_edge_color(0, 3, 1)
    assert maximal_fan(C, 0, 1) == Fan(0, (1, 2, 3))
    assert_same(maximal_fan, reference_maximal_fan, C, 0, 1)
    # With 0 used on 1 as well, the fan takes 3 first; 0 is free on 3, so
    # 2, listed before it, follows.
    C.set_edge_color(1, 4, 0)
    assert maximal_fan(C, 0, 1) == Fan(0, (1, 3, 2))
    assert_same(maximal_fan, reference_maximal_fan, C, 0, 1)


def test_a_revisited_vertex_is_reported_by_both():
    # Improper: two edges of color 0 at vertex 0 close a 0, 1 cycle, which
    # only a faulty kernel could write into the table.
    C = cycle_in_the_table()
    got = outcome(maximal_path, C, 0, 1, 0)
    assert got == outcome(reference_maximal_path, C, 0, 1, 0)
    assert got[0] == (
        InvariantError, "path extension revisited vertex 0; coloring state is broken"
    )


def test_a_rotation_that_revisits_a_vertex_keeps_the_slot_it_wrote_last():
    # K3 with {0, 2} colored 0. Written edge by edge from the back, the
    # rotation of (1, 2, 2, 1) with color 0 colors {0, 1} 0, uncolors {0, 2}
    # and colors it 0 again, then uncolors {0, 1}. By then 0's slot at 0
    # names 2, and it must keep naming it.
    C = EdgeColoring(Graph(3, [(0, 1), (1, 2), (0, 2)]), 3)
    C.set_edge_color(0, 2, 0)
    fan = Fan(0, (1, 2, 2, 1))
    got = outcome(rotate_fan, C, fan, 0)
    assert got == outcome(reference_rotate_fan, C, fan, 0)
    assert got[1:3] == ([{2: 0}, {}, {0: 0}], [[2, -1, -1], [-1, -1, -1], [0, -1, -1]])


def test_a_rotation_keeps_an_x_slot_it_has_just_written():
    # The star 0-1, 0-2 colored 0, 1. Rotating (1, 2) with color 0 gives
    # {0, 2} color 0 first, so when {0, 1} gives 0 up, 0's slot names 2.
    C = EdgeColoring(Graph(3, [(0, 1), (0, 2)]), 3)
    C.set_edge_color(0, 1, 0)
    C.set_edge_color(0, 2, 1)
    got = after_write(EdgeColoring.shift_fan, C, 0, (1, 2), 0)
    assert got == after_write(reference_shift_fan, C, 0, (1, 2), 0)
    assert got[1:3] == ([{1: 1, 2: 0}, {0: 1}, {0: 0}], [[2, 1, -1], [-1, 0, -1], [0, -1, -1]])


def test_uncoloring_clears_both_orientations():
    # Fixed examples beside the `@given` tests, so that a kill does not
    # rest on random search. Uncoloring {0, 1} drops it from both rows.
    C = EdgeColoring(Graph(3, [(0, 1), (1, 2), (0, 2)]), 3)
    for u, v, color in ((0, 1, 0), (1, 2, 1), (0, 2, 2)):
        C.set_edge_color(u, v, color)
    got = after_write(EdgeColoring.set_edge_color, C, 0, 1, None)
    assert got == after_write(reference_set_edge_color, C, 0, 1, None)
    assert got[1] == [{2: 2}, {2: 1}, {1: 1, 0: 2}]


def test_invert_writes_both_orientations_and_moves_the_last_slots():
    # The path 0-1-2 colored 0, 1 is the maximal (0, 1)-path from 0. Its
    # inversion writes each edge into both rows and moves the 0 and 1
    # slots of every path vertex, the last one included.
    C = EdgeColoring(path_graph(3), 3)
    C.set_edge_color(0, 1, 0)
    C.set_edge_color(1, 2, 1)
    path = maximal_path(C, 0, 1, 0)
    assert path.seq == (0, 1, 2)
    got = after_write(invert, C, path)
    assert got == after_write(reference_invert, C, path)
    assert got[1] == [{1: 1}, {0: 1, 2: 0}, {1: 0}]
    assert got[2] == [[-1, 1, -1], [2, 0, -1], [1, -1, -1]]
