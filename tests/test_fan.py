"""Fans: construction, maximality, rotation, and the rotation lemma."""

from __future__ import annotations

import random

import pytest

from mgcolor import (
    EdgeColoring,
    Fan,
    Graph,
    check_fan,
    complete_graph,
    is_maximal_fan,
    maximal_fan,
    mk_edge_coloring,
    rotate_fan,
    star_graph,
)
from mgcolor.errors import (
    EdgeAlreadyColoredError,
    FanInvariantError,
    NotAnEdgeError,
    PreconditionError,
    VertexRangeError,
)
from tests.helpers import (
    checked_maximal_fan,
    checked_rotate_fan,
    pick_rotation_color,
    rand_graph,
    rand_proper_coloring,
    rotate_fan_direct,
    uncolored_edges,
)


def star2_instance():
    """Star with center 0 and leaves 1, 2; edge (0, 2) colored 0."""
    g = star_graph(2)
    C = EdgeColoring(g, 3)
    C.set_edge_color(0, 2, 0)
    return C


class TestSingleton:
    """The one-element fan <y> around x is valid iff {x, y} is an edge."""

    def test_k2(self):
        C = EdgeColoring(complete_graph(2), 2)
        fan = Fan(0, (1,))
        check_fan(C, fan)
        assert maximal_fan(C, 0, 1) == fan

    def test_same_vertex_rejected(self):
        C = EdgeColoring(complete_graph(2), 2)
        with pytest.raises(FanInvariantError):
            check_fan(C, Fan(0, (0,)))
        with pytest.raises(NotAnEdgeError):
            maximal_fan(C, 0, 0)

    def test_non_edge_rejected(self):
        C = EdgeColoring(Graph(3, [(0, 1)]), 2)
        with pytest.raises(FanInvariantError):
            check_fan(C, Fan(0, (2,)))


class TestMaximalFan:
    def test_empty_coloring_gives_singleton(self):
        # No colored edge exists, and an uncolored edge can never extend a fan.
        for g in [complete_graph(4), star_graph(3)]:
            C = EdgeColoring(g, g.max_degree() + 1)
            assert checked_maximal_fan(C, 0, 1).seq == (1,)

    def test_star_extends_once(self):
        C = star2_instance()
        fan = checked_maximal_fan(C, 0, 1)
        assert fan.seq == (1, 2)
        check_fan(C, fan)

    def test_already_colored_rejected(self):
        C = star2_instance()
        with pytest.raises(EdgeAlreadyColoredError):
            maximal_fan(C, 0, 2)

    def test_non_edge_rejected(self):
        C = EdgeColoring(Graph(3, [(0, 1)]), 2)
        with pytest.raises(NotAnEdgeError):
            maximal_fan(C, 1, 2)

    def test_output_is_maximal(self):
        rng = random.Random(31)
        checked = 0
        for _ in range(150):
            g = rand_graph(rng)
            C = rand_proper_coloring(rng, g)
            free = uncolored_edges(C)
            if not free:
                continue
            x, y = free[rng.randrange(len(free))]
            fan = checked_maximal_fan(C, x, y)
            assert is_maximal_fan(C, fan)
            checked += 1
        assert checked > 60

    def test_prefix_of_maximal_fan_not_maximal(self):
        C = star2_instance()
        fan = maximal_fan(C, 0, 1)
        assert fan.seq == (1, 2)
        assert not is_maximal_fan(C, Fan(0, fan.seq[:1]))

    def test_singleton_maximal_when_no_candidates(self):
        C = EdgeColoring(complete_graph(2), 2)
        assert is_maximal_fan(C, Fan(0, (1,)))

    def test_vertices_out_of_range_rejected(self):
        # A negative center or last vertex must not index from the end.
        C = EdgeColoring(complete_graph(3), 3)
        for fan in [Fan(-1, (0,)), Fan(0, (-1,)), Fan(3, (0,)), Fan(0, (3,))]:
            with pytest.raises(VertexRangeError):
                is_maximal_fan(C, fan)

    def test_empty_fan_rejected(self):
        C = EdgeColoring(complete_graph(3), 3)
        with pytest.raises(FanInvariantError, match="empty"):
            is_maximal_fan(C, Fan(0, ()))

    def test_candidate_scan_follows_adjacency_order(self):
        # Two admissible candidates; the one mentioned first in the input
        # edge list wins, so insertion order fully determines the fan.
        for edges, expected in [
            ([(0, 1), (0, 2), (0, 3)], (1, 2, 3)),
            ([(0, 1), (0, 3), (0, 2)], (1, 3, 2)),
        ]:
            g = Graph(4, edges)
            C = EdgeColoring(g, 3)
            C.set_edge_color(0, 2, 0)
            C.set_edge_color(0, 3, 1)
            assert checked_maximal_fan(C, 0, 1).seq == expected

    def test_structure(self):
        rng = random.Random(77)
        for _ in range(120):
            g = rand_graph(rng)
            C = rand_proper_coloring(rng, g)
            free = uncolored_edges(C)
            if not free:
                continue
            x, y = free[rng.randrange(len(free))]
            fan = maximal_fan(C, x, y)
            assert len(fan.seq) <= len(g.adj[x])
            assert len(set(fan.seq)) == len(fan.seq)
            assert x not in fan.seq
            assert fan.seq[0] == y


class TestCheckFan:
    def test_rejects_broken_color_property(self):
        C = star2_instance()
        # <2, 1>: edge (0, 1) is uncolored, so the pair (2, 1) breaks the rule.
        with pytest.raises(FanInvariantError):
            check_fan(C, Fan(0, (2, 1)))

    def test_rejects_duplicates_and_strangers(self):
        C = star2_instance()
        with pytest.raises(FanInvariantError):
            check_fan(C, Fan(0, (1, 1)))
        with pytest.raises(FanInvariantError):
            check_fan(C, Fan(1, (2,)))
        with pytest.raises(FanInvariantError):
            check_fan(C, Fan(0, ()))


class TestRotate:
    def test_singleton_unrolled(self):
        C = EdgeColoring(complete_graph(2), 2)
        fan = Fan(0, (1,))
        checked_rotate_fan(C, fan, 0)
        assert C.color_of(0, 1) == 0
        assert C.count_colored() == 1

    def test_two_fan_unrolled(self):
        C = star2_instance()
        fan = maximal_fan(C, 0, 1)  # <1, 2> with (0, 2) = 0
        checked_rotate_fan(C, fan, 2)
        assert C.color_of(0, 1) == 0
        assert C.color_of(0, 2) == 2

    def test_first_edge_must_be_uncolored(self):
        C = star2_instance()
        with pytest.raises(PreconditionError):
            rotate_fan(C, Fan(0, (2,)), 1)

    def test_empty_fan_rejected(self):
        C = EdgeColoring(complete_graph(3), 3)
        with pytest.raises(PreconditionError):
            rotate_fan(C, Fan(0, ()), 0)
        assert C.count_colored() == 0

    @pytest.mark.parametrize("color", [-1, 3])
    def test_color_outside_the_table_rejected(self, color):
        # K3's table holds colors 0..2 whatever the palette.
        C = EdgeColoring(complete_graph(3), 5)
        with pytest.raises(PreconditionError, match=r"outside the table \[0, 3\)"):
            rotate_fan(C, Fan(0, (1,)), color)
        assert C.count_colored() == 0

    def test_preserves_properness_and_counts(self):
        rng = random.Random(13)
        rotated = 0
        real_color = 0
        while rotated < 300:
            g = rand_graph(rng)
            C = rand_proper_coloring(rng, g)
            free = uncolored_edges(C)
            if not free:
                continue
            x, y = free[rng.randrange(len(free))]
            fan = maximal_fan(C, x, y)
            color = pick_rotation_color(rng, C, fan)
            before = C.count_colored()
            checked_rotate_fan(C, fan, color)
            if color is not None:
                real_color += 1
                assert C.count_colored() == before + 1
            assert C.is_proper().proper
            rotated += 1
        assert real_color > 150

    def test_untouched_edges_keep_colors(self):
        rng = random.Random(17)
        for _ in range(60):
            g = rand_graph(rng)
            C = rand_proper_coloring(rng, g)
            free = uncolored_edges(C)
            if not free:
                continue
            x, y = free[rng.randrange(len(free))]
            fan = maximal_fan(C, x, y)
            color = pick_rotation_color(rng, C, fan)
            before = C.copy()
            rotate_fan(C, fan, color)
            fan_edges = {(x, f) for f in fan.seq} | {(f, x) for f in fan.seq}
            for u, v in g.edge_set():
                if (u, v) not in fan_edges:
                    assert C.color_of(u, v) == before.color_of(u, v)

    def test_shift_semantics(self):
        rng = random.Random(19)
        for _ in range(80):
            g = rand_graph(rng)
            C = rand_proper_coloring(rng, g)
            free = uncolored_edges(C)
            if not free:
                continue
            x, y = free[rng.randrange(len(free))]
            fan = maximal_fan(C, x, y)
            color = pick_rotation_color(rng, C, fan)
            old = [C.color_of(x, f) for f in fan.seq]
            rotate_fan(C, fan, color)
            for i in range(len(fan.seq) - 1):
                assert C.color_of(x, fan.seq[i]) == old[i + 1]
            assert C.color_of(x, fan.last()) == color


def test_fused_equals_direct_shift():
    rng = random.Random(2024)
    for _ in range(250):
        g = rand_graph(rng)
        C = rand_proper_coloring(rng, g)
        free = uncolored_edges(C)
        if not free:
            continue
        x, y = free[rng.randrange(len(free))]
        fan = maximal_fan(C, x, y)
        color = pick_rotation_color(rng, C, fan)
        reference = rotate_fan_direct(C, fan, color)
        rotate_fan(C, fan, color)
        assert C == reference


def test_progress_step_inside_algorithm():
    # The fan rotated by the main loop always starts at an uncolored edge and
    # receives a real color, so each rotation adds exactly one colored edge.
    g = complete_graph(5)
    C = mk_edge_coloring(g)
    assert C.count_colored() == g.m
