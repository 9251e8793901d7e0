"""The main loop: subfan selection, extension, progress, determinism."""

from __future__ import annotations

import random

import pytest

from mgcolor import (
    EdgeColoring,
    Graph,
    check_fan,
    complete_graph,
    cycle_graph,
    exact_chromatic_index,
    extend_coloring,
    find_subfan,
    invert,
    maximal_fan,
    maximal_path,
    mk_edge_coloring,
    path_graph,
    petersen_graph,
    star_graph,
    verify_coloring,
)
from mgcolor.errors import PreconditionError, SubfanError
from mgcolor.fan import Fan
from tests.helpers import rand_graph


class TestFindSubfan:
    def test_no_fan_edge_colored_a_returns_whole(self):
        # Fan <1> on 0-1; a = 1 is not incident on 0, so the path is a
        # singleton, inversion changes nothing, and the fan survives whole.
        g = path_graph(3)
        C = EdgeColoring(g, 3)
        C.set_edge_color(1, 2, 0)
        fan = maximal_fan(C, 0, 1)
        assert fan.seq == (1,)
        a = C.min_free_color(fan.last())
        b = C.min_free_color(0)
        assert (a, b) == (1, 0)
        path = maximal_path(C, a, b, 0)
        assert path.seq == (0,)
        sub = find_subfan(C, fan, path, a)
        assert sub == fan
        invert(C, path, debug=True)
        check_fan(C, sub)
        assert C.is_free(sub.last(), a)

    def test_prefix_case(self):
        # Fan <1, 2, 3> on center 0 with (0,2)=a and fan vertex 1 off the
        # path: the subfan is the prefix ending just before the a-edge.
        g = Graph(5, [(0, 1), (0, 2), (0, 3), (2, 4)])
        C = EdgeColoring(g, 4)
        C.set_edge_color(0, 2, 0)
        C.set_edge_color(0, 3, 2)
        C.set_edge_color(2, 4, 1)
        fan = maximal_fan(C, 0, 1, debug=True)
        assert fan.seq == (1, 2, 3)
        a = C.min_free_color(fan.last())
        b = C.min_free_color(0)
        assert (a, b) == (0, 1)
        path = maximal_path(C, a, b, 0, debug=True)
        assert path.seq == (0, 2, 4)
        sub = find_subfan(C, fan, path, a)
        assert sub.seq == (1,)
        invert(C, path, debug=True)
        check_fan(C, sub)
        assert C.is_free(sub.last(), a)
        assert C.is_free(0, a)  # inversion freed a on the center

    def test_whole_fan_when_predecessor_on_path(self):
        # Same fan shape, but the path turns back into fan vertex 1, so the
        # whole fan survives and a stays free on its true last vertex.
        g = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2)])
        C = EdgeColoring(g, 4)
        C.set_edge_color(0, 2, 0)
        C.set_edge_color(0, 3, 2)
        C.set_edge_color(1, 2, 1)
        fan = maximal_fan(C, 0, 1, debug=True)
        assert fan.seq == (1, 2, 3)
        a = C.min_free_color(fan.last())
        b = C.min_free_color(0)
        assert (a, b) == (0, 1)
        path = maximal_path(C, a, b, 0, debug=True)
        assert path.seq == (0, 2, 1)
        sub = find_subfan(C, fan, path, a)
        assert sub == fan
        invert(C, path, debug=True)
        check_fan(C, sub)
        assert C.is_free(sub.last(), a)

    def test_first_edge_colored_a_is_a_bug(self):
        g = path_graph(3)
        C = EdgeColoring(g, 3)
        C.set_edge_color(0, 1, 0)
        bogus = Fan(0, (1,))
        with pytest.raises(SubfanError):
            find_subfan(C, bogus, maximal_path(C, 1, 2, 0), 0)


class TestExtendColoring:
    def test_empty_edge_list_is_noop(self):
        g = complete_graph(3)
        C = EdgeColoring(g, 3)
        C.set_edge_color(0, 1, 1)
        before = C.copy()
        extend_coloring(C, [], debug=True)
        assert C == before

    def test_k2_gets_color_zero(self):
        g = complete_graph(2)
        C = EdgeColoring(g, 2)
        extend_coloring(C, g.edge_set(), debug=True)
        assert C.color_of(0, 1) == 0

    def test_palette_too_small_rejected(self):
        g = complete_graph(4)
        with pytest.raises(PreconditionError):
            extend_coloring(EdgeColoring(g, 3), g.edge_set())

    def test_precolored_edges_stay_colored(self):
        g = complete_graph(4)
        C = EdgeColoring(g, 4)
        C.set_edge_color(0, 3, 3)
        rest = [e for e in g.edge_set() if e != (0, 3)]
        extend_coloring(C, rest, debug=True)
        assert C.color_of(0, 3) is not None
        assert verify_coloring(g, C).ok

    def test_progress_one_edge_per_iteration(self):
        rng = random.Random(61)
        for _ in range(40):
            g = rand_graph(rng)
            trace = []
            C = mk_edge_coloring(g, debug=True, on_step=trace.append)
            assert len(trace) == g.m
            for i, step in enumerate(trace):
                assert step.colored_before == i
                assert step.colored_after == i + 1
                assert step.subfan_len <= len(step.fan)
            assert C.count_colored() == g.m

    def test_on_step_called_as_each_step_completes(self):
        g = petersen_graph()
        C = EdgeColoring(g, g.max_degree() + 1)
        seen = []

        def on_step(step):
            assert C.count_colored() == step.colored_after
            seen.append(step)

        extend_coloring(C, g.edge_set(), on_step=on_step)
        assert [s.edge for s in seen] == g.edge_set()
        assert [s.colored_after for s in seen] == list(range(1, g.m + 1))


class TestMkEdgeColoring:
    def test_edgeless(self):
        g = Graph(4)
        C = mk_edge_coloring(g, debug=True)
        assert verify_coloring(g, C).ok
        assert C.count_colored() == 0 and C.palette == 1

    def test_empty_graph(self):
        g = Graph(0)
        assert verify_coloring(g, mk_edge_coloring(g)).ok

    def test_k3_saturates_palette(self):
        # chi'(K3) = 3 (exact oracle), palette is 3, so exactly 3 colors.
        C = mk_edge_coloring(complete_graph(3))
        assert verify_coloring(complete_graph(3), C).ok
        assert C.colors_used() == 3 and C.palette == 3

    def test_petersen(self):
        # chi'(Petersen) = 4 (exact oracle), so exactly delta + 1 colors.
        g = petersen_graph()
        C = mk_edge_coloring(g, debug=True)
        assert verify_coloring(g, C).ok
        assert C.palette == 4 and C.colors_used() == 4

    def test_families(self):
        for g in [
            complete_graph(6),
            cycle_graph(7),
            path_graph(9),
            star_graph(5),
        ]:
            C = mk_edge_coloring(g, debug=True)
            verdict = verify_coloring(g, C)
            assert verdict.ok
            assert verdict.colors_used <= g.max_degree() + 1

    def test_random_end_to_end(self):
        rng = random.Random(67)
        for _ in range(50):
            g = rand_graph(rng, n_max=14)
            C = mk_edge_coloring(g)
            verdict = verify_coloring(g, C)
            assert verdict.ok
            assert verdict.colors_used <= g.max_degree() + 1

    def test_deterministic(self):
        rng = random.Random(71)
        for _ in range(20):
            g = rand_graph(rng, n_max=12)
            assert mk_edge_coloring(g) == mk_edge_coloring(g)

    def test_adjacency_order_drives_output(self):
        # Same abstract graph, different insertion order: both colorings are
        # valid; each run is determined by its own adjacency order.
        edges = [(0, 1), (0, 2), (1, 2), (2, 3)]
        g1 = Graph(4, edges)
        g2 = Graph(4, list(reversed(edges)))
        assert g1 == g2
        for g in (g1, g2):
            assert verify_coloring(g, mk_edge_coloring(g)).ok

    def test_debug_mode_changes_nothing(self):
        rng = random.Random(73)
        for _ in range(15):
            g = rand_graph(rng)
            assert mk_edge_coloring(g) == mk_edge_coloring(g, debug=True)

    def test_exhaustive_small_graphs(self):
        # Every labeled graph on at most 5 vertices, debug assertions on,
        # sandwiched against the exact oracle.
        import itertools

        for n in range(0, 6):
            pairs = list(itertools.combinations(range(n), 2))
            for mask in range(2 ** len(pairs)):
                edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
                g = Graph(n, edges)
                C = mk_edge_coloring(g, debug=True)
                assert verify_coloring(g, C).ok
                if g.m:
                    chi = exact_chromatic_index(g, max_edges=10)
                    assert g.max_degree() <= chi <= C.colors_used()
                    assert C.colors_used() <= g.max_degree() + 1

    def test_subfan_branch_exercised(self):
        rng = random.Random(79)
        inversions = 0
        for _ in range(60):
            g = rand_graph(rng, n_max=12)
            trace = []
            mk_edge_coloring(g, debug=True, on_step=trace.append)
            inversions += sum(1 for s in trace if s.path)
        assert inversions > 100
