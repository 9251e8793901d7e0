"""The exact backtracking oracle and the full-scan verdict checker."""

from __future__ import annotations

import random
from itertools import combinations

import pytest

from mgcolor import (
    EdgeColoring,
    Graph,
    backtrack_color,
    complete_graph,
    cycle_graph,
    exact_chromatic_index,
    gnp_graph,
    mk_edge_coloring,
    petersen_graph,
    star_graph,
    verify_coloring,
)
from mgcolor.errors import BadParamsError, DimensionMismatchError, TooLargeError
from tests.helpers import (
    reference_backtrack_color,
    set_edge_color_unchecked,
    witness_coloring,
)


class TestVerifyColoring:
    def test_algorithm_output_verifies(self):
        rng = random.Random(3)
        for _ in range(30):
            g = gnp_graph(rng.randint(0, 12), 0.4, rng.getrandbits(32))
            verdict = verify_coloring(g, mk_edge_coloring(g))
            assert verdict.ok
            assert verdict.first_violation is None

    def test_uncoloring_one_edge_reported(self):
        g = complete_graph(4)
        C = mk_edge_coloring(g)
        C.set_edge_color(1, 2, None)
        verdict = verify_coloring(g, C)
        assert verdict.proper and not verdict.complete
        assert verdict.first_violation.kind == "incomplete"
        assert verdict.first_violation.edge == (1, 2)

    def test_forced_conflict_reported(self):
        g = complete_graph(3)
        C = EdgeColoring(g, 3)
        set_edge_color_unchecked(C, 0, 1, 1)
        set_edge_color_unchecked(C, 0, 2, 1)
        verdict = verify_coloring(g, C)
        assert not verdict.proper
        assert verdict.first_violation.kind == "duplicate_color"

    def test_dimension_mismatch(self):
        g = complete_graph(3)
        C = EdgeColoring(complete_graph(4), 4)
        with pytest.raises(DimensionMismatchError):
            verify_coloring(g, C)

    def test_different_graph_same_n(self):
        C = EdgeColoring(Graph(3, [(0, 1)]), 2)
        with pytest.raises(DimensionMismatchError):
            verify_coloring(Graph(3, [(1, 2)]), C)


class TestExactChromaticIndex:
    # Expected values below were computed by this backtracking search and
    # agree with the classical classification of these families.
    @pytest.mark.parametrize(
        "g,expected",
        [
            (complete_graph(2), 1),
            (complete_graph(3), 3),
            (complete_graph(4), 3),
            (complete_graph(5), 5),
            (cycle_graph(5), 3),
            (cycle_graph(6), 2),
            (cycle_graph(9), 3),
            (star_graph(4), 4),
            (petersen_graph(), 4),
        ],
    )
    def test_known_values(self, g, expected):
        assert exact_chromatic_index(g) == expected

    def test_edgeless_is_zero(self):
        assert exact_chromatic_index(Graph(5)) == 0
        assert exact_chromatic_index(Graph(0)) == 0

    def test_cap_enforced(self):
        with pytest.raises(TooLargeError):
            exact_chromatic_index(complete_graph(9))  # 36 edges > 25
        with pytest.raises(TooLargeError):
            backtrack_color(complete_graph(9), 9)
        # The cap is configurable: K8 (28 edges) is over the default but
        # fine when allowed explicitly. K8 is class 1: chi' = 7.
        assert exact_chromatic_index(complete_graph(8), max_edges=28) == 7

    @pytest.mark.parametrize("g", [petersen_graph(), Graph(3)], ids=["petersen", "edgeless"])
    def test_a_negative_cap_is_a_bad_parameter(self, g):
        with pytest.raises(BadParamsError, match="edge cap must be nonnegative, got -1"):
            exact_chromatic_index(g, max_edges=-1)
        with pytest.raises(BadParamsError):
            backtrack_color(g, 3, max_edges=-1)
        assert exact_chromatic_index(g, max_edges=g.m) == (4 if g.m else 0)

    def test_k7_is_class_two(self):
        # Odd complete graphs need delta + 1: the k = 6 search must exhaust.
        assert exact_chromatic_index(complete_graph(7)) == 7

    def test_witness_is_a_real_coloring(self):
        for g in [cycle_graph(5), complete_graph(4), petersen_graph()]:
            k = exact_chromatic_index(g)
            witness = backtrack_color(g, k)
            assert witness is not None
            verdict = verify_coloring(g, witness_coloring(g, k, witness))
            assert verdict.ok
            assert verdict.colors_used == k  # fewer would contradict minimality

    def test_below_chromatic_index_fails(self):
        assert backtrack_color(cycle_graph(5), 2) is None
        assert backtrack_color(petersen_graph(), 3) is None
        assert backtrack_color(complete_graph(7), 6) is None
        assert backtrack_color(complete_graph(2), 0) is None

    def test_edgeless_witness_is_empty(self):
        assert backtrack_color(Graph(0), 0) == ()
        assert backtrack_color(Graph(3), 0) == ()

    def test_witness_matches_the_reference_on_every_small_graph(self):
        # Every labelled graph on at most 5 vertices, every k in 0..delta+1.
        for n in range(6):
            pairs = list(combinations(range(n), 2))
            for mask in range(1 << len(pairs)):
                g = Graph(n, [e for i, e in enumerate(pairs) if mask >> i & 1])
                for k in range(g.max_degree() + 2):
                    assert backtrack_color(g, k) == reference_backtrack_color(g, k), (
                        g.edge_set(), k)

    def test_witness_matches_the_reference_on_seeded_gnp_graphs(self):
        # The reference repeats each dead end under every relabeling, so one
        # dense class-2 graph on 8 vertices can cost it seconds; this seed's
        # 40 graphs include two class-2 proofs and run in under a second.
        rng = random.Random(19)
        for _ in range(40):
            g = gnp_graph(rng.randint(1, 8), rng.choice([0.2, 0.4, 0.6]), rng.getrandbits(32))
            for k in range(g.max_degree() + 2):
                assert backtrack_color(g, k, max_edges=28) == reference_backtrack_color(g, k), (
                    g.edge_set(), k)

    def test_sandwich(self):
        rng = random.Random(11)
        for _ in range(60):
            g = gnp_graph(rng.randint(1, 8), rng.choice([0.2, 0.5, 0.8]), rng.getrandbits(32))
            chi = exact_chromatic_index(g, max_edges=28)
            delta = g.max_degree()
            used = mk_edge_coloring(g).colors_used()
            if g.m == 0:
                assert chi == 0 and used == 0
            else:
                assert delta <= chi <= delta + 1
                assert chi <= used <= delta + 1

    def test_relabeling_invariance(self):
        rng = random.Random(29)
        for _ in range(25):
            n = rng.randint(1, 7)
            g = gnp_graph(n, 0.5, rng.getrandbits(32))
            perm = list(range(n))
            rng.shuffle(perm)
            relabeled = Graph(n, [(perm[u], perm[v]) for u, v in g.edge_set()])
            assert exact_chromatic_index(relabeled) == exact_chromatic_index(g)
