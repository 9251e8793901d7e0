"""Alternating paths: the path checkers, construction, inversion lemma."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mgcolor import (
    AltPath,
    EdgeColoring,
    Graph,
    check_path,
    invert,
    is_maximal_path,
    maximal_path,
    path_graph,
)
from mgcolor.errors import InvariantError, PathInvariantError, PreconditionError
from tests.helpers import (
    checked_invert,
    checked_maximal_path,
    free_colors_on,
    is_inverted,
    rand_graph,
    rand_proper_coloring,
    set_edge_color_unchecked,
)


def two_edge_instance():
    """Path 0-1-2 with (0, 1) colored 0; colors (a, b) = (0, 1)."""
    g = path_graph(3)
    C = EdgeColoring(g, 3)
    C.set_edge_color(0, 1, 0)
    return C


def alternating_path(length, a, b, palette):
    """Path 0-1-...-(length-1) whose edges are colored a, b, a, ... in order,
    beside a star of palette - 1 edges, so that the table holds the palette."""
    star = [(length, length + 1 + i) for i in range(palette - 1)]
    path = [(i, i + 1) for i in range(length - 1)]
    C = EdgeColoring(Graph(length + palette, path + star), palette)
    for i in range(length - 1):
        C.set_edge_color(i, i + 1, b if i % 2 else a)
    return C


class TestAlternates:
    """`check_path` accepts exactly the sequences whose edges alternate a, b."""

    def test_short_lists_always_alternate(self):
        C = two_edge_instance()
        for v in range(3):
            check_path(C, AltPath(0, 1, (v,)))
            check_path(C, AltPath(1, 0, (v,)))

    def test_three_vertices(self):
        good = alternating_path(3, 0, 1, 3)
        check_path(good, AltPath(0, 1, (0, 1, 2)))
        bad = alternating_path(3, 0, 1, 3)
        set_edge_color_unchecked(bad, 1, 2, 0)
        with pytest.raises(PathInvariantError):
            check_path(bad, AltPath(0, 1, (0, 1, 2)))

    def test_first_pair_must_be_a(self):
        C = EdgeColoring(path_graph(2), 2)
        C.set_edge_color(0, 1, 1)
        with pytest.raises(PathInvariantError):
            check_path(C, AltPath(0, 1, (0, 1)))

    def test_a_walk_round_a_cycle_is_not_a_path(self):
        # The 4-cycle colored 0, 1, 0, 1 alternates all the way round, so
        # only the duplicate test rejects the walk back to its start.
        C = EdgeColoring(Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)]), 2)
        for u, v, color in ((0, 1, 0), (1, 2, 1), (2, 3, 0), (0, 3, 1)):
            C.set_edge_color(u, v, color)
        check_path(C, AltPath(0, 1, (0, 1, 2, 3)))
        with pytest.raises(PathInvariantError, match="has duplicates"):
            check_path(C, AltPath(0, 1, (0, 1, 2, 3, 0)))


class TestNextColor:
    """The next edge of a path with an odd number of vertices needs color a,
    otherwise b; `is_maximal_path` asks whether that color is free."""

    def test_base_cases(self):
        C = alternating_path(5, 0, 1, 3)
        for k in range(1, 6):
            # Each proper prefix ends at a vertex carrying the next color.
            assert is_maximal_path(C, AltPath(0, 1, tuple(range(k)))) == (k == 5)
        assert maximal_path(C, 0, 2, 0).seq == (0, 1)
        assert maximal_path(C, 1, 0, 4).seq == (4, 3, 2, 1, 0)

    @given(st.integers(1, 12), st.integers(0, 5), st.integers(6, 11))
    @settings(max_examples=120)
    def test_append_characterization(self, length, a, b):
        # Appending a vertex keeps the path alternating iff the new edge has
        # the color that `is_maximal_path` looks for on the shorter path.
        C = alternating_path(length + 1, a, b, 12)
        seq = tuple(range(length))
        check_path(C, AltPath(a, b, seq))
        extended = AltPath(a, b, seq + (length,))
        nxt = b if length % 2 == 0 else a
        assert C.color_of(length - 1, length) == nxt
        assert not is_maximal_path(C, AltPath(a, b, seq))
        check_path(C, extended)
        assert is_maximal_path(C, extended)
        set_edge_color_unchecked(C, length - 1, length, a if nxt == b else b)
        with pytest.raises(PathInvariantError):
            check_path(C, extended)


class TestNextVertex:
    """Each step of `maximal_path` follows the next color from the last vertex."""

    def test_none_when_no_candidate(self):
        C = two_edge_instance()
        # Color 2 is on no edge at 0: no a-edge, so the path is [0].
        assert checked_maximal_path(C, 2, 1, 0).seq == (0,)
        # From [0, 1] the next edge must be colored 1; vertex 1 has none.
        assert checked_maximal_path(C, 0, 1, 0).seq == (0, 1)

    def test_first_step_follows_color_a(self):
        C = two_edge_instance()
        C.set_edge_color(1, 2, 1)
        assert checked_maximal_path(C, 0, 1, 0).seq == (0, 1, 2)
        assert checked_maximal_path(C, 1, 0, 2).seq == (2, 1, 0)

    def test_candidates_never_on_path(self):
        rng = random.Random(43)
        observed = 0
        for _ in range(400):
            g = rand_graph(rng)
            C = rand_proper_coloring(rng, g)
            if g.n == 0 or C.palette < 2:
                continue
            x = rng.randrange(g.n)
            free = free_colors_on(C, x)
            if not free:
                continue
            b = rng.choice(free)
            a = rng.choice([c for c in range(C.palette) if c != b])
            path = checked_maximal_path(C, a, b, x)
            assert len(set(path.seq)) == len(path.seq)
            observed += len(path.seq) - 1
        assert observed > 100
        # Only an improper coloring can lead the walk back onto the path:
        # 0 -a- 1 -b- 2 -a- 0 gives vertex 0 two a-edges.
        C = EdgeColoring(Graph(3, [(0, 1), (1, 2), (2, 0)]), 3)
        set_edge_color_unchecked(C, 0, 1, 0)
        set_edge_color_unchecked(C, 1, 2, 1)
        set_edge_color_unchecked(C, 2, 0, 0)
        with pytest.raises(InvariantError):
            maximal_path(C, 0, 1, 0)


class TestMaximalPath:
    def test_singleton_when_no_a_edge(self):
        g = path_graph(2)
        C = EdgeColoring(g, 2)
        path = checked_maximal_path(C, 0, 1, 0)
        assert path.seq == (0,)

    def test_two_vertex_path(self):
        C = two_edge_instance()
        path = checked_maximal_path(C, 0, 1, 0)
        assert path.seq == (0, 1)
        check_path(C, path)
        assert is_maximal_path(C, path)

    def test_preconditions(self):
        C = two_edge_instance()
        with pytest.raises(PreconditionError):
            maximal_path(C, 0, 0, 0)  # a == b
        with pytest.raises(PreconditionError):
            maximal_path(C, 1, 0, 0)  # b = 0 is incident on 0
        with pytest.raises(PreconditionError):
            maximal_path(C, None, 1, 0)  # colors must be real

    @pytest.mark.parametrize("a, b", [(-1, 1), (3, 1), (0, -1), (0, 3)])
    def test_colors_outside_the_table_rejected(self, a, b):
        # The table holds colors 0..2: -1 would index a row from its end.
        C = two_edge_instance()
        with pytest.raises(PreconditionError, match=r"must lie in the table \[0, 3\)"):
            maximal_path(C, a, b, 2)

    def test_empty_path_rejected(self):
        C = EdgeColoring(path_graph(3), 3)
        with pytest.raises(PathInvariantError, match="empty"):
            is_maximal_path(C, AltPath(0, 1, ()))

    def test_random_paths_valid_and_bounded(self):
        rng = random.Random(47)
        built = 0
        for _ in range(300):
            g = rand_graph(rng)
            C = rand_proper_coloring(rng, g)
            if g.n == 0 or C.palette < 2:
                continue
            x = rng.randrange(g.n)
            free = free_colors_on(C, x)
            if not free:
                continue
            b = rng.choice(free)
            a = rng.choice([c for c in range(C.palette) if c != b])
            path = checked_maximal_path(C, a, b, x)
            assert len(path.seq) <= g.n
            assert path.seq[0] == x
            check_path(C, path)
            assert is_maximal_path(C, path)
            # One-sided construction suffices: nothing colored a or b leaves
            # x except along the path.
            for z in g.adj[x]:
                if C.color_of(x, z) in (a, b):
                    assert z in path.seq
            built += 1
        assert built > 100


def random_path_instance(rng):
    """A proper coloring plus a maximal alternating path on it, or None."""
    g = rand_graph(rng)
    C = rand_proper_coloring(rng, g)
    if g.n == 0 or C.palette < 2:
        return None
    x = rng.randrange(g.n)
    free = free_colors_on(C, x)
    if not free:
        return None
    b = rng.choice(free)
    a = rng.choice([c for c in range(C.palette) if c != b])
    return C, maximal_path(C, a, b, x)


class TestInvert:
    def test_singleton_noop(self):
        C = two_edge_instance()
        before = C.copy()
        path = maximal_path(C, 2, 1, 2)  # vertex 2 has no 2-colored edge
        assert path.seq == (2,)
        checked_invert(C, path)
        assert C == before

    def test_single_edge_swap(self):
        C = two_edge_instance()
        path = maximal_path(C, 0, 1, 0)
        assert path.seq == (0, 1)
        checked_invert(C, path)
        assert C.color_of(0, 1) == 1
        assert C.color_of(1, 2) is None

    def test_inversion_lemma_randomized(self):
        rng = random.Random(53)
        inverted = 0
        while inverted < 250:
            inst = random_path_instance(rng)
            if inst is None:
                continue
            C, path = inst
            before = C.copy()
            checked_invert(C, path)
            assert C.is_proper().proper
            assert is_inverted(before, C, path)
            # Exactly the colored path edges changed, each by an a/b swap.
            pairs = set(zip(path.seq, path.seq[1:]))
            pairs |= {(v, u) for u, v in pairs}
            for u, v in C.graph.edge_set():
                old, new = before.color_of(u, v), C.color_of(u, v)
                if (u, v) in pairs and old is not None:
                    assert {old, new} == {path.a, path.b}
                else:
                    assert old == new
            # count preserved; a- and b-edge counts swap along the path.
            assert C.count_colored() == before.count_colored()
            pairs = [
                (path.seq[i], path.seq[i + 1]) for i in range(len(path.seq) - 1)
            ]
            a_before = sum(1 for u, v in pairs if before.color_of(u, v) == path.a)
            b_before = sum(1 for u, v in pairs if before.color_of(u, v) == path.b)
            a_after = sum(1 for u, v in pairs if C.color_of(u, v) == path.a)
            b_after = sum(1 for u, v in pairs if C.color_of(u, v) == path.b)
            assert (a_after, b_after) == (b_before, a_before)
            inverted += 1

    def test_free_color_bookkeeping(self):
        rng = random.Random(59)
        done = 0
        while done < 200:
            inst = random_path_instance(rng)
            if inst is None:
                continue
            C, path = inst
            before = C.copy()
            invert(C, path)
            a, b = path.a, path.b
            # b was free on the start vertex; a must be free afterwards.
            assert C.is_free(path.seq[0], a)
            # Interior path vertices keep their whole free set.
            for v in path.seq[1:-1]:
                assert free_colors_on(before, v) == free_colors_on(C, v)
            # Colors outside {a, b} free anywhere stay free (inversion only
            # touches a- and b-colored edges).
            for v in range(C.graph.n):
                for col in free_colors_on(before, v):
                    if col not in (a, b):
                        assert C.is_free(v, col)
            # Any a/b-colored edge at a path vertex after inversion is a
            # path edge.
            on_path = set(zip(path.seq, path.seq[1:]))
            on_path |= {(w, v) for v, w in on_path}
            for v in path.seq:
                for w in C.graph.adj[v]:
                    if C.color_of(v, w) in (a, b):
                        assert (v, w) in on_path
            done += 1


class TestIsInverted:
    def test_identity_fails_when_path_has_colored_edges(self):
        C = two_edge_instance()
        path = maximal_path(C, 0, 1, 0)
        assert path.seq == (0, 1)
        assert not is_inverted(C, C.copy(), path)

    def test_unrelated_edge_change_detected(self):
        g = path_graph(3)
        C = EdgeColoring(g, 3)
        C.set_edge_color(0, 1, 0)
        path = maximal_path(C, 0, 1, 0)
        after = C.copy()
        invert(after, path)
        after.set_edge_color(1, 2, 2)  # off-path edit
        assert not is_inverted(C, after, path)

    def test_report_rejects_non_swap_recoloring(self):
        g = path_graph(3)
        C = EdgeColoring(g, 3)
        C.set_edge_color(0, 1, 0)
        path = maximal_path(C, 0, 1, 0)
        after = C.copy()
        after.set_edge_color(0, 1, 2)  # changed, but not an a/b swap
        assert not is_inverted(C, after, path)

    def test_path_edge_of_another_color_must_keep_it(self):
        # A sequence through an edge colored neither a nor b: the swap
        # leaves that edge alone, so any change to it is rejected.
        g = path_graph(3)
        C = EdgeColoring(g, 3)
        C.set_edge_color(0, 1, 0)
        C.set_edge_color(1, 2, 2)
        path = AltPath(0, 1, (0, 1, 2))
        after = C.copy()
        after.set_edge_color(0, 1, 1)
        assert is_inverted(C, after, path)
        after.set_edge_color(1, 2, 0)
        assert not is_inverted(C, after, path)

    def test_check_path_rejects_garbage(self):
        C = two_edge_instance()
        with pytest.raises(PathInvariantError):
            check_path(C, AltPath(0, 1, ()))
        with pytest.raises(PathInvariantError):
            check_path(C, AltPath(0, 0, (0, 1)))
        with pytest.raises(PathInvariantError):
            check_path(C, AltPath(1, 2, (0, 1)))  # edge (0,1) is colored 0
        with pytest.raises(PathInvariantError):
            check_path(C, AltPath(0, 1, (0, 1, 0)))
