"""Debug checks at the cost of a step, in one place.

The fan and path building blocks check nothing; `extend_coloring(debug=True)`
runs each lemma checker once on each state a step reaches. It checks
properness only on the rows the step wrote, the swap contract of an
inversion as the path alternating with its colors swapped, and only the
step's own edge against the pending ones. These tests show that this gives
the verdicts of the full scans, that the full scans run only at the two
ends of a run, that each checker runs once per state, that a fault in any
building block is caught at its step, and that a one-step run holds its
lemmas on every state of every small graph and on seeded samples of other
adjacency orders and of five-vertex states.
"""

from __future__ import annotations

import itertools
import random
import re
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mgcolor import (
    AltPath,
    EdgeColoring,
    Fan,
    Graph,
    complete_graph,
    extend_coloring,
    gnp_graph,
    mk_edge_coloring,
    path_graph,
)
from mgcolor import altpath, fan, vizing
from mgcolor.errors import (
    InvariantError,
    NotMaximalError,
    PreconditionError,
    SubfanError,
)
from tests.helpers import rand_proper_coloring, set_edge_color_unchecked, uncolored_edges


@given(st.integers(0, 2**32), st.integers(0, 12), st.data())
@settings(max_examples=300, deadline=None)
def test_local_verdict_equals_full_verdict_after_a_fault(seed, at, data):
    """Inject an unchecked write between two rows a step wrote, just before
    the step checks them: the local verdict must be the full one."""
    rng = random.Random(seed)
    p = rng.choice([0.15, 0.35, 0.6, 0.9])
    g = gnp_graph(rng.randint(3, 9), p, rng.randrange(2**63))
    C = rand_proper_coloring(rng, g)
    edges = uncolored_edges(C)
    real_shift_fan = EdgeColoring.shift_fan
    real_kempe_swap = EdgeColoring.kempe_swap
    real_violation_at = EdgeColoring.violation_at
    written: set[int] = set()
    calls = 0
    injected = None

    def shift_fan(self, x, seq, color):
        # A rotation writes rows x and seq.
        written.update((x, *seq))
        return real_shift_fan(self, x, seq, color)

    def kempe_swap(self, seq, a, b):
        # An inversion writes the rows of its path.
        written.update(seq)
        return real_kempe_swap(self, seq, a, b)

    def violation_at(self, vertices):
        nonlocal calls, injected
        if calls >= at and injected is None and len(written) >= 2:
            p, q = data.draw(st.lists(st.sampled_from(sorted(written)),
                                      min_size=2, max_size=2, unique=True))
            # Mostly a color already at p or q, so most faults are defects.
            present = sorted({*self._colors[p].values(), *self._colors[q].values()})
            colors = st.integers(0, self.palette - 1)
            if present:
                colors = st.one_of(st.sampled_from(present), colors)
            set_edge_color_unchecked(self, p, q, data.draw(colors))
            injected = self.is_proper()
        calls += 1
        written.clear()
        full = self.is_proper()
        local = real_violation_at(self, vertices)
        assert local == (None if full.proper else full.first_violation)
        return local

    with mock.patch.object(EdgeColoring, "shift_fan", shift_fan), \
            mock.patch.object(EdgeColoring, "kempe_swap", kempe_swap), \
            mock.patch.object(EdgeColoring, "violation_at", violation_at):
        try:
            extend_coloring(C, edges, debug=True)
        except (InvariantError, PreconditionError) as exc:
            # The injection may also recolor a fan or path edge, or color
            # the step's own uncolored edge, which a later check of the
            # same step reports in its own words.
            if injected is not None and not injected.proper:
                assert str(exc).endswith(
                    f"broke properness: {injected.first_violation}"
                )
            raised = True
        else:
            raised = False
    if injected is not None and not injected.proper:
        assert raised


def test_fault_after_the_last_step_is_reported_by_the_final_scan():
    # A write from outside the loop is not journaled, so no step check sees
    # it; the full scan after the last step does.
    g = path_graph(5)
    C = EdgeColoring(g, 3)
    edges = g.edge_set()

    def on_step(step):
        if step.colored_after == len(edges):
            set_edge_color_unchecked(C, 0, 1, C.color_of(1, 2))

    with pytest.raises(InvariantError, match=re.escape(
            "not proper after the last step: duplicate_color edge (1, 2) vertex 1")):
        extend_coloring(C, edges, debug=True, on_step=on_step)


@pytest.mark.parametrize("edges", [
    pytest.param([(0, 1), (0, 1)], id="second0"),
    pytest.param([(0, 1), (1, 0)], id="second1"),
    # On K3, with another pending edge listed between the two copies.
    pytest.param([(0, 1), (1, 2), (1, 0)], id="second_not_next"),
])
def test_a_step_that_colors_a_pending_edge_is_caught(edges):
    # Listing an edge twice: its first step colors the second copy.
    n = 1 + max(map(max, edges))
    second = edges[-1]
    C = EdgeColoring(complete_graph(n), n)
    pending = re.escape(f"pending edge {second} is already colored")
    with pytest.raises(InvariantError, match=pending):
        extend_coloring(C, edges, debug=True)
    assert C.count_colored() == 1


def test_debug_run_makes_two_full_scans_and_no_copies(monkeypatch):
    counts = {"is_proper": 0, "copy": 0}
    for name in counts:
        real = getattr(EdgeColoring, name)

        def counted(self, *args, _name=name, _real=real):
            counts[_name] += 1
            return _real(self, *args)

        monkeypatch.setattr(EdgeColoring, name, counted)
    g = gnp_graph(120, 0.1, seed=1)
    C = mk_edge_coloring(g, debug=True)
    assert counts == {"is_proper": 2, "copy": 0}
    assert C.count_colored() == g.m


def test_a_debug_step_checks_each_fan_and_path_state_once(monkeypatch):
    # The fan as built, and after an inversion the subfan; the path before
    # the inversion, and after it with its colors swapped.
    calls = {"check_fan": 0, "check_path": 0}
    for mod, name in [(fan, "check_fan"), (altpath, "check_path")]:
        real = getattr(mod, name)

        def counted(coloring, checked, _name=name, _real=real):
            calls[_name] += 1
            return _real(coloring, checked)

        for owner in (fan, altpath, vizing):
            if hasattr(owner, name):
                monkeypatch.setattr(owner, name, counted)
    steps = []
    mk_edge_coloring(gnp_graph(120, 0.1, seed=1), debug=True, on_step=steps.append)
    inversions = sum(1 for step in steps if step.path)
    assert (len(steps), inversions) == (727, 659)
    assert calls == {"check_fan": 727 + 659, "check_path": 2 * 659}


def shorter_fan(coloring, x, y):
    f = fan.maximal_fan(coloring, x, y)
    return Fan(f.center, f.seq[:-1] or f.seq)


def shorter_path(coloring, a, b, x):
    p = altpath.maximal_path(coloring, a, b, x)
    return AltPath(p.a, p.b, p.seq[:-1] or p.seq)


def whole_fan(coloring, f, path, a):
    return f


def invert_all_but_last(coloring, path):
    altpath.invert(coloring, AltPath(path.a, path.b, path.seq[:-1]))


@pytest.mark.parametrize("name, fault, error, message", [
    ("maximal_fan", shorter_fan, NotMaximalError, "constructed fan"),
    ("maximal_path", shorter_path, NotMaximalError, "constructed path"),
    ("find_subfan", whole_fan, SubfanError, "invalid after inversion"),
    ("invert", invert_all_but_last, InvariantError, "violated the swap contract"),
])
def test_a_faulty_building_block_is_caught_at_its_step(name, fault, error, message):
    # Each fault breaks one lemma the next debug check relies on: a fan or
    # path one vertex short of maximal, the whole fan where the subfan rule
    # truncates it, an inversion that skips its last write.
    with mock.patch.object(vizing, name, fault):
        with pytest.raises(error, match=message):
            mk_edge_coloring(gnp_graph(120, 0.1, seed=1), debug=True)


def proper_partial_colorings(g: Graph):
    """Every proper partial coloring of `g` with palette max_degree + 1."""
    palette = g.max_degree() + 1
    edges = g.edge_set()
    C = EdgeColoring(g, palette)

    def extend(i):
        if i == len(edges):
            yield C.copy()
            return
        u, v = edges[i]
        yield from extend(i + 1)
        for color in range(palette):
            if C.is_free(u, color) and C.is_free(v, color):
                C.set_edge_color(u, v, color)
                yield from extend(i + 1)
                C.set_edge_color(u, v, None)

    yield from extend(0)


def edge_lists(n: int):
    """The edges of every graph on vertices 0..n-1 with at least one edge,
    in canonical order."""
    pairs = list(itertools.combinations(range(n), 2))
    for mask in range(1, 1 << len(pairs)):
        yield [e for i, e in enumerate(pairs) if mask >> i & 1]


def other_adjacency_orders(n: int, edges: list) -> list:
    """One edge list per adjacency order of `Graph(n, edges)` other than
    the one `edges` gives, in a fixed order."""
    seen = {tuple(map(tuple, Graph(n, edges).adj))}
    orders = []
    for perm in itertools.permutations(edges):
        key = tuple(map(tuple, Graph(n, perm).adj))
        if key not in seen:
            seen.add(key)
            orders.append(perm)
    return orders


def step_every_uncolored_edge(state: EdgeColoring) -> int:
    """One debug step from `state` on each uncolored edge; their number.

    Each step must color exactly one more edge, keep the coloring proper
    and keep every colored edge colored, and no checker may fire.
    """
    colored = [e for e in state.graph.edge_set() if state.color_of(*e) is not None]
    free = uncolored_edges(state)
    for e in free:
        C = state.copy()
        extend_coloring(C, [e], debug=True)
        assert C.count_colored() == state.count_colored() + 1
        assert C.is_proper().proper
        assert all(C.color_of(*f) is not None for f in colored)
    return len(free)


def test_one_step_on_every_state_of_every_graph_up_to_four_vertices():
    # Graphs in canonical edge order; debug mode runs every lemma checker.
    steps = graphs = 0
    for n in range(5):
        for edges in edge_lists(n):
            g = Graph(n, edges)
            graphs += 1
            steps += sum(map(step_every_uncolored_edge, proper_partial_colorings(g)))
    assert (graphs, steps) == (71, 18571)


def test_one_step_on_every_state_of_sampled_adjacency_orders():
    # For each graph on at most 4 vertices, one seeded pick among its other
    # adjacency orders, which change the fan and path candidate order.
    rng = random.Random(2026)
    steps = graphs = 0
    for n in range(5):
        for edges in edge_lists(n):
            orders = other_adjacency_orders(n, edges)
            if orders:
                g = Graph(n, rng.choice(orders))
                graphs += 1
                steps += sum(map(step_every_uncolored_edge, proper_partial_colorings(g)))
    assert (graphs, steps) == (58, 18543)


def test_one_step_on_sampled_states_of_five_vertex_graphs():
    # Every graph on 5 vertices, each in a seeded adjacency order and from
    # seeded random proper partial colorings.
    rng = random.Random(5)
    steps = graphs = 0
    for edges in edge_lists(5):
        rng.shuffle(edges)
        g = Graph(5, edges)
        graphs += 1
        for _ in range(8):
            steps += step_every_uncolored_edge(rand_proper_coloring(rng, g))
    assert (graphs, steps) == (1023, 19874)
