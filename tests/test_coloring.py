"""EdgeColoring: queries, validated recoloring, and the full-scan checker."""

from __future__ import annotations

import io
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mgcolor import (
    AltPath,
    EdgeColoring,
    Graph,
    Verdict,
    Violation,
    complete_graph,
    extend_coloring,
    format_coloring,
    gnp_graph,
    invert,
    mk_edge_coloring,
    parse_coloring,
    path_graph,
    star_graph,
    verify_coloring,
)
from mgcolor.errors import (
    BadPaletteError,
    DimensionMismatchError,
    InvalidColorError,
    InvariantError,
    NotAnEdgeError,
    ParseError,
    PreconditionError,
    VertexRangeError,
)
from tests.helpers import (
    LONG_FILE_BREAKS,
    free_colors_on,
    long_file_with_a_bad_line,
    ordered_verdict,
    rand_graph,
    rand_proper_coloring,
    reference_format_coloring,
    reference_parse_coloring,
    set_edge_color_unchecked,
    table_refusal,
)


def k3_coloring(palette: int = 3) -> EdgeColoring:
    return EdgeColoring(complete_graph(3), palette)


class TestBasics:
    def test_empty(self):
        C = EdgeColoring(complete_graph(3), 3)
        assert all(C.color_of(u, v) is None for u in range(3) for v in range(3))
        assert C.count_colored() == 0
        assert C.colors_used() == 0

    def test_bad_palette(self):
        with pytest.raises(BadPaletteError):
            EdgeColoring(complete_graph(3), 0)

    def test_set_then_get_both_orientations(self):
        C = k3_coloring()
        C.set_edge_color(0, 1, 0)
        assert C.color_of(0, 1) == 0
        assert C.color_of(1, 0) == 0

    def test_non_edge_reads_none(self):
        g = Graph(3, [(0, 1), (1, 2)])  # K3 minus an edge
        C = EdgeColoring(g, 3)
        assert C.color_of(0, 2) is None

    def test_color_of_out_of_range(self):
        C = k3_coloring()
        with pytest.raises(VertexRangeError):
            C.color_of(0, 3)


class TestFreeColors:
    def test_all_free_when_empty(self):
        assert free_colors_on(k3_coloring(), 0) == [0, 1, 2]

    def test_shrinks_after_coloring(self):
        C = k3_coloring()
        C.set_edge_color(0, 1, 0)
        assert free_colors_on(C, 0) == [1, 2]
        assert free_colors_on(C, 2) == [0, 1, 2]

    def test_ascending(self):
        C = EdgeColoring(complete_graph(4), 4)
        C.set_edge_color(0, 1, 2)
        C.set_edge_color(0, 2, 0)
        assert free_colors_on(C, 0) == [1, 3]
        assert C.min_free_color(0) == 1

    def test_out_of_range(self):
        with pytest.raises(VertexRangeError):
            free_colors_on(k3_coloring(), 5)

    @pytest.mark.parametrize("v", [-1, 4])
    def test_lookups_reject_a_vertex_out_of_range(self, v):
        # -1 would index the last row from the end; 4 = n has no row.
        C = EdgeColoring(path_graph(4), 3)
        with pytest.raises(VertexRangeError):
            C.min_free_color(v)
        with pytest.raises(VertexRangeError):
            C.neighbor(v, 0)
        with pytest.raises(VertexRangeError):
            C.is_free(v, 0)


class TestValidity:
    def test_none_always_valid(self):
        C = k3_coloring()
        C.set_edge_color(0, 1, 0)
        assert C.edge_color_valid(0, 1, None)

    def test_fresh_color_valid_on_empty(self):
        assert k3_coloring().edge_color_valid(0, 1, 2)

    def test_incident_conflict_invalid(self):
        C = k3_coloring()
        C.set_edge_color(0, 1, 0)
        assert not C.edge_color_valid(0, 2, 0)

    def test_non_edge_raises(self):
        C = EdgeColoring(path_graph(3), 3)
        with pytest.raises(NotAnEdgeError):
            C.edge_color_valid(0, 2, 0)


def incident_colors(C: EdgeColoring, v: int) -> list:
    return [C.color_of(v, w) for w in range(C.graph.n)]


class TestSetEdgeColor:
    def test_count_spec_fresh(self):
        C = k3_coloring()
        C.set_edge_color(0, 1, 0)
        assert incident_colors(C, 0).count(0) == 1
        assert incident_colors(C, 1).count(0) == 1
        assert C.count_colored() == 1

    def test_count_spec_uncolor(self):
        C = k3_coloring()
        C.set_edge_color(0, 1, 0)
        C.set_edge_color(0, 1, None)
        assert incident_colors(C, 0).count(0) == 0
        assert incident_colors(C, 1).count(0) == 0
        assert C.count_colored() == 0

    def test_properness_enforced(self):
        C = k3_coloring()
        C.set_edge_color(0, 1, 0)
        with pytest.raises(InvalidColorError):
            C.set_edge_color(0, 2, 0)

    def test_out_of_palette_rejected(self):
        C = k3_coloring()
        with pytest.raises(InvalidColorError):
            C.set_edge_color(0, 1, 3)

    @pytest.mark.parametrize("color", [3, 4])
    def test_color_beyond_the_table_rejected(self, color):
        # K3 has max degree 2: the table holds colors 0..2 whatever the
        # palette, and a color the table cannot index is refused.
        C = k3_coloring(palette=5)
        with pytest.raises(InvalidColorError, match=r"outside the table \[0, 3\)"):
            C.set_edge_color(0, 1, color)
        assert C.count_colored() == 0

    def test_non_edge_rejected(self):
        C = EdgeColoring(path_graph(3), 2)
        with pytest.raises(NotAnEdgeError):
            C.set_edge_color(0, 2, 0)

    def test_recolor_replaces(self):
        C = k3_coloring()
        C.set_edge_color(0, 1, 0)
        C.set_edge_color(0, 1, 1)
        assert C.color_of(0, 1) == 1
        assert free_colors_on(C, 0) == [0, 2]
        assert C.count_colored() == 1 and C.colors_used() == 1


class TestCounts:
    def test_progression(self):
        C = k3_coloring()
        assert (C.count_colored(), C.colors_used()) == (0, 0)
        C.set_edge_color(0, 1, 0)
        assert (C.count_colored(), C.colors_used()) == (1, 1)

    def test_complete_k3_uses_three(self):
        # chi'(K3) = 3: cross-checked against the exact oracle in test_oracle.
        C = mk_edge_coloring(complete_graph(3))
        assert (C.count_colored(), C.colors_used()) == (3, 3)


class TestIsProper:
    def test_reachable_states_are_proper(self):
        rng = random.Random(99)
        for _ in range(60):
            g = rand_graph(rng)
            C = rand_proper_coloring(rng, g)
            verdict = C.is_proper()
            assert verdict.proper, verdict
            assert verdict.bound_ok

    def test_duplicate_color_violation(self):
        C = k3_coloring()
        set_edge_color_unchecked(C, 0, 1, 0)
        set_edge_color_unchecked(C, 0, 2, 0)
        verdict = C.is_proper()
        assert not verdict.proper
        assert verdict.first_violation.kind == "duplicate_color"
        assert verdict.first_violation.vertex == 0

    def test_non_edge_violation(self):
        C = EdgeColoring(path_graph(3), 3)
        set_edge_color_unchecked(C, 0, 2, 1)
        verdict = C.is_proper()
        assert not verdict.proper
        assert verdict.first_violation.kind == "non_edge"

    def test_bound_violation(self):
        C = k3_coloring(palette=2)
        C.set_edge_color(0, 2, 1)
        C.set_edge_color(1, 2, 0)
        set_edge_color_unchecked(C, 0, 1, 5)
        verdict = C.is_proper()
        assert verdict.proper and verdict.complete and not verdict.bound_ok
        assert verdict.first_violation.kind == "bound"
        assert verdict.first_violation.colors == (5,)

    @pytest.mark.parametrize("b", [1, 7], ids=["in palette", "beyond palette"])
    def test_key_outside_the_vertex_range_is_a_non_edge(self, b):
        # `invert` writes through the trusted `kempe_swap`, so a path vertex
        # of -1 indexes rows from the end: row 0 gets key -1, row 2 key 0.
        # It writes only colors in the table, so b beyond the palette is
        # then written into those two map entries directly.
        C = k3_coloring()
        invert(C, AltPath(0, 1, (0, -1)))
        C._colors[0][-1] = C._colors[2][0] = b
        verdict = C.is_proper()
        assert not verdict.proper
        assert verdict.first_violation == Violation("non_edge", edge=(0, -1), colors=(b,))
        assert verdict.bound_ok == (b < 3)

    def test_incomplete_reported(self):
        C = k3_coloring()
        C.set_edge_color(0, 1, 0)
        verdict = C.is_proper()
        assert verdict.proper and not verdict.complete
        assert verdict.first_violation.kind == "incomplete"
        assert verdict.first_violation.edge == (0, 2)


@st.composite
def coloring_states(draw):
    n = draw(st.integers(min_value=2, max_value=7))
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(possible), unique=True, min_size=1))
    g = Graph(n, edges)
    palette = g.max_degree() + 1
    C = EdgeColoring(g, palette)
    ops = draw(
        st.lists(
            st.tuples(
                st.sampled_from(edges),
                st.one_of(st.none(), st.integers(0, palette - 1)),
            ),
            max_size=30,
        )
    )
    for (u, v), col in ops:
        if C.edge_color_valid(u, v, col):
            C.set_edge_color(u, v, col)
    return C


@given(coloring_states())
@settings(max_examples=100)
def test_free_and_incident_partition_palette(C: EdgeColoring):
    for v in range(C.graph.n):
        free = set(free_colors_on(C, v))
        incident = {
            C.color_of(v, w)
            for w in C.graph.adj[v]
            if C.color_of(v, w) is not None
        }
        assert free | incident == set(range(C.palette))
        assert not free & incident


@given(coloring_states())
@settings(max_examples=100)
def test_full_palette_leaves_everyone_a_free_color(C: EdgeColoring):
    # palette is max_degree + 1, so at most max_degree incident colors.
    for v in range(C.graph.n):
        assert free_colors_on(C, v)


@given(coloring_states())
@settings(max_examples=100)
def test_counters_match_scan(C: EdgeColoring):
    verdict = C.is_proper()
    assert verdict.proper
    colored = sum(
        1 for u, v in C.graph.edge_set() if C.color_of(u, v) is not None
    )
    assert C.count_colored() == colored
    assert C.colors_used() == verdict.colors_used


def assert_lookups_match_edge_colors(C: EdgeColoring) -> None:
    """Every one-lookup query agrees with a scan of the incident edge colors,
    or, where the table cannot represent the coloring, refuses it."""
    n = C.graph.n
    width = min(C.palette, C.graph.max_degree() + 1)
    if (refusal := table_refusal(C)) is not None:
        with pytest.raises(PreconditionError, match=re.escape(refusal)):
            C.neighbor(0, 0)
        return
    at_0 = _colors_at(C, 0)
    for v in range(n):
        by_color: dict[int, set[int]] = {}
        for w in range(n):
            col = C.color_of(v, w)
            if col is not None:
                by_color.setdefault(col, set()).add(w)
        for col in set(by_color) | set(range(C.palette + 2)):
            z = C.neighbor(v, col)
            assert (z is None) == (col not in by_color)
            assert z is None or by_color[col] == {z}
            assert C.is_free(v, col) == (col not in by_color)
        free = [col for col in range(width) if col not in by_color]
        if free:
            assert C.min_free_color(v) == free[0]
        else:
            with pytest.raises(InvalidColorError):
                C.min_free_color(v)
        # A fan around v whose last vertex is 0 grows by the first vertex
        # whose edge to v has a color that is free on 0.
        expect = next(
            (z for z in range(n) if C.color_of(v, z) not in at_0 | {None}), None
        )
        grown = C.fan_extension(v, 0, list(range(n)))
        assert (grown[0] if grown else None) == expect


def _colors_at(C: EdgeColoring, v: int) -> set[int]:
    return {C.color_of(v, w) for w in range(C.graph.n)} - {None}


@st.composite
def unchecked_states(draw):
    # Any writes at all, improper ones included: parsers and tests build
    # such states with the unchecked setter, and the lookups must follow.
    n = draw(st.integers(min_value=2, max_value=6))
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(possible), unique=True))
    C = EdgeColoring(Graph(n, edges), draw(st.integers(1, 4)))
    ops = st.tuples(
        st.sampled_from(possible),
        st.one_of(st.none(), st.integers(0, C.palette + 1)),
        st.booleans(),
    )
    for (u, v), col, flip in draw(st.lists(ops, max_size=25)):
        set_edge_color_unchecked(C, *((v, u) if flip else (u, v)), col)
    return C


@given(st.one_of(coloring_states(), unchecked_states()))
@settings(max_examples=200)
def test_lookups_match_edge_colors(C: EdgeColoring):
    assert_lookups_match_edge_colors(C)


@st.composite
def verdict_states(draw):
    # A complete proper coloring, some of it uncolored again, then a few
    # unchecked writes: non-edges, duplicate colors, colors outside the
    # palette, and palettes too small for the coloring's own colors.
    n = draw(st.integers(min_value=2, max_value=7))
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    g = Graph(n, draw(st.lists(st.sampled_from(possible), unique=True)))
    full = mk_edge_coloring(g)
    C = EdgeColoring(g, draw(st.integers(1, full.palette + 1)))
    edges = g.edge_set()
    dropped = draw(st.sets(st.sampled_from(edges))) if edges else set()
    for u, v in edges:
        if (u, v) not in dropped:
            set_edge_color_unchecked(C, u, v, full.color_of(u, v))
    ops = st.tuples(
        st.sampled_from(possible),
        st.one_of(st.none(), st.integers(-1, C.palette + 1)),
        st.booleans(),
    )
    for (u, v), col, flip in draw(st.lists(ops, max_size=6)):
        set_edge_color_unchecked(C, *((v, u) if flip else (u, v)), col)
    return C


@given(st.one_of(verdict_states(), unchecked_states()))
@settings(max_examples=300)
def test_is_proper_matches_the_ordered_scan(C: EdgeColoring):
    assert C.is_proper() == ordered_verdict(C)


@given(st.one_of(coloring_states(), verdict_states(), unchecked_states()))
@settings(max_examples=300)
def test_streamed_and_string_forms_match_the_reference(C: EdgeColoring):
    # Partial states, colored non-edges, colors -1 and beyond the palette.
    buf = io.StringIO()
    assert format_coloring(C, buf) is None
    assert buf.getvalue() == format_coloring(C) == reference_format_coloring(C)


def test_lookups_survive_removing_one_of_two_equal_colors():
    C = EdgeColoring(Graph(3, [(0, 1), (0, 2)]), 3)
    set_edge_color_unchecked(C, 0, 1, 0)
    set_edge_color_unchecked(C, 0, 2, 0)
    set_edge_color_unchecked(C, 0, 2, None)
    assert C.neighbor(0, 0) == 1
    assert not C.is_free(0, 0)
    assert C.min_free_color(0) == 1
    assert_lookups_match_edge_colors(C)


def test_lookups_after_coloring_loop():
    rng = random.Random(31)
    for _ in range(30):
        C = mk_edge_coloring(rand_graph(rng, n_max=12))
        assert_lookups_match_edge_colors(C)


@pytest.mark.parametrize("debug", [False, True], ids=["plain", "debug"])
def test_the_maintained_table_never_drifts_from_the_maps(debug):
    # The loop keeps the table by trusted writes alone. After every step it
    # must equal the table built afresh from the edge maps.
    for n, p, seed in ((40, 0.05, 1), (40, 0.15, 2), (30, 0.4, 3), (20, 0.9, 4)):
        g = gnp_graph(n, p, seed)
        C = EdgeColoring(g, g.max_degree() + 1)
        steps = 0

        def same_table(step):
            nonlocal steps
            fresh = C.copy()
            fresh._nbr = None
            assert C._nbr == fresh._table(), step
            steps += 1

        extend_coloring(C, g.edges(), debug=debug, on_step=same_table)
        assert steps == g.m and C == mk_edge_coloring(g)


def test_commutativity_of_disjoint_sets():
    rng = random.Random(5)
    for _ in range(80):
        g = rand_graph(rng, n_max=8)
        edges = g.edge_set()
        if len(edges) < 2:
            continue
        e1, e2 = rng.sample(edges, 2)
        base = rand_proper_coloring(rng, g)
        c1 = rng.choice([None] + list(range(base.palette)))
        c2 = rng.choice([None] + list(range(base.palette)))
        one = base.copy()
        if not (one.edge_color_valid(*e1, c1) and one.edge_color_valid(*e2, c2)):
            continue
        one.set_edge_color(*e1, c1)
        if not one.edge_color_valid(*e2, c2):
            continue
        one.set_edge_color(*e2, c2)
        two = base.copy()
        two.set_edge_color(*e2, c2)
        two.set_edge_color(*e1, c1)
        assert one == two


class TestColoringFormat:
    def test_round_trip(self):
        rng = random.Random(21)
        for _ in range(20):
            g = rand_graph(rng, n_max=9)
            C = mk_edge_coloring(g)
            text = format_coloring(C)
            C2 = parse_coloring(g, text)
            assert C2 == C
            assert format_coloring(C2) == text

    def test_rows_share_one_int_object_per_vertex(self):
        g = gnp_graph(600, 0.02, 5)
        C = parse_coloring(g, format_coloring(mk_edge_coloring(g)))
        assert len({id(v) for row in C._colors for v in row}) <= g.n

    def test_header_shape(self):
        C = mk_edge_coloring(complete_graph(3))
        first = format_coloring(C).splitlines()[0]
        assert first == "s 3 3 3 3"

    def test_dimension_mismatch(self):
        g = complete_graph(3)
        with pytest.raises(DimensionMismatchError):
            parse_coloring(g, "s 4 3 3 3\n")
        with pytest.raises(DimensionMismatchError):
            parse_coloring(g, "s 3 5 3 3\n")

    @pytest.mark.parametrize(
        "text",
        [
            "e 1 2 1\n",                       # edge before header
            "s 3 3 3\ne 1 2 1\n",              # short header
            "s 3 3 0 0\n",                     # zero palette
            "s 3 3 3 3\ne 1 2 0\n",            # zero color on the wire
            "s 3 3 3 3\ne 1 2 1\ne 2 1 2\n",   # duplicate edge line
            "s 3 3 3 3\ne 1 4 1\n",            # vertex out of range
            "x 1 2\n",                         # unknown line
            "",                                # missing header
        ],
    )
    def test_parse_errors(self, text):
        with pytest.raises(ParseError):
            parse_coloring(complete_graph(3), text)

    @pytest.mark.parametrize("breaks", LONG_FILE_BREAKS.values(), ids=list(LONG_FILE_BREAKS))
    def test_a_bad_line_deep_in_a_long_file_reports_its_number(self, breaks):
        # Lines are read a chunk at a time; numbering runs on across the cuts.
        g = star_graph(20_000)
        text = long_file_with_a_bad_line("s 20001 20000 20000 0", "e 1 {0} {0}", "e 1 x 1", breaks)
        with pytest.raises(ParseError) as info:
            parse_coloring(g, text)
        with pytest.raises(ParseError) as ref:
            reference_parse_coloring(g, text)
        assert info.value.line == 15_000
        assert str(info.value) == str(ref.value)

    def test_a_color_beyond_the_table_is_checked_and_refused_by_the_loop(self):
        # K3 has max degree 2, so the table holds colors 0..2; the file's
        # edge (1, 3) carries color 3, the first one beyond it. Parsing
        # builds no table, and checking needs none.
        text = "s 3 3 5 2\ne 1 2 1\ne 1 3 4\n"
        C = parse_coloring(complete_graph(3), text)
        assert C._nbr is None
        verdict = C.is_proper()
        assert verdict.proper and verdict.bound_ok
        assert verdict.first_violation == Violation("incomplete", edge=(1, 2))
        refusal = re.escape("color 3 of edge (0, 2) lies outside the table [0, 3)")
        with pytest.raises(PreconditionError, match=refusal):
            C.neighbor(1, 0)
        with pytest.raises(PreconditionError, match=refusal):
            extend_coloring(C, [(1, 2)])
        assert C._nbr is None and format_coloring(C) == text

    def test_a_color_repeated_at_a_vertex_is_checked_and_refused_by_the_loop(self):
        # The star's center 0 has edges (0, 1) and (0, 2) of color 0, and one
        # slot for it, so no table can be built. The loop, the table readers
        # and the setter refuse the coloring before any write; the checkers
        # read it as before.
        g = star_graph(3)
        C = parse_coloring(g, "s 4 3 4 1\ne 1 2 1\ne 1 3 1\n")
        rows = [dict(row) for row in C._colors]
        refusal = re.escape("color 0 of edge (0, 2) repeats at 0")
        with pytest.raises(PreconditionError, match=refusal):
            extend_coloring(C, [(0, 3)])
        assert C._colors == rows and C._nbr is None
        defect = Violation("duplicate_color", edge=(0, 2), vertex=0, colors=(0,))
        with pytest.raises(InvariantError, match=re.escape(f"not proper: {defect}")):
            extend_coloring(C, [(0, 3)], debug=True)
        for read, args in ((C.neighbor, (3, 0)), (C.min_free_color, (3,)),
                           (C.set_edge_color, (0, 1, None))):
            with pytest.raises(PreconditionError, match=refusal):
                read(*args)
        assert C._colors == rows and C._nbr is None and C.count_colored() == 2
        assert verify_coloring(g, C) == Verdict(
            proper=False, complete=False, colors_used=1, bound_ok=True, first_violation=defect
        )

    def test_semantic_defects_loaded_not_rejected(self):
        g = complete_graph(3)
        # color beyond palette: parses, checker reports bound.
        C = parse_coloring(g, "s 3 3 2 1\ne 1 2 5\n")
        assert not C.is_proper().bound_ok
        # duplicate incident color: parses, checker reports properness.
        C = parse_coloring(g, "s 3 3 3 1\ne 1 2 1\ne 1 3 1\n")
        assert not C.is_proper().proper
        # line naming a non-edge: parses, checker reports representation.
        gp = path_graph(3)
        C = parse_coloring(gp, "s 3 2 3 1\ne 1 3 1\n")
        assert C.is_proper().first_violation.kind == "non_edge"


def test_copy_is_independent():
    C = k3_coloring()
    C.set_edge_color(0, 1, 0)
    D = C.copy()
    D.set_edge_color(0, 1, None)
    D.set_edge_color(0, 2, 1)
    assert C.color_of(0, 1) == 0 and C.color_of(0, 2) is None
    assert C.count_colored() == 1 and D.count_colored() == 1
