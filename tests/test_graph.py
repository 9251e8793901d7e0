"""Graph construction, queries, generators, and DIMACS round trips."""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mgcolor import (
    Graph,
    complete_graph,
    cycle_graph,
    format_dimacs,
    gen_family,
    gnp_graph,
    parse_dimacs,
    path_graph,
    petersen_graph,
    star_graph,
)
from mgcolor.errors import (
    BadParamsError,
    DuplicateEdgeError,
    ParseError,
    SelfLoopError,
    VertexRangeError,
)
from mgcolor.graph import _lines
from tests.helpers import (
    LONG_FILE_BREAKS,
    long_file_with_a_bad_line,
    reference_format_dimacs,
    reference_gnp_graph,
    reference_parse_dimacs,
)


@st.composite
def graphs(draw, max_n: int = 9):
    n = draw(st.integers(min_value=0, max_value=max_n))
    if n < 2:
        return Graph(n)
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(possible), unique=True, max_size=len(possible)))
    return Graph(n, edges)


class TestConstruction:
    def test_triangle(self):
        g = Graph(3, [(0, 1), (1, 2), (0, 2)])
        assert [len(g.adj[v]) for v in range(3)] == [2, 2, 2]
        assert g.m == 3

    def test_isolated_vertices(self):
        g = Graph(2, [])
        assert g.max_degree() == 0
        assert g.m == 0

    def test_self_loop_rejected(self):
        with pytest.raises(SelfLoopError):
            Graph(3, [(0, 0)])

    def test_duplicate_rejected_either_orientation(self):
        with pytest.raises(DuplicateEdgeError):
            Graph(3, [(0, 1), (0, 1)])
        with pytest.raises(DuplicateEdgeError):
            Graph(3, [(0, 1), (1, 0)])

    def test_vertex_out_of_range(self):
        with pytest.raises(VertexRangeError):
            Graph(3, [(0, 3)])
        with pytest.raises(VertexRangeError):
            Graph(3, [(-1, 0)])

    @pytest.mark.parametrize(
        "edges, error",
        [
            ([(0, 1), (1, 0), (0, 5)], DuplicateEdgeError(1, 0)),
            ([(0, 1), (2, 2), (1, 0)], SelfLoopError(2)),
            ([(0, 5), (0, 1), (0, 1)], VertexRangeError(5, 3)),
            ([(0, 1), (1, 2), (-1, 0)], VertexRangeError(-1, 3)),
        ],
    )
    def test_first_bad_edge_is_reported(self, edges, error):
        with pytest.raises(type(error)) as info:
            Graph(3, edges)
        assert str(info.value) == str(error)

    def test_negative_n(self):
        with pytest.raises(BadParamsError):
            Graph(-1)


class TestQueries:
    def test_neighbors_triangle(self):
        g = Graph(3, [(0, 1), (1, 2), (0, 2)])
        assert g.adj[0] == [1, 2]

    def test_neighbors_path(self):
        g = path_graph(3)
        assert g.adj[1] == [0, 2]

    def test_neighbors_isolated(self):
        g = Graph(4, [(0, 1)])
        assert g.adj[3] == []

    def test_insertion_order_preserved(self):
        g = Graph(4, [(2, 1), (1, 3), (1, 0)])
        assert g.adj[1] == [2, 3, 0]

    def test_max_degree(self):
        assert complete_graph(4).max_degree() == 3
        assert Graph(5).max_degree() == 0
        assert star_graph(4).max_degree() == 4
        assert Graph(0).max_degree() == 0

    def test_edge_set(self):
        assert complete_graph(3).edge_set() == [(0, 1), (0, 2), (1, 2)]
        assert Graph(3).edge_set() == []
        assert path_graph(3).edge_set() == [(0, 1), (1, 2)]

    def test_edge_set_order(self):
        g = Graph(3, [(2, 1), (0, 2)])
        assert g.edge_set() == [(0, 2), (1, 2)]

    def test_edges_view_is_sized_and_re_iterable(self):
        edges = Graph(3, [(2, 1), (0, 2)]).edges()
        assert len(edges) == 2
        assert list(edges) == list(edges) == [(0, 2), (1, 2)]


class TestGenerators:
    def test_complete(self):
        g = complete_graph(4)
        assert g.m == 6 and g.max_degree() == 3

    def test_cycle(self):
        g = cycle_graph(5)
        assert g.m == 5 and g.max_degree() == 2

    def test_path_star(self):
        assert path_graph(1).m == 0
        assert path_graph(4).m == 3
        assert star_graph(0).n == 1
        assert star_graph(4).max_degree() == 4

    def test_petersen(self):
        g = petersen_graph()
        assert (g.n, g.m, g.max_degree()) == (10, 15, 3)
        assert all(len(g.adj[v]) == 3 for v in range(10))

    def test_gnp_deterministic(self):
        a = gnp_graph(10, 0.5, seed=42)
        b = gnp_graph(10, 0.5, seed=42)
        assert a == b and a.edge_set() == b.edge_set()

    def test_gnp_extremes(self):
        assert gnp_graph(6, 0.0, 1).m == 0
        assert gnp_graph(6, 1.0, 1).m == 15

    def test_bad_params(self):
        with pytest.raises(BadParamsError):
            cycle_graph(2)
        with pytest.raises(BadParamsError):
            gnp_graph(5, 1.5, 0)
        with pytest.raises(BadParamsError):
            gnp_graph(-2, 0.5, 0)
        with pytest.raises(BadParamsError):
            gen_family("torus", n=3)
        with pytest.raises(BadParamsError):
            gen_family("complete")
        with pytest.raises(BadParamsError):
            gen_family("petersen", n=5)

    def test_gen_family_dispatch(self):
        assert gen_family("complete", n=4).m == 6
        assert gen_family("petersen").n == 10
        assert gen_family("gnp", n=10, p=0.5, seed=42) == gnp_graph(10, 0.5, 42)


class TestGnpMatchesTheReference:
    """`gnp_graph` reads each row's variates from one `getrandbits` call and
    decodes only the pairs its top-byte table cannot settle; the graph must
    be the one-`random()`-per-pair reference's, in adjacency order."""

    @staticmethod
    def assert_same(n: int, p: float, seed: int) -> Graph:
        got, want = gnp_graph(n, p, seed), reference_gnp_graph(n, p, seed)
        assert got.adj == want.adj, (n, p, seed)
        assert format_dimacs(got) == format_dimacs(want)
        return got

    @pytest.mark.parametrize("p", [0, 1, 0.0, 1.0, 0.5, 5e-324])
    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_tiny_graphs_and_the_ends_of_p(self, n, p):
        for seed in range(4):
            self.assert_same(n, p, seed)

    def test_seeded_grid(self):
        # Rates on both sides of the switch from `find` to `compress` at
        # 32/256, and arbitrary ones.
        rng = random.Random(20)
        for _ in range(80):
            p = rng.choice([0.01, 0.05, 32 / 256 - 1e-9, 32 / 256 + 1e-9, 0.1, 0.25,
                            0.5, 0.9, 1 - 1e-9, rng.random()])
            self.assert_same(rng.randint(0, 120), p, rng.getrandbits(32))

    @pytest.mark.parametrize("j", [1, 3, 31, 32, 33, 128, 255])
    def test_p_a_multiple_of_one_256th_has_no_boundary_byte(self, j):
        assert math.ceil(j / 256 * 2**53) % 2**45 == 0
        for seed in range(3):
            self.assert_same(60, j / 256, seed)

    @pytest.mark.parametrize("seed", [3, 4, 5])
    def test_p_at_and_beside_a_drawn_variate(self, seed):
        # At p equal to the variate of pair j, its 53-bit integer equals
        # `limit` and the pair is no edge; one step of p up makes it one.
        # Both are settled by the full decode of a boundary pair.
        n = 40
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        rand = random.Random(seed).random
        variates = [rand() for _ in pairs]
        for j in (0, 1, n - 2, len(pairs) // 2, len(pairs) - 1):
            x, (u, v) = variates[j], pairs[j]
            for p, hit in ((math.nextafter(x, 0), False), (x, False),
                           (math.nextafter(x, 1), True)):
                assert self.assert_same(n, p, seed).has_edge(u, v) is hit

    def test_the_traced_bench_class(self):
        g = self.assert_same(2000, 0.01, 1001)
        assert 19_000 < g.m < 21_000


def test_format_dimacs_matches_the_reference_on_shuffled_flipped_files():
    # Parsed from a file in random order with random endpoint order, the
    # neighbor lists are in no canonical order.
    rng = random.Random(11)
    for _ in range(30):
        g = gnp_graph(rng.randint(0, 40), rng.choice([0.1, 0.3, 0.7]), rng.getrandbits(32))
        edges = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in g.edge_set()]
        rng.shuffle(edges)
        lines = [f"p edge {g.n} {g.m}\n", *(f"e {u + 1} {v + 1}\n" for u, v in edges)]
        h = parse_dimacs("".join(lines))
        assert format_dimacs(h) == reference_format_dimacs(h)


@given(graphs(max_n=14))
@settings(max_examples=120)
def test_format_dimacs_matches_the_reference(g: Graph):
    assert format_dimacs(g) == reference_format_dimacs(g)


@given(graphs())
@settings(max_examples=120)
def test_structural_invariants(g: Graph):
    for u in range(g.n):
        row = g.adj[u]
        assert u not in row
        assert len(set(row)) == len(row)
        if g.n > 0:
            assert len(row) < g.n
        for v in row:
            assert 0 <= v < g.n
            assert u in g.adj[v]


@given(graphs())
def test_edges_view_is_the_edge_set(g: Graph):
    assert list(g.edges()) == g.edge_set()
    assert len(g.edges()) == g.m == len(g.edge_set())


# Every break `str.splitlines` knows, "\r\n", and line content.
LINE_TEXT = st.lists(st.sampled_from([
    "\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029",
    "\r\n", "e", "1", " ",
])).map("".join)


@given(LINE_TEXT, st.integers(1, 8))
def test_lines_cut_in_chunks_are_splitlines(text, size):
    assert list(_lines(text, size)) == text.splitlines()


@given(LINE_TEXT)
def test_lines_with_the_default_chunk_are_splitlines(text):
    assert list(_lines(text)) == text.splitlines()


@given(graphs())
@settings(max_examples=120)
def test_handshake_and_rebuild(g: Graph):
    es = g.edge_set()
    assert len(es) == sum(len(row) for row in g.adj) // 2
    assert all(u < v for u, v in es)
    assert len(set(es)) == len(es)
    rebuilt = Graph(g.n, es)
    assert rebuilt == g


class TestSharedIds:
    """Ints above 256 are not cached, so each endpoint parsed or computed
    per edge is an object of its own; the adjacency keeps one per vertex."""

    @staticmethod
    def distinct_ids(g: Graph) -> int:
        return len({id(v) for row in g.adj for v in row})

    def test_constructor(self):
        n = 600
        g = Graph(n, [(u, (u + k) % n) for k in (1, 7) for u in range(n)])
        assert self.distinct_ids(g) <= g.n

    def test_parse_dimacs_and_gnp(self):
        g = gnp_graph(600, 0.02, 5)
        assert self.distinct_ids(g) <= g.n
        assert self.distinct_ids(parse_dimacs(format_dimacs(g))) <= g.n


class TestDimacs:
    def test_round_trip_fixpoint(self):
        rng = random.Random(7)
        for _ in range(25):
            g = gnp_graph(rng.randint(0, 12), rng.choice([0.2, 0.6]), rng.getrandbits(32))
            text = format_dimacs(g)
            g2 = parse_dimacs(text)
            assert g2 == g
            assert format_dimacs(g2) == text

    def test_parse_comments_and_blanks(self):
        g = parse_dimacs("c hello\n\np edge 3 2\nc mid\ne 1 2\ne 2 3\n")
        assert g.edge_set() == [(0, 1), (1, 2)]

    def test_parse_crlf_and_tabs(self):
        g = parse_dimacs("p edge 3 2\r\ne\t1\t2\r\ne 2  3\r\n")
        assert g.edge_set() == [(0, 1), (1, 2)]

    def test_serialize_shape(self):
        text = format_dimacs(complete_graph(3))
        assert text == "p edge 3 3\ne 1 2\ne 1 3\ne 2 3\n"

    @pytest.mark.parametrize(
        "text,line",
        [
            ("e 1 2\np edge 2 1\n", 1),          # edge before header
            ("p edge 2\ne 1 2\n", 1),             # short header
            ("p arc 2 1\ne 1 2\n", 1),            # wrong format word
            ("p edge 2 1\np edge 2 1\n", 2),      # duplicate header
            ("p edge 2 1\ne 1 3\n", 2),           # vertex out of range
            ("p edge 2 1\ne 0 1\n", 2),           # vertex below 1
            ("p edge 2 1\ne 1 1\n", 2),           # self loop
            ("p edge 2 2\ne 1 2\ne 2 1\n", 3),    # duplicate edge
            ("p edge 2 1\nq 1 2\n", 2),           # unknown line
            ("p edge 2 1\ne 1 x\n", 2),           # junk token
        ],
    )
    def test_parse_errors_carry_line(self, text, line):
        with pytest.raises(ParseError) as info:
            parse_dimacs(text)
        assert info.value.line == line

    @pytest.mark.parametrize("breaks", LONG_FILE_BREAKS.values(), ids=list(LONG_FILE_BREAKS))
    def test_a_bad_line_deep_in_a_long_file_reports_its_number(self, breaks):
        # Lines are read a chunk at a time; numbering runs on across the cuts.
        text = long_file_with_a_bad_line("p edge 20001 20000", "e 1 {}", "e 1 x", breaks)
        with pytest.raises(ParseError) as info:
            parse_dimacs(text)
        with pytest.raises(ParseError) as ref:
            reference_parse_dimacs(text)
        assert info.value.line == 15_000
        assert str(info.value) == str(ref.value)

    def test_parse_errors_without_line(self):
        with pytest.raises(ParseError):
            parse_dimacs("c only comments\n")
        with pytest.raises(ParseError):
            parse_dimacs("p edge 3 2\ne 1 2\n")  # count mismatch
