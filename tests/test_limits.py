"""Inputs that must not cost more memory than the graph they describe.

The first four cases run the CLI in a child process whose address space is
capped at 512 MB (RLIMIT_AS, set in that child only). Memory linear in n and
m fits easily; an n-by-n or n-by-palette table for these inputs would not,
and the child would exit 3 (out of memory) instead of 0 or 1. The rest
measure in process, with `tracemalloc` on G(2000, 0.01), how compact the
parse, the graph and the edge maps stay, what each phase holds beyond its
result, and that `check` holds no table.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import mgcolor
from mgcolor import (
    EdgeColoring,
    Graph,
    cycle_graph,
    extend_coloring,
    format_coloring,
    format_dimacs,
    gnp_graph,
    mk_edge_coloring,
    parse_coloring,
    parse_dimacs,
    verify_coloring,
)

resource = pytest.importorskip("resource")

LIMIT_BYTES = 512 * 2**20
SRC = str(Path(mgcolor.__file__).resolve().parents[1])


def _cap_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (LIMIT_BYTES, LIMIT_BYTES))


def run_capped(*argv: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "mgcolor", *argv],
        preexec_fn=_cap_memory,
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )


def write(path: Path, text: str) -> str:
    path.write_text(text)
    return str(path)


def test_huge_vertex_count_one_edge(tmp_path):
    gfile = write(tmp_path / "big.gr", "p edge 40000 1\ne 1 2\n")
    cfile = str(tmp_path / "big.col")
    color = run_capped("color", gfile, "-o", cfile)
    assert color.returncode == 0, color.stderr
    assert Path(cfile).read_text() == "s 40000 1 2 1\ne 1 2 1\n"
    check = run_capped("check", gfile, cfile)
    assert check.returncode == 0, check.stderr
    assert check.stdout == "valid: proper complete colors_used=1 palette=2\n"


def test_huge_palette_header(tmp_path):
    gfile = write(tmp_path / "p3.gr", "p edge 3 2\ne 1 2\ne 2 3\n")
    ok = write(tmp_path / "ok.col", "s 3 2 1000000000 2\ne 1 2 1\ne 2 3 2\n")
    check = run_capped("check", gfile, ok)
    assert check.returncode == 0, check.stderr
    assert check.stdout == "valid: proper complete colors_used=2 palette=1000000000\n"

    beyond = write(tmp_path / "beyond.col", "s 3 2 1000000000 2\ne 1 2 1\ne 2 3 1000000001\n")
    check = run_capped("check", gfile, beyond)
    assert check.returncode == 1, check.stderr
    assert check.stdout == "invalid: bound edge (1, 2) colors 1000000000\n"


def test_long_cycle(tmp_path):
    gfile = write(tmp_path / "c.gr", format_dimacs(cycle_graph(100_000)))
    cfile = str(tmp_path / "c.col")
    color = run_capped("color", gfile, "-o", cfile)
    assert color.returncode == 0, color.stderr
    assert color.stdout.split()[:5] == ["100000", "100000", "2", "3", "3"]
    check = run_capped("check", gfile, cfile)
    assert check.returncode == 0, check.stderr
    assert check.stdout == "valid: proper complete colors_used=3 palette=3\n"


@pytest.mark.parametrize(
    "text",
    [
        pytest.param("p edge 1000000000 1\ne 1 1\n", id="self-loop on line 2"),
        pytest.param("p edge 1000000000 2\ne 1 2\ne 2 1\n", id="duplicate on line 3"),
    ],
)
def test_huge_header_bad_later_line_allocates_nothing_per_vertex(tmp_path, text):
    # The graph is built only once every line is valid, so a bad line after
    # a header declaring 10**9 vertices is a parse error, not a memory error.
    gfile = write(tmp_path / "huge.gr", text)
    stats = run_capped("stats", gfile)
    assert stats.returncode == 2, stats.stderr
    assert stats.stderr.startswith("error: line ")


def test_parse_and_edge_maps_stay_compact():
    # parse_dimacs keys duplicates in a dict: a set of the same keys is
    # several times larger. When the graph also built a neighbor index up
    # front, sets for both read about 450 B per edge at the peak here, and
    # dicts about 290 B; now about 90 B.
    text = format_dimacs(gnp_graph(2000, 0.01, 1))
    tracemalloc.start()
    try:
        g = parse_dimacs(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / g.m < 340, peak / g.m
    # The loop recolors edges in place, so its edge maps are as compact as
    # the same rows written once each; popping and inserting a recolored
    # edge again left deleted slots that made them 1.7x larger.
    coloring = mk_edge_coloring(g)
    rows = parse_coloring(g, format_coloring(coloring))._colors
    loop, fresh = (sum(map(sys.getsizeof, r)) for r in (coloring._colors, rows))
    assert loop <= 1.03 * fresh, (loop, fresh)


def traced_peak(fn):
    """(result of `fn()`, peak bytes allocated while it ran, bytes it left
    allocated)."""
    tracemalloc.start()
    try:
        result = fn()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak, held


@pytest.fixture(scope="module")
def g2000():
    g = gnp_graph(2000, 0.01, 1)
    return g, format_dimacs(g), format_coloring(mk_edge_coloring(g))


def test_parse_dimacs_keeps_one_copy_of_the_edges(g2000):
    # Its duplicate keys are its edge list, and it reads the text a chunk
    # of lines at a time. About 90 B per edge at the peak, and 173 B while
    # the graph built its neighbor index up front; an edge list of tuples
    # beside the keys and the whole list of lines read about 290 B.
    _, text, _ = g2000
    g, peak, _ = traced_peak(lambda: parse_dimacs(text))
    assert peak / g.m < 210, peak / g.m


def test_the_parsed_graph_holds_its_adjacency_lists_alone(g2000):
    # The neighbor index is built only for a reader that asks for it, and
    # `Graph(n, edges)` finds repeats row by row without it. The lists hold
    # about 28 B per edge; with the index, the graph held 110.
    g0, text, _ = g2000
    edges = g0.edge_set()
    for build in (lambda: parse_dimacs(text), lambda: Graph(g0.n, edges)):
        g, _, held = traced_peak(build)
        assert held / g.m < 40, held / g.m


def test_parse_coloring_holds_no_list_of_lines(g2000):
    # Beyond the graph it holds the coloring it returns and one chunk of
    # lines: about 3 B per edge above the coloring. The whole list of lines
    # read about 71 B per edge.
    g, _, text = g2000
    _, peak, held = traced_peak(lambda: parse_coloring(g, text))
    assert (peak - held) / g.m < 8, (peak - held) / g.m


def test_check_holds_the_edge_maps_and_no_table(g2000):
    # `parse_coloring`'s reader, which `check` calls alone, fills the two
    # edge maps, and the checker reads only them, so neither builds the
    # Misra-Gries table. About
    # 85 B per edge held; with the table's n * (Δ + 1) slots, about 124.
    g, _, text = g2000
    coloring, _, held = traced_peak(lambda: parse_coloring(g, text))
    assert held / g.m < 100, held / g.m
    assert verify_coloring(g, coloring).ok
    assert coloring._nbr is None


def test_the_loop_holds_no_edge_list(g2000):
    # The loop walks `g.edges()`, which builds each pair as it goes, so its
    # peak beyond the graph is the coloring it returns. A list of the edges
    # is 8 B per edge in pointers alone; it read about 54 B per edge.
    g, _, _ = g2000
    _, peak, held = traced_peak(lambda: mk_edge_coloring(g))
    assert (peak - held) / g.m < 8, (peak - held) / g.m


def test_the_debug_loop_holds_no_edge_list(g2000):
    # Under `debug` the loop reads its edges once, as it walks them, as a
    # plain run does: a `g.edges()` view and a one-shot iterator alike. About
    # 0.5 B per edge above what it holds (the coloring, and the neighbor
    # index its checkers build); a list of the edges and a Counter of them
    # read about 65 on the iterator.
    _, text, _ = g2000
    g = parse_dimacs(text)

    def color(edges):
        coloring = EdgeColoring(g, g.max_degree() + 1)
        extend_coloring(coloring, edges, debug=True)
        return coloring

    for edges in (g.edges, lambda: iter(g.edges())):
        _, peak, held = traced_peak(lambda: color(edges()))
        assert (peak - held) / g.m < 8, (peak - held) / g.m
