"""Parser and CLI fuzzing: arbitrary text fails only in documented ways.

`parse_dimacs` and `parse_coloring` may reject a text only with an
InputError, and on every text they do what the line-by-line reference
parsers in `tests.helpers` do: raise the same error, or return the same
graph or coloring, down to adjacency and insertion order. The `color` and
`check` commands answer any file with an exit code of the contract in
`mgcolor.cli`.

Numbers in generated headers stay at or below 10**4. Memory linear in the
declared n is by design (a graph of n isolated vertices is legal input),
so a header asking for 10**12 vertices fails with exit 3 only after
filling memory; that is not a parser defect and not something to provoke
here.
"""

from __future__ import annotations

import contextlib
import io
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mgcolor import (
    format_coloring,
    format_dimacs,
    gnp_graph,
    mk_edge_coloring,
    parse_coloring,
    parse_dimacs,
    petersen_graph,
)
from mgcolor.cli import main
from mgcolor.errors import InputError, PreconditionError
from tests.helpers import reference_parse_coloring, reference_parse_dimacs

MAX_HEADER_N = 10**4

numbers = st.one_of(
    st.integers(-3, 12),
    st.integers(-3, MAX_HEADER_N),
    st.sampled_from(["x", "1.5", "", "0x10", "+2", "--"]),
)
tokens = st.one_of(st.sampled_from(["p", "edge", "e", "s", "c", "q"]), numbers.map(str))
lines = st.one_of(
    st.lists(tokens, max_size=6).map(" ".join),
    st.text(max_size=20),
)
texts = st.lists(lines, max_size=12).map("\n".join)

PETERSEN = petersen_graph()


def mutations_of(good: str, noise=lines):
    """Lines of a valid file, kept, dropped, repeated or mixed with noise."""
    return st.lists(
        st.one_of(st.sampled_from(good.splitlines()), noise), max_size=20
    ).map("\n".join)


graph_texts = st.one_of(texts, mutations_of(format_dimacs(PETERSEN)))
coloring_texts = st.one_of(
    texts, mutations_of(format_coloring(mk_edge_coloring(PETERSEN)))
)


GNP = gnp_graph(12, 0.3, seed=5)
GNP_GRAPH_TEXTS = [
    format_dimacs(gnp_graph(n, p, seed=seed))
    for n, p, seed in ((3, 1.0, 0), (12, 0.3, 5), (40, 0.1, 2))
]
GNP_COLORING_TEXT = format_coloring(mk_edge_coloring(GNP))
GNP_HEADER = GNP_COLORING_TEXT.partition("\n")[0]
# Lines shaped like headers and edge lines, with fields that may be
# malformed, out of range, self-loops or zero colors.
shaped_lines = st.builds(
    lambda tag, fields: " ".join([tag, *fields]),
    st.sampled_from(["e", "p edge", "s"]),
    st.lists(
        st.one_of(st.integers(-1, 13).map(str), st.sampled_from(["x", "1.5", "+2"])),
        min_size=1,
        max_size=4,
    ),
)
SPACES = st.sampled_from(["", " ", "  ", "\t", "\x0b", "\x0c", "\xa0", "\u3000"])


def body_mutations_of(good: str):
    """A valid file's header, then its other lines kept, dropped, repeated
    or mixed with `shaped_lines`."""
    header, _, body = good.partition("\n")
    return mutations_of(body, shaped_lines).map(lambda text: header + "\n" + text)


@st.composite
def reordered(draw, good: str) -> str:
    """A valid file's header, then its other lines in any order, each with
    its first two numbers in either order and any whitespace around its
    fields."""
    header, *body = good.splitlines()
    out = [header]
    for line in draw(st.permutations(body)):
        tag, u, v, *rest = line.split()
        if draw(st.booleans()):
            u, v = v, u
        fields = [tag, u, v, *rest]
        out.append(draw(SPACES) + "".join(f + (draw(SPACES) or " ") for f in fields))
    return "\n".join(out)


differential_graph_texts = st.one_of(
    graph_texts,
    st.sampled_from(GNP_GRAPH_TEXTS),
    st.sampled_from(GNP_GRAPH_TEXTS).flatmap(body_mutations_of),
    st.sampled_from(GNP_GRAPH_TEXTS).flatmap(reordered),
)
differential_colorings = st.one_of(
    st.tuples(st.just(PETERSEN), coloring_texts),
    st.tuples(st.just(GNP), st.one_of(
        st.just(GNP_COLORING_TEXT),
        body_mutations_of(GNP_COLORING_TEXT),
        reordered(GNP_COLORING_TEXT),
    )),
)


def outcome(parse, *args):
    """The error `parse(*args)` raises, as (class, message, line), or its result."""
    try:
        return parse(*args)
    except InputError as exc:
        return type(exc), str(exc), getattr(exc, "line", None)


# The explicit examples are mostly lines that fail more than one test, where
# the first test in the reference's order must win.
@settings(max_examples=300, deadline=None)
@given(differential_graph_texts)
@example("p edge 3 1\ne x 1.5")
@example("p edge 3 1\ne 4 4")
@example("p edge 3 2\ne 1 2\ne 2 1")
@example("e 1 2\np edge 3 1")
@example(" \tc comment\np edge 2 1\n\x0be 1 2\n")
def test_parse_dimacs_matches_the_reference_parser(text):
    got = outcome(parse_dimacs, text)
    want = outcome(reference_parse_dimacs, text)
    if isinstance(want, tuple):
        assert got == want
        return
    assert (got.n, got.m, got.max_degree()) == (want.n, want.m, want.max_degree())
    assert got.adj == want.adj
    assert got == want


@settings(max_examples=300, deadline=None)
@given(differential_colorings)
@example((GNP, GNP_HEADER + "\ne x 1.5 0"))
@example((GNP, GNP_HEADER + "\ne 1 1 0"))
@example((GNP, GNP_HEADER + "\ne 13 13 0"))
@example((GNP, GNP_HEADER + "\ne 1 8 1\ne 8 1 2"))
@example((GNP, "s 12 22 x 1\ne 1 8 1"))
# Each vertex of the triangle repeats color 1: its slot names the last line.
@example((GNP, GNP_HEADER + "\ne 1 8 1\ne 3 1 1\ne 8 3 1"))
# A color beyond the table (GNP has max degree 7): no table can be built.
@example((GNP, GNP_HEADER + "\ne 1 8 1\ne 3 1 9"))
def test_parse_coloring_matches_the_reference_parser(case):
    graph, text = case
    got = outcome(parse_coloring, graph, text)
    want = outcome(reference_parse_coloring, graph, text)
    if isinstance(want, tuple):
        assert got == want
        return
    assert (got.palette, got.count_colored()) == (want.palette, want.count_colored())
    assert [list(row.items()) for row in got._colors] == [
        list(row.items()) for row in want._colors
    ]
    # Parsing builds no table. The one its first reader builds from the maps
    # equals the reference's, written edge by edge, unless a color lies
    # beyond it; then that reader refuses the coloring.
    assert got._nbr is None
    width = min(got.palette, graph.max_degree() + 1)
    if all(c < width for row in got._colors for c in row.values()):
        assert got._table() == (want._nbr or want._table())
    else:
        with pytest.raises(PreconditionError, match="outside the table"):
            got._table()


@settings(max_examples=200, deadline=None)
@given(graph_texts)
def test_parse_dimacs_raises_only_input_error(text):
    try:
        parse_dimacs(text)
    except InputError:
        pass


@settings(max_examples=200, deadline=None)
@given(coloring_texts)
def test_parse_coloring_raises_only_input_error(text):
    try:
        parse_coloring(PETERSEN, text)
    except InputError:
        pass


def run_cli(argv: list[str]) -> int:
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        return main(argv)


@settings(max_examples=100, deadline=None)
@given(graph_text=graph_texts, coloring_text=coloring_texts)
def test_cli_exit_codes_documented(graph_text, coloring_text):
    with tempfile.TemporaryDirectory() as tmp:
        gfile = Path(tmp, "g.gr")
        cfile = Path(tmp, "g.col")
        out = Path(tmp, "out.col")
        gfile.write_text(graph_text)
        cfile.write_text(coloring_text)
        assert run_cli(["color", str(gfile), "-o", str(out)]) in (0, 2)
        assert run_cli(["check", str(gfile), str(cfile)]) in (0, 1, 2)
        if out.exists():
            assert run_cli(["check", str(gfile), str(out)]) == 0
