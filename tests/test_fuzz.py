"""Parser and CLI fuzzing: arbitrary text fails only in documented ways.

`parse_dimacs` and `parse_coloring` may reject a text only with an
InputError, and the `color` and `check` commands answer any file with an
exit code of the contract in `mgcolor.cli`.

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

from hypothesis import given, settings
from hypothesis import strategies as st

from mgcolor import (
    format_coloring,
    format_dimacs,
    mk_edge_coloring,
    parse_coloring,
    parse_dimacs,
    petersen_graph,
)
from mgcolor.cli import main
from mgcolor.errors import InputError

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


def mutations_of(good: str):
    """Lines of a valid file, kept, dropped, repeated or mixed with noise."""
    return st.lists(
        st.one_of(st.sampled_from(good.splitlines()), lines), max_size=20
    ).map("\n".join)


graph_texts = st.one_of(texts, mutations_of(format_dimacs(PETERSEN)))
coloring_texts = st.one_of(
    texts, mutations_of(format_coloring(mk_edge_coloring(PETERSEN)))
)


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
