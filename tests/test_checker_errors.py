"""The lemma checkers' error contract, case by case.

Each row calls one checker (or the public lookup whose range checks a
checker once went through) on a small fixed coloring and states the
exception it must raise, with its exact message, or the value it must
return. The rows that feed a checker two defects pin which one it reports
first: the checkers read the neighbor index, the edge maps and the table
directly, in one pass, and must report what the per-position `has_edge`,
`color_of` and `is_free` calls reported.
"""

from __future__ import annotations

import pytest

from mgcolor import (
    AltPath,
    EdgeColoring,
    Fan,
    Graph,
    check_fan,
    check_path,
    is_maximal_fan,
    is_maximal_path,
)
from mgcolor.errors import (
    FanInvariantError,
    NotAnEdgeError,
    PathInvariantError,
    PreconditionError,
    VertexRangeError,
)
from tests.helpers import set_edge_color_unchecked

N = 6


def coloring() -> EdgeColoring:
    """Star 0-1, 0-2, 0-3 plus 1-2 and the path 3-4-5, palette 4:
    (0, 2) = 0, (0, 3) = 1, (1, 2) = 1, (3, 4) = 0, (4, 5) = 1, and (0, 1)
    uncolored. The maximal fan around 0 from 1 is (1, 2)."""
    g = Graph(N, [(0, 1), (0, 2), (0, 3), (1, 2), (3, 4), (4, 5)])
    C = EdgeColoring(g, 4)
    for u, v, color in ((0, 2, 0), (0, 3, 1), (1, 2, 1), (3, 4, 0), (4, 5, 1)):
        C.set_edge_color(u, v, color)
    return C


def with_a_dropped_table() -> EdgeColoring:
    """`coloring()` with (1, 2) recolored 0, which repeats at 2, written
    past the table: its next reader refuses to rebuild it."""
    C = coloring()
    set_edge_color_unchecked(C, 1, 2, 0)
    return C


def range_error(v: int) -> tuple:
    return VertexRangeError, f"vertex {v} out of range [0, {N})", v


def fan_error(message: str) -> tuple:
    return FanInvariantError, message, None


def path_error(message: str) -> tuple:
    return PathInvariantError, message, None


CASES = [
    # check_fan
    ("fan-empty", check_fan, Fan(0, ()), fan_error("fan sequence is empty")),
    ("fan-repeat", check_fan, Fan(0, (1, 9, 1)), fan_error("fan sequence (1, 9, 1) has duplicates")),
    ("fan-center-high", check_fan, Fan(N, (1,)), range_error(N)),
    ("fan-center-negative", check_fan, Fan(-1, (1,)), range_error(-1)),
    ("fan-member-out-of-range", check_fan, Fan(0, (1, 9)), range_error(9)),
    ("fan-range-before-stranger", check_fan, Fan(0, (9, 5)), range_error(9)),
    ("fan-stranger-before-range", check_fan, Fan(0, (5, 9)),
     fan_error("fan vertex 5 is not a neighbor of 0")),
    ("fan-center-in-its-fan", check_fan, Fan(0, (1, 0)),
     fan_error("fan vertex 0 is not a neighbor of 0")),
    ("fan-range-before-colors", check_fan, Fan(0, (2, 1, -2)), range_error(-2)),
    ("fan-uncolored-not-first", check_fan, Fan(0, (2, 1)),
     fan_error("fan edge (0, 1) is uncolored but not first")),
    ("fan-color-not-free", check_fan, Fan(0, (1, 3)),
     fan_error("color 1 of edge (0, 3) is not free on 1")),
    ("fan-not-free-before-uncolored", check_fan, Fan(0, (2, 3, 1)),
     fan_error("color 1 of edge (0, 3) is not free on 2")),
    ("fan-valid", check_fan, Fan(0, (1, 2)), None),
    ("fan-uncolored-before-the-table", check_fan, Fan(0, (2, 1)),
     fan_error("fan edge (0, 1) is uncolored but not first"), with_a_dropped_table),
    ("fan-table-refused", check_fan, Fan(0, (1, 2)),
     (PreconditionError, "color 0 of edge (2, 1) repeats at 2", None), with_a_dropped_table),
    # is_maximal_fan: the range of the center and of the last vertex only
    ("maximal-fan-empty", is_maximal_fan, Fan(0, ()), fan_error("fan sequence is empty")),
    ("maximal-fan-center-first", is_maximal_fan, Fan(N, (7,)), range_error(N)),
    ("maximal-fan-last-negative", is_maximal_fan, Fan(0, (1, -1)), range_error(-1)),
    ("maximal-fan-inner-unchecked", is_maximal_fan, Fan(0, (9, 2)), True),
    ("maximal-fan-extends", is_maximal_fan, Fan(0, (1,)), False),
    ("maximal-fan-maximal", is_maximal_fan, Fan(0, (1, 2)), True),
    # check_path
    ("path-empty", check_path, AltPath(0, 1, ()), path_error("path sequence is empty")),
    ("path-repeat-before-colors", check_path, AltPath(None, 1, (3, 4, 3)),
     path_error("path sequence (3, 4, 3) has duplicates")),
    ("path-none-color", check_path, AltPath(0, None, (3, 4)),
     path_error("path colors must be real colors")),
    ("path-equal-colors", check_path, AltPath(1, 1, (3, 4)),
     path_error("path colors must differ, got 1 twice")),
    ("path-start-out-of-range", check_path, AltPath(0, 1, (9, 4)), range_error(9)),
    ("path-second-out-of-range", check_path, AltPath(0, 1, (3, -4, 5)), range_error(-4)),
    ("path-later-out-of-range", check_path, AltPath(0, 1, (3, 4, 9)), range_error(9)),
    ("path-mismatch-before-range", check_path, AltPath(1, 0, (3, 4, 9)),
     path_error("edges along (3, 4, 9) do not alternate colors 1, 0")),
    ("path-second-edge-mismatch", check_path, AltPath(0, 2, (3, 4, 5)),
     path_error("edges along (3, 4, 5) do not alternate colors 0, 2")),
    ("path-non-edge", check_path, AltPath(0, 1, (3, 5)),
     path_error("edges along (3, 5) do not alternate colors 0, 1")),
    ("path-one-vertex-out-of-range", check_path, AltPath(0, 1, (9,)), range_error(9)),
    ("path-valid", check_path, AltPath(0, 1, (3, 4, 5)), None),
    # is_maximal_path
    ("maximal-path-empty", is_maximal_path, AltPath(0, 1, ()),
     path_error("path sequence is empty")),
    ("maximal-path-last-out-of-range", is_maximal_path, AltPath(0, 1, (3, 9)), range_error(9)),
    ("maximal-path-b-taken", is_maximal_path, AltPath(0, 1, (3, 4)), False),
    ("maximal-path-a-free", is_maximal_path, AltPath(0, 1, (3, 4, 5)), True),
    ("maximal-path-color-past-the-table", is_maximal_path, AltPath(0, 7, (3, 4)), True),
]

EDGE_CASES = [
    ("valid-none", (0, 1, None), True),
    ("valid-free", (1, 0, 2), True),
    ("taken-at-u", (0, 1, 0), False),
    ("taken-at-v", (1, 0, 0), False),
    ("past-the-table", (0, 1, 9), True),
    ("negative", (0, 1, -1), True),
    ("non-edge", (1, 5, 0), (NotAnEdgeError, "(1, 5) is not an edge of the graph", None)),
    ("non-edge-before-color", (1, 5, None), (NotAnEdgeError, "(1, 5) is not an edge of the graph", None)),
    ("u-out-of-range", (N, 9, 0), range_error(N)),
    ("v-out-of-range", (1, -1, None), range_error(-1)),
]

LOOKUP_CASES = [
    ("u-out-of-range", (N + 3, 0), range_error(N + 3)),
    ("u-before-v", (-1, 9), range_error(-1)),
    ("v-out-of-range", (0, N), range_error(N)),
    ("non-edge", (1, 5), None),
]


def expect(call, expected):
    if isinstance(expected, tuple):
        error, message, vertex = expected
        with pytest.raises(error) as info:
            call()
        assert str(info.value) == message
        if vertex is not None:
            assert info.value.vertex == vertex
    else:
        assert call() == expected


@pytest.mark.parametrize("checker, arg, expected, build",
                         [(*case, coloring)[1:5] for case in CASES],
                         ids=[case[0] for case in CASES])
def test_a_lemma_checker_raises_its_first_defect(checker, arg, expected, build):
    expect(lambda: checker(build(), arg), expected)


@pytest.mark.parametrize("args, expected", [case[1:] for case in EDGE_CASES],
                         ids=[case[0] for case in EDGE_CASES])
def test_edge_color_valid_raises_its_first_defect(args, expected):
    expect(lambda: coloring().edge_color_valid(*args), expected)


@pytest.mark.parametrize("args, expected", [case[1:] for case in LOOKUP_CASES],
                         ids=[case[0] for case in LOOKUP_CASES])
def test_color_of_range_checks_u_then_v(args, expected):
    expect(lambda: coloring().color_of(*args), expected)
