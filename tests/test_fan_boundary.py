"""The call boundary of `maximal_fan` and `rotate_fan`: which error each bad
call raises, with which message, and in which order the tests run. The
loop's own calls always pass these tests, so they may be written inline,
but never weakened: a vertex of -1 must not index a row from the end."""

from __future__ import annotations

import pytest

from mgcolor import EdgeColoring, Fan, maximal_fan, path_graph, rotate_fan
from mgcolor.errors import (
    EdgeAlreadyColoredError,
    NotAnEdgeError,
    PreconditionError,
    VertexRangeError,
)
from tests.helpers import set_edge_color_unchecked

N = 4


def colored_path():
    """Path 0-1-2-3 with {1, 2} colored 0; {0, 1} and {2, 3} uncolored."""
    C = EdgeColoring(path_graph(N), 3)
    C.set_edge_color(1, 2, 0)
    return C


def raised(fn, *args):
    """(type, message) of the error `fn(*args)` raises."""
    with pytest.raises(Exception) as info:
        fn(*args)
    return type(info.value), str(info.value)


def out_of_range(v):
    return VertexRangeError, f"vertex {v} out of range [0, {N})"


@pytest.mark.parametrize("x, y, bad", [
    (-1, 0, -1), (N, 0, N), (0, -1, -1), (0, N, N),
    # Range tests come before the adjacency test, x's before y's.
    (-1, N, -1), (N, -1, N), (-1, 2, -1), (3, N, N),
])
def test_maximal_fan_rejects_an_out_of_range_vertex(x, y, bad):
    C = colored_path()
    assert raised(maximal_fan, C, x, y) == out_of_range(bad)


@pytest.mark.parametrize("x, y", [(0, 2), (0, 0), (3, 0)])
def test_maximal_fan_rejects_a_non_edge(x, y):
    assert raised(maximal_fan, colored_path(), x, y) == (
        NotAnEdgeError, f"({x}, {y}) is not an edge of the graph")


def test_maximal_fan_rejects_a_colored_edge():
    for x, y in [(1, 2), (2, 1)]:
        assert raised(maximal_fan, colored_path(), x, y) == (
            EdgeAlreadyColoredError, f"edge ({x}, {y}) is already colored")


def test_maximal_fan_tests_adjacency_before_the_color():
    # A colored non-edge, which only the unchecked setter can make.
    C = colored_path()
    set_edge_color_unchecked(C, 0, 3, 1)
    assert raised(maximal_fan, C, 0, 3) == (
        NotAnEdgeError, "(0, 3) is not an edge of the graph")


def test_maximal_fan_accepts_both_ends_of_the_range():
    C = colored_path()
    assert maximal_fan(C, 0, 1) == Fan(0, (1,))
    assert maximal_fan(C, N - 1, N - 2) == Fan(N - 1, (N - 2,))


@pytest.mark.parametrize("fan, bad", [
    (Fan(-1, (0,)), -1), (Fan(N, (0,)), N), (Fan(0, (-1,)), -1),
    (Fan(0, (N,)), N), (Fan(-1, (N,)), -1),
])
def test_rotate_fan_rejects_an_out_of_range_center_or_first_vertex(fan, bad):
    C = colored_path()
    before = C.copy()
    assert raised(rotate_fan, C, fan, 1) == out_of_range(bad)
    assert C == before


def test_rotate_fan_rejects_an_empty_fan_before_any_range_test():
    for center in (0, -1, N):
        assert raised(rotate_fan, colored_path(), Fan(center, ()), 1) == (
            PreconditionError, "cannot rotate an empty fan")


def test_rotate_fan_rejects_a_colored_first_edge():
    C = colored_path()
    before = C.copy()
    assert raised(rotate_fan, C, Fan(1, (2, 0)), 1) == (
        PreconditionError,
        "first fan edge (1, 2) must be uncolored before rotation")
    assert C == before
