"""Fans: construction of maximal fans and the color-rotation step.

A fan around a center x is a nonempty sequence of distinct neighbors
f_1..f_k of x such that the color of edge {x, f_(i+1)} is a real color that
is free on f_i. Rotating shifts each fan edge's color onto its predecessor
and gives the last fan edge a new color, which provably keeps the coloring
proper.
"""

from __future__ import annotations

from dataclasses import dataclass

from .coloring import Color, EdgeColoring
from .errors import (
    EdgeAlreadyColoredError,
    FanInvariantError,
    InvariantError,
    NotAnEdgeError,
    PreconditionError,
)


@dataclass(frozen=True)
class Fan:
    """Center vertex plus the ordered neighbor sequence f_1..f_k."""

    center: int
    seq: tuple[int, ...]

    def last(self) -> int:
        return self.seq[-1]


def singleton_fan(coloring: EdgeColoring, x: int, y: int) -> Fan:
    """The one-element fan <y> around x; {x, y} must be a graph edge."""
    if not coloring.graph.has_edge(x, y):
        raise NotAnEdgeError(x, y)
    return Fan(x, (y,))


def maximal_fan(
    coloring: EdgeColoring, x: int, y: int, debug: bool = False
) -> Fan:
    """Greedy maximal fan around x starting at y; {x, y} must be uncolored.

    Repeatedly scans the not-yet-used neighbors of x in adjacency order and
    appends the first z whose edge color is free on the current last fan
    vertex (`EdgeColoring.fan_candidate`). Uncolored edges never qualify (no
    color is not a free color), so the loop runs at most degree(x) times.
    """
    g = coloring.graph
    if not g.has_edge(x, y):
        raise NotAnEdgeError(x, y)
    if coloring.color_of(x, y) is not None:
        raise EdgeAlreadyColoredError(f"edge ({x}, {y}) is already colored")

    seq = [y]
    remaining = [z for z in g.adj[x] if z != y]
    while (z := coloring.fan_candidate(x, seq[-1], remaining)) is not None:
        seq.append(z)
        remaining.remove(z)
    fan = Fan(x, tuple(seq))
    if debug:
        check_fan(coloring, fan)
        if not is_maximal_fan(coloring, fan):
            raise FanInvariantError(f"constructed fan {seq} is not maximal")
    return fan


def check_fan(coloring: EdgeColoring, fan: Fan) -> None:
    """Raise FanInvariantError unless `fan` is a valid fan on `coloring`."""
    g = coloring.graph
    x = fan.center
    seq = fan.seq
    if not seq:
        raise FanInvariantError("fan sequence is empty")
    if len(set(seq)) != len(seq):
        raise FanInvariantError(f"fan sequence {seq} has duplicates")
    for f in seq:
        if not g.has_edge(x, f):
            raise FanInvariantError(f"fan vertex {f} is not a neighbor of {x}")
    for i in range(len(seq) - 1):
        col = coloring.color_of(x, seq[i + 1])
        if col is None:
            raise FanInvariantError(
                f"fan edge ({x}, {seq[i + 1]}) is uncolored but not first"
            )
        if not coloring.is_free(seq[i], col):
            raise FanInvariantError(
                f"color {col} of edge ({x}, {seq[i + 1]}) is not free on {seq[i]}"
            )


def is_maximal_fan(coloring: EdgeColoring, fan: Fan) -> bool:
    """True iff no neighbor of the center outside the fan can be appended."""
    x = fan.center
    members = set(fan.seq)
    outside = [z for z in coloring.graph.adj[x] if z not in members]
    return coloring.fan_candidate(x, fan.last(), outside) is None


def rotate_fan(
    coloring: EdgeColoring, fan: Fan, color: Color, debug: bool = False
) -> None:
    """Rotate the fan and color its last edge with `color`. In place.

    Each edge {x, f_i} (i < k) receives the old color of {x, f_(i+1)} and
    {x, f_k} receives `color`, which must be valid for it (checked in debug
    mode). Each edge is written once, through the trusted `assign`, from
    the back, so every intermediate state is proper: the displaced color
    has just been removed from x's edges and is free on the predecessor by
    the fan property.
    """
    x = fan.center
    seq = fan.seq
    if coloring.color_of(x, seq[0]) is not None:
        raise PreconditionError(
            f"first fan edge ({x}, {seq[0]}) must be uncolored before rotation"
        )
    if debug:
        check_fan(coloring, fan)
        if not coloring.edge_color_valid(x, seq[-1], color):
            raise FanInvariantError(
                f"color {color} is not valid for the last fan edge ({x}, {seq[-1]})"
            )
    carry = color
    for f in reversed(seq):
        carry = coloring.assign(x, f, carry)
    if debug:
        verdict = coloring.is_proper()
        if not verdict.proper:
            raise InvariantError(
                f"rotation broke properness: {verdict.first_violation}"
            )
