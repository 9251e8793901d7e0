"""Alternating (Kempe) paths: construction, adjacency machinery, inversion.

An alternating path for colors (a, b) starting at x is a sequence of
distinct vertices whose consecutive edges are colored a, b, a, b, ...
Inverting a maximal path swaps a and b along it, which keeps the coloring
proper and swaps which of the two colors is free at x.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence, TypeVar

from .coloring import EdgeColoring
from .errors import (
    InvariantError,
    NotMaximalError,
    PathInvariantError,
    PreconditionError,
)

T = TypeVar("T")
C = TypeVar("C")


@dataclass(frozen=True)
class AltPath:
    """Colors (a, b) plus the vertex sequence; seq[0] is the start vertex."""

    a: int
    b: int
    seq: tuple[int, ...]

    @property
    def x(self) -> int:
        return self.seq[0]

    def last(self) -> int:
        return self.seq[-1]


@dataclass(frozen=True)
class InversionReport:
    """Structured diff of one inversion, for audits and debugging.

    flipped_edges holds (canonical edge, old color, new color) for every
    edge whose color changed; untouched_sample is a deterministic handful
    of off-path edges observed unchanged.
    """

    flipped_edges: tuple[tuple[tuple[int, int], int, int], ...]
    untouched_sample: tuple[tuple[int, int], ...]


def alternates(
    pair_color: Callable[[T, T], C], a: C, b: C, vs: Sequence[T]
) -> bool:
    """Does `pair_color` evaluate to a, b, a, ... over consecutive elements?

    True for sequences of length at most 1.
    """
    expect = a
    other = b
    for i in range(len(vs) - 1):
        if pair_color(vs[i], vs[i + 1]) != expect:
            return False
        expect, other = other, expect
    return True


def next_color(a: C, b: C, vs: Sequence[T]) -> C:
    """Color the next appended edge must have to keep `vs` alternating.

    Equals b for the empty sequence and flips with each element, so it is a
    when len(vs) is odd and b when even. Never None for real a, b.
    """
    return a if len(vs) % 2 == 1 else b


def check_path(coloring: EdgeColoring, path: AltPath) -> None:
    """Raise PathInvariantError unless `path` is a valid alternating path."""
    seq = path.seq
    if not seq:
        raise PathInvariantError("path sequence is empty")
    if len(set(seq)) != len(seq):
        raise PathInvariantError(f"path sequence {seq} has duplicates")
    if path.a is None or path.b is None:
        raise PathInvariantError("path colors must be real colors")
    if path.a == path.b:
        raise PathInvariantError(f"path colors must differ, got {path.a} twice")
    if not alternates(coloring.color_of, path.a, path.b, seq):
        raise PathInvariantError(
            f"edges along {seq} do not alternate colors {path.a}, {path.b}"
        )


def next_vertex(
    coloring: EdgeColoring, path: AltPath, debug: bool = False
) -> int | None:
    """The neighbor of the path's last vertex along the next color, or None.

    The next color is `next_color(a, b, seq)`. Properness allows one edge of
    each color at a vertex, so this is the first such neighbor in adjacency
    order. A returned candidate can never already lie on the path (debug
    mode asserts this; it failing would mean the coloring or path
    invariants were broken).
    """
    z = coloring.neighbor(path.seq[-1], next_color(path.a, path.b, path.seq))
    if debug and z is not None and z in path.seq:
        raise InvariantError(
            f"next_vertex candidate {z} already lies on path {path.seq}"
        )
    return z


def maximal_path(
    coloring: EdgeColoring, a: int, b: int, x: int, debug: bool = False
) -> AltPath:
    """Maximal alternating (a, b)-path starting at x; b must be free on x.

    Extends [x] forward until no candidate edge remains. Forward maximality
    is full maximality here: b is free on x and properness allows at most
    one a-edge at x, and that edge (when present) is the path's first step,
    so the path can never be extended backwards either.
    """
    if a is None or b is None:
        raise PreconditionError("path colors must be real colors")
    if a == b:
        raise PreconditionError(f"path colors must differ, got {a} twice")
    if not coloring.is_free(x, b):
        raise PreconditionError(f"color {b} must be free on start vertex {x}")

    seq = [x]
    on_path = {x}
    while True:
        z = next_vertex(coloring, AltPath(a, b, tuple(seq)), debug)
        if z is None:
            break
        if z in on_path:
            # Impossible while the coloring is proper; guard against loops.
            raise InvariantError(
                f"path extension revisited vertex {z}; coloring state is broken"
            )
        seq.append(z)
        on_path.add(z)
    path = AltPath(a, b, tuple(seq))
    if debug:
        check_path(coloring, path)
        if not is_maximal_path(coloring, path):
            raise NotMaximalError(f"constructed path {seq} is not maximal")
        for z in coloring.graph.adj[x]:
            if coloring.color_of(x, z) in (a, b) and z not in on_path:
                raise InvariantError(
                    f"backward extension exists at {x} via {z}; "
                    "one-sided construction assumption violated"
                )
    return path


def is_maximal_path(coloring: EdgeColoring, path: AltPath) -> bool:
    """True iff the color the next edge would need is free on the last vertex."""
    want = next_color(path.a, path.b, path.seq)
    return coloring.is_free(path.seq[-1], want)


def adjacent(u: T, v: T, xs: Sequence[T]) -> bool:
    """Do u and v occur consecutively (in either order) in xs?"""
    for i in range(len(xs) - 1):
        if (xs[i] == u and xs[i + 1] == v) or (xs[i] == v and xs[i + 1] == u):
            return True
    return False


def all_adjacent_pairs(xs: Sequence[T]) -> list[tuple[T, T]]:
    """Every consecutive pair of xs, in both orientations.

    [x, y, z] gives [(x, y), (y, x), (y, z), (z, y)]; membership in the
    result coincides with `adjacent`.
    """
    pairs: list[tuple[T, T]] = []
    for i in range(len(xs) - 1):
        pairs.append((xs[i], xs[i + 1]))
        pairs.append((xs[i + 1], xs[i]))
    return pairs


def path_edges(path: AltPath) -> list[tuple[int, int]]:
    """The path's edges as ordered pairs, both orientations."""
    return all_adjacent_pairs(path.seq)


def invert(coloring: EdgeColoring, path: AltPath, debug: bool = False) -> None:
    """Swap colors a and b along a maximal alternating path. In place.

    One pass front to back writes each path edge once, through the trusted
    `assign`, starting with b, which re-establishes alternation with the
    two colors swapped. Maximality is what makes the swap valid at the
    endpoints; debug mode checks it up front and verifies `is_inverted`
    afterwards.
    """
    seq = path.seq
    before = None
    if debug:
        check_path(coloring, path)
        if not is_maximal_path(coloring, path):
            raise NotMaximalError(f"cannot invert non-maximal path {seq}")
        before = coloring.copy()
    col, other = path.b, path.a
    for i in range(len(seq) - 1):
        coloring.assign(seq[i], seq[i + 1], col)
        col, other = other, col
    if debug:
        assert before is not None
        if not is_inverted(before, coloring, path):
            raise InvariantError(f"inversion of {seq} violated the swap contract")
        verdict = coloring.is_proper()
        if not verdict.proper:
            raise InvariantError(
                f"inversion broke properness: {verdict.first_violation}"
            )


def inversion_report(
    before: EdgeColoring,
    after: EdgeColoring,
    path: AltPath,
    sample_size: int = 8,
) -> InversionReport:
    """Diff two colorings around an inversion of `path`, validating as it goes.

    Every changed edge must be a path edge whose colors moved between a and
    b; anything else raises InvariantError with the offending edge. The
    returned report also carries the first `sample_size` off-path edges as
    the untouched spot-check.
    """
    a, b = path.a, path.b
    on_path = set(all_adjacent_pairs(path.seq))
    flipped: list[tuple[tuple[int, int], int, int]] = []
    sample: list[tuple[int, int]] = []
    for u, v in before.graph.edge_set():
        old = before.color_of(u, v)
        new = after.color_of(u, v)
        if old == new:
            if (u, v) not in on_path and len(sample) < sample_size:
                sample.append((u, v))
            continue
        if (u, v) not in on_path:
            raise InvariantError(
                f"off-path edge ({u}, {v}) changed color {old} -> {new}"
            )
        if {old, new} != {a, b}:
            raise InvariantError(
                f"path edge ({u}, {v}) changed {old} -> {new}, "
                f"expected a swap between {a} and {b}"
            )
        flipped.append(((u, v), old, new))
    return InversionReport(tuple(flipped), tuple(sample))


def is_inverted(
    before: EdgeColoring, after: EdgeColoring, path: AltPath
) -> bool:
    """Full-scan check that `after` is `before` with a and b swapped on `path`.

    Non-path edges must keep their color exactly; path edges colored a must
    now be b and vice versa.
    """
    on_path = set(all_adjacent_pairs(path.seq))
    for u, v in before.graph.edge_set():
        old = before.color_of(u, v)
        new = after.color_of(u, v)
        if (u, v) in on_path:
            if old == path.a and new != path.b:
                return False
            if old == path.b and new != path.a:
                return False
        elif old != new:
            return False
    return True
