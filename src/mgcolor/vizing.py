"""The main coloring loop: fans, paths, subfans, one new edge per step.

`mk_edge_coloring` produces a complete proper edge coloring of any simple
graph with a palette of max_degree + 1 colors. Each iteration colors
exactly one previously uncolored edge:

  1. take the next uncolored edge {x, y} (canonical order, x < y),
  2. build the maximal fan F around x starting at y,
  3. pick a = least free color on the last fan vertex,
          b = least free color on x,
  4. if a == b, rotate F and color its last edge a;
     otherwise invert the maximal alternating (a, b)-path from x, which
     makes a free on x, select the subfan of F that survived the inversion,
     and rotate that with a.

Everything is deterministic: edge order, fan candidate order, path
candidate order, and color choice are all fixed, so identical inputs give
bit-identical colorings.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from .altpath import AltPath, invert, maximal_path
from .coloring import EdgeColoring
from .errors import InvariantError, PreconditionError, SubfanError
from .fan import Fan, check_fan, maximal_fan, rotate_fan
from .graph import Edge, Graph


@dataclass(frozen=True)
class StepTrace:
    """One record per loop iteration, handed to `on_step` as it completes."""

    edge: tuple[int, int]
    fan: tuple[int, ...]
    color_a: int
    color_b: int
    path: tuple[int, ...]
    subfan_len: int
    colored_before: int
    colored_after: int


def find_subfan(
    coloring: EdgeColoring, fan: Fan, path: AltPath, a: int
) -> Fan:
    """The prefix of `fan` that remains a fan once `path` is inverted.

    `coloring` must be the coloring `fan` and `path` were built on, i.e. the
    state *before* the inversion (the selection depends only on that state,
    so with in-place inversion, call this first). Rule: locate the first fan
    edge colored a; if none exists the whole fan survives, and the same
    holds when the fan vertex before it lies on the path; otherwise the
    prefix ending just before the a-colored edge is the answer. Either way
    `a` is free on the result's last vertex after the inversion.
    """
    x = fan.center
    z = coloring.neighbor(x, a)
    if z not in fan.seq:
        return fan
    idx = fan.seq.index(z)
    if idx == 0:
        # The first fan edge is uncolored by construction, never a.
        raise SubfanError(
            f"first fan edge ({x}, {fan.seq[0]}) carries color {a}"
        )
    if fan.seq[idx - 1] in path.seq:
        return fan
    return Fan(x, fan.seq[:idx])


def extend_coloring(
    coloring: EdgeColoring,
    edges: list[Edge],
    debug: bool = False,
    on_step: Callable[[StepTrace], object] | None = None,
) -> None:
    """Color every edge in `edges`, one per iteration. In place.

    Requires a palette of at least max_degree + 1 (so a free color always
    exists at every vertex), a proper current coloring, and every edge of
    `edges` uncolored. Already-colored edges stay colored and properness is
    preserved throughout. If `on_step` is given, it is called with each
    step's `StepTrace` as soon as that step is done.
    """
    g = coloring.graph
    if coloring.palette < g.max_degree() + 1:
        raise PreconditionError(
            f"palette {coloring.palette} is smaller than max degree + 1 "
            f"= {g.max_degree() + 1}"
        )
    if debug:
        verdict = coloring.is_proper()
        if not verdict.proper:
            raise InvariantError(
                f"initial coloring is not proper: {verdict.first_violation}"
            )

    for i, (x, y) in enumerate(edges):
        if debug:
            for u, v in edges[i:]:
                if coloring.color_of(u, v) is not None:
                    raise InvariantError(
                        f"pending edge ({u}, {v}) is already colored"
                    )
        before = coloring.count_colored()

        fan = maximal_fan(coloring, x, y, debug)
        a = coloring.min_free_color(fan.last())
        b = coloring.min_free_color(x)

        if a == b:
            subfan = fan
            path_seq: tuple[int, ...] = ()
            rotate_fan(coloring, fan, a, debug)
        else:
            path = maximal_path(coloring, a, b, x, debug)
            subfan = find_subfan(coloring, fan, path, a)
            invert(coloring, path, debug)
            if debug:
                try:
                    check_fan(coloring, subfan)
                except InvariantError as exc:
                    raise SubfanError(
                        f"subfan {subfan.seq} invalid after inversion: {exc}"
                    ) from exc
                if not coloring.is_free(subfan.last(), a):
                    raise SubfanError(
                        f"color {a} not free on subfan end {subfan.last()}"
                    )
            rotate_fan(coloring, subfan, a, debug)
            path_seq = path.seq

        after = coloring.count_colored()
        if debug and after != before + 1:
            raise InvariantError(
                f"iteration on ({x}, {y}) colored {after - before} edges, not 1"
            )
        if on_step is not None:
            on_step(
                StepTrace(
                    edge=(x, y),
                    fan=fan.seq,
                    color_a=a,
                    color_b=b,
                    path=path_seq,
                    subfan_len=len(subfan.seq),
                    colored_before=before,
                    colored_after=after,
                )
            )


def mk_edge_coloring(
    g: Graph, debug: bool = False, on_step: Callable[[StepTrace], object] | None = None
) -> EdgeColoring:
    """Complete proper edge coloring of `g` with palette max_degree + 1.

    `on_step` is called with each step's `StepTrace`, as in `extend_coloring`.
    """
    coloring = EdgeColoring(g, g.max_degree() + 1)
    extend_coloring(coloring, g.edge_set(), debug=debug, on_step=on_step)
    return coloring
