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

from collections import Counter
from collections.abc import Callable, Iterable
from typing import NamedTuple

from .altpath import AltPath, check_path, invert, is_maximal_path, maximal_path
from .coloring import EdgeColoring
from .errors import (
    FanInvariantError,
    InvariantError,
    NotMaximalError,
    PathInvariantError,
    PreconditionError,
    SubfanError,
)
from .fan import Fan, check_fan, is_maximal_fan, maximal_fan, rotate_fan
from .graph import Edge, Graph


class StepTrace(NamedTuple):
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
    x, seq = fan
    z = coloring.neighbor(x, a)
    try:
        idx = seq.index(z)
    except ValueError:  # no fan edge is colored a
        return fan
    if idx == 0:
        # The first fan edge is uncolored by construction, never a.
        raise SubfanError(
            f"first fan edge ({x}, {seq[0]}) carries color {a}"
        )
    if seq[idx - 1] in path.seq:
        return fan
    return tuple.__new__(Fan, (x, seq[:idx]))


def extend_coloring(
    coloring: EdgeColoring,
    edges: Iterable[Edge],
    debug: bool = False,
    on_step: Callable[[StepTrace], object] | None = None,
) -> None:
    """Color every edge in `edges`, one per iteration. In place.

    Requires a palette of at least max_degree + 1 (so a free color always
    exists at every vertex), a proper current coloring with colors below
    max_degree + 1 (the Misra-Gries table, built on entry, refuses a color
    beyond it or repeated at a vertex with PreconditionError; `debug`
    reports a repeat first, as InvariantError), and every edge of `edges`
    uncolored.
    Already-colored edges stay colored and properness is preserved
    throughout. If `on_step` is given, it is called with each step's
    `StepTrace` as soon as that step is done. `edges` is read once, in
    order, as it is walked, so it may be a view such as `Graph.edges()` or
    an iterator; only `debug` makes a list of it.

    With `debug`, the full `is_proper` scan and the pending-edge check of
    every edge run once, before the first step. Each step then runs each
    lemma checker once on each state it reaches: the fan as built, the
    path before and after its inversion, the subfan after it, and the
    rotation. The building blocks check nothing themselves. Properness is
    checked on the rows the step wrote. Every other edge the step writes
    was colored before it, as `check_fan` and `check_path` have shown, so
    only the step's own edge can be a pending one, and only when the list
    names it again. This keeps a debug step at about the cost of the step.
    A write off the step's fan and path edges escapes these checks: one
    more full `is_proper` after the last step reports a defect, and the
    step of a pending edge it colored raises `EdgeAlreadyColoredError`.
    """
    g = coloring.graph
    if coloring.palette < g.max_degree() + 1:
        raise PreconditionError(
            f"palette {coloring.palette} is smaller than max degree + 1 "
            f"= {g.max_degree() + 1}"
        )
    if debug:
        edges = list(edges)  # the pending-edge checks read ahead of the walk
        verdict = coloring.is_proper()
        if not verdict.proper:
            raise InvariantError(
                f"initial coloring is not proper: {verdict.first_violation}"
            )
        if (pending := coloring.first_colored(edges)) is not None:
            raise InvariantError(
                f"pending edge ({pending[0]}, {pending[1]}) is already colored"
            )
        # How often each edge the list names twice or more, keyed (u, v)
        # with u < v, is still to come. Only those keys are kept.
        waiting = Counter((u, v) if u < v else (v, u) for u, v in edges)
        waiting = {key: k for key, k in waiting.items() if k > 1}
    coloring._table()

    for i, (x, y) in enumerate(edges):
        before = coloring.count_colored()

        fan = maximal_fan(coloring, x, y)
        if debug:
            check_fan(coloring, fan)
            if not is_maximal_fan(coloring, fan):
                raise NotMaximalError(f"constructed fan {fan.seq} is not maximal")
        a = coloring.min_free_color(fan.seq[-1])
        b = coloring.min_free_color(x)

        if a == b:
            subfan = fan
            path_seq: tuple[int, ...] = ()
        else:
            path = maximal_path(coloring, a, b, x)
            path_seq = path.seq
            if debug:
                check_path(coloring, path)
                if not is_maximal_path(coloring, path):
                    raise NotMaximalError(f"constructed path {path_seq} is not maximal")
                # Nor can the path extend backwards: row x is proper, its
                # a-edge is the path's first (`check_path`) and b is free on
                # it (`maximal_path`'s precondition).
            subfan = find_subfan(coloring, fan, path, a)
            invert(coloring, path)
            if debug:
                # `invert` writes only path edges, and they alternated
                # a, b before, so the swap left them alternating b, a.
                try:
                    check_path(coloring, AltPath(b, a, path_seq))
                except PathInvariantError as exc:
                    raise InvariantError(
                        f"inversion of {path_seq} violated the swap contract: {exc}"
                    ) from exc
                if (bad := coloring.violation_at(path_seq)) is not None:
                    raise InvariantError(f"inversion broke properness: {bad}")
                try:
                    check_fan(coloring, subfan)
                except FanInvariantError as exc:
                    raise SubfanError(
                        f"subfan {subfan.seq} invalid after inversion: {exc}"
                    ) from exc
        if debug and not coloring.edge_color_valid(x, subfan.last(), a):
            # After an inversion, the subfan rule is at fault.
            raise (SubfanError if path_seq else FanInvariantError)(
                f"color {a} is not valid for the last fan edge ({x}, {subfan.last()})"
            )
        rotate_fan(coloring, subfan, a)
        if debug and (bad := coloring.violation_at((x, *subfan.seq))) is not None:
            raise InvariantError(f"rotation broke properness: {bad}")

        after = coloring.count_colored()
        if debug and after != before + 1:
            raise InvariantError(
                f"iteration on ({x}, {y}) colored {after - before} edges, not 1"
            )
        if on_step is not None:
            # Records are built by `tuple.__new__`, one C call that skips
            # the arity check of the generated `__new__`.
            on_step(tuple.__new__(StepTrace, (
                (x, y), fan.seq, a, b, path_seq, len(subfan.seq), before, after
            )))
        if debug and waiting.get(key := (x, y) if x < y else (y, x), 0) > 1:
            waiting[key] -= 1
            if pending := coloring.first_colored(edges[i + 1 :]):
                raise InvariantError(
                    f"pending edge ({pending[0]}, {pending[1]}) is already colored"
                )

    if debug:
        verdict = coloring.is_proper()
        if not verdict.proper:
            raise InvariantError(
                f"coloring is not proper after the last step: {verdict.first_violation}"
            )


def mk_edge_coloring(
    g: Graph, debug: bool = False, on_step: Callable[[StepTrace], object] | None = None
) -> EdgeColoring:
    """Complete proper edge coloring of `g` with palette max_degree + 1.

    `on_step` is called with each step's `StepTrace`, as in `extend_coloring`.
    """
    coloring = EdgeColoring(g, g.max_degree() + 1)
    extend_coloring(coloring, g.edges(), debug=debug, on_step=on_step)
    return coloring
