"""Timing wrappers for mgcolor's public names, installed from outside.

`Tracer.install` replaces each name in `TARGETS` wherever an `mgcolor`
module binds it (so `cli` and `vizing` call the wrapper when they look the
name up at call time) and replaces `EdgeColoring` methods on the class.
A name the package no longer has is recorded as missing; the metrics that
need it are left out and everything else carries on.

A dense job makes millions of calls, so the wrappers aggregate calls, total
time and self time (duration minus the wrapped calls made inside it) per
name instead of keeping every span. Spans within `SPAN_DEPTH` levels of the
CLI call are kept in full: name, start, end and parent.
"""

from __future__ import annotations

import statistics
import sys
import time

SPAN_DEPTH = 2


def _fan_len(tracer, args, fan):
    tracer.count("fan.fan_len", len(fan.seq))


def _path_len(tracer, args, path):
    tracer.count("altpath.path_len", len(path.seq) - 1)


def _subfan(tracer, args, subfan):
    tracer.count("vizing.subfan_truncations", len(subfan.seq) < len(args[1].seq))


def _steps(tracer, args, result):
    tracer.count("vizing.steps", len(args[1]))


# (label, module, name or Class.method, observer of (args, return value))
TARGETS = (
    ("graph.parse_dimacs", "mgcolor.graph", "parse_dimacs", None),
    ("coloring.alloc", "mgcolor.coloring", "EdgeColoring.__init__", None),
    ("coloring.is_proper", "mgcolor.coloring", "EdgeColoring.is_proper", None),
    ("coloring.copy", "mgcolor.coloring", "EdgeColoring.copy", None),
    ("coloring.set_edge_color", "mgcolor.coloring", "EdgeColoring.set_edge_color", None),
    ("coloring.min_free_color", "mgcolor.coloring", "EdgeColoring.min_free_color", None),
    ("coloring.parse_coloring", "mgcolor.coloring", "parse_coloring", None),
    ("coloring.format_coloring", "mgcolor.coloring", "format_coloring", None),
    ("fan.maximal_fan", "mgcolor.fan", "maximal_fan", _fan_len),
    ("fan.rotate_fan", "mgcolor.fan", "rotate_fan", None),
    ("fan.check_fan", "mgcolor.fan", "check_fan", None),
    ("altpath.maximal_path", "mgcolor.altpath", "maximal_path", _path_len),
    ("altpath.invert", "mgcolor.altpath", "invert", None),
    ("vizing.find_subfan", "mgcolor.vizing", "find_subfan", _subfan),
    ("vizing.extend_coloring", "mgcolor.vizing", "extend_coloring", _steps),
    ("vizing.mk_edge_coloring", "mgcolor.vizing", "mk_edge_coloring", None),
    ("oracle.verify_coloring", "mgcolor.oracle", "verify_coloring", None),
    ("oracle.exact_chromatic_index", "mgcolor.oracle", "exact_chromatic_index", None),
)


class Tracer:
    """Aggregating span recorder; one per benchmark run."""

    def __init__(self) -> None:
        self._stack: list[list] = []
        self._totals: dict[str, list] = {}  # label -> [calls, total_s, self_s]
        self._counts: dict[str, list] = {}  # label -> [n, sum, max]
        self.spans: list[list] = []  # [label, start, end, parent index]
        self.missing: set[str] = set()
        self._undo: list[tuple[object, str, object]] = []

    def count(self, label: str, value: int) -> None:
        c = self._counts.setdefault(label, [0, 0, 0])
        c[0] += 1
        c[1] += value
        c[2] = max(c[2], value)

    def wrap(self, label, fn, observe=None):
        stack = self._stack
        spans = self.spans
        agg = self._totals.setdefault(label, [0, 0.0, 0.0])
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            parent = stack[-1][1] if stack else -1
            if len(stack) <= SPAN_DEPTH:
                sid = len(spans)
                spans.append([label, 0.0, 0.0, parent])
            else:
                sid = -1
            frame = [0.0, sid]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][0] += dur
                agg[0] += 1
                agg[1] += dur
                agg[2] += dur - frame[0]
                if sid >= 0:
                    spans[sid][1] = start
                    spans[sid][2] = end
            if observe is not None:
                try:
                    observe(tracer, args, result)
                except (AttributeError, IndexError, TypeError):
                    tracer.missing.add(observe.__name__)
            return result

        return wrapper

    def install(self) -> None:
        package = [m for name, m in sys.modules.items()
                   if m is not None and (name == "mgcolor" or name.startswith("mgcolor."))]
        for label, modname, qualname, observe in TARGETS:
            owner = sys.modules.get(modname)
            owner_name, _, attr = qualname.rpartition(".")
            if owner_name:
                owner = getattr(owner, owner_name, None)
            orig = vars(owner).get(attr) if owner is not None else None
            if not callable(orig):
                self.missing.add(label)
                continue
            wrapped = self.wrap(label, orig, observe)
            if owner_name:
                self._set(owner, attr, wrapped)
                continue
            for mod in package:
                for name, value in list(vars(mod).items()):
                    if value is orig:
                        self._set(mod, name, wrapped)

    def _set(self, obj, attr, value) -> None:
        self._undo.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            obj, attr, orig = self._undo.pop()
            setattr(obj, attr, orig)

    def call(self, label, fn, *args):
        """Run `fn(*args)` as a root span named `label`."""
        return self.wrap(label, fn)(*args)

    def take(self) -> tuple[dict[str, tuple], list[list]]:
        """Totals, counts ("#" + label) and spans since the last take; resets them."""
        snap = {k: tuple(v) for k, v in self._totals.items()}
        snap.update({"#" + k: tuple(v) for k, v in self._counts.items()})
        for v in self._totals.values():
            v[:] = [0, 0.0, 0.0]
        self._counts.clear()
        spans = self.spans[:]
        del self.spans[:]
        return snap, spans


# Per-layer metric -> (unit, labels it needs). Labels are TARGETS labels,
# observer names, or "cli" for the CLI call itself. Every time (".s",
# ".self_s") is self time, so the times of one job add up to its wall time.
PER_LAYER = {
    "graph.parse_dimacs.s": ("s", ["graph.parse_dimacs"]),
    "coloring.alloc.s": ("s", ["coloring.alloc"]),
    "coloring.is_proper.s": ("s", ["coloring.is_proper"]),
    "coloring.is_proper.calls": ("count", ["coloring.is_proper"]),
    "coloring.parse_coloring.s": ("s", ["coloring.parse_coloring"]),
    "coloring.format_coloring.s": ("s", ["coloring.format_coloring"]),
    "coloring.set_edge_color.calls": ("count", ["coloring.set_edge_color"]),
    "coloring.set_edge_color.s": ("s", ["coloring.set_edge_color"]),
    "coloring.writes_per_edge": ("writes/edge", ["coloring.set_edge_color", "vizing.extend_coloring", "_steps"]),
    "coloring.min_free_color.s": ("s", ["coloring.min_free_color"]),
    "coloring.copy.s": ("s", ["coloring.copy"]),
    "fan.maximal_fan.s": ("s", ["fan.maximal_fan"]),
    "fan.rotate_fan.s": ("s", ["fan.rotate_fan"]),
    "fan.check_fan.s": ("s", ["fan.check_fan"]),
    "fan.fan_len.mean": ("count", ["fan.maximal_fan", "_fan_len"]),
    "fan.fan_len.max": ("count", ["fan.maximal_fan", "_fan_len"]),
    "altpath.maximal_path.s": ("s", ["altpath.maximal_path"]),
    "altpath.invert.calls": ("count", ["altpath.invert"]),
    "altpath.invert.s": ("s", ["altpath.invert"]),
    "altpath.path_len.mean": ("count", ["altpath.maximal_path", "_path_len"]),
    "altpath.path_len.max": ("count", ["altpath.maximal_path", "_path_len"]),
    "vizing.steps": ("count", ["vizing.extend_coloring", "_steps"]),
    "vizing.fast_path_ratio": ("ratio", ["vizing.extend_coloring", "_steps", "altpath.maximal_path"]),
    "vizing.subfan_truncations": ("count", ["vizing.find_subfan", "_subfan"]),
    "vizing.find_subfan.s": ("s", ["vizing.find_subfan"]),
    "vizing.extend_coloring.self_s": ("s", ["vizing.extend_coloring"]),
    "oracle.verify_coloring.s": ("s", ["oracle.verify_coloring"]),
    "oracle.exact_chromatic_index.s": ("s", ["oracle.exact_chromatic_index"]),
    "cli.self_s": ("s", ["cli"]),
    "cli.trace_bytes": ("bytes", []),
    "trace.overhead": ("ratio", []),
}


def _merge(snaps) -> dict[str, list]:
    """Sum snapshots; a count's third field is a maximum, a total's a sum."""
    merged: dict[str, list] = {}
    for snap in snaps:
        for key, vals in snap.items():
            acc = merged.setdefault(key, [0, 0, 0])
            acc[0] += vals[0]
            acc[1] += vals[1]
            acc[2] = max(acc[2], vals[2]) if key.startswith("#") else acc[2] + vals[2]
    return merged


def layer_values(jobs: list[list[tuple[str, dict]]]) -> dict[str, float]:
    """Per-layer values from traced jobs, each a list of (op kind, snapshot).

    Times and call counts are summed over a job's operations, and the value
    is the median over jobs. Lengths and ratios pool all jobs. A label that
    no operation reached reads 0.
    """
    per_job = [_merge(snap for _, snap in job) for job in jobs]
    pooled = _merge(snap for job in jobs for _, snap in job)

    def med(key: str, i: int) -> float:
        return statistics.median(j.get(key, (0, 0, 0))[i] for j in per_job)

    out = {}
    for name in PER_LAYER:
        label, _, kind = name.rpartition(".")
        if kind in ("s", "self_s"):
            out[name] = med(label, 2)
        elif kind == "calls":
            out[name] = med(label, 0)
    for label in ("fan.fan_len", "altpath.path_len"):
        n, total, top = pooled.get("#" + label, (0, 0, 0))
        out[label + ".mean"] = total / n if n else 0.0
        out[label + ".max"] = top
    out["vizing.steps"] = med("#vizing.steps", 1)
    out["vizing.subfan_truncations"] = med("#vizing.subfan_truncations", 1)
    steps = pooled.get("#vizing.steps", (0, 0, 0))[1]
    paths = pooled.get("altpath.maximal_path", (0, 0, 0))[0]
    out["vizing.fast_path_ratio"] = (steps - paths) / steps if steps else 0.0
    writes = _merge(snap for job in jobs for kind, snap in job if kind == "color")
    out["coloring.writes_per_edge"] = (
        writes.get("coloring.set_edge_color", (0, 0, 0))[0] / steps if steps else 0.0
    )
    return out
