"""Stdlib checks of mgcolor's output files, independent of the package.

Nothing here imports `mgcolor`: a defect in the program cannot also hide in
the checker. Each check returns None when the file is fine and a one-line
reason otherwise.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def read_graph(path: Path) -> tuple[int, list[tuple[int, int]]]:
    """`(n, edges)` of a DIMACS-like graph file, 1-based, each edge as (min, max)."""
    n = 0
    edges = []
    for line in path.read_text().splitlines():
        fields = line.split()
        if not fields:
            continue
        if fields[0] == "p":
            n = int(fields[2])
        elif fields[0] == "e":
            u, v = int(fields[1]), int(fields[2])
            edges.append((min(u, v), max(u, v)))
    return n, edges


def max_degree(n: int, edges: list[tuple[int, int]]) -> int:
    degree = [0] * (n + 1)
    for u, v in edges:
        degree[u] += 1
        degree[v] += 1
    return max(degree, default=0)


def coloring_problem(graph: Path, coloring: Path) -> str | None:
    """Every edge colored once, no color twice at a vertex, colors in 1..Δ+1."""
    n, edges = read_graph(graph)
    palette = max_degree(n, edges) + 1
    wanted = set(edges)
    colored: set[tuple[int, int]] = set()
    at_vertex: set[tuple[int, int]] = set()
    header = None
    for line in coloring.read_text().splitlines():
        fields = line.split()
        if not fields:
            continue
        if fields[0] == "s":
            header = tuple(int(f) for f in fields[1:])
            continue
        if fields[0] != "e" or len(fields) != 4:
            return f"unexpected line {line!r}"
        u, v, c = (int(f) for f in fields[1:])
        edge = (min(u, v), max(u, v))
        if edge not in wanted:
            return f"colored non-edge {edge}"
        if edge in colored:
            return f"edge {edge} colored twice"
        if not 1 <= c <= palette:
            return f"edge {edge} has color {c} outside 1..{palette}"
        for w in edge:
            if (w, c) in at_vertex:
                return f"color {c} clashes at vertex {w}"
            at_vertex.add((w, c))
        colored.add(edge)
    if header is None or header[:3] != (n, len(edges), palette):
        return f"header {header} does not match n={n} m={len(edges)} palette={palette}"
    if len(colored) != len(edges):
        return f"{len(edges) - len(colored)} edges left uncolored"
    return None


def trace_problem(graph: Path, trace: Path) -> str | None:
    """One JSON record per graph edge, each coloring exactly one more edge."""
    _, edges = read_graph(graph)
    wanted = {(u - 1, v - 1) for u, v in edges}
    seen = set()
    for i, line in enumerate(trace.read_text().splitlines()):
        step = json.loads(line)
        edge = tuple(step["edge"])
        if edge not in wanted or edge in seen:
            return f"step {i} colors unexpected edge {edge}"
        seen.add(edge)
        if (step["colored_before"], step["colored_after"]) != (i, i + 1):
            return f"step {i} does not color exactly one new edge"
    if len(seen) != len(wanted):
        return f"trace has {len(seen)} steps for {len(wanted)} edges"
    return None


def clashing_copy(coloring: Path, target: Path) -> None:
    """Write `coloring` with one edge recolored to clash at a shared vertex."""
    lines = coloring.read_text().splitlines()
    first_color: dict[str, str] = {}  # vertex -> color of its first edge line
    for i, line in enumerate(lines):
        if not line.startswith("e "):
            continue
        _, u, v, c = line.split()
        for w in (u, v):
            other = first_color.setdefault(w, c)
            if other != c:
                lines[i] = f"e {u} {v} {other}"
                target.write_text("\n".join(lines) + "\n")
                return
    raise ValueError(f"{coloring} has no vertex with two colors")
