"""Simple undirected graphs: validated construction, generators, DIMACS text I/O.

Vertices are the integers 0..n-1. Neighbor lists keep first-mention order
from the edge sequence used to build the graph; that order is the
deterministic tie-breaker consumed by fan construction and path extension,
so two graphs that are equal as vertex/edge sets can still drive the
coloring algorithm differently if their adjacency orders differ.
"""

from __future__ import annotations

import math
import random
from itertools import chain, compress, repeat
from typing import Iterable, Iterator

from .errors import (
    BadParamsError,
    DuplicateEdgeError,
    ParseError,
    SelfLoopError,
    VertexRangeError,
)

Edge = tuple[int, int]


class Graph:
    """Immutable simple undirected graph on vertices 0..n-1.

    `Graph(n, edges)` validates everything: neighbor ids in range, no
    self-loops, no multi-edges; a bad input raises the error of its first
    bad edge. `_build` is the one piece of code that builds the adjacency.
    `Graph(n, edges)` runs it once every edge passes the range and self-loop
    tests, then finds repeats row by row, keeping nothing beyond the
    neighbor lists; the neighbor index is built by `_index()` for its
    first reader. A parser that has already checked every edge, and
    `gnp_graph`, whose edges are valid by construction, call `_build`
    through `_trusted`, without a second check. Adjacency is stored
    symmetrically. Instances must not be mutated after construction;
    `adj[v]` is the live neighbor list of v in insertion order, and callers
    must treat it as read-only.
    """

    __slots__ = ("n", "m", "adj", "_adj_index", "_delta")

    def __init__(self, n: int, edges: Iterable[Edge] = ()):
        if n < 0:
            raise BadParamsError(f"vertex count must be nonnegative, got {n}")
        edges = list(edges)
        if all(0 <= u < n and 0 <= v < n and u != v for u, v in edges):
            self._build(n, edges)
            # Without self-loops, the rows hold 2m distinct neighbors
            # exactly when no edge repeats.
            if sum(map(len, map(set, self.adj))) == 2 * self.m:
                return
        _raise_first_invalid(n, edges)

    @classmethod
    def _trusted(cls, n: int, edges: Iterable[Edge]) -> Graph:
        """Graph from edges already checked the way `Graph(n, edges)` checks
        them; nothing is validated again."""
        g = cls.__new__(cls)
        g._build(n, edges)
        return g

    def _build(self, n: int, edges: Iterable[Edge]) -> None:
        # One int object per vertex (ints above 256 are not cached).
        # `edges` is read once, so it may be an iterator.
        ids = list(range(n))
        adj: list[list[int]] = [[] for _ in ids]
        for u, v in edges:
            adj[u].append(ids[v])
            adj[v].append(ids[u])
        self.n = n
        self.m = sum(map(len, adj)) // 2
        self.adj = adj
        self._adj_index = None
        self._delta = max(map(len, adj), default=0)

    def _index(self):
        # The neighbor index, built from `adj` for its first reader; hot
        # readers take it as `g._adj_index or g._index()`. Dicts of keys:
        # 20 keys take 632 B, and 2,264 B as a set.
        if self._adj_index is None:
            self._adj_index = [dict.fromkeys(row) for row in self.adj]
        return self._adj_index

    def max_degree(self) -> int:
        """Maximum vertex degree; 0 for edgeless or empty graphs."""
        return self._delta

    def has_edge(self, u: int, v: int) -> bool:
        if not 0 <= u < self.n:
            raise VertexRangeError(u, self.n)
        if not 0 <= v < self.n:
            raise VertexRangeError(v, self.n)
        return v in (self._adj_index or self._index())[u]

    def edges(self) -> Edges:
        """Every undirected edge once, canonical (u < v) orientation, as a
        sized view that builds each pair as it is iterated.

        Order is deterministic: ascending u, then insertion order of v
        within u's neighbor list.
        """
        return Edges(self)

    def edge_set(self) -> list[Edge]:
        """The edges of `edges()`, in its order, as a list."""
        return list(self.edges())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self._index() == other._index()

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


class Edges:
    """The edges of a graph in `Graph.edges()` order: re-iterable, with
    `len` the edge count, and holding no pair between iterations."""

    __slots__ = ("_g",)

    def __init__(self, g: Graph):
        self._g = g

    def __len__(self) -> int:
        return self._g.m

    def __iter__(self) -> Iterator[Edge]:
        return ((u, v) for u, row in enumerate(self._g.adj) for v in row if v > u)


def _raise_first_invalid(n: int, edges: list[Edge]) -> None:
    """Raise the error of the first edge that is out of range, a self-loop
    or a repeat of an earlier edge; `edges` must hold one."""
    seen: set[int] = set()  # u * n + v of each edge, u < v
    for u, v in edges:
        if not 0 <= u < n:
            raise VertexRangeError(u, n)
        if not 0 <= v < n:
            raise VertexRangeError(v, n)
        if u == v:
            raise SelfLoopError(u)
        key = u * n + v if u < v else v * n + u
        if key in seen:
            raise DuplicateEdgeError(u, v)
        seen.add(key)
    raise AssertionError("no invalid edge to report")


def complete_graph(n: int) -> Graph:
    """K_n."""
    if n < 0:
        raise BadParamsError(f"complete graph needs n >= 0, got {n}")
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def cycle_graph(n: int) -> Graph:
    """C_n; needs n >= 3 (shorter cycles are loops or multi-edges)."""
    if n < 3:
        raise BadParamsError(f"cycle graph needs n >= 3, got {n}")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n: int) -> Graph:
    """Path on n vertices (n - 1 edges)."""
    if n < 0:
        raise BadParamsError(f"path graph needs n >= 0, got {n}")
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def star_graph(leaves: int) -> Graph:
    """Star with center 0 and `leaves` leaf vertices."""
    if leaves < 0:
        raise BadParamsError(f"star graph needs leaves >= 0, got {leaves}")
    return Graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def petersen_graph() -> Graph:
    """The Petersen graph: 10 vertices, 15 edges, 3-regular."""
    edges = []
    for i in range(5):
        edges.append((i, (i + 1) % 5))        # outer cycle
    for i in range(5):
        edges.append((i, i + 5))              # spokes
    for i in range(5):
        edges.append((5 + i, 5 + (i + 2) % 5))  # inner pentagram
    return Graph(10, edges)


def gnp_graph(n: int, p: float, seed: int) -> Graph:
    """Erdos-Renyi G(n, p), a pure function of (n, p, seed).

    Uses Python's Mersenne Twister (`random.Random(seed)`) and keeps pair
    (u, v) exactly when the variate `random()` would draw for it is below
    p, one variate per vertex pair in ascending (u, v) order, so the result
    is reproducible for a fixed interpreter version and fixed arguments.

    The variates are not drawn one call at a time. CPython's `random()` is
    `((w0 >> 5) * 2**26 + (w1 >> 6)) / 2**53` of the next two 32-bit words
    w0, w1 of the stream, so `random() < p` holds exactly when that 53-bit
    integer is below `limit = ceil(p * 2**53)`. Each row u takes the words
    of its n - 1 - u pairs from one `getrandbits` call, which returns them
    least significant first, as little-endian bytes; byte 3 of each pair
    is the top byte of w0, the integer's top 8 bits. A table maps that
    byte to a sure hit (below `limit >> 45`), a sure miss (above it) or the
    boundary byte `limit >> 45`, and only a boundary pair, about 1 in 256,
    is decoded in full. `tests/test_graph.py` holds the result to the
    one-`random()`-per-pair comprehension on the running interpreter.
    """
    if n < 0:
        raise BadParamsError(f"gnp needs n >= 0, got {n}")
    if not 0.0 <= p <= 1.0:
        raise BadParamsError(f"gnp needs 0 <= p <= 1, got {p}")
    limit = math.ceil(p * 2**53)
    sure, rest = divmod(limit, 2**45)
    table = bytes([1] * sure + [2] * (rest > 0)).ljust(256, b"\0")
    # `compress` over the whole row in C beats one `find` per hit from a
    # rate of about 40/256 at n = 120, 27/256 at n = 300 and under 20/256
    # at n = 2000 (measured); 32/256 lies between.
    dense = sure >= 32
    getrandbits = random.Random(seed).getrandbits
    ids = list(range(n))
    edges: list[tuple[int, int]] = []
    for u in range(n - 1):
        k = n - 1 - u
        words = getrandbits(64 * k).to_bytes(8 * k, "little")
        row = bytearray(words[3::8].translate(table))
        i = row.find(2)
        while i >= 0:
            w0 = int.from_bytes(words[8 * i : 8 * i + 4], "little")
            w1 = int.from_bytes(words[8 * i + 4 : 8 * i + 8], "little")
            row[i] = (w0 >> 5) * 2**26 + (w1 >> 6) < limit
            i = row.find(2, i + 1)
        if dense:
            edges += zip(repeat(u), compress(ids[u + 1 :], row))
        else:
            i = row.find(1)
            while i >= 0:
                edges.append((u, u + 1 + i))
                i = row.find(1, i + 1)
    # In range, loop-free and each pair once, by construction.
    return Graph._trusted(n, edges)


FAMILIES = ("complete", "cycle", "path", "star", "petersen", "gnp")


def gen_family(
    family: str,
    n: int | None = None,
    p: float | None = None,
    seed: int = 0,
) -> Graph:
    """Build a named graph family: `gnp` takes n and p, `petersen` neither,
    and every other name in FAMILIES n alone. Another name, a missing
    parameter or one the family does not take raises BadParamsError."""
    if family not in FAMILIES:
        raise BadParamsError(f"unknown family {family!r}; expected one of {FAMILIES}")
    if family == "petersen":
        if n is not None or p is not None:
            raise BadParamsError("petersen takes no parameters")
        return petersen_graph()
    if family == "gnp":
        if n is None or p is None:
            raise BadParamsError("gnp needs parameters: n p")
        return gnp_graph(n, p, seed)
    if n is None or p is not None:
        raise BadParamsError(f"{family} needs one parameter: n")
    return {"complete": complete_graph, "cycle": cycle_graph,
            "path": path_graph, "star": star_graph}[family](n)


def parse_dimacs(text: str) -> Graph:
    """Parse the DIMACS-like graph format.

    Lines: `c ...` comments, exactly one `p edge <n> <m>` header, then
    `e <u> <v>` lines with 1-based endpoints. Blank lines are ignored.
    Raises ParseError with the offending line number.

    One pass validates each line once: its integer fields, then the range,
    self-loop and duplicate tests. The duplicate keys are the edge list:
    each edge is kept once, as the key (u - 1) * n + (v - 1) with u < v,
    in file order, and `divmod(key, n)` gives it back. The edges go to the
    `Graph` through its trusted path, without a second check, and only
    after the last line, so a file whose header declares a huge n but
    fails on a later line never allocates anything per vertex.
    """
    n: int | None = None
    m: int | None = None
    seen: dict[int, None] = {}
    for lineno, line in enumerate(_lines(text), start=1):
        fields = line.split()
        if not fields:
            continue
        tag = fields[0]
        if tag == "e":
            if n is None:
                raise ParseError("edge line before 'p edge' header", lineno)
            if len(fields) != 3:
                raise ParseError("edge line must be 'e <u> <v>'", lineno)
            try:
                u, v = int(fields[1]), int(fields[2])
            except ValueError:
                # Names the first field that is not an integer.
                u, v = (_int_field(f, lineno) for f in fields[1:])
            if not (0 < u <= n and 0 < v <= n):
                raise ParseError(f"vertex out of range 1..{n}", lineno)
            if u == v:
                raise ParseError(f"self-loop at vertex {u}", lineno)
            key = (u - 1) * n + v - 1 if u < v else (v - 1) * n + u - 1
            if key in seen:
                raise ParseError(f"duplicate edge ({u}, {v})", lineno)
            seen[key] = None
        elif tag[0] == "c":
            continue
        elif tag == "p":
            if n is not None:
                raise ParseError("duplicate 'p' header", lineno)
            if len(fields) != 4 or fields[1] != "edge":
                raise ParseError("header must be 'p edge <n> <m>'", lineno)
            n, m = _int_field(fields[2], lineno), _int_field(fields[3], lineno)
            if n < 0 or m < 0:
                raise ParseError("n and m must be nonnegative", lineno)
        else:
            raise ParseError(f"unknown line type {tag!r}", lineno)
    if n is None:
        raise ParseError("missing 'p edge' header")
    if len(seen) != m:
        raise ParseError(f"header declares {m} edges, file has {len(seen)}")
    return Graph._trusted(n, map(divmod, seen, repeat(n)))


def _int_field(s: str, lineno: int) -> int:
    try:
        return int(s)
    except ValueError:
        raise ParseError(f"expected an integer, got {s!r}", lineno) from None


def _lines(text: str, size: int = 1 << 14) -> Iterator[str]:
    """The lines of `text.splitlines()`, split from one chunk of `text` at
    a time, so the whole list of lines is never held. Each chunk ends just
    after the first "\n" at least `size` characters on; no line break
    spans such a cut, since the one two-character break, "\r\n", ends at
    its "\n"."""
    return chain.from_iterable(map(str.splitlines, _chunks(text, size)))


def _chunks(text: str, size: int) -> Iterator[str]:
    start = 0
    while (end := text.find("\n", start + size) + 1) > 0:
        yield text[start:end]
        start = end
    yield text[start:]


def format_dimacs(g: Graph) -> str:
    """Serialize to the DIMACS-like format in canonical edge order.

    Each vertex's lines to its higher neighbors, in `edge_set` order, are
    one join over the vertices' names, each built once.
    """
    names = [str(v) for v in range(1, g.n + 1)]
    chunks = [f"p edge {g.n} {g.m}\n"]
    for u, row in enumerate(g.adj):
        higher = [names[v] for v in row if v > u]
        if higher:
            head = f"e {names[u]} "
            chunks.append(head + f"\n{head}".join(higher) + "\n")
    return "".join(chunks)
