"""Simple undirected graphs on vertices 1..v: parsing, generation, structure helpers."""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator

from .errors import GraphFormatError, GuardExceeded, SearchTimeout

Edge = tuple[int, int]

FORMATS = ("dimacs", "edgelist", "json")

# the most vertices a graph may have: a header-only graph of this size takes
# about 0.23 s and 50 MB to build, one of 2,000,000 vertices 10.9 s (Python
# 3.11 on a 2-core machine)
MAX_V = 100_000

# the most vertex pairs random_graph draws, and the most distinct edges a
# parsed graph may have: C(2000, 2) = 1,999,000 pairs took 0.84 s at d = 0.1,
# and 7.2 s and 0.8 GB at d = 1, where every pair becomes an edge;
# C(3000, 2) took 2.1 s at d = 0.1 and 12.1 s at d = 0.5
MAX_PAIRS = 2_000_000

# JSON edge pairs read between two deadline checks: 2,000,000 pairs take
# about 2.4 s to check once decoded
PAIRS_PER_CHECK = 65_536


@dataclass(frozen=True)
class Graph:
    """Immutable simple graph.

    ``edges`` holds (i, j) pairs with i < j, sorted; ``adjacency[y]`` is the
    neighbour set B(y), with a dummy entry at index 0 so vertices read 1-based.
    ``nbr_mask(y)`` is B(y) as a bitmask, bit q set for each neighbour q.
    ``nbr_masks`` is the table of all of them, built on first access and
    kept; it takes no part in equality.
    """

    v: int
    edges: tuple[Edge, ...]
    adjacency: tuple[frozenset[int], ...]

    @property
    def w(self) -> int:
        return len(self.edges)

    def nbr_mask(self, y: int) -> int:
        return sum(1 << q for q in self.adjacency[y])

    @cached_property
    def nbr_masks(self) -> tuple[int, ...]:
        # built on first access, not in make_graph; a mask is as wide as its
        # highest neighbour label, so the table can take far more memory than
        # the edges, and the exclusion run builds only the masks it imposes
        return tuple(map(self.nbr_mask, range(self.v + 1)))

    def neighbors(self, y: int) -> frozenset[int]:
        return self.adjacency[y]


def make_graph(v: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a Graph from raw edge pairs, normalizing and validating them.

    Refuses (GuardExceeded) a vertex count above MAX_V before allocating
    anything per vertex.
    """
    if v < 1:
        raise ValueError(f"vertex count must be at least 1, got {v}")
    _check_size(v)
    normalized: dict[Edge, None] = {}
    for i, j in edges:
        if i == j:
            raise ValueError(f"self-loop at vertex {i}")
        if not (1 <= i <= v) or not (1 <= j <= v):
            raise ValueError(f"edge ({i}, {j}) out of range 1..{v}")
        normalized[(i, j) if i < j else (j, i)] = None
    return _from_pairs(v, normalized)


def _from_pairs(v: int, pairs: dict[Edge, None]) -> Graph:
    """The Graph on 1..v with the checked, normalized (i < j) edges
    ``pairs``, kept in the order they were first given; empties ``pairs``."""
    # the edges keep their input order, so sorted input (every serialized
    # graph and random_graph) sorts in one linear pass; drop each structure
    # once the next is built: a dense graph's edge table, sorted edges and
    # adjacency tables would not fit in memory together
    ordered = sorted(pairs)
    pairs.clear()
    adj: list = [[] for _ in range(v + 1)]
    for i, j in ordered:
        adj[i].append(j)
        adj[j].append(i)
    for y in range(v + 1):
        adj[y] = frozenset(adj[y])
    return Graph(v, tuple(ordered), tuple(adj))


def parse_graph(text: str, format: str, deadline: float | None = None) -> Graph:
    """Parse ``text`` in the named format (dimacs, edgelist or json).

    Repeated edges collapse as they are read, and more than MAX_PAIRS
    distinct edges, or more than MAX_V vertices, are refused
    (GuardExceeded).  The line formats are read a block at a time, never as
    one list of lines; JSON is decoded whole.  Past ``deadline`` (absolute,
    on time.monotonic()) SearchTimeout is raised: the line formats check it
    before each block, JSON before and after decoding and once every
    PAIRS_PER_CHECK edge pairs.
    """
    if format == "dimacs":
        return _parse_dimacs(text, deadline)
    if format == "edgelist":
        return _parse_edgelist(text, deadline)
    if format == "json":
        return _parse_json(text, deadline)
    raise ValueError(f"unknown graph format {format!r}")


def _check_deadline(deadline: float | None) -> None:
    """Raise SearchTimeout if ``deadline`` has passed: enumerator's test,
    which this module cannot import, enumerator importing it."""
    if deadline is not None and time.monotonic() > deadline:
        raise SearchTimeout("graph parsing exceeded its time budget")


def _lines(text: str, deadline: float | None = None) -> Iterator[str]:
    """``text.splitlines()``, split a block of about 64 KB at a time;
    ``deadline`` is checked before each block."""
    start = 0
    while start < len(text):
        _check_deadline(deadline)
        end = text.find("\n", start + 65536)
        end = len(text) if end < 0 else end + 1
        yield from text[start:end].splitlines()
        start = end


def _parse_dimacs(text: str, deadline: float | None) -> Graph:
    v = None
    edges: dict[Edge, None] = {}
    for lineno, raw in enumerate(_lines(text, deadline), start=1):
        parts = raw.split()
        if not parts or parts[0].startswith("c"):
            continue
        if parts[0] == "p":
            if v is not None:
                raise GraphFormatError("duplicate problem line", lineno)
            if len(parts) != 4 or parts[1] != "edge":
                raise GraphFormatError("malformed problem line, expected 'p edge V E'", lineno)
            try:
                v, _declared = int(parts[2]), int(parts[3])
            except ValueError:
                raise GraphFormatError("non-integer counts in problem line", lineno) from None
            if v < 1:
                raise GraphFormatError("vertex count must be at least 1", lineno)
            _check_size(v)
        elif parts[0] == "e":
            if v is None:
                raise GraphFormatError("edge before problem line", lineno)
            if len(parts) != 3:
                raise GraphFormatError("malformed edge line, expected 'e i j'", lineno)
            try:
                i, j = int(parts[1]), int(parts[2])
            except ValueError:
                raise GraphFormatError("non-integer vertex in edge line", lineno) from None
            _add_edge(edges, v, i, j, lineno)
        else:
            raise GraphFormatError(f"unrecognized line type {parts[0]!r}", lineno)
    if v is None:
        raise GraphFormatError("missing 'p edge V E' problem line")
    return _from_pairs(v, edges)


def _parse_edgelist(text: str, deadline: float | None) -> Graph:
    v = None
    edges: dict[Edge, None] = {}
    for lineno, raw in enumerate(_lines(text, deadline), start=1):
        parts = raw.split()
        if not parts:
            continue
        if v is None:
            if len(parts) != 1:
                raise GraphFormatError("first line must hold the vertex count", lineno)
            try:
                v = int(parts[0])
            except ValueError:
                raise GraphFormatError("non-integer vertex count", lineno) from None
            if v < 1:
                raise GraphFormatError("vertex count must be at least 1", lineno)
            _check_size(v)
            continue
        if len(parts) != 2:
            raise GraphFormatError("malformed edge line, expected 'i j'", lineno)
        try:
            i, j = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphFormatError("non-integer vertex in edge line", lineno) from None
        _add_edge(edges, v, i, j, lineno)
    if v is None:
        raise GraphFormatError("empty input, expected a vertex count line")
    return _from_pairs(v, edges)


def _parse_json(text: str, deadline: float | None) -> Graph:
    _check_deadline(deadline)
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphFormatError(f"invalid JSON: {exc.msg}", exc.lineno) from None
    _check_deadline(deadline)
    if not (isinstance(payload, dict) and "v" in payload
            and isinstance(payload.get("edges"), list)):
        raise GraphFormatError("expected an object with a 'v' key and an 'edges' list")
    v = payload["v"]
    # type(...) is int: JSON's true and false decode to bools, which are ints
    if type(v) is not int or v < 1:
        raise GraphFormatError("'v' must be a positive integer")
    _check_size(v)
    edges: dict[Edge, None] = {}
    for k, pair in enumerate(payload["edges"]):
        if not k % PAIRS_PER_CHECK:
            _check_deadline(deadline)
        if not (isinstance(pair, list) and len(pair) == 2 and all(type(x) is int for x in pair)):
            raise GraphFormatError(f"edge #{k} must be a pair of integers")
        i, j = pair
        if i == j:
            raise GraphFormatError(f"edge #{k} is a self-loop at vertex {i}")
        if not (1 <= i <= v) or not (1 <= j <= v):
            raise GraphFormatError(f"edge #{k} ({i}, {j}) out of range 1..{v}")
        _add_edge(edges, v, i, j, None)
    return _from_pairs(v, edges)


def _add_edge(edges: dict[Edge, None], v: int, i: int, j: int, lineno: int | None) -> None:
    """Check edge (i, j) and add it to ``edges`` as (min, max); refuse more
    than MAX_PAIRS distinct edges."""
    if i == j:
        raise GraphFormatError(f"self-loop at vertex {i}", lineno)
    if not (1 <= i <= v) or not (1 <= j <= v):
        raise GraphFormatError(f"edge ({i}, {j}) out of range 1..{v}", lineno)
    edges[(i, j) if i < j else (j, i)] = None
    if len(edges) > MAX_PAIRS:
        raise GuardExceeded(f"more than {MAX_PAIRS} distinct edges refused above the size guard")


def _check_size(v: int) -> None:
    if v > MAX_V:
        raise GuardExceeded(f"graph of v={v} vertices refused above the size guard {MAX_V}")


def serialize_graph(g: Graph, format: str) -> str:
    """Render ``g`` in the named format; output is diff-stable (sorted edges)."""
    if format == "dimacs":
        lines = [f"p edge {g.v} {g.w}"]
        lines += [f"e {i} {j}" for i, j in g.edges]
        return "\n".join(lines) + "\n"
    if format == "edgelist":
        lines = [str(g.v)]
        lines += [f"{i} {j}" for i, j in g.edges]
        return "\n".join(lines) + "\n"
    if format == "json":
        return json.dumps({"v": g.v, "edges": [list(e) for e in g.edges]}) + "\n"
    raise ValueError(f"unknown graph format {format!r}")


def to_complement(g: Graph) -> Graph:
    """Graph on the same vertices whose edges are exactly the non-edges of g."""
    present = set(g.edges)
    return make_graph(g.v, (
        (i, j)
        for i in range(1, g.v + 1)
        for j in range(i + 1, g.v + 1)
        if (i, j) not in present
    ))


def random_graph(v: int, d: float, seed: int) -> Graph:
    """Seeded Gilbert model: each of the C(v,2) pairs kept with probability d.

    Refuses (GuardExceeded) more than MAX_PAIRS pairs before drawing any.
    """
    if not 0.0 <= d <= 1.0:
        raise ValueError(f"edge density must lie in [0, 1], got {d}")
    if (pairs := v * (v - 1) // 2) > MAX_PAIRS:
        raise GuardExceeded(f"random graph of v={v} vertices ({pairs} pairs) refused "
                            f"above the size guard of {MAX_PAIRS} pairs")
    rng = random.Random(seed)
    labels = list(range(v + 1))   # one int object per label, shared by its edges
    return make_graph(v, (
        (i, j)
        for i in labels[1:]
        for j in labels[i + 1:]
        if rng.random() < d
    ))


def bipartition(g: Graph) -> tuple[frozenset[int], frozenset[int]] | None:
    """Proper 2-coloring (classA, classB) with |classA| <= |classB|, or None.

    Per connected component the smaller side joins classA; on ties the side
    holding the component's lowest-numbered vertex does.  Isolated vertices
    therefore always land in classB.
    """
    color: list[int | None] = [None] * (g.v + 1)
    class_a: list[int] = []
    class_b: list[int] = []
    for start in range(1, g.v + 1):
        if color[start] is not None:
            continue
        color[start] = 0
        sides: tuple[list[int], list[int]] = ([start], [])
        queue = [start]
        while queue:
            y = queue.pop()
            for z in g.adjacency[y]:
                if color[z] is None:
                    color[z] = color[y] ^ 1
                    sides[color[z]].append(z)
                    queue.append(z)
                elif color[z] == color[y]:
                    return None
        s0, s1 = sides
        if len(s1) < len(s0):
            small, big = s1, s0
        else:
            small, big = s0, s1
        class_a += small
        class_b += big
    return frozenset(class_a), frozenset(class_b)
