"""Simple undirected graphs on vertices 1..v: parsing, generation, structure helpers."""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Iterable

from .errors import GraphFormatError

Edge = tuple[int, int]

FORMATS = ("dimacs", "edgelist", "json")


@dataclass(frozen=True)
class Graph:
    """Immutable simple graph.

    ``edges`` holds (i, j) pairs with i < j, sorted; ``adjacency[y]`` is the
    neighbour set B(y), with a dummy entry at index 0 so vertices read 1-based.
    """

    v: int
    edges: tuple[Edge, ...]
    adjacency: tuple[frozenset[int], ...]

    @property
    def w(self) -> int:
        return len(self.edges)

    def neighbors(self, y: int) -> frozenset[int]:
        return self.adjacency[y]


def make_graph(v: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a Graph from raw edge pairs, normalizing and validating them."""
    if v < 1:
        raise ValueError(f"vertex count must be at least 1, got {v}")
    normalized: set[Edge] = set()
    for i, j in edges:
        if i == j:
            raise ValueError(f"self-loop at vertex {i}")
        if not (1 <= i <= v) or not (1 <= j <= v):
            raise ValueError(f"edge ({i}, {j}) out of range 1..{v}")
        normalized.add((i, j) if i < j else (j, i))
    ordered = tuple(sorted(normalized))
    adj: list[set[int]] = [set() for _ in range(v + 1)]
    for i, j in ordered:
        adj[i].add(j)
        adj[j].add(i)
    return Graph(v, ordered, tuple(frozenset(s) for s in adj))


def parse_graph(text: str, format: str) -> Graph:
    """Parse ``text`` in the named format (dimacs, edgelist or json)."""
    if format == "dimacs":
        return _parse_dimacs(text)
    if format == "edgelist":
        return _parse_edgelist(text)
    if format == "json":
        return _parse_json(text)
    raise ValueError(f"unknown graph format {format!r}")


def _parse_dimacs(text: str) -> Graph:
    v = None
    edges: list[Edge] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
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
        elif parts[0] == "e":
            if v is None:
                raise GraphFormatError("edge before problem line", lineno)
            if len(parts) != 3:
                raise GraphFormatError("malformed edge line, expected 'e i j'", lineno)
            try:
                i, j = int(parts[1]), int(parts[2])
            except ValueError:
                raise GraphFormatError("non-integer vertex in edge line", lineno) from None
            _check_edge(v, i, j, lineno)
            edges.append((i, j))
        else:
            raise GraphFormatError(f"unrecognized line type {parts[0]!r}", lineno)
    if v is None:
        raise GraphFormatError("missing 'p edge V E' problem line")
    return make_graph(v, edges)


def _parse_edgelist(text: str) -> Graph:
    v = None
    edges: list[Edge] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        parts = line.split()
        if v is None:
            if len(parts) != 1:
                raise GraphFormatError("first line must hold the vertex count", lineno)
            try:
                v = int(parts[0])
            except ValueError:
                raise GraphFormatError("non-integer vertex count", lineno) from None
            if v < 1:
                raise GraphFormatError("vertex count must be at least 1", lineno)
            continue
        if len(parts) != 2:
            raise GraphFormatError("malformed edge line, expected 'i j'", lineno)
        try:
            i, j = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphFormatError("non-integer vertex in edge line", lineno) from None
        _check_edge(v, i, j, lineno)
        edges.append((i, j))
    if v is None:
        raise GraphFormatError("empty input, expected a vertex count line")
    return make_graph(v, edges)


def _parse_json(text: str) -> Graph:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphFormatError(f"invalid JSON: {exc.msg}", exc.lineno) from None
    if not isinstance(payload, dict) or "v" not in payload or "edges" not in payload:
        raise GraphFormatError("expected an object with 'v' and 'edges' keys")
    v = payload["v"]
    if not isinstance(v, int) or v < 1:
        raise GraphFormatError("'v' must be a positive integer")
    edges: list[Edge] = []
    for k, pair in enumerate(payload["edges"]):
        if not (isinstance(pair, list) and len(pair) == 2 and all(isinstance(x, int) for x in pair)):
            raise GraphFormatError(f"edge #{k} must be a pair of integers")
        i, j = pair
        if i == j:
            raise GraphFormatError(f"edge #{k} is a self-loop at vertex {i}")
        if not (1 <= i <= v) or not (1 <= j <= v):
            raise GraphFormatError(f"edge #{k} ({i}, {j}) out of range 1..{v}")
        edges.append((i, j))
    return make_graph(v, edges)


def _check_edge(v: int, i: int, j: int, lineno: int) -> None:
    if i == j:
        raise GraphFormatError(f"self-loop at vertex {i}", lineno)
    if not (1 <= i <= v) or not (1 <= j <= v):
        raise GraphFormatError(f"edge ({i}, {j}) out of range 1..{v}", lineno)


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
    edges = [
        (i, j)
        for i in range(1, g.v + 1)
        for j in range(i + 1, g.v + 1)
        if (i, j) not in present
    ]
    return make_graph(g.v, edges)


def relabel_by_degree(g: Graph) -> tuple[Graph, tuple[int, ...]]:
    """g renumbered by descending degree, ties broken by the lower label.

    Returns (h, old): ``old[k]`` is the input label of h's vertex k, and
    ``old[0]`` is 0 so that it reads 1-based like ``adjacency``.
    """
    old = (0, *sorted(range(1, g.v + 1), key=lambda y: (-len(g.adjacency[y]), y)))
    new = {y: k for k, y in enumerate(old)}
    return make_graph(g.v, [(new[i], new[j]) for i, j in g.edges]), old


def random_graph(v: int, d: float, seed: int) -> Graph:
    """Seeded Gilbert model: each of the C(v,2) pairs kept with probability d."""
    if not 0.0 <= d <= 1.0:
        raise ValueError(f"edge density must lie in [0, 1], got {d}")
    rng = random.Random(seed)
    edges = [
        (i, j)
        for i in range(1, v + 1)
        for j in range(i + 1, v + 1)
        if rng.random() < d
    ]
    return make_graph(v, edges)


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
