"""Brute-force ground truth at small scale, independent of the row machinery.

Everything here works directly off edge membership bitmasks: iterating all
2^v subsets is obviously correct and slow, which is the point.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConfigurationError, check_size_guard
from .graph import Graph, bipartition
from .rows import Polynomial

ORACLE_GUARD_ENV = "ANTICLIQUE_ORACLE_MAX_V"
DEFAULT_ORACLE_MAX_V = 25


@dataclass(frozen=True)
class OracleReport:
    """Exhaustively computed invariants of one graph."""

    f: int
    spectrum: Polynomial
    alpha: int
    maximum_sets: tuple[frozenset[int], ...]
    maximal_sets: tuple[frozenset[int], ...]
    chi: int


def oracle_report(g: Graph, *, max_v: int | None = None) -> OracleReport:
    """Sweep all 2^v subsets and report every quantity of interest.

    Refuses above the size guard (ANTICLIQUE_ORACLE_MAX_V, default 25)
    instead of silently taking forever.
    """
    check_size_guard("oracle_report", g.v, max_v, ORACLE_GUARD_ENV, DEFAULT_ORACLE_MAX_V)
    v = g.v
    nb = [0] * (v + 1)
    for i, j in g.edges:
        nb[i] |= 1 << (j - 1)
        nb[j] |= 1 << (i - 1)
    n = 1 << v
    indep = bytearray(n)
    indep[0] = 1
    for mask in range(1, n):
        low = (mask & -mask).bit_length()
        rest = mask & (mask - 1)
        if indep[rest] and not (nb[low] & mask):
            indep[mask] = 1
    counts = [0] * (v + 1)
    maximal: list[int] = []
    for mask in range(n):
        if not indep[mask]:
            continue
        counts[mask.bit_count()] += 1
        if all(
            (mask >> (y - 1)) & 1 or not indep[mask | (1 << (y - 1))]
            for y in range(1, v + 1)
        ):
            maximal.append(mask)
    spectrum = Polynomial(tuple(counts))
    alpha = spectrum.degree
    maximum = [mask for mask in range(n) if indep[mask] and mask.bit_count() == alpha]
    return OracleReport(
        f=spectrum.evaluate(1),
        spectrum=spectrum,
        alpha=alpha,
        maximum_sets=_sorted_sets(maximum, v),
        maximal_sets=_sorted_sets(maximal, v),
        chi=_chromatic(g),
    )


def _sorted_sets(masks: list[int], v: int) -> tuple[frozenset[int], ...]:
    sets = [frozenset(y for y in range(1, v + 1) if (m >> (y - 1)) & 1) for m in masks]
    return tuple(sorted(sets, key=sorted))


def _chromatic(g: Graph) -> int:
    """Smallest k admitting a proper k-coloring, by plain backtracking."""
    if g.w == 0:
        return 1
    verts = sorted(range(1, g.v + 1), key=lambda y: -len(g.adjacency[y]))
    colors: dict[int, int] = {}

    def colorable(i: int, n_used: int, k: int) -> bool:
        if i == len(verts):
            return True
        y = verts[i]
        forbidden = {colors[u] for u in g.adjacency[y] if u in colors}
        for c in range(1, min(k, n_used + 1) + 1):
            if c in forbidden:
                continue
            colors[y] = c
            if colorable(i + 1, max(n_used, c), k):
                return True
            del colors[y]
        return False

    for k in range(2, g.v + 1):
        colors.clear()
        if colorable(0, 0, k):
            return k
    return g.v


def oracle_matching(g: Graph) -> int:
    """Maximum matching size of a bipartite graph, by augmenting paths."""
    parts = bipartition(g)
    if parts is None:
        raise ConfigurationError("graph is not bipartite")
    left, _right = parts
    match: dict[int, int] = {}

    def augment(y: int, visited: set[int]) -> bool:
        for z in g.adjacency[y]:
            if z in visited:
                continue
            visited.add(z)
            if z not in match or augment(match[z], visited):
                match[z] = y
                return True
        return False

    size = 0
    for y in sorted(left):
        if augment(y, set()):
            size += 1
    return size
