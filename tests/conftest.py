"""Shared fixtures and independent brute-force helpers for the test suite.

The helpers here re-derive row and graph semantics directly from their
definitions (bitmask sweeps over all subsets) so that agreement with the
library is meaningful evidence, not circularity.
"""

from __future__ import annotations

import random
from itertools import zip_longest
from math import comb

import pytest

from anticlique import Graph, make_graph, row_from_debug
from anticlique.rows import Row

G5_DIMACS = """c five-vertex worked example
p edge 5 6
e 1 2
e 1 4
e 1 5
e 2 4
e 3 4
e 4 5
"""

EXAMPLE_ROW_13 = "(2,0,1,2,a1,b1,b1,b1,a2,b2,a3,b3,b3)"


@pytest.fixture
def g5() -> Graph:
    return make_graph(5, [(1, 2), (1, 4), (1, 5), (2, 4), (3, 4), (4, 5)])


def graph_from_edges(v: int, edges) -> Graph:
    return make_graph(v, edges)


def path_graph(n: int) -> Graph:
    return make_graph(n, [(i, i + 1) for i in range(1, n)])


def cycle_graph(n: int) -> Graph:
    return make_graph(n, [(i, i + 1) for i in range(1, n)] + [(1, n)])


def complete_graph(n: int) -> Graph:
    return make_graph(n, [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)])


def empty_graph(n: int) -> Graph:
    return make_graph(n, [])


def random_bipartite(v1: int, v2: int, d: float, seed: int) -> Graph:
    """Seeded bipartite graph on classes {1..v1} and {v1+1..v1+v2}."""
    rng = random.Random(seed)
    edges = [
        (i, j)
        for i in range(1, v1 + 1)
        for j in range(v1 + 1, v1 + v2 + 1)
        if rng.random() < d
    ]
    return make_graph(v1 + v2, edges)


def induced_subgraph(g: Graph, keep: set[int]) -> Graph:
    """Subgraph on ``keep``, relabeled 1..|keep| preserving vertex order."""
    ordered = sorted(keep)
    relabel = {y: i + 1 for i, y in enumerate(ordered)}
    edges = [
        (relabel[i], relabel[j]) for i, j in g.edges if i in keep and j in keep
    ]
    return make_graph(max(len(ordered), 1), edges)


# -- independent row semantics ------------------------------------------------


def row_masks(row: Row):
    """Bitmask view of the row's declared structure (bit p-1 = vertex p;
    the row's own masks use bit p)."""
    groups = [(prem - 1, anti >> 1) for prem, anti in row.groups.values()]
    return row.zero_mask >> 1, row.one_mask >> 1, groups


def member_masks_bruteforce(row: Row) -> list[int]:
    """All member sets of the row by direct semantic evaluation over 2^v masks."""
    zero_mask, one_mask, groups = row_masks(row)
    out = []
    for mask in range(1 << row.v):
        if mask & zero_mask:
            continue
        if mask & one_mask != one_mask:
            continue
        if any((mask >> pb) & 1 and (mask & am) for pb, am in groups):
            continue
        out.append(mask)
    return out


def mask_to_set(mask: int) -> frozenset[int]:
    return frozenset(p + 1 for p in range(mask.bit_length()) if (mask >> p) & 1)


def random_row(rng: random.Random, v: int) -> Row:
    """A random structurally valid row, built from its debug string."""
    tokens = ["2"] * v
    positions = list(range(v))
    rng.shuffle(positions)
    next_gid = 1
    idx = 0
    while idx < len(positions):
        remaining = len(positions) - idx
        roll = rng.random()
        if roll < 0.35 and remaining >= 2 and next_gid <= 3:
            beta = rng.randint(1, min(3, remaining - 1))
            tokens[positions[idx]] = f"a{next_gid}"
            for q in positions[idx + 1 : idx + 1 + beta]:
                tokens[q] = f"b{next_gid}"
            next_gid += 1
            idx += 1 + beta
        else:
            tokens[positions[idx]] = rng.choice(("0", "1", "2"))
            idx += 1
    return row_from_debug("(" + ",".join(tokens) + ")")


def is_anticlique(g: Graph, X) -> bool:
    xs = set(X)
    return all(not (i in xs and j in xs) for i, j in g.edges)


def all_anticliques(g: Graph) -> set[frozenset[int]]:
    """Every independent set, by direct edge checks over all subsets."""
    out = set()
    for mask in range(1 << g.v):
        X = mask_to_set(mask)
        if is_anticlique(g, X):
            out.add(X)
    return out


def anticlique_masks(g: Graph) -> list[int]:
    """Every independent set as a mask (bit p-1 = vertex p), ascending, by
    one subset sweep that extends each set by its lowest vertex."""
    nb = [0] * (g.v + 1)
    for i, j in g.edges:
        nb[i] |= 1 << (j - 1)
        nb[j] |= 1 << (i - 1)
    indep = bytearray(1 << g.v)
    indep[0] = 1
    for mask in range(1, 1 << g.v):
        low = (mask & -mask).bit_length()
        indep[mask] = indep[mask & (mask - 1)] and not nb[low] & mask
    return [mask for mask in range(1 << g.v) if indep[mask]]


def independence_poly_bitmask(g: Graph) -> list[int]:
    """Independence polynomial coefficients by the vertex recursion
    I(G) = I(G - y) + x I(G - N[y]), memoized on the mask of the vertices
    left.  y is a vertex of largest degree among them; an edgeless remainder
    of n vertices gives (1 + x)^n.  Reaches v = 45 where the brute-force
    oracle cannot."""
    nb = [0] * g.v
    for i, j in g.edges:
        nb[i - 1] |= 1 << (j - 1)
        nb[j - 1] |= 1 << (i - 1)
    memo: dict[int, list[int]] = {}

    def rec(mask: int) -> list[int]:
        if mask in memo:
            return memo[mask]
        best, degree, rest = -1, 0, mask
        while rest:
            low = rest & -rest
            rest ^= low
            p = low.bit_length() - 1
            d = bin(nb[p] & mask).count("1")
            if d > degree:
                best, degree = p, d
        if best < 0:
            n = bin(mask).count("1")
            out = [comb(n, k) for k in range(n + 1)]
        else:
            without = mask & ~(1 << best)
            out = [a + b for a, b in zip_longest(rec(without), [0] + rec(without & ~nb[best]),
                                                 fillvalue=0)]
        memo[mask] = out
        return out

    return rec((1 << g.v) - 1)
