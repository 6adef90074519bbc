"""Answers computed apart from the row machinery, used to check the CLI's output.

Nothing here imports ``anticlique``.  Graphs are a vertex count ``v`` plus a
list of 1-based edge pairs, exactly as the workload generator made them.

* f(G) and the independence polynomial: the bitmask recursion
  I(G) = I(G - y) + x * I(G - N[y]), memoized on the remaining vertex set.
* alpha and weighted alpha: networkx ``max_weight_clique`` on the complement.
* bipartite alpha: v - |maximum matching| (Koenig), by Hopcroft-Karp.
* inclusion-maximal anticliques: ``find_cliques`` on the complement.
* chromatic number: a small exact backtracking colouring.

Run as a script it reads a JSON list of reference requests and writes the
answers as JSON (see ``main``); the benchmark calls it in a child process so
that networkx never loads into the process whose memory it measures.
"""

from __future__ import annotations

import argparse
import json
import sys
from math import comb
from pathlib import Path

Edges = list[tuple[int, int]]


def _masks(v: int, edges: Edges) -> list[int]:
    """Neighbour bitmasks, bit y-1 standing for vertex y."""
    nbr = [0] * v
    for i, j in edges:
        nbr[i - 1] |= 1 << (j - 1)
        nbr[j - 1] |= 1 << (i - 1)
    return nbr


def independence_polynomial(v: int, edges: Edges) -> list[int]:
    """Coefficient k counts the k-element anticliques (index = size)."""
    nbr = _masks(v, edges)
    memo: dict[int, tuple[int, ...]] = {}

    def rec(mask: int) -> tuple[int, ...]:
        hit = memo.get(mask)
        if hit is not None:
            return hit
        pivot, degree = -1, 0
        rest = mask
        while rest:
            low = rest & -rest
            y = low.bit_length() - 1
            rest ^= low
            dy = (nbr[y] & mask).bit_count()
            if dy > degree:
                pivot, degree = y, dy
        if pivot < 0:
            n = mask.bit_count()
            out = tuple(comb(n, k) for k in range(n + 1))
        else:
            without = rec(mask & ~(1 << pivot))
            taken = rec(mask & ~(1 << pivot) & ~nbr[pivot])
            coeffs = list(without) + [0] * max(0, len(taken) + 1 - len(without))
            for k, c in enumerate(taken):
                coeffs[k + 1] += c
            out = tuple(coeffs)
        memo[mask] = out
        return out

    return list(rec((1 << v) - 1))


def _complement_nx(v: int, edges: Edges, weights: dict[int, int] | None = None):
    import networkx as nx

    g = nx.Graph()
    g.add_nodes_from(range(1, v + 1))
    g.add_edges_from(edges)
    comp = nx.complement(g)
    if weights is not None:
        for y in comp.nodes:
            comp.nodes[y]["weight"] = weights.get(y, 1)
    return comp


def alpha(v: int, edges: Edges, weights: dict[int, int] | None = None) -> int:
    """Largest anticlique size, or largest total weight when weights are given."""
    import networkx as nx

    comp = _complement_nx(v, edges, weights)
    _clique, value = nx.max_weight_clique(comp, weight="weight" if weights else None)
    return value


def bipartite_alpha(v: int, edges: Edges, left: list[int]) -> int:
    """v - |maximum matching|; ``left`` is one colour class."""
    import networkx as nx
    from networkx.algorithms.bipartite import hopcroft_karp_matching

    g = nx.Graph()
    g.add_nodes_from(range(1, v + 1))
    g.add_edges_from(edges)
    matching = hopcroft_karp_matching(g, top_nodes=set(left))
    return v - len(matching) // 2


def maximal_sets(v: int, edges: Edges) -> list[list[int]]:
    """All inclusion-maximal anticliques, each sorted, in sorted order."""
    import networkx as nx

    comp = _complement_nx(v, edges)
    return sorted(sorted(c) for c in nx.find_cliques(comp))


def chromatic_number(v: int, edges: Edges) -> int:
    """Fewest colours of a proper colouring, by backtracking (small v only)."""
    nbr = _masks(v, edges)
    order = sorted(range(v), key=lambda y: -nbr[y].bit_count())
    upper = _greedy_colours(nbr, order)
    lower = 1 if not edges else 2
    for k in range(lower, upper):
        if _colourable(nbr, order, k):
            return k
    return upper


def _greedy_colours(nbr: list[int], order: list[int]) -> int:
    colour = {}
    for y in order:
        used = {colour[z] for z in colour if nbr[y] >> z & 1}
        colour[y] = next(c for c in range(len(nbr) + 1) if c not in used)
    return max(colour.values(), default=-1) + 1


def _colourable(nbr: list[int], order: list[int], k: int) -> bool:
    classes = [0] * k   # vertex bitmask per colour

    def place(i: int, used: int) -> bool:
        if i == len(order):
            return True
        y = order[i]
        # colour classes are interchangeable: open at most one new class
        for c in range(min(used + 1, k)):
            if classes[c] & nbr[y] == 0:
                classes[c] |= 1 << y
                if place(i + 1, max(used, c + 1)):
                    return True
                classes[c] &= ~(1 << y)
        return False

    return place(0, 0)


def compute(request: dict) -> dict:
    """Answer one request: ``{"v", "edges", "want": [...], "weights"?, "left"?}``."""
    v = request["v"]
    edges = [tuple(e) for e in request["edges"]]
    out: dict = {}
    for want in request["want"]:
        if want == "poly":
            out["poly"] = independence_polynomial(v, edges)
        elif want == "alpha":
            out["alpha"] = alpha(v, edges)
        elif want == "weighted_alpha":
            weights = {int(y): w for y, w in request["weights"].items()}
            out["weighted_alpha"] = alpha(v, edges, weights)
        elif want == "bipartite_alpha":
            out["bipartite_alpha"] = bipartite_alpha(v, edges, request["left"])
        elif want == "maximal":
            out["maximal"] = maximal_sets(v, edges)
        elif want == "chi":
            out["chi"] = chromatic_number(v, edges)
        else:
            raise ValueError(f"unknown reference {want!r}")
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("requests", type=Path, help="JSON list of requests")
    parser.add_argument("answers", type=Path, help="where to write the JSON answers")
    args = parser.parse_args(argv)
    requests = json.loads(args.requests.read_text())
    answers = [compute(r) for r in requests]
    args.answers.write_text(json.dumps(answers))
    return 0


if __name__ == "__main__":
    sys.exit(main())
