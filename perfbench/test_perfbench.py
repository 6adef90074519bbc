"""Fast tests of the benchmark's own reference code and checker.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import reference  # noqa: E402
from check import GraphFacts, check  # noqa: E402
from workloads import Family, Job, draw  # noqa: E402


def _graph(v: int, d: float, seed: int) -> list[tuple[int, int]]:
    rng = random.Random(seed)
    return [(i, j) for i in range(1, v + 1) for j in range(i + 1, v + 1) if rng.random() < d]


def _anticliques(v: int, edges) -> list[frozenset[int]]:
    """Exhaustive sweep over all 2^v subsets."""
    nbr = reference._masks(v, edges)
    out = []
    for mask in range(1 << v):
        if all(not (mask >> y & 1) or not (nbr[y] & mask) for y in range(v)):
            out.append(frozenset(y + 1 for y in range(v) if mask >> y & 1))
    return out


def _sweep_chi(v: int, edges) -> int:
    """Fewest anticliques covering V, by dynamic programming over subsets."""
    independent = {sum(1 << (y - 1) for y in s) for s in _anticliques(v, edges)}
    best = {0: 0}
    for mask in range(1, 1 << v):
        low = mask & -mask
        sub, fewest = mask, v
        while sub:
            if sub & low and sub in independent:
                fewest = min(fewest, best[mask ^ sub] + 1)
            sub = (sub - 1) & mask
        best[mask] = fewest
    return best[(1 << v) - 1]


SWEEP = [(v, d, seed) for v in (1, 2, 5, 9, 12, 16) for d in (0.0, 0.2, 0.5, 0.9)
         for seed in (1, 2)]


@pytest.mark.parametrize("v,d,seed", SWEEP)
def test_reference_agrees_with_subset_sweep(v, d, seed):
    edges = _graph(v, d, seed)
    sets = _anticliques(v, edges)
    sizes = [0] * (max(map(len, sets)) + 1)
    for s in sets:
        sizes[len(s)] += 1
    assert reference.independence_polynomial(v, edges) == sizes
    assert reference.alpha(v, edges) == len(sizes) - 1
    weights = {y: 1 + (y * 7 + seed) % 10 for y in range(1, v + 1)}
    assert reference.alpha(v, edges, weights) == max(sum(weights[y] for y in s) for s in sets)
    adj = GraphFacts(v, edges).adj
    maximal = [sorted(s) for s in sets if all(y in s or adj[y] & s for y in range(1, v + 1))]
    assert reference.maximal_sets(v, edges) == sorted(maximal)
    if v <= 12:
        assert reference.chromatic_number(v, edges) == _sweep_chi(v, edges)


@pytest.mark.parametrize("seed", range(6))
def test_bipartite_reference_agrees_with_subset_sweep(seed):
    g = draw(Job("b", Family("alpha", 14, 0.3, 1, bipartite=6)), "test", seed)
    alpha = max(map(len, _anticliques(g.v, g.edges)))
    assert reference.bipartite_alpha(g.v, g.edges, g.left) == alpha


def _cli(args: list[str], path: Path) -> dict:
    from anticlique import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main([*args, "--graph", str(path), "--json"]) == 0
    return json.loads(out.getvalue())


@pytest.fixture
def small(tmp_path):
    """A 12-vertex graph, its DIMACS file and its reference answers."""
    v, edges = 12, _graph(12, 0.3, 5)
    path = tmp_path / "g.col"
    path.write_text(f"p edge {v} {len(edges)}\n" + "".join(f"e {i} {j}\n" for i, j in edges))
    ref = reference.compute({"v": v, "edges": edges, "want": ["poly", "alpha", "maximal"]})
    return GraphFacts(v, edges), path, ref


def _edge(facts: GraphFacts) -> list[int]:
    return next([y, z] for y in range(1, facts.v + 1) for z in sorted(facts.adj[y]) if y < z)


def test_checker_flags_a_wrong_count(small):
    facts, path, ref = small
    out = _cli(["count"], path)
    assert check("count", {}, facts, ref, out) == []
    out["f"] += 1
    assert check("count", {}, facts, ref, out)
    poly = _cli(["poly"], path)
    assert check("poly", {}, facts, ref, poly) == []
    poly["coefficients"][2] -= 1
    assert check("poly", {}, facts, ref, poly)


def test_checker_flags_a_non_anticlique(small):
    facts, path, ref = small
    out = _cli(["alpha"], path)
    assert check("alpha", {}, facts, ref, out) == []
    out["witness"] = _edge(facts) + out["witness"][2:]
    assert check("alpha", {}, facts, ref, out)
    listing = _cli(["enum", "--min-size", "2"], path)
    assert check("enum", {"min_size": 2}, facts, ref, listing) == []
    listing["anticliques"][0] = _edge(facts)
    assert check("enum", {"min_size": 2}, facts, ref, listing)


def test_checker_flags_a_missing_maximal_set(small):
    facts, path, ref = small
    out = _cli(["maximal"], path)
    assert check("maximal", {}, facts, ref, out) == []
    del out["maximal"][3]
    out["count"] -= 1
    assert check("maximal", {}, facts, ref, out)


def test_checker_flags_a_listing_with_a_repeat(small):
    facts, path, ref = small
    out = _cli(["threshold", "--k", "2"], path)
    assert check("threshold", {"k": 2}, facts, ref, out) == []
    out["anticliques"][-1] = out["anticliques"][0]
    assert check("threshold", {"k": 2}, facts, ref, out)

