"""The searches against networkx at v = 30-80, beyond the brute-force range.

networkx finds maximum (weight) cliques and every maximal clique of the
complement graph with code that shares nothing with the row machinery or
with maximal_family's bitmask search: alpha is the clique number of the
complement, the maximal anticliques are its maximal cliques, and the
maximum anticliques are its largest ones.  The module is skipped when networkx is
missing; CI runs it on its own and fails if anything here is skipped.
"""

import dataclasses
import random

import pytest

from anticlique import (
    SearchOptions,
    all_max_anticliques,
    cover_degree_order,
    max_anticlique,
    max_weight_anticlique,
    maximal_anticliques,
    maximal_family,
    maximum_sets,
    random_graph,
    threshold_alpha,
    threshold_search,
)
from conftest import complete_graph, cycle_graph, empty_graph, graph_from_edges, is_anticlique

nx = pytest.importorskip("networkx")

# (v, d, seed); sparse graphs only at the small end, where the complement's
# maximal cliques stay few
CASES = [
    (30, 0.1, 1), (30, 0.3, 2), (34, 0.2, 3), (38, 0.15, 4), (40, 0.4, 5),
    (44, 0.25, 6), (48, 0.3, 7), (52, 0.2, 8), (56, 0.35, 9), (60, 0.3, 10),
    (64, 0.4, 11), (68, 0.3, 12), (72, 0.45, 13), (76, 0.35, 14), (80, 0.5, 15),
    (80, 0.3, 16),
]

# sparse graphs beyond CASES, alpha only: their complements' maximal cliques
# are too many to list; (120, 0.05, 1) takes max_anticlique about 0.6 s
# (alpha = 48) and networkx about 2 s
SPARSE = [(100, 0.05, 1), (100, 0.05, 3), (120, 0.05, 1)]


def _complement(g):
    h = nx.Graph()
    h.add_nodes_from(range(1, g.v + 1))
    h.add_edges_from(g.edges)
    return nx.complement(h)


@pytest.mark.parametrize("v, d, seed", CASES)
def test_searches_match_networkx(v, d, seed):
    g = random_graph(v, d, seed)
    h = _complement(g)
    _clique, alpha = nx.max_weight_clique(h, weight=None)

    res = max_anticlique(g)
    assert res.alpha == len(res.witness) == alpha
    assert is_anticlique(g, res.witness)
    hit, _stats = threshold_search(g, alpha - 1, "first")
    assert hit is not None and len(hit) == alpha and is_anticlique(g, hit)
    assert threshold_search(g, alpha, "first")[0] is None
    assert threshold_alpha(g)[0] == alpha

    got_alpha, sets = all_max_anticliques(g)
    assert got_alpha == alpha
    assert [sorted(X) for X in sets] == sorted(
        sorted(c) for c in nx.find_cliques(h) if len(c) == alpha)


@pytest.mark.parametrize("v, d, seed", [case for case in CASES if case[0] <= 60])
def test_maximal_matches_networkx(v, d, seed):
    # the maximal anticliques are the maximal cliques of the complement
    g = random_graph(v, d, seed)
    expected = sorted(sorted(c) for c in nx.find_cliques(_complement(g)))
    assert [sorted(X) for X in maximal_anticliques(g)] == expected


# maximal_family at every density; (60, 0.1) is left out: 447,270 sets on
# seed 1, about 4 s here and 4 s in networkx
MAXIMAL_GRID = [(v, d, seed) for v in (30, 40, 50, 60) for d in (0.1, 0.3, 0.5)
                for seed in (1, 2, 3) if (v, d) != (60, 0.1)]


@pytest.mark.parametrize("v, d, seed", MAXIMAL_GRID)
def test_maximal_family_matches_networkx(v, d, seed):
    g = random_graph(v, d, seed)
    expected = sorted(sorted(c) for c in nx.find_cliques(_complement(g)))
    fam = maximal_family(g)
    assert [sorted(X) for X in fam.sets] == expected
    assert fam.dominated == fam.candidates - len(expected)


@pytest.mark.parametrize("g", [
    pytest.param(empty_graph(40), id="edgeless"),
    pytest.param(complete_graph(40), id="complete"),
    pytest.param(cycle_graph(5), id="five-cycle"),
    pytest.param(graph_from_edges(24, [(2 * i + 1, 2 * i + 2) for i in range(12)]),
                 id="perfect-matching"),
])
def test_maximal_family_on_named_graphs(g):
    expected = sorted(sorted(c) for c in nx.find_cliques(_complement(g)))
    assert [sorted(X) for X in maximal_family(g).sets] == expected


@pytest.mark.parametrize("v, d, seed", CASES)
def test_weighted_alpha_matches_networkx(v, d, seed):
    g = random_graph(v, d, seed)
    rng = random.Random(seed)
    weights = {y: rng.randint(1, 9) for y in range(1, v + 1)}
    h = _complement(g)
    nx.set_node_attributes(h, weights, "weight")
    _clique, best = nx.max_weight_clique(h, weight="weight")

    res = max_weight_anticlique(g, weights)
    assert res.alpha == sum(weights[p] for p in res.witness) == best
    assert is_anticlique(g, res.witness)


@pytest.mark.parametrize("v, d, seed", CASES)
def test_clique_order_matches_networkx(v, d, seed):
    # the CLI's alpha run: cover_degree_order, each row branching on MCQ's
    # clique order (its branch set); the plain searches above run in vertex
    # order
    g = random_graph(v, d, seed)
    rng = random.Random(seed)
    weights = {y: rng.randint(1, 9) for y in range(1, v + 1)}
    h = _complement(g)
    _clique, alpha = nx.max_weight_clique(h, weight=None)
    nx.set_node_attributes(h, weights, "weight")
    _clique, best = nx.max_weight_clique(h, weight="weight")

    opts = SearchOptions(order=cover_degree_order(g))
    res = max_anticlique(g, opts)
    assert res.alpha == len(res.witness) == alpha
    assert is_anticlique(g, res.witness)
    assert maximum_sets(g, res, opts)[0] == maximum_sets(g, max_anticlique(g))[0]
    res = max_anticlique(g, dataclasses.replace(opts, weights=weights))
    assert res.alpha == sum(weights[p] for p in res.witness) == best
    assert is_anticlique(g, res.witness)


@pytest.mark.parametrize("v, d, seed", SPARSE)
def test_sparse_alpha_matches_networkx(v, d, seed):
    g = random_graph(v, d, seed)
    _clique, alpha = nx.max_weight_clique(_complement(g), weight=None)

    res = max_anticlique(g)
    assert res.alpha == len(res.witness) == alpha
    assert is_anticlique(g, res.witness)
