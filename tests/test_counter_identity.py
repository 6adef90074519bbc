"""Counter identity: every engine's counters and answers, pinned.

The values below were recorded with the three hand-written row-stack loops
that preceded the shared exclusion run (``_exclusion_run`` in
enumerator.py).  Any change to the loop that alters a counter (``rsp``,
``trivial_changes``, ``peak_stack``, ``finalized``, ``deleted``), an answer or
a witness fails here.  Stats are tuples in ``SearchStats.as_dict()`` order.

The searches prune by the paper's w_max here, asked for with
``bound="w_max"``; w_max does not depend on labels, so these runs are the
same in the searches' rank space.  The ``*_CLIQUE`` tables pin the same runs
under the default clique bound: the answers are the same, the counters
differ, and so do the witnesses that ``*_CLIQUE_WITNESS`` names (under
the clique bound the searches run the own-premise rule, under w_max the
paper's).

``STANDARD_OWN_PREMISE`` pins the standard run under the own-premise rule,
in vertex order and in ``degree_order``, and in ``cover_degree_order`` (the
run behind ``count`` and ``poly``); f is the paper rule's.  That run chooses
each row's next vertex within the order's set, so only the set matters:
vertex order and ``degree_order`` are the same set, all of g's vertices,
and their two columns are equal.  The three tables were recorded when the
run began to choose.
"""

import dataclasses
import random

import pytest

from anticlique import (
    SearchOptions,
    bipartite_options,
    cover_degree_order,
    degree_order,
    max_anticlique,
    max_weight_anticlique,
    random_graph,
    run_standard,
    threshold_search,
)
from conftest import is_anticlique, random_bipartite

# graph, stats, f
STANDARD = [
    ((14, 0.3, 1), (27, 99, 5, 28, 0), 480),
    ((22, 0.2, 2), (497, 1969, 7, 498, 0), 5021),
    ((28, 0.15, 3), (3124, 9156, 9, 3125, 0), 184876),
    ((32, 0.3, 4), (2283, 11365, 8, 2284, 0), 19532),
]

# graph, stats in vertex order, stats in degree order, f
STANDARD_OWN_PREMISE = [
    ((14, 0.3, 1), (8, 53, 3, 9, 0), (8, 53, 3, 9, 0), 480),
    ((22, 0.2, 2), (78, 405, 5, 79, 0), (78, 405, 5, 79, 0), 5021),
    ((28, 0.15, 3), (137, 847, 6, 138, 0), (137, 847, 6, 138, 0), 184876),
    ((32, 0.3, 4), (251, 1504, 5, 252, 0), (251, 1504, 5, 252, 0), 19532),
]

# stats in cover_degree_order, one per STANDARD_OWN_PREMISE graph
STANDARD_COVER_DEGREE = [
    (10, 13, 3, 11, 0),
    (74, 132, 5, 75, 0),
    (143, 247, 6, 144, 0),
    (286, 710, 5, 287, 0),
]

# graph at paper scale, rows finalized in degree order (paper rule: 180,154
# and 217,860) and in cover_degree_order, count's default run
DEGREE_ORDER_FINALIZED = [((45, 0.08, 11), 1802), ((45, 0.1, 13), 2344)]
COVER_DEGREE_ORDER_FINALIZED = [((45, 0.08, 11), 2121), ((45, 0.1, 13), 4445)]

# graph, stats, alpha, witness
CURRENTMAX = [
    ((14, 0.3, 1), (11, 27, 5, 2, 10), 7, "4 5 7 9 10 12 14"),
    ((22, 0.2, 2), (116, 221, 7, 3, 114), 8, "2 4 5 14 16 18 19 22"),
    ((28, 0.15, 3), (199, 254, 9, 3, 197), 13, "2 4 5 6 7 10 11 15 16 18 25 26 28"),
    ((45, 0.25, 4), (2119, 3487, 8, 3, 2117), 12, "4 5 18 19 24 25 27 32 33 39 42 45"),
    ((60, 0.3, 5), (7208, 16018, 9, 5, 7204), 12, "3 4 6 10 14 16 17 19 45 50 52 57"),
]

# graph (vertex weights 1..9 drawn from its seed), stats, alpha, witness
WEIGHTED = [
    ((14, 0.3, 1), (19, 34, 4, 6, 14), 46, "5 6 7 11 13 14"),
    ((22, 0.2, 2), (101, 166, 6, 7, 95), 49, "4 8 11 13 15 16 21"),
    ((28, 0.15, 3), (189, 271, 9, 9, 181), 70, "2 3 4 5 8 10 11 21 22 24 27"),
    ((45, 0.25, 4), (2012, 3272, 8, 4, 2009), 65, "5 8 10 11 14 16 21 26 34 38"),
    ((60, 0.3, 5), (6333, 14111, 9, 16, 6318), 63, "3 8 12 14 19 22 33 38 44 48 59"),
]

# random_bipartite arguments, stats, alpha, witness
BIPARTITE = [
    ((6, 8, 0.3, 1), (7, 4, 3, 0, 8), 8, "7 8 9 10 11 12 13 14"),
    ((10, 14, 0.2, 2), (21, 14, 3, 0, 22), 14, "11 12 13 14 15 16 17 18 19 20 21 22 23 24"),
    ((15, 15, 0.2, 6), (120, 83, 6, 2, 119), 17,
     "1 3 6 8 16 17 18 19 21 22 23 24 25 26 27 28 29"),
    ((20, 30, 0.1, 3), (227, 177, 6, 0, 228), 31,
     "6 21 22 23 24 25 26 27 28 29 30 31 32 33 34 35 36 37 38 39 40 41 42 43 44 45 46 47 48 49 50"),
]

# graph, k, stats, the hit's vertices
THRESHOLD_FIRST = [
    ((14, 0.3, 1), 6, (7, 13, 4, 1, 4), "4 5 7 9 10 12 14"),
    ((14, 0.3, 1), 7, (7, 11, 3, 0, 8), None),
    ((22, 0.2, 2), 7, (11, 17, 7, 1, 5), "2 4 5 14 16 18 19 22"),
    ((22, 0.2, 2), 8, (111, 179, 5, 0, 112), None),
    ((28, 0.15, 3), 12, (11, 34, 7, 1, 6), "2 4 5 6 7 10 11 15 16 18 25 26 28"),
    ((28, 0.15, 3), 13, (194, 230, 6, 0, 195), None),
    ((45, 0.25, 4), 11, (435, 1248, 7, 1, 429), "4 5 18 19 24 25 27 32 33 39 42 45"),
    ((45, 0.25, 4), 12, (1988, 2789, 7, 0, 1989), None),
    ((60, 0.3, 5), 11, (942, 2265, 7, 1, 936), "3 4 6 10 14 16 17 19 45 50 52 57"),
    ((60, 0.3, 5), 12, (6818, 14545, 8, 0, 6819), None),
]

# graph, k, stats, number of anticliques above k
THRESHOLD_ALL = [
    ((14, 0.3, 1), 6, (13, 26, 4, 1, 13), 1),
    ((22, 0.2, 2), 7, (190, 392, 7, 25, 166), 25),
    ((28, 0.15, 3), 12, (327, 510, 7, 10, 318), 10),
    ((45, 0.25, 4), 11, (2962, 5734, 7, 11, 2952), 11),
    ((60, 0.3, 5), 11, (9420, 23088, 9, 9, 9412), 9),
]


# Stats of the same runs under the default clique bound, row for row,
# re-recorded when the searches moved to rank space (the clique partition by
# ascending degree, with weights by descending weight): answers and
# witnesses stayed, most counters fell.  The currentmax searches were
# re-recorded again when they moved to the own-premise rule, each row
# imposing from its branch set: alpha stayed, and the witnesses below
# differ from the w_max run's.  The threshold runs were re-recorded when
# they too took the own-premise rule from the clique bound: every hit
# stayed found or None and every count held; four first hits differ.
CURRENTMAX_CLIQUE = [
    (6, 14, 5, 2, 5), (6, 17, 6, 1, 6), (11, 30, 7, 2, 10),
    (71, 171, 9, 3, 69), (157, 590, 8, 5, 153),
]
WEIGHTED_CLIQUE = [
    (2, 12, 3, 1, 2), (19, 65, 5, 4, 16), (20, 70, 5, 4, 17),
    (63, 207, 8, 4, 60), (162, 579, 7, 2, 161),
]
BIPARTITE_CLIQUE = [(0, 0, 1, 0, 1), (0, 0, 1, 0, 1), (9, 6, 3, 1, 9), (0, 0, 1, 0, 1)]
# graph -> witness, where the clique-bound run's differs
CURRENTMAX_CLIQUE_WITNESS = {
    (22, 0.2, 2): "2 5 8 10 14 16 18 21",
    (45, 0.25, 4): "4 5 18 19 24 25 27 29 32 33 42 45",
}
WEIGHTED_CLIQUE_WITNESS = {(45, 0.25, 4): "8 10 11 12 14 16 21 26 34 36 38"}
THRESHOLD_FIRST_CLIQUE = [
    (4, 10, 2, 1, 3), (0, 0, 1, 0, 1), (4, 18, 5, 1, 0), (3, 5, 1, 0, 4),
    (6, 22, 3, 1, 4), (7, 10, 1, 0, 8), (15, 51, 5, 1, 11), (73, 218, 5, 0, 74),
    (97, 347, 5, 1, 93), (115, 403, 6, 0, 116),
]
# (graph, k) -> first hit, where the clique-bound run's differs
THRESHOLD_FIRST_CLIQUE_WITNESS = {
    ((22, 0.2, 2), 7): "1 2 8 12 15 16 18 21",
    ((28, 0.15, 3), 12): "1 5 6 10 11 12 13 19 22 24 25 26 28",
    ((45, 0.25, 4), 11): "1 7 8 17 18 23 24 25 32 41 42 45",
    ((60, 0.3, 5), 11): "12 14 17 18 27 28 29 33 36 40 51 59",
}
THRESHOLD_ALL_CLIQUE = [
    (6, 12, 2, 1, 6), (37, 108, 5, 15, 23), (23, 95, 3, 6, 18),
    (199, 501, 7, 9, 191), (294, 949, 6, 5, 290),
]


def _stats(stats):
    return tuple(stats.as_dict().values())


def _vertices(X):
    return None if X is None else " ".join(map(str, sorted(X)))


def _weights(spec):
    rng = random.Random(spec[2])
    return {y: rng.randint(1, 9) for y in range(1, spec[0] + 1)}


@pytest.mark.parametrize("spec, stats, f", STANDARD)
def test_standard_run(spec, stats, f):
    rows, got = run_standard(random_graph(*spec))
    assert sum(row.member_count() for row in rows) == f
    assert _stats(got) == stats


@pytest.mark.parametrize("spec, vertex_stats, degree_stats, f", STANDARD_OWN_PREMISE)
def test_standard_run_own_premise(spec, vertex_stats, degree_stats, f):
    g = random_graph(*spec)
    rows, got = run_standard(g, rule="own-premise")
    assert sum(row.member_count() for row in rows) == f
    assert _stats(got) == vertex_stats
    rows, got = run_standard(g, degree_order(g), rule="own-premise")
    assert sum(row.member_count() for row in rows) == f
    assert _stats(got) == degree_stats


@pytest.mark.parametrize("case, stats", zip(STANDARD_OWN_PREMISE, STANDARD_COVER_DEGREE))
def test_standard_run_cover_degree_order(case, stats):
    spec, _vertex_stats, _degree_stats, f = case
    g = random_graph(*spec)
    rows, got = run_standard(g, cover_degree_order(g), rule="own-premise")
    assert sum(row.member_count() for row in rows) == f
    assert _stats(got) == stats


@pytest.mark.parametrize("spec, finalized", DEGREE_ORDER_FINALIZED)
def test_degree_order_finalized_at_paper_scale(spec, finalized):
    g = random_graph(*spec)
    rows, got = run_standard(g, degree_order(g), rule="own-premise")
    assert sum(1 for _row in rows) == got.finalized == finalized


@pytest.mark.parametrize("spec, finalized", COVER_DEGREE_ORDER_FINALIZED)
def test_cover_degree_order_finalized_at_paper_scale(spec, finalized):
    g = random_graph(*spec)
    rows, got = run_standard(g, cover_degree_order(g), rule="own-premise")
    assert sum(1 for _row in rows) == got.finalized == finalized


@pytest.mark.parametrize("spec, stats, alpha, witness", CURRENTMAX)
def test_currentmax(spec, stats, alpha, witness):
    res = max_anticlique(random_graph(*spec), SearchOptions(bound="w_max"))
    assert (_stats(res.stats), res.alpha, _vertices(res.witness)) == (stats, alpha, witness)


@pytest.mark.parametrize("spec, stats, alpha, witness", WEIGHTED)
def test_weighted_currentmax(spec, stats, alpha, witness):
    res = max_anticlique(random_graph(*spec), SearchOptions(weights=_weights(spec), bound="w_max"))
    assert (_stats(res.stats), res.alpha, _vertices(res.witness)) == (stats, alpha, witness)


@pytest.mark.parametrize("spec, stats, alpha, witness", BIPARTITE)
def test_bipartite_currentmax(spec, stats, alpha, witness):
    g = random_bipartite(*spec)
    res = max_anticlique(g, dataclasses.replace(bipartite_options(g), bound="w_max"))
    assert (_stats(res.stats), res.alpha, _vertices(res.witness)) == (stats, alpha, witness)


@pytest.mark.parametrize("spec, k, stats, hit", THRESHOLD_FIRST)
def test_threshold_first(spec, k, stats, hit):
    found, got = threshold_search(random_graph(*spec), k, "first", bound="w_max")
    assert (_stats(got), _vertices(found)) == (stats, hit)


@pytest.mark.parametrize("spec, k, stats, above", THRESHOLD_ALL)
def test_threshold_all(spec, k, stats, above):
    sets, got = threshold_search(random_graph(*spec), k, "all", bound="w_max")
    assert (_stats(got), len(sets)) == (stats, above)


@pytest.mark.parametrize("case, stats", zip(CURRENTMAX, CURRENTMAX_CLIQUE))
def test_currentmax_clique(case, stats):
    spec, _paper_stats, alpha, witness = case
    witness = CURRENTMAX_CLIQUE_WITNESS.get(spec, witness)
    g = random_graph(*spec)
    res = max_anticlique(g)
    assert (_stats(res.stats), res.alpha, _vertices(res.witness)) == (stats, alpha, witness)
    assert is_anticlique(g, res.witness)


@pytest.mark.parametrize("case, stats", zip(WEIGHTED, WEIGHTED_CLIQUE))
def test_weighted_currentmax_clique(case, stats):
    spec, _paper_stats, alpha, witness = case
    witness = WEIGHTED_CLIQUE_WITNESS.get(spec, witness)
    g = random_graph(*spec)
    weights = _weights(spec)
    res = max_weight_anticlique(g, weights)
    assert (_stats(res.stats), res.alpha, _vertices(res.witness)) == (stats, alpha, witness)
    assert is_anticlique(g, res.witness) and sum(map(weights.get, res.witness)) == alpha


@pytest.mark.parametrize("case, stats", zip(BIPARTITE, BIPARTITE_CLIQUE))
def test_bipartite_currentmax_clique(case, stats):
    spec, _paper_stats, alpha, witness = case
    g = random_bipartite(*spec)
    res = max_anticlique(g, bipartite_options(g))
    assert (_stats(res.stats), res.alpha, _vertices(res.witness)) == (stats, alpha, witness)


@pytest.mark.parametrize("case, stats", zip(THRESHOLD_FIRST, THRESHOLD_FIRST_CLIQUE))
def test_threshold_first_clique(case, stats):
    spec, k, _paper_stats, hit = case
    hit = THRESHOLD_FIRST_CLIQUE_WITNESS.get((spec, k), hit)
    g = random_graph(*spec)
    found, got = threshold_search(g, k, "first")
    assert (_stats(got), _vertices(found)) == (stats, hit)
    assert found is None or len(found) > k and is_anticlique(g, found)


@pytest.mark.parametrize("case, stats", zip(THRESHOLD_ALL, THRESHOLD_ALL_CLIQUE))
def test_threshold_all_clique(case, stats):
    spec, k, _paper_stats, above = case
    sets, got = threshold_search(random_graph(*spec), k, "all")
    assert (_stats(got), len(sets)) == (stats, above)
