"""Counter identity: every engine's counters and answers, pinned.

The values below were recorded with the three hand-written row-stack loops
that preceded the shared exclusion run (``_exclusion_run`` in
enumerator.py).  Any change to the loop that alters a counter (``rsp``,
``trivial_changes``, ``peak_stack``, ``finalized``, ``deleted``), an answer or
a witness fails here.  Stats are tuples in ``SearchStats.as_dict()`` order.

The searches prune by the paper's w_max here, asked for with
``bound="w_max"``; w_max does not depend on labels, so these runs are the
same in the searches' rank space.  The ``*_CLIQUE`` tables pin the same runs
under the default clique bound: the answers and witnesses are the same,
only the counters differ.

``STANDARD_OWN_PREMISE`` pins the standard run under the own-premise rule,
in vertex order and in ``degree_order`` (recorded when that rule was added),
and in ``cover_degree_order`` (the run behind ``count`` and ``poly``,
recorded when it became their order); f is the paper rule's.
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
from conftest import random_bipartite

# graph, stats, f
STANDARD = [
    ((14, 0.3, 1), (27, 99, 5, 28, 0), 480),
    ((22, 0.2, 2), (497, 1969, 7, 498, 0), 5021),
    ((28, 0.15, 3), (3124, 9156, 9, 3125, 0), 184876),
    ((32, 0.3, 4), (2283, 11365, 8, 2284, 0), 19532),
]

# graph, stats in vertex order, stats in degree order, f
STANDARD_OWN_PREMISE = [
    ((14, 0.3, 1), (11, 69, 3, 12, 0), (10, 88, 3, 11, 0), 480),
    ((22, 0.2, 2), (309, 1643, 6, 310, 0), (127, 896, 6, 128, 0), 5021),
    ((28, 0.15, 3), (968, 6716, 8, 969, 0), (257, 3220, 6, 258, 0), 184876),
    ((32, 0.3, 4), (1180, 9076, 8, 1181, 0), (716, 5931, 7, 717, 0), 19532),
]

# stats in cover_degree_order, one per STANDARD_OWN_PREMISE graph
STANDARD_COVER_DEGREE = [
    (10, 15, 3, 11, 0),
    (108, 161, 6, 109, 0),
    (230, 513, 7, 231, 0),
    (625, 1770, 7, 626, 0),
]

# graph at paper scale, rows finalized in degree order (paper rule: 180,154
# and 217,860) and in cover_degree_order, count's default run
DEGREE_ORDER_FINALIZED = [((45, 0.08, 11), 2858), ((45, 0.1, 13), 6628)]
COVER_DEGREE_ORDER_FINALIZED = [((45, 0.08, 11), 2199), ((45, 0.1, 13), 5566)]

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
# witnesses stayed, most counters fell.
CURRENTMAX_CLIQUE = [
    (8, 18, 5, 2, 7), (11, 42, 6, 3, 9), (14, 39, 9, 3, 12),
    (193, 229, 8, 3, 191), (283, 459, 9, 5, 279),
]
WEIGHTED_CLIQUE = [
    (19, 34, 4, 6, 14), (51, 81, 5, 7, 45), (57, 117, 9, 9, 49),
    (245, 390, 8, 4, 242), (689, 1392, 9, 16, 674),
]
BIPARTITE_CLIQUE = [(0, 0, 1, 0, 1), (0, 0, 1, 0, 1), (13, 10, 3, 2, 12), (0, 0, 1, 0, 1)]
THRESHOLD_FIRST_CLIQUE = [
    (6, 8, 3, 1, 4), (0, 0, 1, 0, 1), (9, 13, 6, 1, 4), (2, 2, 1, 0, 3),
    (7, 21, 5, 1, 3), (7, 3, 3, 0, 8), (70, 116, 5, 1, 67), (138, 79, 4, 0, 139),
    (52, 87, 5, 1, 48), (195, 107, 4, 0, 196),
]
THRESHOLD_ALL_CLIQUE = [
    (9, 12, 3, 1, 9), (85, 128, 6, 25, 61), (40, 124, 6, 10, 31),
    (366, 517, 6, 11, 356), (598, 814, 6, 9, 590),
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
    res = max_anticlique(random_graph(*spec))
    assert (_stats(res.stats), res.alpha, _vertices(res.witness)) == (stats, alpha, witness)


@pytest.mark.parametrize("case, stats", zip(WEIGHTED, WEIGHTED_CLIQUE))
def test_weighted_currentmax_clique(case, stats):
    spec, _paper_stats, alpha, witness = case
    res = max_weight_anticlique(random_graph(*spec), _weights(spec))
    assert (_stats(res.stats), res.alpha, _vertices(res.witness)) == (stats, alpha, witness)


@pytest.mark.parametrize("case, stats", zip(BIPARTITE, BIPARTITE_CLIQUE))
def test_bipartite_currentmax_clique(case, stats):
    spec, _paper_stats, alpha, witness = case
    g = random_bipartite(*spec)
    res = max_anticlique(g, bipartite_options(g))
    assert (_stats(res.stats), res.alpha, _vertices(res.witness)) == (stats, alpha, witness)


@pytest.mark.parametrize("case, stats", zip(THRESHOLD_FIRST, THRESHOLD_FIRST_CLIQUE))
def test_threshold_first_clique(case, stats):
    spec, k, _paper_stats, hit = case
    found, got = threshold_search(random_graph(*spec), k, "first")
    assert (_stats(got), _vertices(found)) == (stats, hit)


@pytest.mark.parametrize("case, stats", zip(THRESHOLD_ALL, THRESHOLD_ALL_CLIQUE))
def test_threshold_all_clique(case, stats):
    spec, k, _paper_stats, above = case
    sets, got = threshold_search(random_graph(*spec), k, "all")
    assert (_stats(got), len(sets)) == (stats, above)
