"""The listing engines against the oracle, in full and partial cover orders.

``enumerate_anticliques`` runs the own-premise rule, imposing a given order
as given and ``cover_degree_order(g)`` by default; ``threshold_search`` runs
the rule its bound picks, under each bound.  The paper's rows, from
``run_standard(g, order)``, are checked alongside: either way the engines
list exactly the oracle's sets.  ``maximal_family``, which runs no rows, is
checked against the oracle's maximal sets, and the contain-index sieve of
each run's row-wise maximal members against the same sets.  ``chromatic_with_stats`` is checked against
the oracle's chromatic number on the same sweep.
"""

import random

import pytest

from anticlique import (
    ContainIndex,
    SearchStats,
    cover_degree_order,
    degree_order,
    enumerate_anticliques,
    full_order,
    maximal_family,
    oracle_report,
    random_graph,
    row_maximal_members,
    run_standard,
    threshold_search,
)
from anticlique.maximal import chromatic_with_stats
from conftest import anticlique_masks, independence_poly_bitmask, mask_to_set

SWEEP = [(v, d, seed * 1000 + v)
         for seed in range(3) for v in (8, 12, 16) for d in (0.1, 0.3, 0.5, 0.7, 0.9)]


def _sorted(sets):
    return sorted(sets, key=sorted)


def _orders(g, seed):
    """No order (the engines' default), the full vertex order and a random
    vertex cover in random order."""
    rng = random.Random(seed)
    seq = list(range(1, g.v + 1))
    rng.shuffle(seq)
    cover = set(seq)
    for y in seq:
        if g.adjacency[y] <= cover:
            cover.discard(y)
    partial = [y for y in seq if y in cover]
    rng.shuffle(partial)
    return {"default": None, "full": full_order(g.v), "cover": tuple(partial)}


def _own_premise_rows(g, order, min_size=0):
    """The rows the own-premise engines expand for ``order`` and ``min_size``."""
    return run_standard(g, cover_degree_order(g) if order is None else order,
                        rule="own-premise", min_size=min_size)


@pytest.mark.filterwarnings("ignore::anticlique.errors.StackBoundWarning")
@pytest.mark.parametrize("v,d,seed", SWEEP)
class TestAgainstTheOracle:
    def test_enumerate_at_several_sizes(self, v, d, seed):
        g = random_graph(v, d, seed)
        truth = [mask_to_set(m) for m in anticlique_masks(g)]
        alpha = max(map(len, truth))
        f = oracle_report(g).f
        for name, order in _orders(g, seed).items():
            for m in sorted({0, 1, max(alpha - 1, 0), alpha, alpha + 1}):
                expected = _sorted(X for X in truth if len(X) >= m)
                listed = list(enumerate_anticliques(g, m, order))
                assert len(set(listed)) == len(listed), (name, m)
                assert _sorted(listed) == expected
                if m == 0:
                    assert len(listed) == f
                if order is not None:
                    paper = [X for row in run_standard(g, order)[0] for X in row.expand(m)]
                    assert _sorted(paper) == expected

    def test_threshold_all(self, v, d, seed):
        g = random_graph(v, d, seed)
        truth = [mask_to_set(m) for m in anticlique_masks(g)]
        rep = oracle_report(g)
        for order in _orders(g, seed).values():
            for bound in ("clique", "w_max"):
                for k in range(max(rep.alpha - 2, 0), rep.alpha + 1):
                    listed, _stats = threshold_search(g, k, "all", order=order, bound=bound)
                    assert len(set(listed)) == len(listed)
                    assert listed == _sorted(X for X in truth if len(X) > k)
                    if k == rep.alpha - 1:
                        assert listed == _sorted(rep.maximum_sets)

    def test_maximal_family(self, v, d, seed):
        """Also the two facts the contain-index sieve on rows relies on, in
        the paper's rows as in the own-premise ones: no row-wise maximal
        member repeats, and no candidate contains an earlier one."""
        g = random_graph(v, d, seed)
        expected = _sorted(oracle_report(g).maximal_sets)
        fam = maximal_family(g)
        assert fam.sets == expected
        assert fam.dominated == fam.candidates - len(fam.sets)
        assert (fam.stats.finalized, fam.removed) == (len(fam.sets), 0)
        for order in _orders(g, seed).values():
            runs = [_own_premise_rows(g, order)]
            if order is not None:
                runs.append(run_standard(g, order))
            for rows, _stats in runs:
                members = [X for row in rows for X in row_maximal_members(row)]
                assert len(set(members)) == len(members)
                index = ContainIndex(v)
                for X in members:
                    index.add(X)
                assert _sorted(index.sets()) == expected
                assert index.removed == 0

    def test_chromatic(self, v, d, seed):
        g = random_graph(v, d, seed)
        n, cover, _stats = chromatic_with_stats(g)
        assert n == len(cover) == oracle_report(g).chi
        assert frozenset().union(*cover) == frozenset(range(1, v + 1))


class TestTheRunBehind:
    """Each engine expands the own-premise rows of the order it is given,
    imposed as given, and of ``cover_degree_order(g)`` by default."""

    def test_enumerate_follows_the_rows(self):
        g = random_graph(14, 0.3, 7)
        finalized = {}
        for name, order in _orders(g, 7).items():
            rows, stats = _own_premise_rows(g, order, 2)
            expected = [X for row in rows for X in row.expand(2)]
            assert list(enumerate_anticliques(g, 2, order)) == expected
            finalized[name] = stats.finalized
        # the run chooses its vertices within the order's set: the three sets
        # give three runs, and the full degree order, the full vertex order's
        # set, gives the full order's run
        rows, stats = _own_premise_rows(g, degree_order(g), 2)
        list(rows)
        assert len(set(finalized.values())) == 3
        assert stats.finalized == finalized["full"]

    def test_maximal_family_stats(self):
        """maximal_family runs no rows: its counters are its search's."""
        g = random_graph(14, 0.3, 7)
        fam = maximal_family(g)
        assert (len(fam.sets), fam.candidates, fam.dominated, fam.removed) == (23, 25, 2, 0)
        assert fam.stats == SearchStats(rsp=51, peak_stack=5, finalized=23)


@pytest.mark.parametrize("spec", [
    (30, 0.2, 1), (35, 0.15, 2), (40, 0.1, 3), (40, 0.3, 5), (45, 0.2, 4),
])
def test_listings_above_the_oracle_range(spec):
    """At v = 30-45, where the brute-force oracle cannot go, the listings
    at and near alpha against the tail of the independence polynomial that
    ``conftest.independence_poly_bitmask`` computes by the vertex recursion."""
    g = random_graph(*spec)
    coeffs = independence_poly_bitmask(g)
    alpha = len(coeffs) - 1
    for m in (alpha - 2, alpha - 1, alpha):
        listed = list(enumerate_anticliques(g, m))
        above, _stats = threshold_search(g, m - 1)
        assert len(listed) == len(above) == sum(coeffs[m:])
        assert _sorted(listed) == above
