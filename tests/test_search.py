import dataclasses
import random

import pytest

from anticlique import (
    ConfigurationError,
    SearchOptions,
    SearchStats,
    SearchTimeout,
    all_max_anticliques,
    bipartite_options,
    core,
    cover_degree_order,
    cover_order,
    full_row,
    independence_polynomial,
    make_graph,
    max_anticlique,
    max_weight_anticlique,
    maximum_sets,
    oracle_matching,
    oracle_report,
    random_graph,
    run_standard,
    threshold_alpha,
    threshold_search,
)
from anticlique import search
from anticlique.enumerator import Prune, _exclusion_run, full_order
from anticlique.imposition import Split, impose
from anticlique.rows import Row
from anticlique.search import _Ranks, _weighted_bound, _weighted_member, _weight_vector
from conftest import (
    all_anticliques,
    complete_graph,
    cycle_graph,
    empty_graph,
    is_anticlique,
    path_graph,
    random_bipartite,
    random_row,
)


class TestThresholdSearch:
    def test_first_hit_is_the_maximum(self, g5):
        found, _stats = threshold_search(g5, 2, "first")
        assert found == {2, 3, 5}

    def test_nothing_above_alpha(self, g5):
        found, _stats = threshold_search(g5, 3, "first")
        assert found is None

    def test_all_mode_on_triangle(self):
        sets, _stats = threshold_search(complete_graph(3), 0, "all")
        assert sets == [frozenset({1}), frozenset({2}), frozenset({3})]

    def test_all_mode_members_above_k(self, g5):
        sets, _stats = threshold_search(g5, 1, "all")
        assert sets == [
            frozenset({1, 3}), frozenset({2, 3}), frozenset({2, 3, 5}),
            frozenset({2, 5}), frozenset({3, 5}),
        ]

    def test_rejects_negative_threshold(self, g5):
        with pytest.raises(ConfigurationError):
            threshold_search(g5, -1)

    def test_rejects_unknown_mode(self, g5):
        with pytest.raises(ConfigurationError):
            threshold_search(g5, 1, "some")

    def test_budget_covers_the_listing(self):
        # one row of 2^30 members finalizes at once; listing it outruns the budget
        with pytest.raises(SearchTimeout):
            threshold_search(empty_graph(30), 0, "all", timeout_s=0.05)

    def test_prunes_are_counted(self, g5):
        _rows, stats = threshold_search(g5, 2, "all")
        assert stats.deleted > 0


class TestMaxAnticlique:
    def test_worked_example(self, g5):
        res = max_anticlique(g5)
        assert res.alpha == 3
        assert res.witness == {2, 3, 5}

    def test_complete_graphs(self):
        for n in (1, 2, 6):
            res = max_anticlique(complete_graph(n))
            assert res.alpha == 1
            assert len(res.witness) == 1

    def test_empty_graph(self):
        res = max_anticlique(empty_graph(6))
        assert res.alpha == 6
        assert res.witness == frozenset(range(1, 7))
        assert res.stats.rsp == 0

    def test_currentmax_monotone(self, g5):
        values = []

        def watch(kind, info):
            if kind == "improve":
                values.append(info["currentmax"])

        max_anticlique(g5, trace=watch)
        assert values == sorted(values)
        assert values[-1] == 3

    def test_witness_must_be_anticlique(self, g5):
        with pytest.raises(ConfigurationError, match="anticlique"):
            max_anticlique(g5, SearchOptions(initial_witness=frozenset({1, 2})))

    def test_timeout_raises(self):
        g = random_graph(40, 0.2, 7)
        with pytest.raises(SearchTimeout):
            max_anticlique(g, timeout_s=0.0)


class TestAllMaxAnticliques:
    def test_unique_maximum(self, g5):
        assert all_max_anticliques(g5) == (3, [frozenset({2, 3, 5})])

    def test_triangle(self):
        alpha, sets = all_max_anticliques(complete_graph(3))
        assert alpha == 1
        assert sets == [frozenset({1}), frozenset({2}), frozenset({3})]

    def test_four_cycle(self):
        alpha, sets = all_max_anticliques(cycle_graph(4))
        assert alpha == 2
        assert sets == [frozenset({1, 3}), frozenset({2, 4})]

    def test_weighted_maximum_sets(self):
        opts = SearchOptions(weights={2: 10})
        assert all_max_anticliques(path_graph(3), opts) == (10, [frozenset({2})])
        assert core(path_graph(3), opts) == {2}

    def test_weighted_sweep_matches_bruteforce(self):
        rng = random.Random(41)
        for _ in range(25):
            v = rng.randint(1, 12)
            g = random_graph(v, rng.choice((0.2, 0.4, 0.6)), rng.randint(0, 10**6))
            weights = {y: rng.randint(1, 4) for y in range(1, v + 1)}
            value = {X: sum(weights[p] for p in X) for X in all_anticliques(g)}
            best = max(value.values())
            expected = sorted((X for X, w in value.items() if w == best), key=sorted)
            assert all_max_anticliques(g, SearchOptions(weights=weights)) == (best, expected)

    def test_bipartite_options_give_the_plain_sets(self):
        for seed in range(6):
            g = random_bipartite(5, 6, (seed % 3) * 0.3 + 0.1, seed)
            assert all_max_anticliques(g, bipartite_options(g)) == all_max_anticliques(g)

    def test_maximum_sets_counts_only_its_own_run(self):
        g = random_graph(30, 0.2, 5)
        res = max_anticlique(g)
        sets, stats = maximum_sets(g, res)
        _rows, threshold_stats = threshold_search(g, res.alpha - 1, "all")
        assert stats == threshold_stats
        assert res.witness in sets


class TestCore:
    def test_both_phases_share_one_budget(self, monkeypatch):
        budgets = []

        def spy(*args, timeout_s=None, **kwargs):
            budgets.append(timeout_s)
            return maximum_sets(*args, timeout_s=timeout_s, **kwargs)

        monkeypatch.setattr(search, "maximum_sets", spy)
        core(random_graph(40, 0.3, 1), timeout_s=5.0)
        # phase 2 gets what phase 1 left of the 5 s, not 5 s of its own
        assert len(budgets) == 1 and 0 < budgets[0] < 5.0

    def test_unique_maximum_is_its_own_core(self, g5):
        assert core(g5) == {2, 3, 5}

    def test_single_edge(self):
        assert core(make_graph(2, [(1, 2)])) == frozenset()

    def test_four_cycle(self):
        assert core(cycle_graph(4)) == frozenset()


class TestWeighted:
    def test_heavy_vertex_wins(self, g5):
        res = max_weight_anticlique(g5, {4: 10})
        assert res.alpha == 10
        assert res.witness == {4}

    def test_uniform_weights_reduce_to_cardinality(self):
        for seed in range(6):
            g = random_graph(9, 0.4, seed)
            plain = max_anticlique(g)
            weighted = max_weight_anticlique(g, {})
            assert weighted.alpha == plain.alpha

    def test_empty_graph_takes_everything(self):
        res = max_weight_anticlique(empty_graph(4), {1: 2, 2: 3, 3: 4, 4: 5})
        assert res.alpha == 14
        assert res.witness == frozenset({1, 2, 3, 4})

    def test_rejects_nonpositive_weight(self, g5):
        with pytest.raises(ConfigurationError):
            max_weight_anticlique(g5, {1: 0})

    def test_rejects_unknown_vertex(self, g5):
        with pytest.raises(ConfigurationError):
            max_weight_anticlique(g5, {9: 1})

    def test_weighted_bruteforce_agreement(self):
        rng = random.Random(17)
        for _ in range(10):
            v = rng.randint(2, 9)
            g = random_graph(v, 0.4, rng.randint(0, 10**6))
            weights = {y: rng.randint(1, 9) for y in range(1, v + 1)}
            best = 0
            for mask in range(1 << v):
                X = {p for p in range(1, v + 1) if (mask >> (p - 1)) & 1}
                if is_anticlique(g, X):
                    best = max(best, sum(weights[p] for p in X))
            res = max_weight_anticlique(g, weights)
            assert res.alpha == best
            assert is_anticlique(g, res.witness)
            assert sum(weights[p] for p in res.witness) == best

    def test_bound_dominates_every_member(self):
        rng = random.Random(23)
        g = random_graph(8, 0.5, 1)
        wt = _weight_vector(g, {y: rng.randint(1, 5) for y in range(1, 9)})
        for _ in range(100):
            row = random_row(rng, 8)
            bound = _weighted_bound(row, wt)[0]
            weights = [sum(wt[p] for p in X) for X in row.expand(0)]
            assert all(bound >= w for w in weights)
            # and tight: the bound is the heaviest member's weight, which
            # _weighted_member achieves
            assert bound == max(weights)
            best = _weighted_member(row, wt)
            assert row.contains(best)
            assert sum(wt[p] for p in best) == bound


def _in_ranks(row, ranks):
    """``row`` moved into the rank space of ``ranks``."""
    return row.relabel([1 << r for r in ranks.rank])


class TestCliqueBound:
    """Row.clique_bound and its weighted twin, heaviest vertex first in the
    weighted rank space, bound a row's anticliques."""

    @staticmethod
    def _case(rng, v):
        g = random_graph(v, rng.choice((0.2, 0.5, 0.8)), rng.randint(0, 10**6))
        wt = _weight_vector(g, {y: rng.randint(1, 6) for y in range(1, v + 1)})
        nbr = [sum(1 << q for q in adj) for adj in g.adjacency]
        return g, wt, nbr, _Ranks(g, wt)

    def test_between_largest_anticlique_member_and_w_max(self):
        rng = random.Random(57)
        for _ in range(300):
            v = rng.randint(1, 10)
            g, wt, nbr, ranks = self._case(rng, v)
            row = random_row(rng, v)
            members = [X for X in row.expand() if is_anticlique(g, X)]
            size = max(map(len, members), default=0)
            weight = max((sum(wt[p] for p in X) for X in members), default=0)
            assert size <= row.clique_bound(nbr) <= row.w_max()
            plain = _Ranks(g)
            assert size <= _in_ranks(row, plain).clique_bound(plain.nbr) <= row.w_max()
            ranked = _in_ranks(row, ranks)
            assert (weight <= _weighted_bound(ranked, ranks.wt, ranks.nbr)[0]
                    <= ranked.max_weight(ranks.wt) == row.max_weight(wt))
            assert _weighted_bound(row, wt)[0] == row.max_weight(wt)

    def test_edgeless_and_complete_graphs(self):
        rng = random.Random(59)
        for _ in range(100):
            v = rng.randint(1, 10)
            row = random_row(rng, v)
            # by descending weight, as in rank space
            wt = [0] + sorted((rng.randint(1, 6) for _ in range(v)), reverse=True)
            ones = row.ones()
            # the positions that are neither 0 nor 1
            live = [p for p in range(1, v + 1) if not (row.zero_mask | row.one_mask) >> p & 1]
            edgeless = [0] * (v + 1)
            assert row.clique_bound(edgeless) == row.w_max()
            assert row.weighted_clique_bound(edgeless, wt) == row.max_weight(wt)
            complete = [((1 << (v + 1)) - 2) & ~(1 << p) for p in range(v + 1)]
            assert row.clique_bound(complete) == min(row.w_max(), len(ones) + bool(live))
            heaviest = max((wt[p] for p in live), default=0)
            assert row.weighted_clique_bound(complete, wt) == min(
                row.max_weight(wt), sum(wt[p] for p in ones) + heaviest)

    def test_cliques_start_at_the_heaviest_vertex(self):
        # the path 1-2-3 weighing 1, 9, 9: heaviest first, the cliques are
        # {3, 2} and {1}, 9 + 1 = alpha; by lowest label they would be
        # {1, 2} and {3}, 9 + 9
        wt = [0, 1, 9, 9]
        ranks = _Ranks(path_graph(3), wt)
        assert ranks.label == [0, 3, 2, 1]   # 3 and 2 tie on weight; 3 has degree 1
        assert ranks.wt == [0, 9, 9, 1]
        row = full_row(3)
        assert row.max_weight(ranks.wt) == 19
        assert row.weighted_clique_bound(ranks.nbr, ranks.wt) == 10
        assert row.weighted_clique_bound(ranks.nbr, ranks.wt, 9) > 9

    @pytest.mark.filterwarnings("ignore::anticlique.errors.StackBoundWarning")
    def test_equals_w_max_on_finalized_rows(self):
        rng = random.Random(58)
        for _ in range(60):
            g, wt, nbr, ranks = self._case(rng, rng.randint(1, 16))
            rows, _stats = run_standard(g)
            for row in rows:
                assert row.clique_bound(nbr) == row.w_max()
                ranked = _in_ranks(row, ranks)
                assert _weighted_bound(ranked, ranks.wt, ranks.nbr)[0] == row.max_weight(wt)

    def test_unknown_bound_rejected(self, g5):
        for call in (lambda: max_anticlique(g5, SearchOptions(bound="greedy")),
                     lambda: maximum_sets(g5, max_anticlique(g5), SearchOptions(bound="")),
                     lambda: threshold_search(g5, 1, bound="W_MAX"),
                     lambda: threshold_alpha(g5, bound="colour")):
            with pytest.raises(ConfigurationError, match="unknown bound"):
                call()

    def test_bounds_agree_on_answers(self):
        rng = random.Random(60)
        for _ in range(20):
            v = rng.randint(2, 24)
            g = random_graph(v, rng.choice((0.1, 0.3, 0.6)), rng.randint(0, 10**6))
            weights = {y: rng.randint(1, 5) for y in range(1, v + 1)}
            for opts in (SearchOptions(), SearchOptions(weights=weights)):
                paper = dataclasses.replace(opts, bound="w_max")
                res, res_paper = max_anticlique(g, opts), max_anticlique(g, paper)
                assert res.alpha == res_paper.alpha
                sets = maximum_sets(g, res, opts)[0]
                assert sets == maximum_sets(g, res, paper)[0]
                # the two runs impose in different sequences, so their
                # witnesses may be different maximum anticliques
                assert res.witness in sets and res_paper.witness in sets
            alpha = max_anticlique(g).alpha
            assert threshold_alpha(g)[0] == threshold_alpha(g, bound="w_max")[0] == alpha


# The seeded oracle sweep's graphs at v <= 16 (test_enumerator.SWEEP).
SWEEP = [(v, d, seed * 1000 + v)
         for seed in range(4) for v in (8, 12, 16) for d in (0.1, 0.3, 0.5, 0.7, 0.9)]


def _path(v, nbr):
    """The rows down one run imposing 1..v, taking at each split the t-out
    son and the t-in son in turn."""
    path, one = [full_row(v)], False
    for t in range(1, v + 1):
        row = path[-1].clone()
        outcome = impose(row, t, nbr[t])
        if type(outcome) is Split:
            row = outcome.one_son if one else outcome.zero_son
            one = not one
        path.append(row)
    return path


class TestLimitContract:
    """``bound(row, limit)`` lies on the same side of ``limit`` as the full
    bound ``bound(row)``, for every row a full run checks and every limit
    from 0 to the row's cap."""

    @staticmethod
    def _rows(g):
        # a run at limit -1 prunes nothing and checks every son and every
        # mutated row; the recording bound sees them all
        seen = {}

        def record(row, limit=None, rec=None):
            seen.setdefault(row.debug(), row)
            return row.w_max(), None

        rows = _exclusion_run(g, full_order(g.v).order, SearchStats(), Prune(record, -1),
                              None, None)
        for row in rows:
            seen.setdefault(row.debug(), row)
        return [full_row(g.v), *seen.values()]

    @pytest.mark.parametrize("v,d,seed", SWEEP)
    def test_same_side_of_every_limit(self, v, d, seed):
        g = random_graph(v, d, seed)
        rng = random.Random(seed)
        wt = _weight_vector(g, {y: rng.randint(1, 9) for y in range(1, v + 1)})
        ranks = _Ranks(g, wt)
        for row in self._rows(g):
            full = row.clique_bound(g.nbr_masks)
            for limit in range(row.w_max() + 1):
                assert (row.clique_bound(g.nbr_masks, limit) > limit) == (full > limit)
            row = _in_ranks(row, ranks)
            full = row.weighted_clique_bound(ranks.nbr, ranks.wt)
            for limit in range(row.max_weight(ranks.wt) + 1):
                assert ((row.weighted_clique_bound(ranks.nbr, ranks.wt, limit) > limit)
                        == (full > limit))


class TestResumedBound:
    """A check resumed from a record decides as a fresh partition would.

    Every prune check of real searches is replayed against a fresh
    ``clique_bound`` (or ``weighted_clique_bound``) on the same row and
    limit, and the record it returns must hold that row's partition: each
    stored ``rest``, masked by the row's live positions, is the fresh
    partition's ``rest`` at the same head."""

    @staticmethod
    def _check(row, nbr, limit, wt, value, new):
        """``value`` and ``new``, from a check of ``row`` resumed from a
        record, against a fresh partition of ``row``."""
        if wt is None:
            fresh = row.clique_bound(nbr, limit)
        else:
            fresh = row.weighted_clique_bound(nbr, wt, limit)
        if limit is None:
            assert value == fresh
        else:
            assert (value > limit) == (fresh > limit)
        _v, (zo, fresh_heads, _r) = Row.clique_partition(row, nbr, limit, None, wt)
        assert zo == row.zero_mask | row.one_mask == new[0]
        heads = new[1]
        n = min(len(heads), len(fresh_heads))
        assert [h & ~zo for h in heads[:n]] == fresh_heads[:n]

    @pytest.fixture
    def replayed(self, monkeypatch):
        """Counts of the checks replayed: (all, resumed, resumed with
        nothing removed since the record)."""
        original = Row.clique_partition
        counts = [0, 0, 0]

        def checked(row, nbr, limit=None, rec=None, wt=None):
            value, new = original(row, nbr, limit, rec, wt)
            counts[0] += 1
            if rec is not None and new is not rec:
                counts[1] += 1
                counts[2] += rec[0] == row.zero_mask | row.one_mask
                with monkeypatch.context() as m:   # the fresh partitions go uncounted
                    m.setattr(Row, "clique_partition", original)
                    self._check(row, nbr, limit, wt, value, new)
            return value, new

        monkeypatch.setattr(Row, "clique_partition", checked)
        return counts

    GRAPHS = [(30, 0.3, 1), (36, 0.5, 2), (40, 0.2, 3)]

    @pytest.mark.parametrize("v,d,seed", GRAPHS)
    def test_currentmax(self, replayed, v, d, seed):
        g = random_graph(v, d, seed)
        rng = random.Random(seed)
        weights = {y: rng.randint(1, 9) for y in range(1, v + 1)}
        # a one-vertex witness: currentmax rises between push and pop
        witness = frozenset({1})
        for order in (None, cover_degree_order(g)):
            for w in (None, weights):
                opts = SearchOptions(order=order, weights=w, initial_witness=witness)
                before = list(replayed)
                res = max_anticlique(g, opts)
                checks, resumed, rechecks = (a - b for a, b in zip(replayed, before))
                assert checks >= 2 * res.stats.rsp   # both sons of every split
                assert 0 < rechecks < resumed < checks

    @pytest.mark.parametrize("v,d,seed", GRAPHS)
    def test_threshold_and_maximum_sets(self, replayed, v, d, seed):
        g = random_graph(v, d, seed)
        res = max_anticlique(g)
        for mode in ("all", "first"):
            for k in (res.alpha - 2, res.alpha - 1, res.alpha):
                threshold_search(g, k, mode)
                threshold_search(g, k, mode, order=cover_degree_order(g))
        maximum_sets(g, res)
        maximum_sets(g, res, SearchOptions(order=cover_degree_order(g)))
        assert 0 < replayed[1] < replayed[0]

    @pytest.mark.parametrize("v,d,seed", SWEEP[:15])
    def test_from_a_grandparent_and_a_lower_limit(self, v, d, seed):
        # a path down one run, taking at each split the t-out son and the
        # t-in son in turn; each row's record is resumed on the row itself,
        # its son and its grandson, at every limit
        g = random_graph(v, d, seed)
        rng = random.Random(seed)
        ranks = _Ranks(g, _weight_vector(g, {y: rng.randint(1, 9) for y in range(1, v + 1)}))
        for wt, nbr in ((None, _Ranks(g).nbr), (ranks.wt, ranks.nbr)):
            path = _path(v, nbr)
            for i, ancestor in enumerate(path):
                cap = ancestor.w_max() if wt is None else ancestor.max_weight(wt)
                for rec_limit in (None, 0, cap // 2):
                    _v, rec = ancestor.clique_partition(nbr, rec_limit, None, wt)
                    for row in path[i:i + 3]:
                        top = row.w_max() if wt is None else row.max_weight(wt)
                        for limit in (None, *range(top + 1)):
                            value, new = row.clique_partition(nbr, limit, rec, wt)
                            if new is not rec:
                                self._check(row, nbr, limit, wt, value, new)
                            else:   # the cap alone decided
                                assert wt is None and value == row.w_max() <= limit


def _cliques(row, nbr):
    """The greedy clique partition of ``row``'s live positions, as masks:
    take the lowest position left, then each lowest common neighbour."""
    rest = ((1 << (row.v + 1)) - 2) & ~(row.zero_mask | row.one_mask)
    cliques = []
    while rest:
        clique = common = rest & -rest
        common = rest & nbr[common.bit_length() - 1]
        while common:
            low = common & -common
            clique |= low
            common &= nbr[low.bit_length() - 1]
        rest &= ~clique
        cliques.append(clique)
    return cliques


def _oracle_sweep(g, opts, anticliques, value):
    """``max_anticlique`` and ``maximum_sets`` under ``opts`` against the
    brute-force anticliques of g, each worth ``value[X]``."""
    best = max(value.values())
    res = max_anticlique(g, opts)
    assert res.alpha == value[res.witness] == best
    assert maximum_sets(g, res, opts)[0] == sorted(
        (X for X in anticliques if value[X] == best), key=sorted)


class TestBranchSet:
    """A pruned own-premise run imposes from the branch set: the live
    positions outside the first limit - |ones| cliques of the row's greedy
    partition, read off the bound's record, resumed or fresh."""

    @pytest.mark.parametrize("v,d,seed", SWEEP[:15])
    def test_mask_is_the_fresh_partitions_tail(self, v, d, seed):
        # the rows along one run's path, each checked with a fresh record
        # and with records resumed from its own, its parent's and its
        # grandparent's checks at other limits
        g = random_graph(v, d, seed)
        ranks = _Ranks(g)
        nbr, branch = ranks.nbr, ranks.branch
        path = _path(v, nbr)
        checked = 0
        for i, row in enumerate(path):
            cliques = _cliques(row, nbr)
            ancestors = [path[j].clique_partition(nbr, lim)[1]
                         for j in range(max(i - 2, 0), i + 1)
                         for lim in (None, 0, path[j].w_max() // 2)]
            for limit in range(row.w_max() + 1):
                k = max(limit - row.one_mask.bit_count(), 0)
                expected = sum(cliques[k:])
                for rec in (None, *ancestors):
                    value, new = row.clique_partition(nbr, limit, rec)
                    if value > limit:   # only a kept row branches
                        assert branch(row, limit, new) == expected
                        checked += 1
        assert checked
        assert branch(path[0], 0, None) == 0   # no record: no branch set

    @pytest.mark.parametrize("v,d,seed", SWEEP)
    def test_searches_match_the_oracle(self, v, d, seed):
        g = random_graph(v, d, seed)
        rng = random.Random(seed)
        weights = {y: rng.randint(1, 9) for y in range(1, v + 1)}
        anticliques = all_anticliques(g)
        size = {X: len(X) for X in anticliques}
        _oracle_sweep(g, SearchOptions(), anticliques, size)
        _oracle_sweep(g, SearchOptions(weights=weights), anticliques,
                      {X: sum(weights[p] for p in X) for X in anticliques})
        alpha = max(size.values())
        order = cover_degree_order(g)
        for k in (alpha - 2, alpha - 1, alpha):
            if k < 0:
                continue
            above = sorted((X for X in anticliques if len(X) > k), key=sorted)
            assert threshold_search(g, k, "all", order=order)[0] == above
            hit = threshold_search(g, k, "first", order=order)[0]
            assert hit in above if above else hit is None

    @pytest.mark.parametrize("seed", range(12))
    def test_bipartite_searches_match_the_oracle(self, seed):
        g = random_bipartite(5 + seed % 4, 6 + seed % 5, (seed % 3) * 0.3 + 0.1, seed)
        anticliques = all_anticliques(g)
        _oracle_sweep(g, bipartite_options(g), anticliques, {X: len(X) for X in anticliques})


class TestCliqueOrder:
    """MCQ's branching order, taken row by row: on a full row the branch
    set at limit k holds the cliques of the greedy partition by ascending
    degree from the (k+1)-th on, so the searches branch on the cliques last
    first.  The CLI's alpha imposes within ``cover_degree_order``."""

    @staticmethod
    def _partition(g):
        # by ascending degree, ties by label: take the first vertex left,
        # then every later one adjacent to all taken so far
        left = sorted(range(1, g.v + 1), key=lambda p: (len(g.adjacency[p]), p))
        cliques = []
        while left:
            clique = []
            for p in left:
                if all(q in g.adjacency[p] for q in clique):
                    clique.append(p)
            left = [p for p in left if p not in clique]
            cliques.append(clique)
        return cliques

    @staticmethod
    def _root_branch(g, k):
        """The vertices of the root's branch set at limit k."""
        ranks = _Ranks(g)
        row = full_row(g.v)
        _value, rec = row.clique_partition(ranks.nbr, k)
        return {ranks.label[r] for r in range(1, g.v + 1) if ranks.branch(row, k, rec) >> r & 1}

    @pytest.mark.parametrize("v,d,seed", SWEEP)
    def test_cover_in_cliques_last_first(self, v, d, seed):
        g = random_graph(v, d, seed)
        partition = self._partition(g)
        # Row.clique_bound splits a full row in rank space the same way
        assert len(partition) == full_row(v).clique_bound(_Ranks(g).nbr)
        for k in range(len(partition)):
            assert self._root_branch(g, k) == {p for clique in partition[k:] for p in clique}
        for clique in partition:
            assert all(q in g.adjacency[p] for p in clique for q in clique if q != p)

    def test_small_graphs(self):
        assert self._root_branch(empty_graph(4), 3) == {4}
        assert self._root_branch(complete_graph(4), 0) == {1, 2, 3, 4}
        # the path 1-2-3-4: cliques {1, 2} then {4, 3}
        assert self._root_branch(path_graph(4), 1) == {3, 4}

    @pytest.mark.parametrize("v,d,seed", SWEEP)
    def test_searches_under_it_match_the_oracle(self, v, d, seed):
        g = random_graph(v, d, seed)
        rng = random.Random(seed)
        weights = {y: rng.randint(1, 9) for y in range(1, v + 1)}
        anticliques = all_anticliques(g)
        order = cover_degree_order(g)
        for w in (None, weights):
            value = {X: len(X) if w is None else sum(w[p] for p in X) for X in anticliques}
            _oracle_sweep(g, SearchOptions(order=order, weights=w), anticliques, value)


class TestBipartite:
    def test_path_options(self):
        opts = bipartite_options(path_graph(3))
        assert opts.order.order == (2,)
        assert len(opts.initial_witness) == 2
        assert opts.initial_witness == {1, 3}

    def test_complete_bipartite_options(self):
        g = make_graph(5, [(i, j) for i in (1, 2) for j in (3, 4, 5)])
        opts = bipartite_options(g)
        assert opts.order.order == (1, 2)
        assert len(opts.initial_witness) == 3

    def test_triangle_rejected(self):
        with pytest.raises(ConfigurationError, match="bipartite"):
            bipartite_options(complete_graph(3))

    def test_alpha_equals_vertices_minus_matching(self):
        for seed in range(8):
            g = random_bipartite(4, 6, (seed % 3) * 0.4 + 0.1, seed)
            plain = max_anticlique(g)
            fast = max_anticlique(g, bipartite_options(g))
            assert plain.alpha == fast.alpha == g.v - oracle_matching(g)
            assert is_anticlique(g, fast.witness)

    def test_edgeless_graph(self):
        res = max_anticlique(empty_graph(5), bipartite_options(empty_graph(5)))
        assert res.alpha == 5
        assert res.witness == frozenset(range(1, 6))


class TestThresholdAlpha:
    def test_probes_find_alpha_and_sum_their_counters(self):
        g = random_graph(20, 0.3, 4)
        expected, k = SearchStats(), 0
        while True:
            found, stats = threshold_search(g, k, "first")
            expected += stats
            if found is None:
                break
            k = len(found)
        assert threshold_alpha(g) == (k, expected)
        assert k == max_anticlique(g).alpha

    def test_one_deadline_for_all_probes(self):
        with pytest.raises(SearchTimeout):
            threshold_alpha(random_graph(40, 0.2, 7), timeout_s=0.0)


class TestStats:
    def test_sum_adds_counters_and_keeps_the_larger_peak(self):
        a = SearchStats(rsp=1, trivial_changes=2, peak_stack=7, finalized=3, deleted=4)
        b = SearchStats(rsp=10, trivial_changes=20, peak_stack=5, finalized=30, deleted=40)
        assert (a + b).as_dict() == {
            "rsp": 11, "trivial_changes": 22, "peak_stack": 7,
            "finalized": 33, "deleted": 44,
        }


class TestTraceSchema:
    """Every engine reports the same events with the same fields."""

    def test_engines_share_one_schema(self, g5):
        runs = {
            "standard": lambda hook: list(run_standard(g5, trace=hook)[0]),
            "threshold": lambda hook: threshold_search(g5, 1, "all", trace=hook),
            "currentmax": lambda hook: max_anticlique(g5, trace=hook),
        }
        for name, run in runs.items():
            events = []
            run(lambda kind, info: events.append((kind, set(info))))
            kinds = {kind for kind, _keys in events}
            assert {"impose", "finalize", "done"} <= kinds, name
            for kind, keys in events:
                assert keys == {
                    "impose": {"t", "outcome", "working"},
                    "finalize": {"row", "count"},
                    "prune": {"row", "bound", "limit"},
                    "improve": {"row", "currentmax"},
                    "done": set(),
                }[kind], (name, kind)
        # the last run, currentmax, also prunes and improves
        assert {"prune", "improve"} <= {kind for kind, _keys in events}


class TestAgreementSweep:
    def test_methods_agree_with_each_other(self):
        rng = random.Random(2718)
        for _ in range(12):
            v = rng.randint(3, 13)
            g = random_graph(v, rng.choice((0.15, 0.4, 0.7)), rng.randint(0, 10**6))
            alpha = max_anticlique(g).alpha
            assert independence_polynomial(g).degree == alpha
            assert oracle_report(g).alpha == alpha
            found, _ = threshold_search(g, alpha - 1, "first")
            assert found is not None and len(found) == alpha
            none_found, _ = threshold_search(g, alpha, "first")
            assert none_found is None
            got_alpha, sets = all_max_anticliques(g)
            assert got_alpha == alpha
            assert sorted(map(sorted, sets)) == sorted(
                map(sorted, oracle_report(g).maximum_sets)
            )

    def test_cover_order_gives_same_alpha(self):
        for seed in range(6):
            g = random_bipartite(4, 5, 0.5, seed)
            opts = bipartite_options(g)
            assert max_anticlique(g, SearchOptions(order=opts.order)).alpha \
                == max_anticlique(g).alpha
