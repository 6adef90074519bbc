import random
import warnings
from collections import Counter

import pytest

from anticlique import (
    ConfigurationError,
    ImpositionOrder,
    cover_order,
    degree_ordered_run,
    enumerate_anticliques,
    fibonacci_number,
    full_order,
    independence_polynomial,
    make_graph,
    oracle_report,
    random_graph,
    relabel_by_degree,
    row_from_debug,
    rows_polynomial,
    run_standard,
    Polynomial,
)
from anticlique.errors import SearchTimeout, StackBoundWarning
from conftest import (
    all_anticliques,
    anticlique_masks,
    complete_graph,
    cycle_graph,
    empty_graph,
    independence_poly_bitmask,
    induced_subgraph,
    mask_to_set,
    path_graph,
)


class TestStandardRun:
    def test_worked_example_output_stack(self, g5):
        rows, stats = run_standard(g5)
        rows = list(rows)
        assert sorted(r.member_count() for r in rows) == [1, 1, 2, 3, 4]
        assert stats.finalized == 5
        assert stats.deleted == 0
        assert row_from_debug("(0,1,2,0,2)") in rows
        assert row_from_debug("(a1,0,0,0,b1)") in rows

    def test_empty_graph_single_row(self):
        rows, stats = run_standard(empty_graph(7))
        rows = list(rows)
        assert len(rows) == 1
        assert rows[0].member_count() == 128
        assert stats.rsp == 0

    def test_single_edge(self):
        rows, _stats = run_standard(make_graph(2, [(1, 2)]))
        members = {X for r in rows for X in r.expand(0)}
        assert members == {frozenset(), frozenset({1}), frozenset({2})}

    def test_no_deletion_identity(self):
        # without pruning every split adds exactly one row to the output
        for seed in range(10):
            g = random_graph(9, 0.4, seed)
            rows, stats = run_standard(g)
            n = sum(1 for _ in rows)
            assert n == stats.finalized == stats.rsp + 1

    def test_stack_bound_warning_absent_on_worked_example(self, g5):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows, stats = run_standard(g5)
            list(rows)
        assert stats.peak_stack <= g5.w


class TestPartitionProperty:
    def test_rows_partition_the_anticliques(self):
        rng = random.Random(42)
        for _ in range(8):
            v = rng.randint(3, 12)
            g = random_graph(v, rng.choice((0.15, 0.4, 0.7)), rng.randint(0, 10**6))
            rows, _stats = run_standard(g)
            rows = list(rows)
            expected = all_anticliques(g)
            seen = Counter()
            for row in rows:
                for X in row.expand(0):
                    seen[X] += 1
            assert set(seen) == expected
            assert all(count == 1 for count in seen.values())

    def test_vertex_deletion_identity(self):
        # f(G) = f(G - x) + f(G - closed neighborhood of x)
        rng = random.Random(6)
        for _ in range(6):
            v = rng.randint(3, 11)
            g = random_graph(v, 0.35, rng.randint(0, 10**6))
            for x in (1, v // 2 + 1, v):
                without_x = induced_subgraph(g, set(range(1, v + 1)) - {x})
                closed = set(g.adjacency[x]) | {x}
                rest = set(range(1, v + 1)) - closed
                f_rest = (
                    fibonacci_number(induced_subgraph(g, rest)) if rest else 1
                )
                assert fibonacci_number(g) == fibonacci_number(without_x) + f_rest


class TestFibonacciNumber:
    def test_worked_example(self, g5):
        assert fibonacci_number(g5) == 11

    def test_triangle(self):
        assert fibonacci_number(complete_graph(3)) == 4

    def test_path_recurrence_base(self):
        assert fibonacci_number(path_graph(1)) == 2
        assert fibonacci_number(path_graph(2)) == 3
        assert fibonacci_number(path_graph(4)) == 8


class TestIndependencePolynomial:
    def test_worked_example(self, g5):
        assert independence_polynomial(g5) == Polynomial((1, 5, 4, 1))

    def test_complete_graphs(self):
        for n in (1, 2, 5, 8):
            assert independence_polynomial(complete_graph(n)) == Polynomial((1, n))

    def test_path_four(self):
        assert independence_polynomial(path_graph(4)) == Polynomial((1, 4, 3))

    def test_evaluates_to_count(self):
        for seed in range(5):
            g = random_graph(10, 0.5, seed)
            assert independence_polynomial(g).evaluate(1) == fibonacci_number(g)


class TestEnumerate:
    def test_all_of_worked_example(self, g5):
        sets = list(enumerate_anticliques(g5, 0))
        assert len(sets) == 11
        assert frozenset() in sets
        assert frozenset({2, 3, 5}) in sets

    def test_min_size_three(self, g5):
        assert list(enumerate_anticliques(g5, 3)) == [frozenset({2, 3, 5})]

    def test_triangle_pairs_empty(self):
        assert list(enumerate_anticliques(complete_graph(3), 2)) == []

    def test_deterministic(self, g5):
        assert list(enumerate_anticliques(g5)) == list(enumerate_anticliques(g5))


class TestCoverOrders:
    def test_cover_run_matches_full_run(self):
        rng = random.Random(11)
        for _ in range(10):
            v = rng.randint(3, 10)
            g = random_graph(v, 0.4, rng.randint(0, 10**6))
            # greedy cover: take endpoints of uncovered edges
            cover = set()
            for i, j in g.edges:
                if i not in cover and j not in cover:
                    cover.add(j)
            order = cover_order(g, cover)
            full = set(enumerate_anticliques(g))
            restricted = set(enumerate_anticliques(g, order=order))
            assert restricted == full

    def test_partial_order_requires_cover_flag(self, g5):
        with pytest.raises(ConfigurationError, match="vertex cover"):
            run_standard(g5, ImpositionOrder((1, 2)))

    def test_partial_order_must_actually_cover(self, g5):
        with pytest.raises(ConfigurationError, match="misses edge"):
            run_standard(g5, ImpositionOrder((1, 2)))

    def test_order_must_increase(self, g5):
        with pytest.raises(ConfigurationError, match="increasing"):
            run_standard(g5, ImpositionOrder((2, 1, 3, 4, 5)))

    def test_full_order_helper(self, g5):
        assert full_order(5).order == (1, 2, 3, 4, 5)

    def test_smaller_class_cover_on_bipartite(self):
        g = make_graph(5, [(i, j) for i in (1, 2) for j in (3, 4, 5)])
        order = cover_order(g, {1, 2})
        assert fibonacci_number(g, order) == fibonacci_number(g)

    def test_empty_cover_on_edgeless_graph(self):
        g = empty_graph(4)
        order = cover_order(g, set())
        assert fibonacci_number(g, order) == 16


# The seeded oracle sweep at v <= 16 (a subset of acceptance criterion 4's).
SWEEP = [(v, d, seed * 1000 + v)
         for seed in range(4) for v in (8, 12, 16) for d in (0.1, 0.3, 0.5, 0.7, 0.9)]


@pytest.mark.filterwarnings("ignore::anticlique.errors.StackBoundWarning")
class TestShapeAggregation:
    @pytest.mark.parametrize("v,d,seed", SWEEP)
    def test_equals_summed_spectra_and_oracle(self, v, d, seed):
        g = random_graph(v, d, seed)
        rows = list(run_standard(g)[0])
        summed = Polynomial((0,))
        for row in rows:
            summed = summed + row.spectrum()
        by_shape = rows_polynomial(rows)
        assert by_shape == summed == oracle_report(g).spectrum
        assert independence_polynomial(g) == by_shape


@pytest.mark.filterwarnings("ignore::anticlique.errors.StackBoundWarning")
class TestEnumerateMinSize:
    @pytest.mark.parametrize("v,d,seed", SWEEP)
    def test_equals_brute_force_at_every_size(self, v, d, seed):
        g = random_graph(v, d, seed)
        truth = [mask_to_set(m) for m in anticlique_masks(g)]
        full = list(enumerate_anticliques(g, 0))
        assert set(full) == set(truth) and len(full) == len(truth)
        alpha = max(map(len, truth))
        for m in range(1, alpha + 2):
            sets = list(enumerate_anticliques(g, m))
            assert sets == [X for X in full if len(X) >= m]
            assert set(sets) == {X for X in truth if len(X) >= m}


def _own_premise_rows(g, relabel):
    """The own-premise run's rows, and the map from their labels to g's."""
    if relabel:
        rows, _stats, old = degree_ordered_run(g)
        return rows, old
    rows, _stats = run_standard(g, rule="own-premise")
    return rows, range(g.v + 1)


class TestRelabelByDegree:
    def test_descending_degree_ties_by_lower_label(self, g5):
        h, old = relabel_by_degree(g5)
        # degrees of g5: 1:3, 2:2, 3:1, 4:4, 5:2
        assert old == (0, 4, 1, 2, 5, 3)
        assert h.edges == tuple(sorted(
            tuple(sorted((old.index(i), old.index(j)))) for i, j in g5.edges))
        assert [len(h.adjacency[k]) for k in range(1, 6)] == [4, 3, 2, 2, 1]

    def test_regular_graph_keeps_its_labels(self):
        h, old = relabel_by_degree(cycle_graph(6))
        assert old == tuple(range(7)) and h == cycle_graph(6)

    def test_cover_order_is_mapped(self):
        # the cover {4, 5} becomes {1, 2} after relabelling; unmapped, (4, 5)
        # would not cover the relabelled graph
        g = make_graph(5, [(i, j) for i in (4, 5) for j in (1, 2, 3)])
        rows, stats, old = degree_ordered_run(g, cover_order(g, {4, 5}))
        assert old == (0, 4, 5, 1, 2, 3)
        assert sum(row.member_count() for row in rows) == fibonacci_number(g) == 11
        assert fibonacci_number(g, cover_order(g, {4, 5})) == 11
        with pytest.raises(ConfigurationError, match="vertex cover"):
            degree_ordered_run(g, ImpositionOrder((4,)))


class TestTimeout:
    def test_every_entry_point_honours_its_budget(self):
        g = random_graph(60, 0.1, 3)
        runs = (
            lambda: sum(1 for _ in run_standard(g, timeout_s=0.01)[0]),
            lambda: sum(1 for _ in run_standard(g, rule="own-premise", timeout_s=0.01)[0]),
            lambda: fibonacci_number(g, timeout_s=0.01),
            lambda: independence_polynomial(g, timeout_s=0.01),
        )
        for run in runs:
            with pytest.raises(SearchTimeout):
                run()

    def test_ample_budget_changes_nothing(self, g5):
        assert fibonacci_number(g5, timeout_s=60) == 11
        assert independence_polynomial(g5, timeout_s=60) == Polynomial((1, 5, 4, 1))


class TestOwnPremiseRule:
    def test_unknown_rule_is_rejected(self, g5):
        with pytest.raises(ConfigurationError, match="rule"):
            run_standard(g5, rule="greedy")

    @pytest.mark.parametrize("relabel", [False, True], ids=["vertex-order", "degree-order"])
    @pytest.mark.parametrize("v,d,seed", SWEEP)
    def test_exact_on_the_sweep(self, v, d, seed, relabel):
        g = random_graph(v, d, seed)
        rows, old = _own_premise_rows(g, relabel)
        rows = list(rows)
        listed = [frozenset(old[y] for y in X) for row in rows for X in row.expand(0)]
        truth = {mask_to_set(m) for m in anticlique_masks(g)}
        assert len(listed) == len(truth) and set(listed) == truth
        rep = oracle_report(g)
        assert sum(row.member_count() for row in rows) == rep.f
        assert rows_polynomial(rows) == rep.spectrum
        if relabel:
            assert fibonacci_number(g) == rep.f
            assert independence_polynomial(g) == rep.spectrum

    def test_no_stack_bound_warning_on_the_sweep(self):
        # the paper's open bound peak_stack <= w, observed (not proved) to
        # hold under this rule; the paper's rule exceeds it on this sweep
        paper_over = 0
        for v, d, seed in SWEEP:
            g = random_graph(v, d, seed)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", StackBoundWarning)
                rows, stats = run_standard(g)
                list(rows)
            paper_over += stats.peak_stack > max(g.w, 1)
            with warnings.catch_warnings():
                warnings.simplefilter("error", StackBoundWarning)
                for relabel in (False, True):
                    rows, _old = _own_premise_rows(g, relabel)
                    for _row in rows:
                        pass
        assert paper_over > 0

    @pytest.mark.parametrize("spec", [
        (30, 0.15, 1), (34, 0.2, 2), (38, 0.25, 3), (42, 0.3, 4), (45, 0.35, 5),
    ])
    def test_above_oracle_range(self, spec):
        g = random_graph(*spec)
        paper = list(run_standard(g)[0])
        poly = independence_polynomial(g)
        assert list(poly.coeffs) == independence_poly_bitmask(g)
        assert poly == rows_polynomial(paper)
        assert fibonacci_number(g) == sum(row.member_count() for row in paper) == poly.evaluate(1)
