import itertools
import json
import random
import time
import tracemalloc
import warnings
from collections import Counter

import pytest

from anticlique import (
    ConfigurationError,
    cover_degree_order,
    cover_order,
    degree_order,
    enumerate_anticliques,
    fibonacci_number,
    full_order,
    full_row,
    independence_polynomial,
    make_graph,
    maximal_family,
    oracle_report,
    random_graph,
    row_from_debug,
    rows_polynomial,
    run_standard,
    Polynomial,
    SearchOptions,
    SearchStats,
    max_anticlique,
    threshold_search,
)
from anticlique.rows import _positions
from anticlique.cli import main
from anticlique.enumerator import RULES, _check_order, _largest_anticliques, expand_rows
from anticlique.errors import SearchTimeout, StackBoundWarning
from anticlique.search import _Ranks
from conftest import (
    all_anticliques,
    anticlique_masks,
    complete_graph,
    cycle_graph,
    empty_graph,
    graph_from_edges,
    independence_poly_bitmask,
    induced_subgraph,
    mask_to_set,
    path_graph,
    random_row,
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

    def test_star_builds_only_the_imposed_masks(self):
        # each leaf's neighbour mask is as wide as the centre's label, about
        # 9 MB for all of them at v = 8,000; the run imposes the centre alone
        v = 8000
        g = make_graph(v, [(y, v) for y in range(1, v)])
        tracemalloc.start()
        try:
            f = fibonacci_number(g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert f == 2 ** (v - 1) + 1
        assert peak < 4 * 2**20


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


def _rows_and_stats(run):
    rows, stats = run
    return [row.debug() for row in rows], stats


def _ranks_run(g, order):
    ranks, stats = _Ranks(g), SearchStats()
    return _rows_and_stats((ranks.run(g, order, stats, ranks.prune(2), None, None, 3), stats))


# every entry point that takes an order, as g, order -> a comparable result
_BY_ORDER = {
    "run_standard": lambda g, order: _rows_and_stats(run_standard(g, order)),
    "run_standard own-premise": lambda g, order: _rows_and_stats(
        run_standard(g, order, rule="own-premise", min_size=3)),
    "fibonacci_number": fibonacci_number,
    "independence_polynomial": independence_polynomial,
    "enumerate_anticliques": lambda g, order: list(enumerate_anticliques(g, 3, order)),
    "threshold_search": lambda g, order: threshold_search(g, 2, order=order),
    "threshold_search first": lambda g, order: threshold_search(g, 2, "first", order=order),
    "SearchOptions.order": lambda g, order: max_anticlique(g, SearchOptions(order=order)),
    "_Ranks.run": _ranks_run,
}


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
            run_standard(g5, (1, 2))

    def test_partial_order_must_actually_cover(self, g5):
        with pytest.raises(ConfigurationError, match="misses edge"):
            run_standard(g5, (1, 2))

    def test_order_must_not_repeat_a_vertex(self, g5):
        with pytest.raises(ConfigurationError, match="twice"):
            run_standard(g5, (2, 1, 3, 4, 5, 2))

    def test_full_order_helper(self, g5):
        assert full_order(5) == (1, 2, 3, 4, 5)

    def test_smaller_class_cover_on_bipartite(self):
        g = make_graph(5, [(i, j) for i in (1, 2) for j in (3, 4, 5)])
        order = cover_order(g, {1, 2})
        assert fibonacci_number(g, order) == fibonacci_number(g)

    def test_empty_cover_on_edgeless_graph(self):
        g = empty_graph(4)
        order = cover_order(g, set())
        assert fibonacci_number(g, order) == 16

    @pytest.mark.parametrize("entry", sorted(_BY_ORDER))
    def test_an_order_is_any_sequence(self, entry):
        """Each entry point that takes an order gives the same answer, rows
        and stats for the order as a list and as a tuple, and refuses a
        list that names a vertex twice or misses an edge."""
        run = _BY_ORDER[entry]
        g = random_graph(14, 0.3, 5)
        order = list(cover_degree_order(g))
        random.Random(5).shuffle(order)
        assert run(g, order) == run(g, tuple(order))
        with pytest.raises(ConfigurationError, match="twice"):
            run(g, [*order, order[0]])
        i, j = g.edges[0]
        with pytest.raises(ConfigurationError, match="misses edge"):
            run(g, [y for y in range(1, g.v + 1) if y not in (i, j)])


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


def _own_premise_rows(g, by_degree):
    """The own-premise run's rows, in degree order or in vertex order."""
    order = degree_order(g) if by_degree else None
    return run_standard(g, order, rule="own-premise")[0]


class TestDegreeOrder:
    def test_descending_degree_ties_by_lower_label(self, g5):
        # degrees of g5: 1:3, 2:2, 3:1, 4:4, 5:2
        assert degree_order(g5) == (4, 1, 2, 5, 3)

    def test_regular_graph_keeps_vertex_order(self):
        assert degree_order(cycle_graph(6)) == full_order(6)

    def test_cover_keeps_its_vertices(self):
        g = make_graph(5, [(i, j) for i in (4, 5) for j in (1, 2, 3)])
        assert fibonacci_number(g) == fibonacci_number(g, cover_order(g, {4, 5})) == 11
        with pytest.raises(ConfigurationError, match="vertex cover"):
            cover_order(g, {4})


class TestCoverDegreeOrder:
    """``cover_degree_order``: degree order without a greedy maximal
    anticlique, the own-premise engines' default."""

    def test_worked_example(self, g5):
        # degree order (4, 1, 2, 5, 3); from its end 3, 5 and 2 are kept
        assert cover_degree_order(g5) == (4, 1)

    @pytest.mark.parametrize("v,d,seed", SWEEP)
    def test_a_cover_left_by_a_maximal_anticlique(self, v, d, seed):
        g = random_graph(v, d, seed)
        order = cover_degree_order(g)
        _check_order(g, order)
        assert order == tuple(y for y in degree_order(g) if y in order)
        left = set(range(1, v + 1)) - set(order)
        assert not any(g.adjacency[y] & left for y in left)
        assert all(g.adjacency[y] & left for y in order)

    def test_deterministic(self):
        g = random_graph(30, 0.2, 4)
        again = make_graph(g.v, list(reversed(g.edges)))
        assert cover_degree_order(g) == cover_degree_order(g) == cover_degree_order(again)

    def test_edgeless_graph_imposes_nothing(self):
        g = empty_graph(7)
        assert cover_degree_order(g) == ()
        rows, stats = run_standard(g, cover_degree_order(g), rule="own-premise")
        (row,) = rows
        assert row == full_row(7)
        assert stats.trivial_changes == stats.rsp == 0
        assert fibonacci_number(g) == 2 ** 7

    def test_complete_graph_leaves_out_one_vertex(self):
        # equal degrees: the last vertex of the order is the one kept
        assert cover_degree_order(complete_graph(6)) == (1, 2, 3, 4, 5)
        assert fibonacci_number(complete_graph(6)) == 7


@pytest.mark.parametrize("v,d,seed", SWEEP)
def test_cli_default_against_the_oracle(capsys, v, d, seed):
    """count, poly, enum, threshold and maximal in their default order."""

    def run(*argv):
        assert main([*argv, "--gen", f"{v},{d},{seed}", "--json"]) == 0
        return json.loads(capsys.readouterr().out)

    g = random_graph(v, d, seed)
    rep = oracle_report(g)
    truth = sorted(sorted(mask_to_set(m)) for m in anticlique_masks(g))
    assert run("count")["f"] == rep.f
    assert run("poly")["coefficients"] == list(rep.spectrum.coeffs)
    assert run("enum")["anticliques"] == truth
    for k in range(max(rep.alpha - 2, 0), rep.alpha + 1):
        assert run("threshold", "--k", str(k))["anticliques"] == [
            X for X in truth if len(X) > k]
    assert run("maximal")["maximal"] == sorted(sorted(X) for X in rep.maximal_sets)


def _shuffled_order(g, rng, partial):
    """All of g's vertices, or a random vertex cover of g, in random order."""
    seq = list(range(1, g.v + 1))
    rng.shuffle(seq)
    if partial:
        cover = set(seq)
        for y in seq:
            if g.adjacency[y] <= cover:
                cover.discard(y)
        seq = [y for y in seq if y in cover]
        rng.shuffle(seq)
    return tuple(seq)


@pytest.mark.filterwarnings("ignore::anticlique.errors.StackBoundWarning")
class TestPermutedOrders:
    """Any cover, imposed in any order, lists every anticlique exactly once."""

    @pytest.mark.parametrize("partial", [False, True], ids=["full", "cover"])
    @pytest.mark.parametrize("rule", ["paper", "own-premise"])
    def test_exact_against_the_oracle(self, rule, partial):
        rng = random.Random(2009)
        for _ in range(40):
            g = random_graph(rng.randint(2, 14), rng.choice((0.1, 0.3, 0.5, 0.7)),
                             rng.randrange(10**6))
            order = _shuffled_order(g, rng, partial)
            rows = list(run_standard(g, order, rule=rule)[0])
            listed = [X for row in rows for X in row.expand(0)]
            assert len(set(listed)) == len(listed)
            for X in listed:
                assert not any(g.adjacency[y] & X for y in X)
            rep = oracle_report(g)
            assert len(listed) == sum(row.member_count() for row in rows) == rep.f
            assert rows_polynomial(rows) == rep.spectrum


class TestTimeout:
    def test_every_entry_point_honours_its_budget(self):
        g = random_graph(60, 0.1, 3)
        runs = (
            lambda: sum(1 for _ in run_standard(g, timeout_s=0.01)[0]),
            lambda: sum(1 for _ in run_standard(g, rule="own-premise", timeout_s=0.01)[0]),
            lambda: fibonacci_number(g, timeout_s=0.01),
            lambda: independence_polynomial(g, timeout_s=0.01),
            # about 0.25 s: 176 sets of 23 or more
            lambda: sum(1 for _ in enumerate_anticliques(g, 23, timeout_s=0.01)),
            lambda: maximal_family(g, timeout_s=0.01),
        )
        for run in runs:
            with pytest.raises(SearchTimeout):
                run()

    def test_one_huge_row_is_listed_under_the_budget(self):
        # a perfect matching on 40 vertices finalizes a single row with 20
        # groups: 3**20 members, or 2**20 of size 20
        g = graph_from_edges(40, [(2 * i + 1, 2 * i + 2) for i in range(20)])
        rows, _stats = run_standard(g, rule="own-premise")
        (row,) = rows
        for run in (lambda: sum(1 for _ in enumerate_anticliques(g, timeout_s=0.05)),
                    lambda: sum(1 for _ in enumerate_anticliques(g, 20, timeout_s=0.05)),
                    lambda: sum(1 for _ in expand_rows([row], 0, time.monotonic() + 0.05))):
            start = time.perf_counter()
            with pytest.raises(SearchTimeout):
                run()
            assert time.perf_counter() - start < 1.0

    def test_expand_rows_with_a_deadline_lists_the_same(self, g5):
        rows = list(run_standard(g5)[0])
        assert (list(expand_rows(rows, 1, time.monotonic() + 60))
                == list(expand_rows(rows, 1)) == [X for r in rows for X in r.expand(1)])

    def test_ample_budget_changes_nothing(self, g5):
        assert fibonacci_number(g5, timeout_s=60) == 11
        assert independence_polynomial(g5, timeout_s=60) == Polynomial((1, 5, 4, 1))


class TestChosenRun:
    """An unpruned own-premise run imposes, on each row, the pending vertex
    with the most live neighbours, ties to the higher label, and drops a
    pending vertex whose anti-implication already holds."""

    def test_the_choice_on_a_path(self):
        # on the path 1-2-3-4-5 the full row's vertices 2, 3 and 4 have two
        # live neighbours each: 4 is imposed first, a premise over 3 and 5.
        # Then 2 and 3 have two each and 3 is imposed; 5, whose only live
        # neighbour is its own group's premise, is dropped, never imposed
        g = make_graph(5, [(1, 2), (2, 3), (3, 4), (4, 5)])
        events = []
        rows, stats = run_standard(g, full_order(5), rule="own-premise",
                                   trace=lambda kind, info: events.append((kind, info)))
        assert sum(row.member_count() for row in rows) == 13
        imposed = [(info["t"], info["outcome"]) for kind, info in events if kind == "impose"]
        assert imposed == [(4, "mutated"), (3, "split"), (2, "mutated")]
        assert events[0][1]["working"] == ["(2,2,b1,a1,b1) PA={1,2,3,5}"]
        # two Mutated outcomes and four dropped vertices: 5, then 1 and 2
        # (already 0) in the t-in son, then 1 again in the t-out son
        assert stats.as_dict() == dict(rsp=1, trivial_changes=6, peak_stack=2,
                                       finalized=2, deleted=0)

    @pytest.mark.parametrize("v,d,seed", SWEEP[::3])
    def test_only_the_set_of_the_order_matters(self, v, d, seed):
        g = random_graph(v, d, seed)
        rng = random.Random(seed)
        seq = list(cover_degree_order(g))
        rng.shuffle(seq)
        runs = []
        for order in (cover_degree_order(g), tuple(seq)):
            rows, stats = run_standard(g, order, rule="own-premise")
            runs.append(([row.debug() for row in rows], stats))
        assert runs[0] == runs[1]


class TestOwnPremiseRule:
    def test_unknown_rule_is_rejected(self, g5):
        with pytest.raises(ConfigurationError, match="rule"):
            run_standard(g5, rule="greedy")

    @pytest.mark.parametrize("by_degree", [False, True], ids=["vertex-order", "degree-order"])
    @pytest.mark.parametrize("v,d,seed", SWEEP)
    def test_exact_on_the_sweep(self, v, d, seed, by_degree):
        g = random_graph(v, d, seed)
        rows = list(_own_premise_rows(g, by_degree))
        listed = [X for row in rows for X in row.expand(0)]
        truth = {mask_to_set(m) for m in anticlique_masks(g)}
        assert len(listed) == len(truth) and set(listed) == truth
        rep = oracle_report(g)
        assert sum(row.member_count() for row in rows) == rep.f
        assert rows_polynomial(rows) == rep.spectrum
        if by_degree:
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
                for by_degree in (False, True):
                    for _row in _own_premise_rows(g, by_degree):
                        pass
                for _row in run_standard(g, cover_degree_order(g), rule="own-premise")[0]:
                    pass
        assert paper_over > 0

    @pytest.mark.parametrize("v,d,seed", SWEEP + [(45, 0.1, 13)])
    def test_zero_skip_matches_the_traced_run(self, v, d, seed):
        # the run drops the vertices that hold inline, with a trace hook or
        # without one: the rows and the counters do not depend on the hook
        g = random_graph(v, d, seed)
        for order in (cover_degree_order(g), None):
            plain_rows, plain = run_standard(g, order, rule="own-premise")
            plain_rows = [r.debug() for r in plain_rows]
            traced_rows, traced = run_standard(g, order, rule="own-premise",
                                               trace=lambda kind, info: None)
            assert [r.debug() for r in traced_rows] == plain_rows
            assert traced == plain

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


class TestSizeFloor:
    """``run_standard(..., min_size=m)`` stops splitting at the size floor m:
    a row whose w_max falls below m is deleted, and one whose w_max is m is
    settled into its largest members that are anticliques, each yielded as
    a one-member row and counted as finalized (deleted if there is none)."""

    @pytest.mark.parametrize("rule", RULES)
    @pytest.mark.parametrize("v,d,seed", SWEEP[::3] + [(30, 0.25, 1)])
    def test_lists_the_unfloored_runs_sets(self, v, d, seed, rule):
        g = random_graph(v, d, seed)
        order = cover_degree_order(g) if rule == "own-premise" else None
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", StackBoundWarning)
            full = list(run_standard(g, order, rule=rule)[0])
            alpha = max(row.w_max() for row in full)
            for m in range(1, alpha + 2):
                rows, stats = run_standard(g, order, rule=rule, min_size=m)
                rows = list(rows)
                assert stats.finalized == len(rows)
                for row in rows:
                    assert row.w_max() > m or (row.member_count() == 1 and row.w_max() == m)
                listed = sorted((X for row in rows for X in row.expand(m)), key=sorted)
                assert listed == sorted((X for row in full for X in row.expand(m)), key=sorted)

    def test_no_floor_below_one(self, g5):
        runs = [run_standard(g5, rule="own-premise", min_size=m) for m in (0, -2)]
        runs.append(run_standard(g5, rule="own-premise"))
        rows = [[row.debug() for row in r] for r, _stats in runs]
        assert rows[0] == rows[1] == rows[2]
        assert runs[0][1] == runs[1][1] == runs[2][1]

    def test_trace_events_match_the_counters(self):
        g = random_graph(30, 0.25, 1)
        events = Counter()
        counts = set()

        def hook(kind, info):
            events[kind] += 1
            if kind == "finalize":
                counts.add(info["count"])
            if kind == "prune":
                assert info["bound"] <= info["limit"] == 6

        rows, stats = run_standard(g, cover_degree_order(g), rule="own-premise",
                                   min_size=7, trace=hook)
        rows = list(rows)
        assert events["finalize"] == stats.finalized == len(rows)
        assert events["prune"] == stats.deleted > 0
        assert 1 in counts and any(row.member_count() == 1 for row in rows)

    def test_settled_matching_row_is_lazy(self):
        # one row with 30 one-position groups: 2**30 largest members
        g = graph_from_edges(60, [(2 * i + 1, 2 * i + 2) for i in range(30)])
        rows, stats = run_standard(g, rule="own-premise", min_size=30)
        first = [row.ones() for row in itertools.islice(rows, 3)]
        assert len(set(first)) == 3 and stats.finalized == 3
        assert all(len(X) == 30 and all(g.adjacency[y].isdisjoint(X) for y in X)
                   for X in first)


class TestLargestAnticliques:
    """``_largest_anticliques``: the largest members of a row that hold no
    edge at a pending vertex, in the order of ``row.expand(w_max)``."""

    def test_against_the_filtered_expansion(self):
        rng = random.Random(31)
        for _ in range(300):
            v = rng.randint(1, 12)
            row = random_row(rng, v)
            nbr = [0] * (v + 1)
            for i in range(1, v + 1):
                for j in range(i + 1, v + 1):
                    if rng.random() < 0.2:
                        nbr[i] |= 1 << j
                        nbr[j] |= 1 << i
            pending = sum(1 << p for p in range(1, v + 1) if rng.random() < 0.5)

            def clean(X):
                return not any(pending >> p & 1 and nbr[p] & sum(1 << q for q in X) for p in X)

            expected = [X for X in row.expand(row.w_max()) if clean(X)]
            got = [frozenset(_positions(X)) for X in _largest_anticliques(row, pending, nbr, None)]
            assert got == expected

    def test_deadline_is_checked_while_nothing_is_found(self):
        # 20 one-position groups, and a pending free vertex adjacent to both
        # sides of the last one: every choice fails at the last group
        row = row_from_debug("(" + ",".join(f"a{i},b{i}" for i in range(1, 21)) + ",2)")
        nbr = [0] * 42
        nbr[41] = 1 << 39 | 1 << 40
        nbr[39] = nbr[40] = 1 << 41
        with pytest.raises(SearchTimeout):
            list(_largest_anticliques(row, 1 << 41, nbr, time.monotonic() - 1))
        small = row_from_debug("(" + ",".join(f"a{i},b{i}" for i in range(1, 9)) + ",2)")
        nbr = [0] * 18
        nbr[17] = 1 << 15 | 1 << 16
        assert list(_largest_anticliques(small, 1 << 17, nbr, None)) == []
