import itertools
import math
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anticlique import (
    ContainIndex,
    GuardExceeded,
    chromatic_number,
    cover_degree_order,
    cover_order,
    full_order,
    max_anticlique,
    maximal_anticliques,
    maximal_family,
    oracle_report,
    random_graph,
    row_from_debug,
    row_maximal_members,
    run_standard,
    sieve_maximal,
    to_complement,
)
import anticlique.maximal as maximal_module
import anticlique.search as search_module
from anticlique.errors import ConfigurationError, SearchTimeout
from conftest import (
    EXAMPLE_ROW_13,
    complete_graph,
    cycle_graph,
    empty_graph,
    graph_from_edges,
    is_anticlique,
    path_graph,
    random_row,
)


def _as_sorted(sets):
    return sorted(map(sorted, sets))


class TestRowMaximalMembers:
    def test_example_row_eight_choices(self):
        sets = row_maximal_members(row_from_debug(EXAMPLE_ROW_13))
        assert len(sets) == 8
        base = {1, 3, 4}
        expected = {
            frozenset(base | u1 | u2 | u3)
            for u1 in ({5}, {6, 7, 8})
            for u2 in ({9}, {10})
            for u3 in ({11}, {12, 13})
        }
        assert set(sets) == expected

    def test_free_row(self):
        from anticlique import full_row

        assert row_maximal_members(full_row(5)) == [frozenset({1, 2, 3, 4, 5})]

    def test_single_group(self):
        sets = row_maximal_members(row_from_debug("(a1,0,0,0,b1)"))
        assert set(sets) == {frozenset({1}), frozenset({5})}

    def test_random_rows_match_maximal_members_of_expand(self):
        rng = random.Random(12)
        for _ in range(200):
            row = random_row(rng, rng.randint(1, 10))
            members = set(row.expand())
            maximal = [X for X in members if not any(X < Y for Y in members)]
            assert _as_sorted(row_maximal_members(row)) == _as_sorted(maximal)


class TestSieve:
    def test_basic(self):
        out = sieve_maximal(
            [frozenset({1, 2}), frozenset({1}), frozenset({2, 3})], 3
        )
        assert set(out) == {frozenset({1, 2}), frozenset({2, 3})}

    def test_duplicates_collapse(self):
        out = sieve_maximal([frozenset({1})] * 3, 2)
        assert out == [frozenset({1})]

    def test_late_superset_displaces(self):
        out = sieve_maximal(
            [frozenset({3, 5}), frozenset({2, 3, 5})], 5
        )
        assert out == [frozenset({2, 3, 5})]

    def test_empty_set_handling(self):
        assert sieve_maximal([frozenset()], 3) == [frozenset()]
        assert sieve_maximal([frozenset(), frozenset({1})], 3) == [frozenset({1})]
        assert sieve_maximal([frozenset({1}), frozenset()], 3) == [frozenset({1})]

    def test_idempotent(self):
        rng = random.Random(12)
        family = [
            frozenset(p for p in range(1, 9) if rng.random() < 0.4)
            for _ in range(30)
        ]
        once = sieve_maximal(family, 8)
        again = sieve_maximal(once, 8)
        assert set(once) == set(again)

    @given(st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_order_insensitive(self, seed):
        rng = random.Random(seed)
        family = [
            frozenset(p for p in range(1, 8) if rng.random() < 0.45)
            for _ in range(20)
        ]
        shuffled = family[:]
        rng.shuffle(shuffled)
        assert set(sieve_maximal(family, 7)) == set(sieve_maximal(shuffled, 7))


class TestMaximalAnticliques:
    def test_worked_example(self, g5):
        assert _as_sorted(maximal_anticliques(g5)) == [[1, 3], [2, 3, 5], [4]]

    def test_five_cycle(self):
        sets = maximal_anticliques(cycle_graph(5))
        assert len(sets) == 5
        assert all(len(X) == 2 for X in sets)

    def test_complete_graph(self):
        assert _as_sorted(maximal_anticliques(complete_graph(4))) == [[1], [2], [3], [4]]

    def test_family_counters(self, g5):
        fam = maximal_family(g5)
        assert fam.candidates == 3  # two rows, one carrying a group
        assert len(fam.sets) == 3
        assert fam.dominated == fam.candidates - len(fam.sets)
        assert fam.removed == 0

    def test_paper_rows_candidates(self, g5):
        rows, _stats = run_standard(g5)
        members = [X for row in rows for X in row_maximal_members(row)]
        assert len(members) == 6  # five rows, one carrying a group
        assert len(sieve_maximal(members, 5)) == 3

    def test_paper_rows_pinned(self):
        # the counters maximal_family had on the paper's rows in vertex order
        g = random_graph(40, 0.3, 3)
        rows, _stats = run_standard(g)
        members = [X for row in rows for X in row_maximal_members(row)]
        assert len(members) == 11111
        index = ContainIndex(g.v)
        for X in members:
            index.add(X)
        assert (index.dominated, index.removed) == (9450, 0)
        assert _as_sorted(index.sets()) == _as_sorted(maximal_family(g).sets)

    def test_candidates_are_checked_against_the_budget(self):
        # a perfect matching on 32 vertices finalizes one row with 16 groups:
        # the run takes a millisecond, judging its 2**16 candidates far longer
        g = graph_from_edges(32, [(2 * i + 1, 2 * i + 2) for i in range(16)])
        with pytest.raises(SearchTimeout):
            maximal_family(g, timeout_s=0.02)

    @pytest.mark.filterwarnings("ignore::anticlique.errors.StackBoundWarning")
    def test_anticonclusions_lie_in_their_premises_neighbourhood(self):
        """maximal_family tests only a member's 0 positions for cover: the
        premise or the anticonclusion it leaves out is covered by the other,
        because every anticonclusion lies in its premise's neighbourhood."""
        groups = 0
        for v in range(3, 21):
            for d in (0.15, 0.3, 0.5, 0.8):
                g = random_graph(v, d, 100 * v + int(100 * d))
                for order, rule in itertools.product(
                    (full_order(v), cover_degree_order(g)), ("own-premise", "paper")
                ):
                    rows, _stats = run_standard(g, order, rule=rule)
                    for row in rows:
                        for prem, anti in row.groups.items():
                            assert anti & ~g.nbr_mask(prem) == 0, (v, d, rule, row)
                            groups += 1
        assert groups == 2830

    def test_closed_neighbourhood_matches_sieve_and_oracle(self):
        """The neighbourhood test keeps exactly what the contain-index sieve
        keeps, in the same counts, under the full and a greedy cover order,
        in the own-premise rows that maximal_family runs and in the paper's.
        No row-wise maximal member repeats, which maximal_family relies on
        instead of deduplicating."""
        checked = 0
        for v in range(4, 19, 2):
            for d in (0.15, 0.3, 0.5, 0.8):
                g = random_graph(v, d, 1000 * v + int(100 * d))
                cover = set()
                for i, j in g.edges:
                    if i not in cover and j not in cover:
                        cover.add(i if len(g.adjacency[i]) >= len(g.adjacency[j]) else j)
                expected = _as_sorted(oracle_report(g).maximal_sets)
                for order, rule in itertools.product(
                    (full_order(v), cover_order(g, cover)), ("own-premise", "paper")
                ):
                    rows, _stats = run_standard(g, order, rule=rule)
                    members = [X for row in rows for X in row_maximal_members(row)]
                    assert len(set(members)) == len(members)
                    index = ContainIndex(v)
                    for X in members:
                        index.add(X)
                    assert _as_sorted(index.sets()) == expected
                    assert index.removed == 0
                    if rule == "own-premise":
                        fam = maximal_family(g, order)
                        assert _as_sorted(fam.sets) == expected
                        assert fam.sets == sorted(fam.sets, key=sorted)
                        assert fam.candidates == len(members)
                        assert fam.dominated == index.dominated == fam.candidates - len(fam.sets)
                        assert fam.removed == 0
                    checked += 1
        assert checked == 128

    def test_against_oracle(self):
        rng = random.Random(55)
        for _ in range(10):
            v = rng.randint(3, 12)
            g = random_graph(v, rng.choice((0.2, 0.5, 0.8)), rng.randint(0, 10**6))
            assert _as_sorted(maximal_anticliques(g)) == _as_sorted(
                oracle_report(g).maximal_sets
            )

    def test_outputs_are_maximal(self):
        for seed in range(6):
            g = random_graph(10, 0.4, seed)
            for X in maximal_anticliques(g):
                assert is_anticlique(g, X)
                for y in set(range(1, 11)) - X:
                    assert not is_anticlique(g, X | {y})


class TestChromaticNumber:
    def test_worked_example(self, g5):
        chi, cover = chromatic_number(g5)
        assert chi == 3
        self._check_cover(g5, cover, chi)

    def test_odd_cycle(self):
        chi, _ = chromatic_number(cycle_graph(5))
        assert chi == 3

    def test_connected_bipartite(self):
        chi, _ = chromatic_number(path_graph(6))
        assert chi == 2

    def test_edgeless(self):
        chi, cover = chromatic_number(empty_graph(5))
        assert chi == 1
        assert cover == [frozenset(range(1, 6))]

    def test_complete(self):
        assert chromatic_number(complete_graph(6))[0] == 6

    def test_guard_refusal(self):
        g = empty_graph(51)
        with pytest.raises(GuardExceeded, match="size guard"):
            chromatic_number(g)
        assert chromatic_number(g, max_v=60)[0] == 1

    def test_guard_env(self, monkeypatch):
        monkeypatch.setenv("ANTICLIQUE_CHROMATIC_MAX_V", "4")
        with pytest.raises(GuardExceeded):
            chromatic_number(empty_graph(5))

    def test_guard_env_not_an_integer(self, monkeypatch):
        monkeypatch.setenv("ANTICLIQUE_CHROMATIC_MAX_V", "abc")
        with pytest.raises(ConfigurationError, match="ANTICLIQUE_CHROMATIC_MAX_V"):
            chromatic_number(empty_graph(5))
        assert chromatic_number(empty_graph(5), max_v=10)[0] == 1

    def test_against_oracle(self):
        rng = random.Random(91)
        for _ in range(8):
            v = rng.randint(3, 11)
            g = random_graph(v, rng.choice((0.3, 0.6)), rng.randint(0, 10**6))
            chi, cover = chromatic_number(g)
            assert chi == oracle_report(g).chi
            self._check_cover(g, cover, chi)
            alpha = max_anticlique(g).alpha
            assert chi >= math.ceil(g.v / alpha)

    def test_colouring_pinned(self):
        # the DSatur colouring's classes, in the order they were opened
        g = random_graph(20, 0.5, 0)
        chi, cover = chromatic_number(g)
        assert chi == 6
        assert [sorted(X) for X in cover] == [
            [4, 10, 19], [3, 5, 14, 16], [7, 9, 17], [1, 2, 6, 11, 13, 18],
            [8, 15, 20], [12],
        ]
        self._check_cover(g, cover, chi)

    def test_colour_classes_partition_v(self):
        for seed in range(6):
            g = random_graph(12, (0.2, 0.5)[seed % 2], seed)
            chi, cover = chromatic_number(g)
            assert chi == oracle_report(g).chi
            self._check_cover(g, cover, chi)
            assert all(cover)
            assert sum(map(len, cover)) == g.v   # disjoint, as they cover V

    def test_depth_is_not_bounded_by_recursion(self):
        # the search's depth is v: 300 nested calls would pass this limit
        g = empty_graph(300)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(250)
        try:
            assert chromatic_number(g, max_v=300) == (1, [frozenset(range(1, 301))])
        finally:
            sys.setrecursionlimit(limit)

    @staticmethod
    def _check_cover(g, cover, chi):
        assert len(cover) == chi
        assert frozenset.union(*cover) == frozenset(range(1, g.v + 1))
        for X in cover:
            assert is_anticlique(g, X)

    def test_deterministic_cover(self, g5):
        assert chromatic_number(g5) == chromatic_number(g5)

    def test_clique_number_found_through_search_module(self, monkeypatch, g5):
        """The clique number's search is called as search.max_anticlique, so a
        wrapper installed there (as perfbench's tracer does) sees it."""
        seen = []
        original = search_module.max_anticlique
        monkeypatch.setattr(search_module, "max_anticlique",
                            lambda g, **kw: seen.append(g.v) or original(g, **kw))
        assert chromatic_number(g5)[0] == 3
        assert seen == [g5.v]

    @pytest.mark.parametrize("v, d, seed", [
        *(pytest.param(30, 0.3, seed, id=str(seed)) for seed in range(6)),
        *((40, 0.3, seed) for seed in range(10)),
        (50, 0.5, 2),   # chi = 10 > omega = 8
    ])
    def test_heavy_tail_against_backtracking(self, v, d, seed):
        # random_graph(30, 0.3, 1) (chi = 6) ran past 60 s, and most
        # random_graph(40, 0.3, seed) past 5 s, under the cover search by
        # maximal anticliques that DSatur replaced
        g = random_graph(v, d, seed)
        chi, cover = chromatic_number(g, timeout_s=10)
        assert chi == next(k for k in range(1, g.v + 1) if _colourable(g, k))
        self._check_cover(g, cover, chi)

    @pytest.mark.parametrize("seed, chi, omega, steps", [(1, 6, 6, 31), (4, 5, 4, 62)])
    def test_search_is_bounded_by_cliques(self, monkeypatch, seed, chi, omega, steps):
        """Tries taken, counted by the deadline checks.  Seed 1: the search
        ends at its first colouring, of omega classes.  Seed 4: chi > omega,
        so every colouring of chi - 1 classes is ruled out."""
        g = random_graph(30, 0.3, seed)
        assert max_anticlique(to_complement(g)).alpha == omega
        taken = []
        check = maximal_module._check_deadline
        monkeypatch.setattr(maximal_module, "_check_deadline",
                            lambda deadline: taken.append(1) or check(deadline))
        assert chromatic_number(g)[0] == chi
        assert len(taken) == steps


def _colourable(g, k) -> bool:
    """True iff g has a proper colouring with k colours, by backtracking in
    a fixed descending-degree order; a vertex opens at most one new colour.
    Each vertex keeps a bitmask of the colours its coloured neighbours
    hold, and a try is dropped once it leaves a later vertex all k colours
    blocked (forward checking), which no k-colouring extending it can
    avoid; so a False still rules out every k-colouring."""
    order = sorted(range(1, g.v + 1), key=lambda y: (-len(g.adjacency[y]), y))
    at = {y: i for i, y in enumerate(order)}
    later = [[at[u] for u in g.adjacency[y] if at[u] > i] for i, y in enumerate(order)]
    full = (1 << k) - 1
    blocked = [0] * len(order)   # per vertex, by its index in order

    def place(i: int, opened: int) -> bool:
        if i == len(order):
            return True
        for c in range(min(opened + 1, k)):
            bit = 1 << c
            if blocked[i] & bit:
                continue
            touched = [j for j in later[i] if not blocked[j] & bit]
            for j in touched:
                blocked[j] |= bit
            if (all(blocked[j] != full for j in touched)
                    and place(i + 1, max(opened, c + 1))):
                return True
            for j in touched:
                blocked[j] ^= bit
        return False

    return place(0, 0)
