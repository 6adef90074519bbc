import dataclasses
import math
import random
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anticlique import (
    GraphFormatError,
    GuardExceeded,
    bipartition,
    make_graph,
    parse_graph,
    random_graph,
    serialize_graph,
    to_complement,
)
from anticlique import graph
from anticlique.graph import MAX_PAIRS, MAX_V
from conftest import G5_DIMACS, complete_graph, empty_graph, path_graph


class TestParse:
    def test_dimacs_worked_example(self):
        g = parse_graph(G5_DIMACS, "dimacs")
        assert g.v == 5
        assert g.w == 6
        assert g.neighbors(2) == {1, 4}
        assert g.edges == ((1, 2), (1, 4), (1, 5), (2, 4), (3, 4), (4, 5))

    def test_edgelist_no_edges(self):
        g = parse_graph("3\n", "edgelist")
        assert g.v == 3
        assert g.w == 0

    def test_dimacs_out_of_range_names_line(self):
        with pytest.raises(GraphFormatError, match="line 2"):
            parse_graph("p edge 3 1\ne 1 4\n", "dimacs")

    def test_dimacs_self_loop(self):
        with pytest.raises(GraphFormatError, match="self-loop"):
            parse_graph("p edge 3 1\ne 2 2\n", "dimacs")

    def test_dimacs_missing_header(self):
        with pytest.raises(GraphFormatError, match="problem line"):
            parse_graph("e 1 2\n", "dimacs")

    def test_dimacs_malformed_header(self):
        with pytest.raises(GraphFormatError, match="line 1"):
            parse_graph("p edge five six\n", "dimacs")

    def test_json_roundtrip_fields(self):
        g = parse_graph('{"v": 4, "edges": [[2, 1], [3, 4]]}', "json")
        assert g.edges == ((1, 2), (3, 4))

    def test_json_bad_edge(self):
        with pytest.raises(GraphFormatError, match="edge #0"):
            parse_graph('{"v": 3, "edges": [[1, 9]]}', "json")

    def test_json_invalid(self):
        with pytest.raises(GraphFormatError, match="invalid JSON"):
            parse_graph("{not json", "json")

    def test_edgelist_bad_line(self):
        with pytest.raises(GraphFormatError, match="line 2"):
            parse_graph("3\n1 2 3\n", "edgelist")

    def test_duplicate_edges_collapse(self):
        g = parse_graph("p edge 3 2\ne 1 2\ne 2 1\n", "dimacs")
        assert g.w == 1

    @pytest.mark.parametrize("text", ['{"v": 3, "edges": [[true, 3]]}',
                                      '{"v": 3, "edges": [[1, false]]}'])
    def test_json_bool_is_not_a_vertex(self, text):
        with pytest.raises(GraphFormatError, match="edge #0 must be a pair of integers"):
            parse_graph(text, "json")

    @pytest.mark.parametrize("text", ['{"v": 3}', '{"v": 3, "edges": 5}', '[3]'])
    def test_json_needs_an_edge_list(self, text):
        with pytest.raises(GraphFormatError, match="an 'edges' list"):
            parse_graph(text, "json")

    def test_json_bool_is_not_a_vertex_count(self):
        with pytest.raises(GraphFormatError, match="'v' must be a positive integer"):
            parse_graph('{"v": true, "edges": []}', "json")

    @pytest.mark.parametrize("fmt", ["dimacs", "edgelist"])
    def test_repeated_edge_lines_are_kept_once(self, fmt):
        # each line is dropped once read, so the peak does not grow with
        # the number of lines
        head, lines = {"dimacs": ("p edge 5 1\n", "e 1 2\ne 2 1\n"),
                       "edgelist": ("5\n", "1 2\n2 1\n")}[fmt]
        text = head + lines * 50_000
        tracemalloc.start()
        try:
            g = parse_graph(text, fmt)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert g.edges == ((1, 2),)
        assert peak < 5 * len(text)

    def test_lines_in_blocks_are_splitlines(self):
        rng = random.Random(3)
        text = "".join(rng.choice(["e 1 2", "c x", "", "\n", "\r\n", "\r", "\x0c"])
                       for _ in range(100_000))
        assert list(graph._lines(text)) == text.splitlines()
        assert list(graph._lines("")) == []

    @pytest.mark.parametrize("fmt", ["dimacs", "edgelist", "json"])
    def test_distinct_edge_limit(self, fmt, monkeypatch):
        monkeypatch.setattr(graph, "MAX_PAIRS", 3)
        three = make_graph(5, [(1, 2), (1, 3), (1, 4)])
        text = serialize_graph(three, fmt)
        assert parse_graph(text, fmt) == three
        four = serialize_graph(make_graph(5, [(1, 2), (1, 3), (1, 4), (1, 5)]), fmt)
        with pytest.raises(GuardExceeded, match="more than 3 distinct edges"):
            parse_graph(four, fmt)

    @pytest.mark.parametrize("fmt", ["dimacs", "edgelist", "json"])
    def test_roundtrip(self, fmt):
        rng = random.Random(7)
        for _ in range(20):
            v = rng.randint(1, 12)
            g = random_graph(v, rng.random(), rng.randint(0, 10**6))
            assert parse_graph(serialize_graph(g, fmt), fmt) == g


class TestComplement:
    def test_triangle(self):
        assert to_complement(complete_graph(3)) == empty_graph(3)

    def test_empty(self):
        assert to_complement(empty_graph(4)) == complete_graph(4)

    def test_g5_edge_count(self, g5):
        assert to_complement(g5).w == math.comb(5, 2) - 6

    @given(st.integers(1, 10), st.integers(0, 999))
    @settings(max_examples=40, deadline=None)
    def test_involution(self, v, seed):
        g = random_graph(v, 0.4, seed)
        assert to_complement(to_complement(g)) == g


class TestRandomGraph:
    def test_extremes(self):
        assert random_graph(10, 0.0, 1).w == 0
        assert random_graph(10, 1.0, 1).w == math.comb(10, 2)

    def test_determinism(self):
        a = random_graph(45, 0.08, 1234)
        b = random_graph(45, 0.08, 1234)
        assert a.edges == b.edges

    def test_seed_sensitivity(self):
        assert random_graph(30, 0.5, 1).edges != random_graph(30, 0.5, 2).edges

    def test_density_validation(self):
        with pytest.raises(ValueError):
            random_graph(5, 1.5, 0)

    def test_binomial_mean_over_seeds(self):
        pairs = math.comb(30, 2)
        counts = [random_graph(30, 0.5, seed).w for seed in range(100)]
        mean = sum(counts) / len(counts)
        sigma = math.sqrt(pairs * 0.25)
        assert abs(mean - 0.5 * pairs) <= 4 * sigma / math.sqrt(len(counts))


class TestNbrMasks:
    def test_bits_are_the_neighbours(self):
        for g in (random_graph(20, 0.3, 5), path_graph(4), empty_graph(3)):
            assert len(g.nbr_masks) == g.v + 1
            for y, mask in enumerate(g.nbr_masks):
                assert mask == g.nbr_mask(y)
                assert not mask & 1
                assert {q for q in range(mask.bit_length()) if mask >> q & 1} == g.adjacency[y]

    def test_built_once(self):
        g = random_graph(12, 0.4, 1)
        assert g.nbr_masks is g.nbr_masks

    def test_not_part_of_equality(self):
        g, h = random_graph(12, 0.4, 1), random_graph(12, 0.4, 1)
        assert len(g.nbr_masks) == 13
        assert "nbr_masks" in vars(g) and "nbr_masks" not in vars(h)
        assert g == h and hash(g) == hash(h)
        assert "nbr_masks" not in {f.name for f in dataclasses.fields(g)}


class TestSizeGuard:
    def test_make_graph_refuses_before_allocating(self):
        with pytest.raises(GuardExceeded, match="size guard"):
            make_graph(2_000_000, [(1, 2)])

    def test_random_graph_refuses(self):
        with pytest.raises(GuardExceeded, match="size guard"):
            random_graph(2_000_000, 0.1, 1)

    def test_limit(self):
        assert make_graph(MAX_V, []).v == MAX_V
        with pytest.raises(GuardExceeded):
            make_graph(MAX_V + 1, [])

    def test_random_graph_refuses_before_drawing(self):
        # 100,000 vertices pass MAX_V, but drawing their C(v,2) pairs would
        # take about 40 minutes
        start = time.perf_counter()
        with pytest.raises(GuardExceeded, match="size guard of 2000000 pairs"):
            random_graph(100_000, 0.1, 1)
        with pytest.raises(GuardExceeded):
            random_graph(2001, 0.0, 1)
        assert time.perf_counter() - start < 0.1

    def test_pair_limit(self, monkeypatch):
        assert 2000 * 1999 // 2 <= MAX_PAIRS < 2001 * 2000 // 2
        monkeypatch.setattr(graph, "MAX_PAIRS", 10)
        assert random_graph(5, 1.0, 1).w == 10
        with pytest.raises(GuardExceeded):
            random_graph(6, 0.0, 1)


class TestBipartition:
    def test_path(self):
        assert bipartition(path_graph(3)) == (frozenset({2}), frozenset({1, 3}))

    def test_odd_cycle(self):
        assert bipartition(complete_graph(3)) is None

    def test_isolated_vertices_go_to_class_b(self):
        assert bipartition(empty_graph(4)) == (frozenset(), frozenset({1, 2, 3, 4}))

    def test_single_edge_tie_breaks_toward_class_a(self):
        a, b = bipartition(make_graph(2, [(1, 2)]))
        assert a == {1} and b == {2}

    def test_complete_bipartite(self):
        g = make_graph(5, [(i, j) for i in (1, 2) for j in (3, 4, 5)])
        assert bipartition(g) == (frozenset({1, 2}), frozenset({3, 4, 5}))

    @given(st.integers(1, 12), st.integers(0, 999))
    @settings(max_examples=60, deadline=None)
    def test_proper_coloring_when_present(self, v, seed):
        g = random_graph(v, 0.25, seed)
        parts = bipartition(g)
        if parts is None:
            return
        a, b = parts
        assert len(a) <= len(b)
        assert a | b == frozenset(range(1, v + 1))
        assert a.isdisjoint(b)
        for i, j in g.edges:
            assert (i in a) != (j in a)
