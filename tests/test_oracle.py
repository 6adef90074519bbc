import random

import pytest

from anticlique import (
    ConfigurationError,
    GuardExceeded,
    Polynomial,
    make_graph,
    oracle_matching,
    oracle_report,
)
from conftest import (
    complete_graph,
    cycle_graph,
    empty_graph,
    path_graph,
    random_bipartite,
)


class TestOracleReport:
    def test_worked_example(self, g5):
        rep = oracle_report(g5)
        assert rep.f == 11
        assert rep.spectrum == Polynomial((1, 5, 4, 1))
        assert rep.alpha == 3
        assert rep.maximum_sets == (frozenset({2, 3, 5}),)
        assert set(rep.maximal_sets) == {
            frozenset({4}), frozenset({1, 3}), frozenset({2, 3, 5})
        }
        assert rep.chi == 3

    def test_triangle(self):
        rep = oracle_report(complete_graph(3))
        assert rep.f == 4
        assert rep.alpha == 1
        assert rep.chi == 3

    def test_path_four(self):
        rep = oracle_report(path_graph(4))
        assert rep.f == 8
        assert rep.spectrum == Polynomial((1, 4, 3))

    def test_self_consistency(self):
        rng = random.Random(1)
        for _ in range(6):
            v = rng.randint(2, 12)
            g = make_graph(v, [
                (i, j)
                for i in range(1, v + 1)
                for j in range(i + 1, v + 1)
                if rng.random() < 0.4
            ])
            rep = oracle_report(g)
            assert sum(rep.spectrum.coeffs) == rep.f
            assert rep.spectrum.degree == rep.alpha
            assert all(len(X) == rep.alpha for X in rep.maximum_sets)

    def test_guard_refusal(self):
        with pytest.raises(GuardExceeded, match="size guard"):
            oracle_report(empty_graph(26))

    def test_guard_env(self, monkeypatch):
        monkeypatch.setenv("ANTICLIQUE_ORACLE_MAX_V", "3")
        with pytest.raises(GuardExceeded):
            oracle_report(empty_graph(4))

    def test_guard_env_not_an_integer(self, monkeypatch):
        monkeypatch.setenv("ANTICLIQUE_ORACLE_MAX_V", "abc")
        with pytest.raises(ConfigurationError, match="ANTICLIQUE_ORACLE_MAX_V"):
            oracle_report(empty_graph(4))
        assert oracle_report(empty_graph(4), max_v=4).alpha == 4

    def test_guard_override(self, monkeypatch):
        monkeypatch.setenv("ANTICLIQUE_ORACLE_MAX_V", "3")
        assert oracle_report(empty_graph(6), max_v=6).alpha == 6


class TestOracleMatching:
    def test_single_edge(self):
        assert oracle_matching(make_graph(2, [(1, 2)])) == 1

    def test_path_three(self):
        assert oracle_matching(path_graph(3)) == 1

    def test_six_cycle(self):
        assert oracle_matching(cycle_graph(6)) == 3

    def test_rejects_odd_cycle(self):
        with pytest.raises(ConfigurationError, match="bipartite"):
            oracle_matching(complete_graph(3))

    def test_koenig_identity(self):
        # alpha = v - matching on bipartite graphs
        for seed in range(10):
            g = random_bipartite(6, 8, (seed % 3) * 0.35 + 0.15, seed)
            rep = oracle_report(g)
            assert rep.alpha == g.v - oracle_matching(g)
