import contextlib
import dataclasses
import functools
import hashlib
import json
import random
import re
import sys
import time

import pytest

from anticlique import (
    SearchOptions,
    bipartite_options,
    cover_degree_order,
    degree_order,
    independence_polynomial,
    max_anticlique,
    maximum_sets,
    random_graph,
    row_from_debug,
    rows_polynomial,
    run_standard,
    serialize_graph,
    threshold_search,
    to_complement,
)
from anticlique import cli, graph
from anticlique.cli import _build_parser, main
from anticlique.maximal import maximal_family
from anticlique.search import _Ranks
from conftest import G5_DIMACS, all_anticliques, random_bipartite


@pytest.fixture
def g5_file(tmp_path):
    path = tmp_path / "g5.col"
    path.write_text(G5_DIMACS)
    return path


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCount:
    def test_text(self, capsys, g5_file):
        code, out, _ = run_cli(capsys, "count", "--graph", str(g5_file))
        assert code == 0
        assert out.strip() == "11"

    def test_json(self, capsys, g5_file):
        code, out, _ = run_cli(capsys, "count", "--graph", str(g5_file), "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["f"] == 11
        assert payload["command"] == "count"
        assert payload["stats"]["deleted"] == 0
        assert payload["graph"]["v"] == 5

    def test_explicit_format(self, capsys, tmp_path):
        path = tmp_path / "graph.txt"
        path.write_text("3\n1 2\n")
        code, out, _ = run_cli(capsys, "count", "--graph", str(path),
                               "--format", "edgelist")
        assert code == 0
        assert out.strip() == "6"


class TestPoly:
    def test_json(self, capsys, g5_file):
        code, out, _ = run_cli(capsys, "poly", "--graph", str(g5_file), "--json")
        payload = json.loads(out)
        assert payload["coefficients"] == [1, 5, 4, 1]
        assert payload["degree"] == 3
        assert payload["f"] == 11

    def test_text(self, capsys, g5_file):
        _, out, _ = run_cli(capsys, "poly", "--graph", str(g5_file))
        assert out.strip() == "1 5 4 1"

    def test_matches_the_library(self, capsys):
        code, out, _ = run_cli(capsys, "poly", "--gen", "40,0.25,3", "--json",
                               "--rule", "paper")
        assert code == 0
        payload = json.loads(out)
        g = random_graph(40, 0.25, 3)
        rows, stats = run_standard(g)
        poly = rows_polynomial(rows)
        assert payload["coefficients"] == list(poly.coeffs)
        assert payload["stats"] == stats.as_dict()
        assert poly == independence_polynomial(g)

    def test_default_rule_matches_the_library(self, capsys):
        code, out, _ = run_cli(capsys, "poly", "--gen", "40,0.25,3", "--json")
        assert code == 0
        payload = json.loads(out)
        g = random_graph(40, 0.25, 3)
        rows, stats = run_standard(g, cover_degree_order(g), rule="own-premise")
        poly = rows_polynomial(rows)
        assert payload["coefficients"] == list(poly.coeffs)
        assert payload["stats"] == stats.as_dict()
        assert poly == independence_polynomial(g)
        paper_rows, paper_stats = run_standard(g)
        assert rows_polynomial(paper_rows) == poly
        assert stats.finalized < paper_stats.finalized


class TestRuleAndTimeout:
    @pytest.mark.parametrize("command", ["count", "poly"])
    def test_rules_agree(self, capsys, command):
        outs = []
        for rule in ("paper", "own-premise"):
            code, out, _ = run_cli(capsys, command, "--gen", "30,0.2,5", "--json",
                                   "--rule", rule)
            assert code == 0
            payload = json.loads(out)
            outs.append((payload.pop("stats"), payload.pop("wall_ms"), payload))
        (paper_stats, _, paper), (own_stats, _, own) = outs
        assert paper == own
        assert own_stats["finalized"] < paper_stats["finalized"]

    def test_timeout_exits_4_quickly(self, capsys):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "count", "--rule", "paper",
                                 "--gen", "60,0.1,3", "--timeout", "0.05")
        assert code == 4
        assert time.perf_counter() - start < 1.0
        assert out == ""
        assert err.startswith("timeout: ") and err.count("\n") == 1

    def test_timeout_covers_parsing(self, capsys, tmp_path, monkeypatch):
        # a million repeated edge lines take over a second to parse; the
        # budget stops the parse after a few of its 64 KB blocks
        lines = 1_000_000
        path = tmp_path / "repeated.col"
        path.write_text("p edge 2 1\n" + "e 1 2\n" * lines)
        read = {"edges": 0}
        add_edge = graph._add_edge

        def counting(*args):
            read["edges"] += 1
            return add_edge(*args)

        monkeypatch.setattr(graph, "_add_edge", counting)
        code, out, err = run_cli(capsys, "count", "--graph", str(path), "--timeout", "0.05")
        assert code == 4
        assert out == ""
        assert err.startswith("timeout: ") and err.count("\n") == 1
        assert read["edges"] < lines // 2

    @pytest.mark.parametrize("rule", ["paper", "own-premise"])
    def test_poly_timeout(self, capsys, rule):
        code, _, err = run_cli(capsys, "poly", "--rule", rule,
                               "--gen", "70,0.08,1", "--timeout", "0.02")
        assert code == 4
        assert err.startswith("timeout: ")

    def test_generous_timeout_changes_nothing(self, capsys, g5_file):
        code, out, _ = run_cli(capsys, "count", "--graph", str(g5_file), "--timeout", "60")
        assert (code, out.strip()) == (0, "11")

    @pytest.mark.parametrize("value", ["0", "-1", "soon", "nan"])
    def test_bad_timeout_is_usage_error(self, capsys, value):
        with pytest.raises(SystemExit) as exc:
            main(["count", "--gen", "5,0.5,1", "--timeout", value])
        assert exc.value.code == 2
        capsys.readouterr()


class TestParserReuse:
    """main builds its parser once per process; no call may leak into the next."""

    def test_built_once(self):
        assert _build_parser() is _build_parser()

    def test_rule_does_not_stick(self, capsys):
        g = random_graph(30, 0.2, 5)
        rows, own = run_standard(g, cover_degree_order(g), rule="own-premise")
        list(rows)
        code, out, _ = run_cli(capsys, "count", "--gen", "30,0.2,5", "--json", "--rule", "paper")
        assert code == 0
        assert json.loads(out)["stats"] != own.as_dict()
        code, out, _ = run_cli(capsys, "count", "--gen", "30,0.2,5", "--json")
        assert code == 0
        assert json.loads(out)["stats"] == own.as_dict()

    def test_usage_error_then_good_call(self, capsys, g5_file):
        with pytest.raises(SystemExit) as exc:
            main(["count", "--graph", str(g5_file), "--rule", "greedy"])
        assert exc.value.code == 2
        capsys.readouterr()
        code, out, _ = run_cli(capsys, "count", "--graph", str(g5_file))
        assert (code, out.strip()) == (0, "11")


# sha256 of each command's --json record without wall_ms, stats and sieve
# (keys sorted), as the paper's run in vertex order printed it before these
# commands moved to the own-premise rule in degree order; chromatic's is the
# DSatur colouring's (chi = 5, as the cover search found)
PARENT_ANSWERS = {
    "enum --gen 20,0.2,1 --min-size 3":
        "fe190a21e366ca306254d56c6105717a199b8bf5b6292cf2bc0febfeca1da256",
    "threshold --gen 30,0.25,1 --k 6":
        "dc855366ff71d4058f0c2c82b27c05c5d281c36ccecde1db41c78849eec8503d",
    "maximal --gen 24,0.3,1":
        "3341dcf1473479591a7a9468604824c256aa2cd03e6aba91999bd5c8e34cd44f",
    "chromatic --gen 14,0.5,1":
        "0ca05742dec8aa8e8998558032d63ccc3f97030fe09cdb1f0a62e1b5b3ad2988",
}


def _record(capsys, argv: str) -> dict:
    code, out, _ = run_cli(capsys, *argv.split(), "--json")
    assert code == 0
    record = json.loads(out)
    del record["wall_ms"]
    return record


class TestListingRun:
    """enum and threshold run the own-premise rule in ``cover_degree_order``,
    maximal its own search and chromatic DSatur; their answers are the
    paper's run's."""

    @pytest.mark.parametrize("argv", sorted(PARENT_ANSWERS))
    def test_answers_are_unchanged(self, capsys, argv):
        record = _record(capsys, argv)
        del record["stats"]
        record.pop("sieve", None)
        digest = hashlib.sha256(json.dumps(record, sort_keys=True).encode()).hexdigest()
        assert digest == PARENT_ANSWERS[argv]

    @pytest.mark.parametrize("argv, stats", [
        ("enum --gen 20,0.2,1 --min-size 3", (34, 64, 4, 35, 0)),
        ("threshold --gen 30,0.25,1 --k 6", (325, 481, 6, 272, 54)),
        ("maximal --gen 24,0.3,1", (340, 0, 8, 150, 0)),   # the search's counters
        ("chromatic --gen 14,0.5,1", (5, 20, 4, 2, 4)),   # the clique number's search
    ])
    def test_counters(self, capsys, argv, stats):
        fields = ("rsp", "trivial_changes", "peak_stack", "finalized", "deleted")
        assert _record(capsys, argv)["stats"] == dict(zip(fields, stats))

    @pytest.mark.parametrize("command, stats", [
        ("enum", (37, 193, 4, 38, 0)),
        ("threshold", (893, 3007, 7, 673, 221)),
        ("maximal", (91, 454, 4, 92, 0)),
        ("chromatic", (11, 71, 3, 12, 0)),
    ])
    def test_degree_order_counters(self, command, stats):
        """The own-premise runs in the full ``degree_order`` on test_counters'
        graphs; enum and threshold imposed it before ``cover_degree_order``."""
        if command == "threshold":
            g = random_graph(30, 0.25, 1)
            _rows, got = threshold_search(g, 6, "all", order=degree_order(g))
        else:
            g = random_graph(*{"enum": (20, 0.2, 1), "maximal": (24, 0.3, 1),
                               "chromatic": (14, 0.5, 1)}[command])
            rows, got = run_standard(g, degree_order(g), rule="own-premise")
            list(rows)
        assert tuple(got.as_dict().values()) == stats

    def test_enum_and_threshold_run_the_library(self, capsys):
        g = random_graph(30, 0.25, 1)
        rows, stats = run_standard(g, cover_degree_order(g), rule="own-premise")
        rows = list(rows)
        enum = _record(capsys, "enum --gen 30,0.25,1 --min-size 7")
        assert enum["stats"] == stats.as_dict()
        assert enum["anticliques"] == sorted(sorted(X) for row in rows for X in row.expand(7))
        _rows, stats = threshold_search(g, 6, "all", order=cover_degree_order(g))
        threshold = _record(capsys, "threshold --gen 30,0.25,1 --k 6")
        assert threshold["stats"] == stats.as_dict()
        assert threshold["anticliques"] == enum["anticliques"]

    def test_first_hit_exceeds_k(self, capsys):
        g = random_graph(30, 0.25, 1)
        found = set(_record(capsys, "threshold --gen 30,0.25,1 --k 7 --first")["found"])
        assert len(found) > 7
        assert not any(g.adjacency[y] & found for y in found)


def _matching_file(tmp_path):
    """A perfect matching on 40 vertices, edges (1,2), (3,4), ..."""
    path = tmp_path / "matching.col"
    path.write_text("p edge 40 20\n" + "".join(f"e {2 * i + 1} {2 * i + 2}\n"
                                                for i in range(20)))
    return path


def _mycielski_file(tmp_path):
    """The Mycielski graph M6: 47 vertices, triangle-free, chromatic number
    6 (Mycielski, 1955).  Its clique number is 2, so the colouring search
    cannot stop early."""
    v, edges = 2, [(1, 2)]
    for _ in range(4):
        # a copy u + v of each vertex u, joined to u's neighbours, and an apex
        edges = (edges + [(i, j + v) for i, j in edges] + [(j, i + v) for i, j in edges]
                 + [(u + v, 2 * v + 1) for u in range(1, v + 1)])
        v = 2 * v + 1
    path = tmp_path / "mycielski.col"
    path.write_text(f"p edge {v} {len(edges)}\n"
                    + "".join(f"e {i} {j}\n" for i, j in edges))
    return path


class TestListingTimeout:
    """Each command gives up on its budget with exit code 4."""

    @pytest.mark.parametrize("argv", [
        "enum --gen 60,0.1,3 --min-size 40",          # 5 s run, nothing listed
        # a perfect matching: one row with 20 groups and 3**20 members
        "enum --graph MATCHING",
        "enum --graph MATCHING --min-size 20",        # 2**20 members
        "threshold --graph MATCHING --k 1",
        # imposing the odd vertices only: one row whose 2**20 maximum sets
        # are listed by the second phase
        "alpha --graph MATCHING --bipartite --all",
        "alpha --graph MATCHING --bipartite --all --weights WEIGHTS",   # all 3**20 members
        "threshold --gen 150,0.03,1 --k 64",          # past 60 s
        "threshold --gen 150,0.03,1 --k 65 --first",  # about 2.6 s
        "maximal --gen 60,0.1,3",
        "alpha --gen 150,0.03,1",                     # about 5 s
        "chromatic --graph MYCIELSKI",                # DSatur runs about 20 s
    ])
    def test_exits_4_quickly(self, capsys, tmp_path, argv):
        argv = argv.replace("MATCHING", str(_matching_file(tmp_path)))
        if "MYCIELSKI" in argv:
            argv = argv.replace("MYCIELSKI", str(_mycielski_file(tmp_path)))
        if "WEIGHTS" in argv:
            weights = tmp_path / "weights.txt"
            weights.write_text("1 2\n")
            argv = argv.replace("WEIGHTS", str(weights))
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *argv.split(), "--timeout", "0.2")
        assert code == 4
        assert time.perf_counter() - start < 2.0
        assert out == ""
        assert err.startswith("timeout: ") and err.count("\n") == 1

    @pytest.mark.parametrize("name, argv", [
        ("random_graph", "count --gen 5,0.5,1"),      # the load
        ("maximal_family", "maximal --gen 8,0.3,1"),  # what follows the solve
        ("json.dumps", "enum --gen 5,0.5,1 --json"),  # building the record
    ])
    def test_budget_covers_the_load_and_the_end(self, capsys, monkeypatch, name, argv):
        # the budget starts before the graph is loaded and is checked once
        # more after the solve and after the --json record is built
        original = functools.reduce(getattr, name.split("."), cli)

        def slow(*args, **kwargs):
            result = original(*args, **kwargs)
            time.sleep(0.3)
            return result

        monkeypatch.setattr(f"anticlique.cli.{name}", slow)
        code, out, err = run_cli(capsys, *argv.split(), "--timeout", "0.1")
        assert code == 4
        assert out == ""
        assert err.startswith("timeout: ") and err.count("\n") == 1

    def test_alpha_all_shares_the_budget(self, capsys, tmp_path):
        # alpha = 20 comes at once, and the 2**20 maximum sets make the
        # second phase the long one
        start = time.perf_counter()
        code, _, err = run_cli(capsys, "alpha", "--graph", str(_matching_file(tmp_path)),
                               "--all", "--timeout", "0.2")
        assert code == 4
        assert time.perf_counter() - start < 2.0
        assert err.startswith("timeout: ")

    @pytest.mark.parametrize("command", ["enum", "threshold --k 1", "maximal", "chromatic",
                                         "alpha --all"])
    def test_generous_timeout_changes_nothing(self, capsys, g5_file, command):
        argv = f"{command} --graph {g5_file}"
        plain, budgeted = _record(capsys, argv), _record(capsys, argv + " --timeout 60")
        assert plain == budgeted


@contextlib.contextmanager
def _all_digits():
    """No limit on int <-> str conversion inside the block."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="this Python has no limit on int <-> str conversion")
class TestBigAnswers:
    def test_count_beyond_4300_digits(self, capsys, tmp_path):
        path = tmp_path / "wide.col"
        path.write_text("p edge 15000 1\ne 1 2\n")
        limit = sys.get_int_max_str_digits()
        code, out, _ = run_cli(capsys, "count", "--graph", str(path))
        assert code == 0
        code, out_json, _ = run_cli(capsys, "count", "--graph", str(path), "--json")
        assert code == 0
        # main lifts the limit only while it prints
        assert sys.get_int_max_str_digits() == limit
        with _all_digits():
            assert out.strip() == str(3 * 2**14998)
            assert json.loads(out_json)["f"] == 3 * 2**14998

    def test_weighted_alpha_beyond_4300_digits(self, capsys, tmp_path):
        # 20 isolated vertices of 4,299-digit weights: alpha has 4,301 digits
        graph, weights = tmp_path / "isolated.txt", tmp_path / "weights.txt"
        graph.write_text("20\n")
        weights.write_text("".join(f"{y} {'9' * 4299}\n" for y in range(1, 21)))
        argv = ["alpha", "--graph", str(graph), "--format", "edgelist", "--weights", str(weights)]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        code, out_json, _ = run_cli(capsys, *argv, "--json")
        assert code == 0
        with _all_digits():
            alpha = 20 * (10**4299 - 1)
            assert out.splitlines()[0] == f"alpha = {alpha}"
            assert json.loads(out_json)["alpha"] == alpha

    def test_overlong_header_number_is_input_error(self, capsys, tmp_path):
        # input is parsed under the limit, so a vertex count of more digits
        # than it allows is refused before anything is allocated
        path = tmp_path / "huge.col"
        path.write_text(f"p edge 1{'0' * sys.get_int_max_str_digits()} 1\ne 1 2\n")
        code, out, err = run_cli(capsys, "count", "--graph", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")

    def test_hostile_header_is_refused(self, capsys, tmp_path):
        # 2,000,000 vertices took 10.9 s of allocation before the size guard
        path = tmp_path / "hostile.col"
        path.write_text("p edge 2000000 1\ne 1 2\n")
        code, out, err = run_cli(capsys, "count", "--graph", str(path), "--timeout", "1")
        assert code == 3
        assert out == ""
        assert err.startswith("refused: ") and "size guard" in err

    def test_too_many_edges_are_refused(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(graph, "MAX_PAIRS", 3)
        path = tmp_path / "many.col"
        path.write_text("p edge 5 4\ne 1 2\ne 1 3\ne 1 4\ne 1 5\n")
        code, out, err = run_cli(capsys, "count", "--graph", str(path))
        assert code == 3
        assert out == ""
        assert err.startswith("refused: ") and "3 distinct edges" in err

    def test_oversized_gen_is_refused_at_once(self, capsys):
        # --gen 100000,... passes the vertex guard but would draw for hours
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "count", "--gen", "100000,0.5,1")
        assert time.perf_counter() - start < 1.0
        assert code == 3
        assert out == ""
        assert err.startswith("refused: ") and "pairs" in err


class TestEnum:
    def test_min_size(self, capsys, g5_file):
        code, out, _ = run_cli(capsys, "enum", "--graph", str(g5_file),
                               "--min-size", "3")
        assert code == 0
        assert out.strip() == "{2,3,5}"

    def test_all_eleven(self, capsys, g5_file):
        _, out, _ = run_cli(capsys, "enum", "--graph", str(g5_file), "--json")
        payload = json.loads(out)
        assert payload["count"] == 11
        assert [] in payload["anticliques"]


class TestAlpha:
    def test_json_payload(self, capsys, g5_file):
        code, out, _ = run_cli(capsys, "alpha", "--graph", str(g5_file),
                               "--format", "dimacs", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["alpha"] == 3
        assert payload["witness"] == [2, 3, 5]

    def test_all_and_core(self, capsys, g5_file):
        _, out, _ = run_cli(capsys, "alpha", "--graph", str(g5_file),
                            "--all", "--core", "--json")
        payload = json.loads(out)
        assert payload["maximum_sets"] == [[2, 3, 5]]
        assert payload["core"] == [2, 3, 5]

    def test_weights(self, capsys, g5_file, tmp_path):
        wfile = tmp_path / "weights.txt"
        wfile.write_text("4 10\n")
        _, out, _ = run_cli(capsys, "alpha", "--graph", str(g5_file),
                            "--weights", str(wfile), "--json")
        payload = json.loads(out)
        assert payload["alpha"] == 10
        assert payload["witness"] == [4]

    def test_weights_with_all_and_core(self, capsys, tmp_path):
        path = tmp_path / "path3.col"
        path.write_text("p edge 3 2\ne 1 2\ne 2 3\n")
        wfile = tmp_path / "weights.txt"
        wfile.write_text("2 10\n")
        _, out, _ = run_cli(capsys, "alpha", "--graph", str(path), "--weights",
                            str(wfile), "--all", "--core", "--json")
        payload = json.loads(out)
        assert payload["alpha"] == 10
        assert payload["maximum_sets"] == [[2]]
        assert payload["core"] == [2]

    def test_weights_with_bipartite(self, capsys, tmp_path):
        # both flags hold: the result is the brute-force weighted optimum, and
        # the counters are those of the cover order seeded with the larger class
        rng = random.Random(8)
        for seed in range(6):
            g = random_bipartite(4, 7, 0.4, seed)
            weights = {y: rng.randint(1, 9) for y in range(1, g.v + 1)}
            path, wfile = tmp_path / "bip.col", tmp_path / "bip.w"
            path.write_text(serialize_graph(g, "dimacs"))
            wfile.write_text("".join(f"{y} {w}\n" for y, w in weights.items()))
            _, out, _ = run_cli(capsys, "alpha", "--graph", str(path), "--weights", str(wfile),
                                "--bipartite", "--all", "--core", "--json")
            payload = json.loads(out)
            value = {X: sum(weights[p] for p in X) for X in all_anticliques(g)}
            best = max(value.values())
            assert payload["alpha"] == best
            assert value[frozenset(payload["witness"])] == best
            assert payload["maximum_sets"] == sorted(
                sorted(X) for X, w in value.items() if w == best)
            opts = dataclasses.replace(bipartite_options(g), weights=weights)
            res = max_anticlique(g, opts)
            assert payload["stats"] == (res.stats + maximum_sets(g, res, opts)[1]).as_dict()

    def test_all_and_core_count_both_runs(self, capsys):
        _, out, _ = run_cli(capsys, "alpha", "--gen", "30,0.2,5", "--all", "--core", "--json")
        g = random_graph(30, 0.2, 5)
        # both phases run the own-premise rule in cover_degree_order
        opts = SearchOptions(order=cover_degree_order(g))
        res = max_anticlique(g, opts)
        _rows, phase2 = threshold_search(g, res.alpha - 1, "all", order=opts.order)
        assert json.loads(out)["stats"] == (res.stats + phase2).as_dict()

    def test_bipartite_on_nonbipartite_is_usage_error(self, capsys, g5_file):
        code, _, err = run_cli(capsys, "alpha", "--graph", str(g5_file),
                               "--bipartite")
        assert code == 2
        assert "bipartite" in err

    def test_bipartite_mode(self, capsys, tmp_path):
        path = tmp_path / "path3.col"
        path.write_text("p edge 3 2\ne 1 2\ne 2 3\n")
        _, out, _ = run_cli(capsys, "alpha", "--graph", str(path),
                            "--bipartite", "--json")
        payload = json.loads(out)
        assert payload["alpha"] == 2
        assert payload["witness"] == [1, 3]


class TestThreshold:
    def test_first_none_exits_zero(self, capsys, g5_file):
        code, out, _ = run_cli(capsys, "threshold", "--k", "3", "--first",
                               "--graph", str(g5_file))
        assert code == 0
        assert out.strip() == "none"

    def test_first_hit(self, capsys, g5_file):
        _, out, _ = run_cli(capsys, "threshold", "--k", "2", "--first",
                            "--graph", str(g5_file), "--json")
        assert json.loads(out)["found"] == [2, 3, 5]

    def test_all_mode(self, capsys, g5_file):
        _, out, _ = run_cli(capsys, "threshold", "--k", "1",
                            "--graph", str(g5_file), "--json")
        payload = json.loads(out)
        assert [2, 3, 5] in payload["anticliques"]
        assert payload["count"] == 5


class TestMaximalChromaticOracle:
    def test_maximal(self, capsys, g5_file):
        _, out, _ = run_cli(capsys, "maximal", "--graph", str(g5_file), "--json")
        payload = json.loads(out)
        assert payload["maximal"] == [[1, 3], [2, 3, 5], [4]]
        # the search's three leaves are the three sets (test_maximal.py)
        assert payload["sieve"] == {"candidates": 3, "dominated": 0, "removed": 0}

    def test_maximal_pinned_payload(self, capsys):
        # the sets of the contain-index sieve on the paper's rows, whose
        # counters, 11111 candidates and 9450 dominated, are pinned in
        # test_maximal.py
        _, out, _ = run_cli(capsys, "maximal", "--gen", "40,0.3,3", "--json")
        payload = json.loads(out)
        assert payload["count"] == len(payload["maximal"]) == 1661
        digest = hashlib.sha256(json.dumps(payload["maximal"]).encode()).hexdigest()
        assert digest == "9c50c3941bf1f1a256018e479cb3662884dbd52f19a58ae6102e2135c1e0a3c4"
        assert payload["maximal"][0] == [1, 3, 5, 6, 9, 22]
        # the search's leaves: 65 of them have an excluded vertex
        assert payload["sieve"] == {"candidates": 1726, "dominated": 65, "removed": 0}
        assert payload["stats"] == {"rsp": 3996, "trivial_changes": 0, "peak_stack": 16,
                                    "finalized": 1661, "deleted": 0}
        fam = maximal_family(random_graph(40, 0.3, 3))
        assert [sorted(X) for X in fam.sets] == payload["maximal"]

    def test_chromatic(self, capsys, g5, g5_file):
        _, out, _ = run_cli(capsys, "chromatic", "--graph", str(g5_file), "--json")
        payload = json.loads(out)
        assert payload["chi"] == 3
        assert len(payload["cover"]) == 3
        # the stats are those of the clique number's search
        assert payload["stats"] == max_anticlique(to_complement(g5)).stats.as_dict()

    def test_oracle(self, capsys, g5_file):
        _, out, _ = run_cli(capsys, "oracle", "--graph", str(g5_file), "--json")
        payload = json.loads(out)
        assert payload["f"] == 11
        assert payload["spectrum"] == [1, 5, 4, 1]
        assert payload["chi"] == 3

    def test_oracle_guard_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "oracle", "--gen", "30,0.5,1")
        assert code == 3
        assert "size guard" in err

    def test_oracle_guard_not_an_integer_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv("ANTICLIQUE_ORACLE_MAX_V", "abc")
        code, _, err = run_cli(capsys, "oracle", "--gen", "8,0.3,1")
        assert code == 2
        assert "ANTICLIQUE_ORACLE_MAX_V" in err


class TestGen:
    def test_deterministic(self, capsys):
        _, out1, _ = run_cli(capsys, "gen", "--v", "12", "--d", "0.3", "--seed", "9")
        _, out2, _ = run_cli(capsys, "gen", "--v", "12", "--d", "0.3", "--seed", "9")
        assert out1 == out2
        payload = json.loads(out1)
        assert payload["v"] == 12

    def test_to_file_and_back(self, capsys, tmp_path):
        target = tmp_path / "g.json"
        code, _, _ = run_cli(capsys, "gen", "--v", "8", "--d", "0.4", "--seed", "3",
                             "--out", str(target))
        assert code == 0
        code, out, _ = run_cli(capsys, "count", "--graph", str(target))
        assert code == 0
        assert out.strip().isdigit()

    def test_dimacs_format(self, capsys):
        _, out, _ = run_cli(capsys, "gen", "--v", "4", "--d", "1.0", "--seed", "0",
                            "--format", "dimacs")
        assert out.startswith("p edge 4 6")


class TestInlineGen:
    def test_gen_inline(self, capsys):
        code, out, _ = run_cli(capsys, "count", "--gen", "6,0,1")
        assert code == 0
        assert out.strip() == "64"

    def test_bad_gen_spec(self, capsys):
        code, _, err = run_cli(capsys, "count", "--gen", "6;0;1")
        assert code == 2
        assert "V,D,SEED" in err

    def test_missing_input(self, capsys):
        code, _, err = run_cli(capsys, "count")
        assert code == 2
        assert "no input graph" in err

    def test_unreadable_file(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "count", "--graph",
                               str(tmp_path / "missing.col"))
        assert code == 2


class TestJsonRoundTrip:
    def test_rerun_is_identical(self, capsys):
        _, out1, _ = run_cli(capsys, "alpha", "--gen", "14,0.4,5", "--json")
        _, out2, _ = run_cli(capsys, "alpha", "--gen", "14,0.4,5", "--json")
        a, b = json.loads(out1), json.loads(out2)
        a.pop("wall_ms"), b.pop("wall_ms")
        assert a == b


class TestTrace:
    @pytest.mark.parametrize("command", ["maximal", "chromatic", "oracle"])
    def test_commands_without_a_run_to_print_refuse_trace(self, capsys, g5_file, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--graph", str(g5_file), "--trace"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --trace" in capsys.readouterr().err

    def test_g5_final_output_stack(self, capsys, g5_file):
        code, out, _ = run_cli(capsys, "count", "--graph", str(g5_file), "--trace",
                               "--rule", "paper")
        assert code == 0
        tail = out[out.index("final output stack"):]
        counts = sorted(int(m) for m in re.findall(r"N=(\d+)", tail))
        assert counts == [1, 1, 2, 3, 4]

    def test_g5_default_rule_imposes_by_descending_degree(self, capsys, g5_file):
        code, out, _ = run_cli(capsys, "count", "--graph", str(g5_file), "--trace")
        assert code == 0
        # on the full row every neighbour is live: vertex 4 has the most (4),
        # so it is imposed first
        assert out.splitlines()[0] == "impose 4: mutated"
        tail = out[out.index("final output stack"):]
        assert tail.splitlines()[1:] == [
            "  (0,b1,b1,a1,b1) N=9",
            "  (1,0,2,0,0) N=2",
            "11",
        ]

    def test_count_trace_shows_pending_sets_within_the_cover(self, capsys):
        # count chooses each row's next vertex: a row shows the set of its
        # pending vertices that are not 0, ascending
        g = random_graph(24, 0.2, 3)
        code, out, _ = run_cli(capsys, "count", "--gen", "24,0.2,3", "--trace")
        assert code == 0
        cover = set(cover_degree_order(g).order)
        imposed = {int(t) for t in re.findall(r"^impose (\d+):", out, re.M)}
        assert imposed and imposed <= cover
        shown = re.findall(r" PA=(\S*)$", out, re.M)
        assert shown and all(re.fullmatch(r"\{(\d+(,\d+)*)?\}", text) for text in shown)
        for text in shown:
            pending = [int(t) for t in text[1:-1].split(",") if t]
            assert pending == sorted(pending) and set(pending) <= cover

    def test_trace_grows_with_the_run_not_its_square(self, capsys):
        # an impose event prints the working stack only; the finalized rows
        # are printed once each as they come and once in the final stack
        code, out, _ = run_cli(capsys, "count", "--trace", "--gen", "40,0.1,1")
        assert code == 0
        assert len(out.encode()) < 5_000_000
        lines = out.splitlines()
        tail = lines[lines.index("final output stack (top first):") + 1:-1]
        assert len(tail) == sum(line.startswith("finalize ") for line in lines)
        _, plain, _ = run_cli(capsys, "count", "--gen", "40,0.1,1")
        assert lines[-1] == plain.strip()

    def test_paper_rule_prints_no_relabelling(self, capsys, g5_file):
        code, out, _ = run_cli(capsys, "poly", "--graph", str(g5_file), "--trace",
                               "--rule", "paper")
        assert code == 0
        assert "relabel" not in out
        assert out.startswith("impose 1: ")

    def test_alpha_shows_stacks_and_improvements(self, capsys, g5_file):
        code, out, _ = run_cli(capsys, "alpha", "--graph", str(g5_file), "--trace")
        assert code == 0
        assert "working stack (top first):" in out
        assert "improve currentmax=3" in out

    @pytest.mark.parametrize("argv", ["alpha --gen 14,0.3,2", "threshold --gen 14,0.3,2 --k 3"])
    def test_searches_trace_in_the_graph_labels(self, capsys, argv):
        g = random_graph(14, 0.3, 2)
        # the searches run on g relabelled by ascending degree, not the identity
        assert _Ranks(g).label != list(range(g.v + 1))
        code, out, _ = run_cli(capsys, *argv.split(), "--trace")
        assert code == 0
        # both impose within cover_degree_order, each row choosing from its
        # branch set, and show each row's pending vertices that are not 0
        order = cover_degree_order(g).order
        imposed = [int(t) for t in re.findall(r"^impose (\d+):", out, re.M)]
        assert imposed[0] in order and set(imposed) <= set(order)
        shown = re.findall(r" PA=\{([\d,]*)\}$", out, re.M)
        assert shown and {int(t) for text in shown for t in text.split(",") if t} <= set(order)

        def anticlique(X):
            return not any(g.adjacency[y] & X for y in X)

        finalized = re.findall(r"^finalize (\(\S+\))", out, re.M)
        assert finalized
        for text in finalized:
            assert all(map(anticlique, row_from_debug(text).expand()))
        for text in re.findall(r"^improve currentmax=\d+ via (\(\S+\))", out, re.M):
            assert anticlique(row_from_debug(text).max_member())
