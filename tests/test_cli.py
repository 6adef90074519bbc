import dataclasses
import hashlib
import json
import random
import re
import time

import pytest

from anticlique import (
    bipartite_options,
    degree_ordered_run,
    independence_polynomial,
    max_anticlique,
    maximum_sets,
    random_graph,
    rows_polynomial,
    run_standard,
    serialize_graph,
    threshold_search,
)
from anticlique.cli import main
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
        rows, stats, _old = degree_ordered_run(g)
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
        res = max_anticlique(g)
        _rows, phase2 = threshold_search(g, res.alpha - 1, "all")
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
        assert payload["sieve"]["candidates"] == 6

    def test_maximal_pinned_payload(self, capsys):
        # values of the contain-index sieve that maximal_family used to run
        _, out, _ = run_cli(capsys, "maximal", "--gen", "40,0.3,3", "--json")
        payload = json.loads(out)
        assert payload["count"] == len(payload["maximal"]) == 1661
        assert payload["sieve"] == {"candidates": 11111, "dominated": 9450, "removed": 0}
        digest = hashlib.sha256(json.dumps(payload["maximal"]).encode()).hexdigest()
        assert digest == "9c50c3941bf1f1a256018e479cb3662884dbd52f19a58ae6102e2135c1e0a3c4"
        assert payload["maximal"][0] == [1, 3, 5, 6, 9, 22]

    def test_chromatic(self, capsys, g5_file):
        _, out, _ = run_cli(capsys, "chromatic", "--graph", str(g5_file), "--json")
        payload = json.loads(out)
        assert payload["chi"] == 3
        assert len(payload["cover"]) == 3

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
    def test_g5_final_output_stack(self, capsys, g5_file):
        code, out, _ = run_cli(capsys, "count", "--graph", str(g5_file), "--trace",
                               "--rule", "paper")
        assert code == 0
        tail = out[out.index("final output stack"):]
        counts = sorted(int(m) for m in re.findall(r"N=(\d+)", tail))
        assert counts == [1, 1, 2, 3, 4]

    def test_g5_default_rule_prints_the_relabelling_first(self, capsys, g5_file):
        code, out, _ = run_cli(capsys, "count", "--graph", str(g5_file), "--trace")
        assert code == 0
        lines = out.splitlines()
        # new label = input label, by descending degree (4 has degree 4, 1 has 3)
        assert lines[0] == "relabel 1=4 2=1 3=2 4=5 5=3"
        tail = out[out.index("final output stack"):]
        assert tail.splitlines()[1:] == [
            "  (a1,0,b1,b1,b1) N=9",
            "  (0,1,0,0,2) N=2",
            "11",
        ]

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


class TestBench:
    def test_cells_with_oracle_crosscheck(self, capsys, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "cells": [
                {"v": 12, "d": 0.5, "seeds": [1, 2, 3], "method": "currentmax"},
                {"v": 12, "d": 0.5, "seeds": [1, 2, 3], "method": "oracle"},
                {"v": 12, "d": 0.5, "seeds": [1, 2, 3], "method": "threshold"},
            ]
        }))
        code, out, _ = run_cli(capsys, "bench", "--spec", str(spec), "--json")
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        assert len(records) == 9
        by_method = {}
        for rec in records:
            assert rec["status"] == "ok"
            by_method.setdefault(rec["method"], []).append(rec["alpha"])
        assert by_method["currentmax"] == by_method["oracle"] == by_method["threshold"]

    def test_timeout_recorded(self, capsys, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps([
            {"v": 90, "d": 0.1, "seed": 1, "method": "currentmax",
             "timeout_s": 0.001},
        ]))
        code, out, _ = run_cli(capsys, "bench", "--spec", str(spec), "--json")
        assert code == 0
        rec = json.loads(out.strip())
        assert rec["status"] == "timeout"
        assert rec["alpha"] is None

    def test_empty_spec(self, capsys, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text("[]")
        code, out, _ = run_cli(capsys, "bench", "--spec", str(spec))
        assert code == 0

    def test_csv_output(self, capsys, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps([
            {"v": 8, "d": 0.5, "seed": 1, "method": "currentmax"},
        ]))
        csv_path = tmp_path / "records.csv"
        code, out, _ = run_cli(capsys, "bench", "--spec", str(spec),
                               "--csv", str(csv_path))
        assert code == 0
        assert out.startswith("| method |")
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0].startswith("method,")
        assert len(lines) == 2

    def test_malformed_spec(self, capsys, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps([{"v": 8}]))
        code, _, err = run_cli(capsys, "bench", "--spec", str(spec))
        assert code == 2
