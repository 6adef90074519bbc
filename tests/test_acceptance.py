"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is exact unless a runtime budget is stated.
"""

import random
import time
from collections import Counter

from anticlique import (
    Polynomial,
    all_max_anticliques,
    bipartite_options,
    chromatic_number,
    core,
    fibonacci_number,
    impose,
    independence_polynomial,
    max_anticlique,
    maximal_anticliques,
    oracle_matching,
    oracle_report,
    random_graph,
    row_from_debug,
    run_standard,
    threshold_search,
)
from anticlique.imposition import Mutated, Unchanged
from conftest import (
    EXAMPLE_ROW_13,
    member_masks_bruteforce,
    nbr_mask,
    path_graph,
    random_bipartite,
    random_row,
)


def test_criterion_1_worked_trace_reproduction(g5):
    start = time.perf_counter()
    rows, stats = run_standard(g5)
    rows = list(rows)
    counts = sorted(r.member_count() for r in rows)
    assert len(rows) == 5
    assert counts == [1, 1, 2, 3, 4]
    assert sum(counts) == 11
    assert fibonacci_number(g5) == 11
    res = max_anticlique(g5)
    assert res.alpha == 3
    assert res.witness == {2, 3, 5}
    assert core(g5) == {2, 3, 5}
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 1 PASS: trace reproduced, 5 rows {counts}, f=11, "
          f"alpha=3 witness {{2,3,5}}, core {{2,3,5}} in {elapsed:.3f}s")


def test_criterion_2_example_row_spectrum():
    row = row_from_debug(EXAMPLE_ROW_13)
    assert row.member_count() == 540
    members = member_masks_bruteforce(row)
    assert len(members) == 540
    sizes = Counter(m.bit_count() for m in members)
    expected = Polynomial(tuple(sizes.get(k, 0) for k in range(max(sizes) + 1)))
    spec = row.spectrum()
    assert spec == expected
    assert spec.coefficient(1) == 1
    assert spec.coefficient(8) == 17
    print("\nACCEPTANCE 2 PASS: example row N=540, spectrum matches exhaustive "
          f"expansion, s1={spec.coefficient(1)}, s8={spec.coefficient(8)}")


def test_criterion_3_path_recurrence():
    values = [fibonacci_number(path_graph(n)) for n in range(1, 26)]
    assert values[0] == 2
    assert values[1] == 3
    for n in range(2, 25):
        assert values[n] == values[n - 1] + values[n - 2]
    print(f"\nACCEPTANCE 3 PASS: path counts satisfy the two-term recurrence "
          f"for n=1..25 (last value {values[-1]})")


def test_criterion_4_oracle_equivalence_sweep():
    start = time.perf_counter()
    checked = 0
    for seed in range(20):
        for v in (8, 12, 16):
            for d in (0.1, 0.3, 0.5, 0.7, 0.9):
                g = random_graph(v, d, seed * 1000 + v)
                rep = oracle_report(g)
                assert fibonacci_number(g) == rep.f
                assert independence_polynomial(g) == rep.spectrum
                assert max_anticlique(g).alpha == rep.alpha
                alpha, max_sets = all_max_anticliques(g)
                assert alpha == rep.alpha
                assert sorted(map(sorted, max_sets)) == sorted(
                    map(sorted, rep.maximum_sets)
                )
                assert sorted(map(sorted, maximal_anticliques(g))) == sorted(
                    map(sorted, rep.maximal_sets)
                )
                assert chromatic_number(g)[0] == rep.chi
                checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    print(f"\nACCEPTANCE 4 PASS: {checked} graphs, all six quantities equal "
          f"the oracle exactly, in {elapsed:.1f}s (< 300s)")


def test_criterion_5_imposition_soundness():
    rng = random.Random(20260809)
    standard_runs = 0
    calls = 0
    while calls < 1000:
        v = rng.randint(2, 12)
        row = random_row(rng, v)
        candidates = [p for p in range(1, v + 1) if p not in row.ones() | row.premset()]
        if not candidates:
            continue
        t = rng.choice(candidates)
        B = {p for p in range(1, v + 1) if p != t and rng.random() < 0.35}
        tb = 1 << (t - 1)
        bmask = sum(1 << (p - 1) for p in B)
        expected = {
            m for m in member_masks_bruteforce(row)
            if not (m & tb) or not (m & bmask)
        }
        out = impose(row, t, nbr_mask(B))
        if isinstance(out, Unchanged):
            got = set(member_masks_bruteforce(row))
        elif isinstance(out, Mutated):
            got = set(member_masks_bruteforce(out.row))
        else:
            zeros = set(member_masks_bruteforce(out.zero_son))
            ones = set(member_masks_bruteforce(out.one_son))
            assert zeros.isdisjoint(ones)
            got = zeros | ones
        assert got == expected
        calls += 1
    for seed in range(10):
        g = random_graph(10, 0.4, seed)
        rows, stats = run_standard(g)
        list(rows)
        assert stats.deleted == 0
        standard_runs += 1
    print(f"\nACCEPTANCE 5 PASS: {calls} randomized impositions match the "
          f"brute-force family exactly; splits disjoint; deleted=0 across "
          f"{standard_runs} standard runs")


def test_criterion_6_bipartite_identity():
    checked = 0
    for seed in range(20):
        d = (0.1, 0.5, 0.9)[seed % 3]
        g = random_bipartite(8, 12, d, seed)
        plain = max_anticlique(g)
        assert plain.alpha == g.v - oracle_matching(g)
        opts = bipartite_options(g)
        fast = max_anticlique(g, opts)
        assert fast.alpha == plain.alpha
        checked += 1
    print(f"\nACCEPTANCE 6 PASS: alpha = v - matching and cover-order run "
          f"agrees with default on {checked} random bipartite graphs")


def test_criterion_7_method_agreement_at_paper_scale():
    worst = 0.0
    for d, seed in ((0.08, 11), (0.09, 12), (0.1, 13)):
        g = random_graph(45, d, seed)
        start = time.perf_counter()
        res = max_anticlique(g)
        hit, _ = threshold_search(g, res.alpha - 1, "first")
        assert hit is not None and len(hit) == res.alpha
        leftovers, _ = threshold_search(g, res.alpha, "all")
        assert leftovers == []
        elapsed = time.perf_counter() - start
        worst = max(worst, elapsed)
        assert elapsed < 60.0
    print(f"\nACCEPTANCE 7 PASS: currentmax and the two-sided threshold probe "
          f"agree on alpha for (45, d=0.08..0.1) graphs; worst instance "
          f"{worst:.2f}s (< 60s)")


def test_criterion_8_scaling_accounting():
    rng = random.Random(5150)
    for _ in range(10):
        v = rng.randint(4, 20)
        g = random_graph(v, rng.choice((0.2, 0.4, 0.6, 0.8)), rng.randint(0, 10**6))
        rows, stats = run_standard(g)
        list(rows)
        total_impositions = stats.rsp + stats.trivial_changes
        budget = 4 * (stats.finalized + stats.rsp) * g.v
        assert total_impositions <= budget
    print("\nACCEPTANCE 8 PASS: imposition totals stay within 4x "
          "(finalized + rsp) x v on 10 random graphs up to v=20")
