import random

import pytest

from anticlique import (
    Mutated,
    Split,
    Unchanged,
    full_row,
    impose,
    random_graph,
    row_from_debug,
    run_standard,
)
from anticlique.imposition import anti_implication_holds
from anticlique.rows import Row
from conftest import member_masks_bruteforce, random_row


class TestWorkedExamples:
    def test_first_imposition_creates_group(self):
        out = impose(full_row(5), 1, {2, 4, 5})
        assert isinstance(out, Mutated)
        assert out.row == row_from_debug("(a1,b1,2,b1,b1)")

    def test_second_imposition_splits(self):
        out = impose(row_from_debug("(a1,b1,2,b1,b1)"), 2, {1, 4})
        assert isinstance(out, Split)
        assert out.zero_son == row_from_debug("(a1,0,2,b1,b1)")
        assert out.one_son == row_from_debug("(0,1,2,0,2)")

    def test_proof_case_split_display(self):
        # the four-possibility row: premise only, premise plus part of the
        # anticonclusion, proper part of the anticonclusion, whole one
        before = row_from_debug("(1,b3,a4,a3,a1,a2,b2,2,b3,b4,0,2,b2,b1,0)")
        out = impose(before, 8, {5, 6, 7, 9, 10, 11, 12})
        assert isinstance(out, Split)
        zero_expected = row_from_debug("(1,b3,a4,a3,a1,a2,b2,0,b3,b4,0,2,b2,b1,0)")
        one_expected = row_from_debug("(1,b3,2,a3,0,0,0,1,0,0,0,0,2,2,0)")
        assert out.zero_son == zero_expected
        assert out.one_son == one_expected


class TestCases:
    def test_zero_position_unchanged(self):
        row = row_from_debug("(0,2,2)")
        assert isinstance(impose(row, 1, {2, 3}), Unchanged)

    def test_all_zero_neighborhood_unchanged(self):
        row = row_from_debug("(2,0,0)")
        assert isinstance(impose(row, 1, {2, 3}), Unchanged)

    def test_isolated_vertex_unchanged(self):
        assert isinstance(impose(full_row(3), 2, set()), Unchanged)

    def test_one_in_neighborhood_zeroes_free_position(self):
        out = impose(row_from_debug("(2,1,2)"), 1, {2})
        assert isinstance(out, Mutated)
        assert out.row == row_from_debug("(0,1,2)")

    def test_one_in_neighborhood_shrinks_group(self):
        out = impose(row_from_debug("(a1,1,b1,b1)"), 3, {2})
        assert isinstance(out, Mutated)
        assert out.row == row_from_debug("(a1,1,0,b1)")

    def test_group_dissolves_when_anticonclusion_empties(self):
        out = impose(row_from_debug("(a1,1,b1)"), 3, {2})
        assert isinstance(out, Mutated)
        assert out.row == row_from_debug("(2,1,0)")

    def test_split_on_own_premise_is_mechanical(self):
        # the literal case analysis splits even though the contrapositive
        # already guarantees the constraint; the pop-time check is separate
        out = impose(row_from_debug("(a1,0,1,0,b1)"), 5, {1, 4})
        assert isinstance(out, Split)
        assert out.zero_son == row_from_debug("(2,0,1,0,0)")
        assert out.one_son == row_from_debug("(0,0,1,0,1)")

    def test_precondition_rejects_one(self):
        row = row_from_debug("(1,2,2)")
        with pytest.raises(AssertionError):
            impose(row, 1, {2})

    def test_precondition_rejects_premise(self):
        row = row_from_debug("(a1,b1,2)")
        with pytest.raises(AssertionError):
            impose(row, 1, {2, 3})


class TestAntiImplicationHolds:
    def test_zero_at_t(self):
        assert anti_implication_holds(row_from_debug("(0,2,2)"), 1, {2})

    def test_all_zero_neighbors(self):
        assert anti_implication_holds(row_from_debug("(2,0,0)"), 1, {2, 3})

    def test_contrapositive_through_own_premise(self):
        assert anti_implication_holds(row_from_debug("(a1,0,0,0,b1)"), 5, {1, 4})

    def test_foreign_group_member_defeats_it(self):
        assert not anti_implication_holds(row_from_debug("(a1,b1,2,b1,b1)"), 2, {1, 4})

    def test_free_neighbor_defeats_it(self):
        assert not anti_implication_holds(row_from_debug("(2,2)"), 1, {2})

    def test_agrees_with_bruteforce(self):
        rng = random.Random(31)
        for _ in range(300):
            v = rng.randint(2, 10)
            row = random_row(rng, v)
            candidates = [p for p in range(1, v + 1) if p not in row.ones() | row.premset()]
            if not candidates:
                continue
            t = rng.choice(candidates)
            B = {p for p in range(1, v + 1) if p != t and rng.random() < 0.4}
            members = member_masks_bruteforce(row)
            tb = 1 << (t - 1)
            bmask = sum(1 << (p - 1) for p in B)
            holds = all(not (m & tb) or not (m & bmask) for m in members)
            assert anti_implication_holds(row, t, B) == holds


class TestSoundnessSweep:
    def test_thousand_randomized_impositions(self):
        rng = random.Random(77)
        for _ in range(1000):
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
            out = impose(row, t, B)
            if isinstance(out, Unchanged):
                got = set(member_masks_bruteforce(row))
            elif isinstance(out, Mutated):
                out.row.validate()
                got = set(member_masks_bruteforce(out.row))
            else:
                out.zero_son.validate()
                out.one_son.validate()
                zeros = set(member_masks_bruteforce(out.zero_son))
                ones = set(member_masks_bruteforce(out.one_son))
                assert zeros.isdisjoint(ones)
                got = zeros | ones
            assert got == expected

    def test_symbol_discipline_along_real_runs(self, monkeypatch):
        """After imposing at t, no position right of t holds a premise or a 1
        (except t itself); checked on every imposition of real runs, where
        the increasing processing order makes the precondition hold."""
        import anticlique.enumerator as enum_mod
        from anticlique.imposition import impose as raw_impose

        def checked(row, t, nbrs):
            out = raw_impose(row, t, nbrs)
            produced = (
                [] if isinstance(out, Unchanged)
                else [out.row] if isinstance(out, Mutated)
                else [out.zero_son, out.one_son]
            )
            for r in produced:
                r.validate()
                for p in range(t + 1, r.v + 1):
                    assert p not in r.ones() | r.premset()
            return out

        monkeypatch.setattr(enum_mod, "impose", checked)
        for seed in range(8):
            g = random_graph(10, (seed % 4) * 0.25 + 0.2, seed)
            rows, _stats = run_standard(g)
            list(rows)

    def test_constant_clone_count_per_imposition(self, monkeypatch):
        clones = {"n": 0}
        original = Row.clone

        def counting(self):
            clones["n"] += 1
            return original(self)

        monkeypatch.setattr(Row, "clone", counting)
        rng = random.Random(3)
        for _ in range(200):
            v = rng.randint(2, 10)
            row = random_row(rng, v)
            candidates = [p for p in range(1, v + 1) if p not in row.ones() | row.premset()]
            if not candidates:
                continue
            t = rng.choice(candidates)
            B = {p for p in range(1, v + 1) if p != t and rng.random() < 0.4}
            clones["n"] = 0
            impose(row, t, B)
            assert clones["n"] <= 2

    def test_input_row_never_mutated(self):
        rng = random.Random(8)
        for _ in range(200):
            v = rng.randint(2, 10)
            row = random_row(rng, v)
            before = (row.debug(), row.pa, row.zero_mask)
            candidates = [p for p in range(1, v + 1) if p not in row.ones() | row.premset()]
            if not candidates:
                continue
            t = rng.choice(candidates)
            B = {p for p in range(1, v + 1) if p != t and rng.random() < 0.3}
            impose(row, t, B)
            assert (row.debug(), row.pa, row.zero_mask) == before
