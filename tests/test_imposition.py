import random

import pytest

from anticlique import (
    ImpositionOrder,
    Mutated,
    SearchOptions,
    Split,
    Unchanged,
    full_row,
    impose,
    max_anticlique,
    random_graph,
    row_from_debug,
    run_standard,
    threshold_search,
)
from anticlique.imposition import anti_implication_holds
from anticlique.rows import Row
from conftest import independence_poly_bitmask, member_masks_bruteforce, nbr_mask, random_row


class TestWorkedExamples:
    def test_first_imposition_creates_group(self):
        out = impose(full_row(5), 1, nbr_mask({2, 4, 5}))
        assert isinstance(out, Mutated)
        assert out.row == row_from_debug("(a1,b1,2,b1,b1)")

    def test_second_imposition_splits(self):
        out = impose(row_from_debug("(a1,b1,2,b1,b1)"), 2, nbr_mask({1, 4}))
        assert isinstance(out, Split)
        assert out.zero_son == row_from_debug("(a1,0,2,b1,b1)")
        assert out.one_son == row_from_debug("(0,1,2,0,2)")

    def test_proof_case_split_display(self):
        # the four-possibility row: premise only, premise plus part of the
        # anticonclusion, proper part of the anticonclusion, whole one
        before = row_from_debug("(1,b3,a4,a3,a1,a2,b2,2,b3,b4,0,2,b2,b1,0)")
        out = impose(before, 8, nbr_mask({5, 6, 7, 9, 10, 11, 12}))
        assert isinstance(out, Split)
        zero_expected = row_from_debug("(1,b3,a4,a3,a1,a2,b2,0,b3,b4,0,2,b2,b1,0)")
        one_expected = row_from_debug("(1,b3,2,a3,0,0,0,1,0,0,0,0,2,2,0)")
        assert out.zero_son == zero_expected
        assert out.one_son == one_expected


class TestCases:
    def test_zero_position_unchanged(self):
        row = row_from_debug("(0,2,2)")
        assert isinstance(impose(row, 1, nbr_mask({2, 3})), Unchanged)

    def test_all_zero_neighborhood_unchanged(self):
        row = row_from_debug("(2,0,0)")
        assert isinstance(impose(row, 1, nbr_mask({2, 3})), Unchanged)

    def test_isolated_vertex_unchanged(self):
        assert isinstance(impose(full_row(3), 2, nbr_mask(set())), Unchanged)

    def test_one_in_neighborhood_zeroes_free_position(self):
        out = impose(row_from_debug("(2,1,2)"), 1, nbr_mask({2}))
        assert isinstance(out, Mutated)
        assert out.row == row_from_debug("(0,1,2)")

    def test_one_in_neighborhood_shrinks_group(self):
        out = impose(row_from_debug("(a1,1,b1,b1)"), 3, nbr_mask({2}))
        assert isinstance(out, Mutated)
        assert out.row == row_from_debug("(a1,1,0,b1)")

    def test_group_dissolves_when_anticonclusion_empties(self):
        out = impose(row_from_debug("(a1,1,b1)"), 3, nbr_mask({2}))
        assert isinstance(out, Mutated)
        assert out.row == row_from_debug("(2,1,0)")

    def test_split_on_own_premise_is_mechanical(self):
        # the literal case analysis splits even though the contrapositive
        # already guarantees the constraint; the pop-time check is separate
        out = impose(row_from_debug("(a1,0,1,0,b1)"), 5, nbr_mask({1, 4}))
        assert isinstance(out, Split)
        assert out.zero_son == row_from_debug("(2,0,1,0,0)")
        assert out.one_son == row_from_debug("(0,0,1,0,1)")

    def test_precondition_rejects_one(self):
        row = row_from_debug("(1,2,2)")
        with pytest.raises(AssertionError):
            impose(row, 1, nbr_mask({2}))

    def test_precondition_rejects_premise(self):
        row = row_from_debug("(a1,b1,2)")
        with pytest.raises(AssertionError):
            impose(row, 1, nbr_mask({2, 3}))


class TestAntiImplicationHolds:
    def test_zero_at_t(self):
        assert anti_implication_holds(row_from_debug("(0,2,2)"), 1, nbr_mask({2}))

    def test_all_zero_neighbors(self):
        assert anti_implication_holds(row_from_debug("(2,0,0)"), 1, nbr_mask({2, 3}))

    def test_contrapositive_through_own_premise(self):
        assert anti_implication_holds(row_from_debug("(a1,0,0,0,b1)"), 5, nbr_mask({1, 4}))

    def test_foreign_group_member_defeats_it(self):
        assert not anti_implication_holds(row_from_debug("(a1,b1,2,b1,b1)"), 2, nbr_mask({1, 4}))

    def test_free_neighbor_defeats_it(self):
        assert not anti_implication_holds(row_from_debug("(2,2)"), 1, nbr_mask({2}))

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
            assert anti_implication_holds(row, t, nbr_mask(B)) == holds


def _holds_by_walk(row, t, neighbors):
    """anti_implication_holds as it walked a neighbour set element by
    element, before the neighbour mask; the reference for the mask form."""
    zeros = row.zero_mask
    if zeros >> t & 1:
        return True
    live = 0
    for p in neighbors:
        if not zeros >> p & 1:
            if live:
                return False
            live = p
    if not live:
        return True
    for prem, anti in row.groups.items():
        if prem == live:
            return bool(anti >> t & 1)
    return False


class TestNeighbourMask:
    """The mask form of anti_implication_holds gives the element walk's
    answers, on the criterion-5 generator."""

    def test_mask_agrees_with_the_element_walk(self):
        rng = random.Random(1013)
        calls = 0
        while calls < 1000:
            v = rng.randint(2, 12)
            row = random_row(rng, v)
            candidates = [p for p in range(1, v + 1) if p not in row.ones() | row.premset()]
            if not candidates:
                continue
            t = rng.choice(candidates)
            B = {p for p in range(1, v + 1) if p != t and rng.random() < 0.35}
            # the test also meets neighbour sets that hold t itself
            C = B | {t} if rng.random() < 0.5 else B
            assert anti_implication_holds(row, t, nbr_mask(C)) == _holds_by_walk(row, t, C)
            calls += 1


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
            out = impose(row, t, nbr_mask(B))
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
        """When t is imposed it is no longer pending on the rows produced,
        which validate, and no position still pending holds a 1 or a
        premise on any row of the working stack; checked on every
        imposition of real runs, in vertex order and in a shuffled order,
        under both rules, unpruned and pruned.  The pending sets are read
        from the trace's ``PA=``: the paper's run shows the next vertex of
        the order, the own-premise run, which chooses each row's next
        vertex, the pending vertices that are not 0."""
        import anticlique.enumerator as enum_mod
        from anticlique.imposition import impose as raw_impose

        seq, rule = (), ""   # the order and the rule of the run in progress
        state = {"produced": 0, "pruned": 0, "checked": 0}

        def pending(shown):
            """The vertices pending on a traced row, from its ``PA=``."""
            if shown.startswith("{"):
                return {int(p) for p in shown[1:-1].split(",") if p}
            if rule == "own-premise":
                raise AssertionError(f"own-premise run traced PA={shown}")
            return set() if shown == "-" else set(seq[seq.index(int(shown)):])

        def checked(row, t, nbrs):
            out = raw_impose(row, t, nbrs)
            produced = (
                [row] if isinstance(out, Unchanged)
                else [out.row] if isinstance(out, Mutated)
                else [out.zero_son, out.one_son]
            )
            for r in produced:
                r.validate()
            state["produced"], state["pruned"] = len(produced), 0
            return out

        def hook(kind, info):
            if kind == "prune":
                state["pruned"] += 1
            if kind != "impose":
                return
            # the sons that survived their checks are on top: the current
            # row first, then the t-out son if the t-in son was kept too
            survivors = state["produced"] - state["pruned"]
            for i, entry in enumerate(info["working"]):
                text, shown = entry.split(" PA=")
                r = row_from_debug(text)   # validates
                waiting = pending(shown)
                if i < survivors:
                    assert info["t"] not in waiting
                for p in waiting:
                    assert p not in r.ones() | r.premset()
            state["checked"] += 1

        monkeypatch.setattr(enum_mod, "impose", checked)
        rng = random.Random(5)
        for seed in range(8):
            g = random_graph(10, (seed % 4) * 0.25 + 0.2, seed)
            shuffled = list(range(1, g.v + 1))
            rng.shuffle(shuffled)
            weights = {p: 1 + rng.randrange(4) for p in range(1, g.v + 1)}
            k = max(len(independence_poly_bitmask(g)) - 3, 0)   # alpha - 2
            for seq in (tuple(range(1, g.v + 1)), tuple(shuffled)):
                order = ImpositionOrder(seq)
                for rule in ("paper", "own-premise"):
                    rows, _stats = run_standard(g, order, rule=rule, trace=hook)
                    list(rows)
                # each bound picks its rule
                for bound, rule in (("clique", "own-premise"), ("w_max", "paper")):
                    threshold_search(g, k, "all", order=order, bound=bound, trace=hook)
                rule = "own-premise"
                max_anticlique(g, SearchOptions(order=order), trace=hook)
                max_anticlique(g, SearchOptions(order=order, weights=weights), trace=hook)
                rule = "paper"
                max_anticlique(g, SearchOptions(order=order, bound="w_max"), trace=hook)
        assert state["checked"] > 0

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
            impose(row, t, nbr_mask(B))
            assert clones["n"] == 0

    def test_impose_takes_its_row(self):
        """Unchanged leaves the row as it was; a Mutated row and a split's
        t-out son are the given row itself, and the t-in son is a new row
        with a group table of its own."""
        rng = random.Random(8)
        for _ in range(200):
            v = rng.randint(2, 10)
            row = random_row(rng, v)
            before = (row.debug(), row.zero_mask)
            groups = row.groups
            candidates = [p for p in range(1, v + 1) if p not in row.ones() | row.premset()]
            if not candidates:
                continue
            t = rng.choice(candidates)
            B = {p for p in range(1, v + 1) if p != t and rng.random() < 0.3}
            out = impose(row, t, nbr_mask(B))
            if isinstance(out, Unchanged):
                assert (row.debug(), row.zero_mask) == before
            elif isinstance(out, Mutated):
                assert out.row is row
            else:
                assert out.zero_son is row
                assert type(out.one_son) is Row and out.one_son is not row
                assert out.one_son.groups is not row.groups
            assert row.groups is groups
