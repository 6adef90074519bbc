import random
import re
from collections import Counter

import pytest

from anticlique import (
    Mutated,
    Polynomial,
    Row,
    Split,
    full_row,
    impose,
    row_from_debug,
    spectrum_of_shapes,
)
from conftest import (
    EXAMPLE_ROW_13,
    mask_to_set,
    member_masks_bruteforce,
    nbr_mask,
    random_row,
)


@pytest.fixture
def example_row() -> Row:
    return row_from_debug(EXAMPLE_ROW_13)


@pytest.fixture
def tail_row() -> Row:
    return row_from_debug("(a1,0,0,0,b1)")


class TestPolynomial:
    def test_normalization(self):
        assert Polynomial((1, 2, 0, 0)).coeffs == (1, 2)
        assert Polynomial(()).coeffs == (0,)
        assert Polynomial((0, 0)).coeffs == (0,)

    def test_arithmetic(self):
        p = Polynomial((1, 1))
        assert (p * p).coeffs == (1, 2, 1)
        assert (p + Polynomial((0, 0, 3))).coeffs == (1, 1, 3)
        assert (p * p * p).evaluate(2) == 27
        assert Polynomial((1, 5, 4, 1)).degree == 3


class TestFullRow:
    def test_powerset(self):
        r = full_row(5)
        assert r.debug() == "(2,2,2,2,2)"
        assert r.member_count() == 32

    def test_single_vertex(self):
        assert full_row(1).member_count() == 2

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            full_row(0)


class TestWMax:
    def test_example_row(self, example_row):
        assert example_row.w_max() == 13 - 1 - 3 == 9

    def test_free_row(self):
        assert full_row(5).w_max() == 5

    def test_tail_row(self, tail_row):
        assert tail_row.w_max() == 5 - 3 - 1 == 1


class TestMemberCount:
    def test_tail_row(self, tail_row):
        assert tail_row.member_count() == 3

    def test_trace_rows_sum_to_eleven(self):
        counts = [
            row_from_debug(text).member_count()
            for text in ["(a1,0,0,0,b1)", "(0,0,0,1,0)", "(0,0,1,0,1)",
                         "(2,0,1,0,0)", "(0,1,2,0,2)"]
        ]
        assert counts == [3, 1, 1, 2, 4]
        assert sum(counts) == 11

    def test_free_row(self):
        assert full_row(5).member_count() == 32

    def test_example_row(self, example_row):
        assert example_row.member_count() == 4 * 9 * 3 * 5 == 540
        # frozen from exhaustive expansion of the row's members
        assert len(member_masks_bruteforce(example_row)) == 540


class TestSpectrum:
    def test_tail_row(self, tail_row):
        assert tail_row.spectrum() == Polynomial((1, 2))

    def test_free_row(self):
        assert full_row(5).spectrum() == Polynomial((1, 5, 10, 10, 5, 1))

    def test_example_row_against_expansion(self, example_row):
        sizes = Counter(m.bit_count() for m in member_masks_bruteforce(example_row))
        expected = tuple(sizes.get(k, 0) for k in range(max(sizes) + 1))
        spec = example_row.spectrum()
        assert spec == Polynomial(expected)
        assert spec.coefficient(1) == 1
        assert spec.coefficient(8) == 17


class TestMaxMember:
    def test_bottom_trace_row(self):
        assert row_from_debug("(0,1,2,0,2)").max_member() == {2, 3, 5}

    def test_free_row(self):
        assert full_row(5).max_member() == {1, 2, 3, 4, 5}

    def test_tail_row(self, tail_row):
        assert tail_row.max_member() == {5}


class TestContains:
    def test_examples(self, example_row):
        r = row_from_debug("(0,1,2,0,2)")
        assert r.contains({2, 3, 5})
        assert not r.contains({1})
        assert not example_row.contains({3, 5, 6})

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            full_row(3).contains({4})


class TestExpand:
    def test_tail_row_order(self, tail_row):
        assert list(tail_row.expand(0)) == [
            frozenset({1}), frozenset(), frozenset({5})
        ]

    def test_min_size_filter(self, tail_row):
        assert set(tail_row.expand(1)) == {frozenset({1}), frozenset({5})}

    def test_example_row_distinct_count(self, example_row):
        members = list(example_row.expand(0))
        assert len(members) == 540
        assert len(set(members)) == 540


class TestRowEquality:
    def test_group_ids_do_not_matter(self):
        assert row_from_debug("(a1,0,2,b1,b1)") == row_from_debug("(a7,0,2,b7,b7)")

    def test_debug_numbers_groups_in_premise_order(self):
        assert row_from_debug("(a2,b2,a1,b1)").debug() == "(a1,b1,a2,b2)"

    def test_different_shape(self):
        assert row_from_debug("(a1,b1,2)") != row_from_debug("(a1,2,b1)")


class TestValidate:
    # position p is bit p of a mask
    @pytest.mark.parametrize("row", [
        Row(4, 0, 0, {1: 1 << 3, 2: 1 << 3 | 1 << 4}),
        Row(3, 1 << 2, 0, {1: 1 << 2}),
        Row(3, 0, 1 << 1, {1: 1 << 2}),
        Row(3, 0, 0, {1: 0}),
        Row(3, 1 << 4, 0, {}),
        Row(3, 1, 0, {}),
        Row(3, 0, 0, {4: 1 << 1}),
        Row(3, 0, 0, {1: 1 << 5}),
    ], ids=["two-groups", "zero-and-group", "one-and-premise", "empty-anti",
            "zero-out-of-range", "position-0", "premise-out-of-range",
            "anti-out-of-range"])
    def test_rejects(self, row):
        with pytest.raises(AssertionError):
            row.validate()


class TestRandomRowSweep:
    """Brute-force cross-check of every closed-form row query."""

    def test_thousand_random_rows(self):
        rng = random.Random(20240811)
        for _ in range(1000):
            v = rng.randint(1, 14)
            row = random_row(rng, v)
            members = member_masks_bruteforce(row)
            assert len(members) == row.member_count()
            sizes = Counter(m.bit_count() for m in members)
            assert row.spectrum() == Polynomial(
                tuple(sizes.get(k, 0) for k in range(max(sizes) + 1))
            )
            largest = max(m.bit_count() for m in members)
            assert largest == row.w_max()
            best = row.max_member()
            assert len(best) == largest
            assert row.contains(best)

    def test_equal_rows_print_equally(self):
        rng = random.Random(1729)
        for _ in range(500):
            row = random_row(rng, rng.randint(1, 14))
            text = row.debug()
            # the same row under shuffled group labels
            labels = sorted(set(re.findall(r"[ab](\d+)", text)))
            renamed = dict(zip(labels, rng.sample(labels, len(labels))))
            other = row_from_debug(re.sub(r"([ab])(\d+)",
                                          lambda m: m[1] + renamed[m[2]], text))
            assert other == row
            assert other.debug() == text

    def test_contains_matches_membership(self):
        rng = random.Random(99)
        for _ in range(50):
            v = rng.randint(1, 10)
            row = random_row(rng, v)
            members = {mask_to_set(m) for m in member_masks_bruteforce(row)}
            for mask in range(1 << v):
                X = mask_to_set(mask)
                assert row.contains(X) == (X in members)

    def test_expand_emits_each_member_once(self):
        rng = random.Random(4)
        for _ in range(60):
            v = rng.randint(1, 10)
            row = random_row(rng, v)
            emitted = list(row.expand(0))
            assert len(emitted) == row.member_count()
            assert len(set(emitted)) == len(emitted)
            assert all(row.contains(X) for X in emitted)

    def test_spectrum_consistency(self):
        rng = random.Random(5)
        for _ in range(200):
            row = random_row(rng, rng.randint(1, 14))
            spec = row.spectrum()
            assert spec.evaluate(1) == row.member_count()
            assert spec.degree == row.w_max()

    def test_debug_round_trip(self):
        rng = random.Random(6)
        for _ in range(300):
            v = rng.randint(1, 12)
            row = random_row(rng, v)
            rows = [row]
            candidates = [p for p in range(1, v + 1) if p not in row.ones() | row.premset()]
            if candidates:
                t = rng.choice(candidates)
                B = {p for p in range(1, v + 1) if p != t and rng.random() < 0.4}
                out = impose(row, t, nbr_mask(B))
                if isinstance(out, Mutated):
                    rows.append(out.row)
                elif isinstance(out, Split):
                    rows += [out.zero_son, out.one_son]
            for r in rows:
                back = row_from_debug(r.debug())
                assert back == r
                assert back.debug() == r.debug()


class TestPrunedExpand:
    """expand(m) cuts branches below m but keeps the order of expand(0)."""

    def test_same_order_as_filtered_full_expansion(self):
        rng = random.Random(606)
        for _ in range(300):
            row = random_row(rng, rng.randint(1, 12))
            full = list(row.expand(0))
            for m in range(0, row.w_max() + 2):
                assert list(row.expand(m)) == [X for X in full if len(X) >= m]

    def test_nothing_above_w_max(self, example_row):
        assert list(example_row.expand(example_row.w_max() + 1)) == []
        top = list(example_row.expand(example_row.w_max()))
        assert top and all(len(X) == example_row.w_max() for X in top)


class TestShape:
    def test_example_row(self, example_row):
        # (2,0,1,2,a1,b1,b1,b1,a2,b2,a3,b3,b3): one 1, two frees, betas 3, 1, 2
        assert example_row.shape() == (1, 2, (1, 2, 3))

    def test_equal_shapes_have_equal_spectra_and_counts(self):
        rng = random.Random(607)
        by_shape: dict = {}
        for _ in range(600):
            row = random_row(rng, rng.randint(1, 9))
            by_shape.setdefault(row.shape(), []).append(row)
        shared = [rows for rows in by_shape.values() if len(rows) > 1]
        assert len(shared) > 20
        for rows in shared:
            assert len({row.spectrum() for row in rows}) == 1
            assert len({row.member_count() for row in rows}) == 1

    def test_spectrum_of_shapes_sums_the_spectra(self):
        rng = random.Random(608)
        rows = [random_row(rng, rng.randint(1, 12)) for _ in range(200)]
        total = Polynomial((0,))
        for row in rows:
            total = total + row.spectrum()
        assert spectrum_of_shapes(Counter(row.shape() for row in rows)) == total
        assert spectrum_of_shapes(Counter()) == Polynomial((0,))


class TestMaxWeight:
    def test_heaviest_member_by_brute_force(self):
        rng = random.Random(609)
        for _ in range(300):
            v = rng.randint(1, 12)
            row = random_row(rng, v)
            wt = [0] + [rng.randint(1, 9) for _ in range(v)]
            heaviest = max(sum(wt[p] for p in mask_to_set(m))
                           for m in member_masks_bruteforce(row))
            assert row.max_weight(wt) == heaviest

    def test_unit_weights_give_w_max(self):
        rng = random.Random(610)
        for _ in range(100):
            row = random_row(rng, rng.randint(1, 14))
            assert row.max_weight([1] * (row.v + 1)) == row.w_max()
