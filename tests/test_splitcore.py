import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import (
    awkward_datasets,
    awkward_tables,
    dataset_from_arrays,
    gaussian_dataset,
    random_dataset,
)
from treelab import (
    Condition,
    SplitParams,
    best_condition,
    fit_predict_batched,
    fit_predict_eager,
    fit_predict_lazy,
    partition,
    splitcore,
)
from treelab import eager_tree
from treelab.splitcore import (
    BLOCK_CELLS,
    SEGMENT_MIN,
    SEGMENT_ROWS,
    TABLE_ROWS,
    _class_sum,
    best_conditions,
    class_histogram,
)

# Frozen via the plain-Python oracle: -(0.75*log2(0.75) + 0.25*log2(0.25))
ENTROPY_3_1 = 0.8112781244591328


def entropy(counts):
    """The entropy the direct path computes for one class histogram."""
    counts = np.asarray(counts, dtype=np.int64)
    return float(splitcore._entropies(counts[:, None], [counts.sum()])[0])


def information_gain(parent, valid):
    """The gain the direct path scores for one candidate's valid side."""
    parent, valid = np.asarray(parent), np.asarray(valid)
    gain = splitcore._gains(parent, valid[:, None], valid.sum(keepdims=True))
    return float(gain[0])


counts_strategy = st.lists(st.integers(0, 50), min_size=1, max_size=6).filter(
    lambda c: sum(c) >= 1
)


class TestEntropy:
    def test_pure_set(self):
        assert entropy([4, 0]) == 0.0

    def test_uniform_binary(self):
        assert entropy([2, 2]) == 1.0

    def test_three_one(self):
        assert entropy([3, 1]) == pytest.approx(ENTROPY_3_1, abs=1e-12)
        assert entropy([3, 1]) == pytest.approx(oracles.entropy_counts([3, 1]), abs=1e-15)

    @given(counts=counts_strategy)
    @settings(max_examples=200, deadline=None)
    def test_bounds_and_oracle(self, counts):
        value = entropy(counts)
        assert -1e-12 <= value <= math.log2(len(counts)) + 1e-12
        assert value == pytest.approx(oracles.entropy_counts(counts), abs=1e-12)


    @pytest.mark.parametrize("classes", [2, 3, 8, 40, 150])
    def test_zero_counts_give_positive_zero_terms(self, classes):
        # The entropies equal those of an explicit mask that sets each zero
        # count's term to +0.0, bit for bit: empty columns, one-class
        # columns and columns with zeros among other counts.
        rng = np.random.default_rng(classes)
        counts = rng.integers(0, 5, size=(classes, 3000)) * (rng.random((classes, 3000)) < 0.6)
        counts[:, :4] = 0
        counts[0, 4] = 7
        totals = counts.sum(axis=0)
        with np.errstate(divide="ignore", invalid="ignore"):
            p = counts / totals.astype(np.float64)
            terms = np.log2(p) * p
        terms[counts == 0] = 0.0
        want = -_class_sum(terms)
        got = splitcore._entropies(counts, totals)
        assert (got.view(np.int64) == want.view(np.int64)).all()


class TestClassSum:
    @pytest.mark.parametrize(
        "classes", [*range(2, 41), *range(120, 141), *range(255, 301)]
    )
    def test_matches_numpy_row_sum(self, classes):
        # every branch of the pinned order: left to right, 8 accumulators,
        # and halves split at a multiple of 8
        rng = np.random.default_rng(classes)
        rows = rng.standard_normal((64, classes)) * 10.0 ** rng.integers(
            -8, 9, size=(64, classes))
        # zero sums: all negative zeros, and positive and negative zeros mixed
        rows[0] = -0.0
        rows[1] = np.where(rng.random(classes) < 0.5, 0.0, -0.0)
        got = _class_sum(np.ascontiguousarray(rows.T))
        want = np.add.reduce(rows, axis=1)
        assert got.tobytes() == want.tobytes()


class TestInformationGain:
    def test_perfect_split(self):
        assert information_gain([2, 2], [0, 2]) == 1.0

    def test_uninformative_split(self):
        assert information_gain([2, 2], [1, 1]) == 0.0

    def test_partial_split(self):
        gain = information_gain([3, 1], [1, 1])
        assert gain == pytest.approx(ENTROPY_3_1 - 0.5, abs=1e-12)

    @given(
        invalid=counts_strategy,
        valid=counts_strategy,
    )
    @settings(max_examples=200, deadline=None)
    def test_non_negative_and_oracle(self, invalid, valid):
        width = max(len(invalid), len(valid))
        invalid = invalid + [0] * (width - len(invalid))
        valid = valid + [0] * (width - len(valid))
        parent = [a + b for a, b in zip(invalid, valid)]
        gain = information_gain(parent, valid)
        assert gain >= -1e-12
        assert gain == pytest.approx(oracles.info_gain(parent, invalid, valid), abs=1e-12)


class TestPartition:
    def test_numeric_threshold(self, toy4):
        cond = Condition(attribute=0, op="le", value=2.5)
        invalid, valid = partition(cond, toy4, [0, 1, 2, 3])
        assert invalid.tolist() == [2, 3]
        assert valid.tolist() == [0, 1]

    def test_empty_rows(self, toy4):
        cond = Condition(attribute=0, op="le", value=2.5)
        invalid, valid = partition(cond, toy4, [])
        assert invalid.size == 0 and valid.size == 0

    def test_categorical_equality_keeps_order(self):
        data = dataset_from_arrays(
            [[0.0], [1.0], [1.0], [2.0]], [0, 1, 0, 1], kinds="c"
        )
        cond = Condition(attribute=0, op="eq", value=1.0)
        invalid, valid = partition(cond, data, [0, 1, 2, 3])
        assert valid.tolist() == [1, 2]
        assert invalid.tolist() == [0, 3]

    def test_completeness_on_random_subsets(self):
        rng = np.random.default_rng(5)
        data = random_dataset(rng, 40, 2, 1, 3)
        rows = rng.permutation(40)[:17]
        cond = best_condition(data, rows)
        invalid, valid = partition(cond, data, rows)
        assert invalid.size + valid.size == rows.size
        assert sorted(np.concatenate([invalid, valid]).tolist()) == sorted(rows.tolist())
        # stability: both sides preserve the incoming order
        pos = {row: i for i, row in enumerate(rows.tolist())}
        assert [pos[r] for r in invalid.tolist()] == sorted(pos[r] for r in invalid.tolist())
        assert [pos[r] for r in valid.tolist()] == sorted(pos[r] for r in valid.tolist())

    @given(table=awkward_tables(), picks=st.lists(st.integers(0, 29), min_size=1, max_size=30))
    @settings(max_examples=100, deadline=None)
    def test_matches_split_rows_on_the_input_values(self, table, picks):
        # partition reads the rank codes; the oracle tests each candidate on
        # the matrix the dataset was built from, rows repeated as drawn.
        values, data = table
        rows = np.array(picks) % data.n_rows
        for cond in oracles.iter_candidates(data, rows):
            invalid, valid = partition(cond, data, rows)
            want_invalid, want_valid = oracles.split_rows(values, rows, cond)
            assert invalid.tolist() == want_invalid and valid.tolist() == want_valid


    @given(table=awkward_tables(), picks=st.lists(st.integers(0, 29), min_size=1, max_size=30))
    @settings(max_examples=100, deadline=None)
    def test_bounds_on_and_between_levels(self, table, picks):
        # Each value of a column, its neighbouring doubles, the midpoints of
        # its levels and values outside them, as either test: partition
        # turns each into one code bound and splits as the values would.
        values, data = table
        rows = np.array(picks) % data.n_rows
        for attribute in range(data.n_attributes):
            column = np.unique(values[:, attribute])
            with np.errstate(over="ignore"):  # +-1e308: inf, dropped below
                tests = np.concatenate([
                    column, np.nextafter(column, np.inf), np.nextafter(column, -np.inf),
                    (column[1:] + column[:-1]) / 2,
                    [column[0] - 1.0, column[-1] + 1.0, 0.0, -0.0]])
            for value in tests[np.isfinite(tests)].tolist():
                for op in ("le", "eq"):
                    cond = Condition(attribute=attribute, op=op, value=value)
                    invalid, valid = partition(cond, data, rows)
                    want_invalid, want_valid = oracles.split_rows(values, rows, cond)
                    assert invalid.tolist() == want_invalid and valid.tolist() == want_valid


class TestBestCondition:
    def test_toy_split(self, toy4):
        cond = best_condition(toy4, [0, 1, 2, 3])
        assert cond == Condition(attribute=0, op="le", value=2.5)
        assert oracles.gain_of(toy4, [0, 1, 2, 3], cond) == pytest.approx(1.0)

    # One table per route of the search: (rows, classes, attribute kinds).
    @pytest.mark.parametrize("rows, classes, kinds", [
        pytest.param(3, 2, "n", id="two_class_per_cut"),
        pytest.param(TABLE_ROWS, 3, "n", id="three_class_direct"),
        pytest.param(TABLE_ROWS + 88, 2, "nn", id="numeric_pruned"),
        pytest.param(TABLE_ROWS + 88, 3, "nc", id="mixed_large"),
        pytest.param(12, 2, "cc", id="categorical_only"),
    ])
    def test_constant_attributes_give_none(self, rows, classes, kinds):
        # Each attribute holds one value, so no candidate leaves both sides non-empty.
        data = dataset_from_arrays(np.full((rows, len(kinds)), 3.0), np.arange(rows) % classes,
                                   kinds)
        assert best_condition(data, np.arange(rows)) is None

    def test_pure_rows_give_none(self, toy4):
        assert best_condition(toy4, [0, 1]) is None

    def test_tie_breaks_to_first_attribute(self):
        # Both columns are identical, so every gain ties; attribute 0 wins.
        values = [[1.0, 1.0], [2.0, 2.0], [3.0, 3.0], [4.0, 4.0]]
        data = dataset_from_arrays(values, [0, 0, 1, 1])
        cond = best_condition(data, [0, 1, 2, 3])
        assert cond.attribute == 0
        assert cond.value == 2.5

    def test_tie_breaks_to_lowest_threshold(self):
        # values 1,2,3,4 with labels 0,1,0,1: midpoints 1.5, 2.5, 3.5 give
        # gains g, 0, g; the tie between 1.5 and 3.5 resolves to 1.5.
        data = dataset_from_arrays([[1.0], [2.0], [3.0], [4.0]], [0, 1, 0, 1])
        cond = best_condition(data, [0, 1, 2, 3])
        assert cond.value == 1.5

    def test_midpoint_rounding_onto_high_value_pins_to_low(self):
        # The midpoint of these adjacent doubles rounds up to the high value;
        # the threshold falls back to the low one so the high row stays invalid.
        low = float(np.nextafter(1.0, 2.0))
        high = float(np.nextafter(low, 2.0))
        assert (low + high) / 2.0 == high
        data = dataset_from_arrays([[low], [high]], [0, 1])
        cond = best_condition(data, [0, 1])
        assert cond == Condition(attribute=0, op="le", value=low)
        invalid, valid = partition(cond, data, [0, 1])
        assert invalid.tolist() == [1] and valid.tolist() == [0]

    def test_empty_rows_rejected(self, toy4):
        with pytest.raises(ValueError):
            best_condition(toy4, [])

    def test_categorical_split(self):
        data = dataset_from_arrays(
            [[0.0], [0.0], [1.0], [2.0]], [0, 0, 1, 1], kinds="c"
        )
        cond = best_condition(data, [0, 1, 2, 3])
        assert cond == Condition(attribute=0, op="eq", value=0.0)

    def test_matches_bruteforce_on_random_instances(self):
        rng = np.random.default_rng(12345)
        for trial in range(300):
            n = int(rng.integers(2, 13))
            data = random_dataset(
                rng, n, int(rng.integers(1, 3)), int(rng.integers(0, 3)),
                int(rng.integers(2, 4)), value_grid=4,
            )
            rows = np.arange(n)
            got = best_condition(data, rows)
            want, want_gain = oracles.brute_best_condition(data, rows)
            assert got == want, f"trial {trial}: {got} != {want}"
            if got is not None:
                assert oracles.gain_of(data, rows, got) == pytest.approx(
                    want_gain, abs=1e-9
                )

    def test_matches_bruteforce_across_attribute_blocks(self):
        # 40 attributes in blocks of 20, 9, 4 and 2, so 2-20 blocks; a small
        # value grid keeps the brute force cheap.
        rng = np.random.default_rng(4040)
        for trial, n in enumerate(BLOCK_CELLS // width for width in (20, 9, 4, 2)):
            assert BLOCK_CELLS // n < 40
            data = random_dataset(rng, n, 32, 8, int(rng.integers(2, 4)), value_grid=3)
            rows = rng.integers(0, n, size=n)
            got = best_condition(data, rows)
            want, want_gain = oracles.brute_best_condition(data, rows)
            assert got == want, f"trial {trial}: {got} != {want}"
            if got is not None:
                assert oracles.gain_of(data, rows, got) == pytest.approx(
                    want_gain, abs=1e-9
                )

    def test_tie_across_blocks_breaks_to_first_attribute(self):
        # Attribute 0 and attribute 39 are the same column and the best one;
        # they fall in different blocks, and the earlier attribute wins.
        rng = np.random.default_rng(39)
        n = BLOCK_CELLS // 20
        assert 0 // (BLOCK_CELLS // n) != 39 // (BLOCK_CELLS // n)
        labels = rng.integers(0, 2, size=n)
        best_column = labels * 4 + rng.integers(0, 3, size=n)
        columns = [labels + rng.integers(0, 4, size=n) for _ in range(40)]
        columns[0] = columns[39] = best_column
        data = dataset_from_arrays(np.column_stack(columns), labels)
        rows = np.arange(n)
        cond = best_condition(data, rows)
        assert cond.attribute == 0
        assert cond == oracles.brute_best_condition(data, rows)[0]

    def test_matches_per_attribute_search(self):
        # A search one attribute at a time, in the same float arithmetic,
        # picks the same condition, threshold bits included.
        rng = np.random.default_rng(2718)
        for trial in range(120):
            n = int(rng.integers(2, 3000 if trial % 10 == 0 else 400))
            if trial % 3 == 0:
                data = gaussian_dataset(rng, n, 30, int(rng.integers(2, 5)), spread=0.3)
            else:
                data = random_dataset(
                    rng, n, int(rng.integers(1, 30)), int(rng.integers(0, 10)),
                    int(rng.integers(2, 12)), value_grid=int(rng.integers(2, 40)),
                )
            rows = rng.integers(0, n, size=int(rng.integers(1, n + 1)))
            got = best_condition(data, rows)
            want = oracles.per_attribute_best_condition(data, rows)
            assert repr(got) == repr(want), f"trial {trial}"
        # 16-40 classes run more than one round of the class sum's
        # 8-accumulator loop
        rng = np.random.default_rng(1618)
        for trial in range(30):
            n = int(rng.integers(40, 600))
            data = random_dataset(
                rng, n, int(rng.integers(1, 20)), int(rng.integers(0, 6)),
                int(rng.integers(16, 41)), value_grid=int(rng.integers(2, 40)),
            )
            rows = rng.integers(0, n, size=int(rng.integers(1, n + 1)))
            got = best_condition(data, rows)
            want = oracles.per_attribute_best_condition(data, rows)
            assert repr(got) == repr(want), f"wide trial {trial}"

    def test_returned_condition_dominates_every_candidate(self):
        rng = np.random.default_rng(777)
        for _ in range(100):
            n = int(rng.integers(3, 13))
            data = random_dataset(rng, n, 2, 1, 2, value_grid=3)
            rows = np.arange(n)
            got = best_condition(data, rows)
            got_gain = oracles.gain_of(data, rows, got) if got is not None else 0.0
            for cand in oracles.iter_candidates(data, rows):
                gain = oracles.gain_of(data, rows, cand)
                if gain is not None:
                    assert got_gain >= gain - 1e-9

    def test_sides_non_empty(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            n = int(rng.integers(2, 20))
            data = random_dataset(rng, n, 1, 1, 2, value_grid=3)
            cond = best_condition(data, np.arange(n))
            if cond is None:
                continue
            invalid, valid = partition(cond, data, np.arange(n))
            assert invalid.size >= 1 and valid.size >= 1

    def test_deterministic(self):
        rng = np.random.default_rng(9)
        data = random_dataset(rng, 30, 3, 2, 3)
        rows = np.arange(30)
        assert best_condition(data, rows) == best_condition(data, rows)

    @given(data=awkward_datasets(), picks=st.lists(st.integers(0, 29), min_size=1, max_size=30))
    @settings(max_examples=300, deadline=None)
    def test_matches_per_attribute_search_on_awkward_doubles(self, data, picks):
        # Both zeros, subnormals, doubles one ulp apart and +-1e308: the
        # search on rank codes picks the thresholds, bit for bit, that a
        # search on the values themselves picks.
        rows = np.array(picks) % data.n_rows
        want = oracles.per_attribute_best_condition(data, rows)
        assert repr(best_condition(data, rows)) == repr(want)

    @staticmethod
    def _root_search_peak(classes, held=2, n=512, m=1024):
        """tracemalloc peak of a root search of n x m numeric cells holding ``held`` classes."""
        rng = np.random.default_rng(7)
        labels = rng.integers(0, held, size=n)
        data = dataset_from_arrays(rng.normal(size=(n, m)) + 0.1 * labels[:, None], labels,
                                   class_names=tuple(f"k{i}" for i in range(classes)))
        rows = np.arange(n)
        best_condition(data, rows)  # builds the two-class entropy table untraced
        tracemalloc.start()
        try:
            best_condition(data, rows)
            return tracemalloc.get_traced_memory()[1], n
        finally:
            tracemalloc.stop()

    def test_search_scratch_is_bounded_by_the_block(self):
        # A root search of a wide two-class table holds one block's keys and
        # per-cut arrays at a time (~6 times the bound's base), never a copy
        # of the node's n x m values (4 MiB here, 31 times the base).
        peak, n = self._root_search_peak(2)
        assert peak < 10 * (BLOCK_CELLS + n) * 8

    def test_search_scratch_is_bounded_for_two_of_three_classes(self):
        # The same rows in a 3-class table take the same path and scratch.
        peak, n = self._root_search_peak(3)
        assert peak < 10 * (BLOCK_CELLS + n) * 8

    @pytest.mark.parametrize("classes, n, m", [(3, 2048, 256), (8, 4096, 64)])
    def test_pruned_search_scratch_is_bounded(self, classes, n, m):
        # A root of more than TABLE_ROWS rows holding every class: a block's
        # keys and per-cell index, then per-chunk arrays (an eighth of the
        # cells, times the classes) and the few kept cuts.  It reads 15.2
        # and 23.7 times the base here; scoring every group held 33.5 and
        # 65.4 times.
        peak, n = self._root_search_peak(classes, classes, n, m)
        assert peak < (12 + 2 * classes) * (BLOCK_CELLS + n) * 8


    @pytest.mark.parametrize("classes, total, n, kinds", [
        pytest.param(300, 3000, 3000, "ncncncnc", id="many_classes"),
        pytest.param(10, 60_000, 600, "nncc", id="level_per_table_row"),
    ])
    def test_mixed_search_scratch_is_bounded(self, classes, total, n, kinds):
        # A node of more than TABLE_ROWS rows with categorical attributes:
        # their level counts, the pruned blocks' per-chunk arrays and the
        # kept cuts.  The second table's last attribute has one level per
        # table row, 100 times the node's rows, and is sorted instead: it
        # read 5.7 times the base, and counting its levels 279 times.  The
        # first read 215 times, scoring every group of its mixed blocks 1 139.
        rng = np.random.default_rng(7)
        labels = rng.integers(0, classes, size=total)
        columns = [rng.normal(size=total) + 0.1 * labels if kind == "n"
                   else np.where(rng.random(total) < 0.3, labels % 8, rng.integers(0, 8, size=total))
                   for kind in kinds]
        columns[-1] = rng.permutation(total) if n < total else columns[-1]
        data = dataset_from_arrays(np.column_stack(columns), labels, kinds=kinds,
                                   class_names=tuple(f"k{i}" for i in range(classes)))
        rows = np.arange(n)
        tracemalloc.start()
        try:
            best_condition(data, rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < (12 + 2 * classes) * (BLOCK_CELLS + n) * 8


class TestEntropyTable:
    """Two-class nodes of up to TABLE_ROWS rows read side entropies from a table."""

    def test_every_cell_matches_direct_entropies(self):
        # log2's bits depend on the numpy build, so this runs in-process.
        table = splitcore._entropy_table()
        sizes = np.arange(TABLE_ROWS + 1)
        totals = np.repeat(sizes, sizes + 1)
        counts = np.arange(totals.size) - totals * (totals + 1) // 2
        assert counts.min() == 0 and (counts <= totals).all()
        want = splitcore._entropies(np.stack([counts, totals - counts]), totals)
        # int64 views: signed zeros count (the N = 0 cell is -0.0)
        assert (table.view(np.int64) == want.view(np.int64)).all()
        assert table[0].tobytes() == np.float64(-0.0).tobytes()

    def test_cells_are_symmetric(self):
        # Swapping a side's two classes swaps its two entropy terms, which
        # add to the same double: reading a cell at the higher class's count
        # gives the same bits as at the lower's.
        table = splitcore._entropy_table()
        sizes = np.arange(TABLE_ROWS + 1)
        totals = np.repeat(sizes, sizes + 1)
        low = np.arange(table.size) - splitcore._tri(totals)
        mirror = table[splitcore._tri(totals) + totals - low]
        assert (table.view(np.int64) == mirror.view(np.int64)).all()

    def test_parent_cells_match_one_column_entropies(self):
        # A two-class search reads its node's entropy from the table, built
        # from wide _entropies calls; the direct path computes it as one
        # column.  int64 views: the bits must match, signed zeros included.
        table = splitcore._entropy_table()
        cells = [(size, c) for size in range(TABLE_ROWS + 1)
                 for c in sorted({0, 1, size // 2, size - 1, size}) if 0 <= c <= size]
        rng = np.random.default_rng(5000)
        sizes = rng.integers(0, TABLE_ROWS + 1, size=5000)
        cells += zip(sizes.tolist(), rng.integers(0, sizes + 1).tolist())
        got = np.array([table[splitcore._tri(size) + c] for size, c in cells])
        want = np.array([splitcore._entropies(np.array([[c], [size - c]]), [size])[0]
                         for size, c in cells])
        assert (got.view(np.int64) == want.view(np.int64)).all()

    @staticmethod
    def _pairs(classes):
        """Class pairs at both ends, in the middle and across _class_sum's halves."""
        middle = classes // 2
        pairs = {(0, 1), (classes - 2, classes - 1), (0, classes - 1), (middle - 1, middle)}
        if classes > 128:
            half = middle - middle % 8
            pairs |= {(half - 1, half), (0, half), (half, classes - 1)}
        return sorted(pairs)

    @classmethod
    def _searches(cls, classes):
        rng = np.random.default_rng(100 + classes)
        if classes <= 40:
            for n in (2, 30, TABLE_ROWS - 1, TABLE_ROWS, TABLE_ROWS + 1, 700):
                for trial in range(4):
                    if trial == 0:
                        data = gaussian_dataset(rng, 800, 6, classes, spread=0.3)
                    else:
                        data = random_dataset(
                            rng, 800, int(rng.integers(1, 8)), int(rng.integers(0, 4)),
                            classes, value_grid=int(rng.integers(2, 60)),
                        )
                    yield data, rng.integers(0, 800, size=n)
        if classes == 2:
            return
        # Nodes that hold exactly two of the table's classes.
        names = tuple(f"k{i}" for i in range(classes))
        for pair in cls._pairs(classes):
            labels = np.concatenate([rng.choice(pair, size=600),
                                     rng.integers(0, classes, size=200)])
            tables = [
                dataset_from_arrays(rng.normal(size=(800, 5)) + 0.3 * (labels == pair[1])[:, None],
                                    labels, class_names=names),
                # all numeric, most cells inside a run of equal values
                dataset_from_arrays(
                    np.column_stack([(labels == pair[1]) + rng.integers(0, 3, size=800),
                                     rng.integers(0, 12, size=800)]),
                    labels, kinds="nn", class_names=names),
                dataset_from_arrays(
                    np.column_stack([(labels == pair[1]) + rng.integers(0, 4, size=800),
                                     rng.integers(0, 30, size=800),
                                     np.where(rng.random(800) < 0.3, labels % 5,
                                              rng.integers(0, 5, size=800))]),
                    labels, kinds="nnc", class_names=names),
            ]
            # one row of each class of the pair first, so that n >= 2 holds both
            firsts = [int(np.argmax(labels == c)) for c in pair]
            for data in tables:
                for n in (1, 2, 3, 9, 64, 200, TABLE_ROWS):
                    rows = np.concatenate([firsts, rng.integers(0, 600, size=max(n - 2, 0))])
                    yield data, rows[:n]

    @pytest.mark.parametrize("classes", [2, 3, 8, 40, 129, 150, 200])
    def test_table_and_direct_paths_agree(self, classes, monkeypatch):
        searches = list(self._searches(classes))
        two = sum(np.count_nonzero(class_histogram(data, rows)) == 2 and rows.size <= TABLE_ROWS
                  for data, rows in searches)
        assert two >= 10

        def run():
            return [repr(best_condition(data, rows)) for data, rows in searches]

        table = run()
        monkeypatch.setattr(splitcore, "TABLE_ROWS", 0)
        assert run() == table

    @pytest.mark.parametrize("classes", [3, 8, 40, 129, 150, 200])
    def test_cells_match_wide_columns_with_two_classes(self, classes):
        # A node holding two of many classes reads the table at its lower
        # class's count; the direct path sums a wide column whose other
        # rows are zero.  int64 views: the bits must match.
        table = splitcore._entropy_table()
        rng = np.random.default_rng(classes)
        edge = np.array([1, 2, 3, TABLE_ROWS])
        sizes = np.concatenate([np.repeat(edge, 4), rng.integers(1, TABLE_ROWS + 1, size=3000)])
        low = rng.integers(0, sizes + 1)
        # counts 0, 1, N - 1 and N of the lower class at the edge sizes
        low[:16] = np.stack([0 * edge, 0 * edge + 1, edge - 1, edge], axis=1).ravel()
        got = table[splitcore._tri(sizes) + low]
        for first, second in self._pairs(classes):
            counts = np.zeros((classes, sizes.size), dtype=np.int64)
            counts[first], counts[second] = low, sizes - low
            want = splitcore._entropies(counts, sizes)
            assert (got.view(np.int64) == want.view(np.int64)).all(), (first, second)

    @pytest.mark.parametrize("fit", [fit_predict_eager, fit_predict_batched, fit_predict_lazy])
    def test_fits_agree_with_direct_path(self, fit, monkeypatch):
        # The roots of the 600-row table take the direct path either way.
        rng = np.random.default_rng(606)
        tables = [gaussian_dataset(rng, 600, 8, 2, spread=0.4),
                  random_dataset(rng, 300, 3, 4, 8, value_grid=20)]
        params = SplitParams(min_count=2, max_depth=12)

        def run():
            out = []
            for data in tables:
                test = np.arange(0, data.n_rows, data.n_rows // 10)
                matrix, metrics = fit(data, np.arange(data.n_rows), test, 2, params, 11)
                out.append((matrix.tobytes(), metrics.nodes_explored,
                            metrics.peak_stack_words, metrics.model_words))
            return out

        table = run()
        monkeypatch.setattr(splitcore, "TABLE_ROWS", 0)
        assert run() == table

    @pytest.mark.parametrize("fit", [fit_predict_eager, fit_predict_batched, fit_predict_lazy])
    def test_three_class_fits_agree_with_direct_path(self, fit, monkeypatch):
        # Most nodes below the roots hold two of the three classes.
        rng = np.random.default_rng(333)
        tables = [gaussian_dataset(rng, 600, 6, 3, spread=0.6),
                  random_dataset(rng, 300, 3, 3, 3, value_grid=12)]
        params = SplitParams(min_count=2, max_depth=12)
        searches = []

        def spy(data, rows, hist=None):
            searches.append(np.count_nonzero(hist) == 2 and len(rows) <= splitcore.TABLE_ROWS)
            return best_condition(data, rows, hist)

        def run():
            out = []
            for data in tables:
                test = np.arange(0, data.n_rows, data.n_rows // 10)
                matrix, metrics = fit(data, np.arange(data.n_rows), test, 2, params, 13)
                out.append((matrix.tobytes(), metrics.nodes_explored,
                            metrics.peak_stack_words, metrics.model_words))
            return out

        monkeypatch.setattr(eager_tree, "best_condition", spy)
        table = run()
        assert sum(searches) >= 10
        monkeypatch.setattr(splitcore, "TABLE_ROWS", 0)
        assert run() == table

    def test_table_is_bounded_and_built_once(self):
        rng = np.random.default_rng(20000)
        data = gaussian_dataset(rng, 20_000, 3, 2)
        best_condition(data, np.arange(100))
        table = splitcore._entropy_table()
        for n in (2, TABLE_ROWS, TABLE_ROWS + 1, 20_000):
            best_condition(data, rng.integers(0, 20_000, size=n))
        assert splitcore._entropy_table() is table
        assert not table.flags.writeable
        assert table.nbytes <= splitcore._tri(TABLE_ROWS + 1) * 8

    def test_not_built_at_import(self):
        code = ("import treelab.cli, treelab.splitcore as s; "
                "assert s._entropy_table.cache_info().currsize == 0")
        src = str(Path(splitcore.__file__).parents[1])
        subprocess.run([sys.executable, "-c", code], check=True,
                       env=dict(os.environ, PYTHONPATH=src), timeout=60)


class TestTwoClassSearch:
    """Two-class nodes of up to TABLE_ROWS rows count class 0 in sort order."""

    @staticmethod
    def _table(rng, n_rows, width):
        # Every block of ``width`` attributes starts with a categorical
        # column; the other columns mix numeric and categorical ones.
        m = 3 * width if width <= 32 else 12
        kinds = "".join("c" if j % width == 0 or rng.random() < 0.3 else "n"
                        for j in range(m))
        labels = rng.integers(0, 2, size=n_rows)
        columns = []
        for kind in kinds:
            if kind == "c":
                levels = int(rng.integers(2, 9))
                noise = rng.integers(0, levels, size=n_rows)
                columns.append(np.where(rng.random(n_rows) < 0.4, labels * (levels - 1), noise))
            else:
                grid = int(rng.integers(2, 30))
                columns.append(labels * rng.integers(0, 3) + rng.integers(0, grid, size=n_rows))
        return dataset_from_arrays(np.column_stack(columns), labels, kinds=kinds,
                                   class_names=("k0", "k1"))

    @pytest.mark.parametrize("n", [1, 2, 30, TABLE_ROWS - 1, TABLE_ROWS, TABLE_ROWS + 1])
    def test_matches_recount_and_per_attribute_search(self, n):
        rng = np.random.default_rng(n)
        width = max(1, BLOCK_CELLS // n)
        for trial in range(12):
            data = self._table(rng, max(n, 40), width)
            rows = rng.integers(0, data.n_rows, size=n)
            got = repr(best_condition(data, rows, class_histogram(data, rows)))
            assert got == repr(best_condition(data, rows)), f"trial {trial}"
            want = oracles.per_attribute_best_condition(data, rows)
            assert got == repr(want), f"trial {trial}"


@st.composite
def large_numeric_tables(draw):
    """An all-numeric table of more than TABLE_ROWS rows and the rows to search.

    The rows hold 1, 3 or 8 classes.  Columns are noisy, hold 2-5 distinct
    values, are constant, copy an earlier column, or follow the row order.
    Mirrored tables read the same labels from both ends of the row order, so
    an order column's cuts after j and after n - 2 - j tie exactly, in
    different chunks.
    """
    classes = draw(st.sampled_from([1, 3, 8]))
    n = draw(st.integers(TABLE_ROWS + 1, 2000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    labels = rng.integers(0, classes, size=n)
    mirrored = draw(st.booleans())
    if mirrored:
        # A long run of one class at each end makes the tied cuts win.  A
        # run that fills whole chunks ends in a chunk whose bound equals the
        # gain at its end.
        run = int(rng.integers(n // 10, n // 4))
        if draw(st.booleans()):
            run -= run % splitcore.CHUNK_CELLS
        labels[:run] = 0
        labels[n - n // 2:] = labels[:n // 2][::-1]
    kinds = draw(st.lists(st.sampled_from(["noise", "few", "constant", "copy", "order"]),
                          min_size=1, max_size=12))
    if mirrored:
        kinds.insert(draw(st.integers(0, len(kinds))), "order")
    columns = []
    for kind in kinds:
        if kind == "copy" and columns:
            columns.append(columns[int(rng.integers(len(columns)))])
        elif kind == "few":
            levels = int(rng.integers(2, 6))
            columns.append((labels * int(rng.integers(0, 2)) + rng.integers(0, levels, size=n))
                           % levels)
        elif kind == "constant":
            columns.append(np.full(n, 1.5))
        elif kind == "order":
            columns.append(np.arange(n) * float(rng.choice([1.0, -0.5])))
        else:
            columns.append(np.round(rng.normal(size=n) + 0.3 * labels, int(rng.integers(1, 4))))
    data = dataset_from_arrays(np.column_stack(columns), labels,
                               class_names=tuple(f"k{c}" for c in range(max(classes, 3))))
    rows = np.arange(n) if mirrored or draw(st.booleans()) else rng.integers(0, n, size=n)
    return data, rows


@st.composite
def large_mixed_tables(draw):
    """A table of more than TABLE_ROWS rows mixing both attribute kinds, and its rows.

    The rows hold 2-10 classes.  Attributes come in blocks of the search's
    width, each all numeric or mixed, so pruned blocks compete with counted
    categorical attributes.  A binary categorical column that tracks the labels has a numeric
    copy of its codes before it or after it: the copy's one cut and the
    column's ``== 0`` candidate have the same valid side, so their gains tie
    exactly.  Tight tables start with a run of class 0 that fills whole
    chunks, read in row order by a numeric column: the chunk that ends the
    run has a bound equal to the gain at its end, the closest a chunk comes
    to the floor; their binary column is noisier, so that the run can win.
    """
    classes = draw(st.integers(2, 10))
    n = draw(st.integers(TABLE_ROWS + 1, 3000))
    width = BLOCK_CELLS // n
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    labels = rng.integers(0, classes, size=n)
    tight = draw(st.booleans())
    if tight:
        run = int(rng.integers(n // 8, n // 3))
        labels[:run - run % splitcore.CHUNK_CELLS] = 0
    noise = 0.5 if tight else draw(st.sampled_from([0.02, 0.2, 0.5]))
    binary = np.where(rng.random(n) < noise, rng.integers(0, 2, size=n), labels < classes // 2)
    kinds = []
    for numeric_block in draw(st.lists(st.booleans(), min_size=2, max_size=3)):
        block = ["n" if numeric_block or rng.random() < 0.5 else "c" for _ in range(width)]
        block[int(rng.integers(width))] = "n" if numeric_block else "c"
        kinds += block
    # The pair sits in the first numeric-only and the first mixed block.
    numeric_at = [j for j in range(0, len(kinds), width) if "c" not in kinds[j:j + width]]
    mixed_at = [j for j in range(0, len(kinds), width) if "c" in kinds[j:j + width]]
    columns = []
    for j, kind in enumerate(kinds):
        if kind == "c":
            levels = int(rng.integers(2, 9))
            columns.append(np.where(rng.random(n) < 0.3, labels % levels,
                                    rng.integers(0, levels, size=n)))
        else:
            columns.append(np.round(rng.normal(size=n) + 0.2 * labels, int(rng.integers(0, 3))))
    twin = None
    if numeric_at and mixed_at:
        twin = numeric_at[0] + int(rng.integers(width))
        cat = next(j for j in range(mixed_at[0], mixed_at[0] + width) if kinds[j] == "c")
        columns[twin], columns[cat] = binary.astype(np.float64), binary
    order = [j for j, kind in enumerate(kinds) if kind == "n" and j != twin]
    if tight and order:
        columns[order[int(rng.integers(len(order)))]] = np.arange(n, dtype=np.float64)
    data = dataset_from_arrays(np.column_stack(columns), labels, kinds="".join(kinds),
                               class_names=tuple(f"k{c}" for c in range(classes)))
    rows = np.arange(n) if tight or draw(st.booleans()) else rng.integers(0, n, size=n)
    return data, rows


class TestPrunedSearch:
    """All-numeric blocks of nodes above TABLE_ROWS rows score only chunks that can win."""

    @given(table=large_numeric_tables())
    @settings(max_examples=60, deadline=None)
    def test_matches_per_attribute_search(self, table):
        data, rows = table
        want = oracles.per_attribute_best_condition(data, rows)
        assert repr(best_condition(data, rows)) == repr(want)

    @given(table=large_mixed_tables())
    @settings(max_examples=40, deadline=None)
    def test_mixed_blocks_match_per_attribute_search(self, table):
        data, rows = table
        want = oracles.per_attribute_best_condition(data, rows)
        assert repr(best_condition(data, rows)) == repr(want)

    @pytest.mark.parametrize("copy_first", [True, False])
    def test_numeric_copy_of_a_binary_column_ties_it(self, copy_first):
        # A 1 500-row, 4-class node counts its two categorical attributes
        # and prunes its numeric ones, in blocks of 10.  The binary column
        # and its numeric copy win with the same gain, so the lower
        # attribute takes the split.
        rng = np.random.default_rng(1500)
        n = 1500
        labels = rng.integers(0, 4, size=n)
        binary = np.where(rng.random(n) < 0.05, rng.integers(0, 2, size=n), labels < 2)
        values = np.round(rng.normal(size=(n, 20)) + 0.1 * labels[:, None], 2)
        kinds = ["n"] * 20
        twin, cat = (3, 14) if copy_first else (14, 3)
        for j in (cat, 6 + 10 * copy_first):
            kinds[j] = "c"
            values[:, j] = rng.integers(0, 5, size=n)
        values[:, twin], values[:, cat] = binary, binary
        data = dataset_from_arrays(values, labels, kinds="".join(kinds))
        rows = np.arange(n)
        assert BLOCK_CELLS // n == 10 and data.numeric[twin // 10 * 10:][:10].all()
        got = best_condition(data, rows)
        want = (Condition(attribute=twin, op="le", value=0.5) if copy_first
                else Condition(attribute=cat, op="eq", value=0.0))
        assert got == want
        assert repr(got) == repr(oracles.per_attribute_best_condition(data, rows))

    def test_numeric_cut_just_above_an_earlier_categorical_wins(self):
        # The categorical attributes 1 and 3 are counted before the numeric
        # blocks are pruned.  Attribute 1 isolates 199 rows of class 0; the
        # order column 7 isolates 200, for less than 1e-3 bits more, at the
        # end of a run of whole pure chunks, whose bound equals its gain.  A
        # floor raised by the slightest slack above the categorical gain
        # drops it.
        rng = np.random.default_rng(3000)
        n = 3000
        labels = np.where(rng.random(n) < 0.25, 0, rng.integers(1, 4, size=n))
        labels[:200] = 0
        labels[200:208] = [1, 2, 3, 1, 2, 3, 1, 2]
        values = np.round(rng.normal(size=(n, 10)), 2)
        values[:, 1] = np.arange(n) < 199
        values[:, 3] = rng.integers(0, 4, size=n)
        values[:, 7] = np.arange(n)
        data = dataset_from_arrays(values, labels, kinds="ncncnnnnnn")
        rows = np.arange(n)
        assert BLOCK_CELLS // n == 5 and 200 % splitcore.CHUNK_CELLS == 0
        want = Condition(attribute=7, op="le", value=199.5)
        categorical = Condition(attribute=1, op="eq", value=0.0)
        margin = oracles.gain_of(data, rows, want) - oracles.gain_of(data, rows, categorical)
        assert 0 < margin < 1e-3
        got = best_condition(data, rows)
        assert got == want
        assert repr(got) == repr(oracles.per_attribute_best_condition(data, rows))

    def test_mirrored_tie_breaks_to_lowest_threshold(self):
        # Labels 0 x 200, then 1, 2 at random, then the mirror: the cuts after
        # 200 and after n - 200 rows tie exactly, in chunks far apart, and
        # the copies of the column in later attributes and blocks tie too.
        rng = np.random.default_rng(31)
        n = 3000
        labels = np.zeros(n, dtype=np.int64)
        labels[200:n // 2] = rng.integers(1, 3, size=n // 2 - 200)
        labels[n // 2:] = labels[:n // 2][::-1]
        order = np.arange(n, dtype=np.float64)
        noise = rng.normal(size=(n, 5))
        data = dataset_from_arrays(np.column_stack([noise, order, noise, order]), labels)
        rows = np.arange(n)
        width = BLOCK_CELLS // n
        assert 5 // width != 11 // width
        cond = best_condition(data, rows)
        assert cond == Condition(attribute=5, op="le", value=199.5)
        assert repr(cond) == repr(oracles.per_attribute_best_condition(data, rows))

    @staticmethod
    def _bound_errors(labels, classes):
        """How far cuts exceed their chunk's bound, and chunk ends their bound-pass gain.

        ``labels`` is a ``(rows, n)`` array of class sequences along the
        sorted rows of a block, each a permutation of the node's labels.
        Exact gains come from ``_gains`` over a few thousand cuts at a time.
        Returns the largest ``gain - bound`` over every cut and the largest
        ``|reached - gain|`` over the chunk ends.
        """
        rows, n = labels.shape
        size = splitcore.CHUNK_CELLS
        parent = np.bincount(labels[0], minlength=classes)
        chunks = -(-n // size)
        sizes = np.minimum(np.arange(chunks + 1) * size, n)
        ends = np.zeros((classes, rows, chunks + 1), dtype=np.int64)
        np.add.at(ends, (labels, np.arange(rows)[:, None], np.arange(n) // size + 1), 1)
        np.cumsum(ends, axis=2, out=ends)
        bounds, reached = splitcore._chunk_bounds(splitcore._xlog2x(n), parent, ends, sizes)
        step = max(1, 2**18 // (classes * size)) * size
        excess = gap = -np.inf
        for row in range(rows):
            for first in range(0, n, step):
                chunk = first // size
                hot = labels[row, first:first + step] == np.arange(classes)[:, None]
                valid = np.cumsum(hot, axis=1) + ends[:, row, chunk, None]
                n_valid = np.arange(first + 1, first + hot.shape[1] + 1)
                gains = splitcore._gains(parent, valid, n_valid)
                padded = np.full(-(-gains.size // size) * size, -np.inf)
                padded[:gains.size] = gains
                inside = padded.reshape(-1, size).max(axis=1)
                excess = max(excess, (inside - bounds[row, chunk:chunk + inside.size]).max())
                last = np.minimum(np.arange(size - 1, padded.size, size), gains.size - 1)
                gap = max(gap, np.abs(reached[row, chunk:chunk + inside.size] - gains[last]).max())
        return excess, gap

    def test_bounds_cover_every_cut_of_their_chunk(self):
        # Random class sequences along the sorted rows of a block, skewed and
        # with runs: no cut inside a chunk scores above the chunk's bound,
        # and each chunk's end scores what the bound pass says it does.
        rng = np.random.default_rng(8)
        for trial in range(300):
            classes = int(rng.integers(2, 10))
            n = int(rng.integers(1, 300))
            weights = rng.dirichlet(np.full(classes, rng.choice([0.2, 1.0, 5.0])))
            base = rng.choice(classes, size=n, p=weights)
            labels = np.stack([base, np.sort(base), rng.permutation(base)])
            excess, gap = self._bound_errors(labels, classes)
            assert excess <= 1e-12 and gap <= 1e-12, trial

    @pytest.mark.parametrize("classes, n", [(200, 50_000), (1_000, 20_000), (3_000, 10_000)])
    def test_bound_rounding_stays_far_below_the_margin(self, classes, n):
        # The bounds' c log2 c terms grow with n and their class sums with
        # the classes; the module docstring bounds the rounding at ~1e-11
        # bits for 10 000 classes, a hundredth of PRUNE_MARGIN.  A sorted
        # row starts with a pure chunk, whose bound equals its end's gain.
        rng = np.random.default_rng(classes)
        base = rng.choice(classes, size=n, p=rng.dirichlet(np.full(classes, 0.5)))
        excess, gap = self._bound_errors(np.stack([np.sort(base), rng.permutation(base)]),
                                         classes)
        assert excess <= 1e-11 and gap <= 1e-11
        assert 1e-11 <= splitcore.PRUNE_MARGIN / 100

    def test_large_root_scores_few_cuts(self, monkeypatch):
        # A 20 000-row, 3-class root scores well under 5% of its cuts.
        rng = np.random.default_rng(20000)
        data = gaussian_dataset(rng, 20_000, 5, 3, spread=0.5)
        rows = np.arange(data.n_rows)
        scored = []
        gains = splitcore._gains

        def spy(parent, valid, n_valid):
            scored.append(n_valid.size)
            return gains(parent, valid, n_valid)

        monkeypatch.setattr(splitcore, "_gains", spy)
        got = best_condition(data, rows)
        assert 0 < sum(scored) < 0.05 * data.n_rows * data.n_attributes
        assert repr(got) == repr(oracles.per_attribute_best_condition(data, rows))


@st.composite
def large_categorical_tables(draw):
    """A table with categorical attributes, and a node of more than TABLE_ROWS of its rows.

    The node holds 1, 2, 3, 8 or 300 classes and is the table's first ``n``
    rows, or a draw from them; the table may hold ``n // 2`` rows more.
    Categorical attributes come in any order among numeric ones, so their
    level ranges are not contiguous.  A categorical attribute has 2-12
    levels, or 40 of which the node holds only the even ones, or one that
    holds every row of the node (the other rows hold others), or one level
    per table row: more levels than the node has rows when the table is
    longer.  A binary column that tracks the labels comes as a categorical
    attribute and a numeric copy, in either order: its ``== 0`` and its
    ``<= 0.5`` candidates have the same valid side, so their gains tie.
    """
    classes = draw(st.sampled_from([1, 2, 3, 8, 300]))
    n = draw(st.integers(TABLE_ROWS + 1, 2000))
    total = n + draw(st.sampled_from([0, n // 2]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    labels = rng.integers(0, classes, size=total)
    inside = np.arange(total) < n
    kinds = draw(st.lists(st.sampled_from(["numeric", "levels", "even", "one", "per_row"]),
                          min_size=1, max_size=8))
    if draw(st.booleans()):
        pair = ["binary", "copy"] if draw(st.booleans()) else ["copy", "binary"]
        at = draw(st.integers(0, len(kinds)))
        kinds[at:at] = pair
    binary = np.where(rng.random(total) < 0.1, rng.integers(0, 2, size=total),
                      labels < max(classes // 2, 1))
    columns = []
    for kind in kinds:
        if kind == "numeric":
            columns.append(np.round(rng.normal(size=total) + 0.2 * labels, int(rng.integers(0, 3))))
        elif kind == "levels":
            levels = int(rng.integers(2, 13))
            columns.append(np.where(rng.random(total) < 0.3, labels % levels,
                                    rng.integers(0, levels, size=total)))
        elif kind == "even":
            column = rng.integers(0, 40, size=total)
            columns.append(np.where(inside, column - column % 2, column))
        elif kind == "one":
            columns.append(np.where(inside, 0, rng.integers(1, 5, size=total)))
        elif kind == "per_row":
            columns.append(rng.permutation(total))
        else:
            columns.append(binary)
    data = dataset_from_arrays(
        np.column_stack(columns), labels,
        kinds="".join("n" if kind in ("numeric", "copy") else "c" for kind in kinds),
        class_names=tuple(f"k{c}" for c in range(max(classes, 2))))
    rows = np.arange(n) if draw(st.booleans()) else rng.integers(0, n, size=n)
    return data, rows


class TestCountedSearch:
    """Nodes above TABLE_ROWS rows count their categorical attributes per level."""

    @given(table=large_categorical_tables())
    @settings(max_examples=60, deadline=None)
    def test_matches_per_attribute_search(self, table):
        data, rows = table
        want = oracles.per_attribute_best_condition(data, rows)
        assert repr(best_condition(data, rows)) == repr(want)

    @pytest.mark.parametrize("categorical_first", [True, False])
    def test_categorical_and_numeric_copy_tie(self, categorical_first):
        # A 2 000-row, 8-class node: the binary column is counted, its
        # numeric copy pruned, and both win with the same gain, so the lower
        # attribute takes the split.
        rng = np.random.default_rng(2000)
        n = 2000
        labels = rng.integers(0, 8, size=n)
        binary = np.where(rng.random(n) < 0.05, rng.integers(0, 2, size=n), labels < 4)
        values = np.round(rng.normal(size=(n, 6)) + 0.1 * labels[:, None], 2)
        kinds = ["n", "c", "n", "n", "c", "n"]
        cat, twin = (1, 3) if categorical_first else (4, 2)
        values[:, [1, 4]] = rng.integers(0, 6, size=(n, 2))
        values[:, cat], values[:, twin] = binary, binary
        data = dataset_from_arrays(values, labels, kinds="".join(kinds))
        rows = np.arange(n)
        got = best_condition(data, rows)
        want = (Condition(attribute=cat, op="eq", value=0.0) if categorical_first
                else Condition(attribute=twin, op="le", value=0.5))
        assert got == want
        assert repr(got) == repr(oracles.per_attribute_best_condition(data, rows))


def _batch_table(rng, classes, kinds, n_rows, grid=5):
    """A table of the given kinds on a small value grid, with label-led cells.

    Attribute 0 is constant and the last copies attribute 1 (the same kind),
    so every node ties the copy with the original.
    """
    labels = rng.integers(0, classes, size=n_rows)
    while np.unique(labels).size < 2:
        labels = rng.integers(0, classes, size=n_rows)
    columns = [np.where(rng.random(n_rows) < 0.5, labels % grid, rng.integers(0, grid, size=n_rows))
               for _ in kinds]
    columns[0] = np.zeros(n_rows)
    columns.append(columns[1])
    return dataset_from_arrays(np.column_stack(columns), labels, kinds=kinds + kinds[1],
                               class_names=tuple(f"k{i}" for i in range(classes)))


def _batch_nodes(rng, data, count, most):
    """``count`` bootstrap-like row draws of 1 to ``most`` rows each."""
    return [rng.integers(0, data.n_rows, size=int(rng.integers(1, most + 1)))
            for _ in range(count)]


class TestBatchSearch:
    """The batch search of a level's small nodes returns each node's best_condition."""

    @given(seed=st.integers(0, 2**32 - 1), classes=st.sampled_from([2, 3, 8, 300]),
           kinds=st.text("nc", min_size=2, max_size=6), count=st.integers(8, 40))
    @settings(max_examples=120, deadline=None)
    def test_matches_per_node_search(self, seed, classes, kinds, count):
        # 8-40 nodes of 1-64 rows drawn with repeats, of one to 300 classes
        # each, on interleaved numeric and categorical attributes with a
        # constant one and a tied copy.
        rng = np.random.default_rng(seed)
        data = _batch_table(rng, classes, kinds, 200, grid=int(rng.integers(2, 9)))
        nodes = _batch_nodes(rng, data, count, SEGMENT_ROWS)
        got = best_conditions(data, nodes)
        assert len(got) == count
        for rows, cond in zip(nodes, got):
            assert repr(cond) == repr(best_condition(data, rows))

    def test_ties_break_to_the_first_attribute(self):
        # Every node that splits picks attribute 1 over its copy.
        rng = np.random.default_rng(5)
        data = _batch_table(rng, 3, "cnc", 200)
        nodes = _batch_nodes(rng, data, 30, SEGMENT_ROWS)
        found = [cond for cond in best_conditions(data, nodes) if cond is not None]
        assert found and all(cond.attribute != data.n_attributes - 1 for cond in found)

    @pytest.mark.parametrize("classes", [2, 5])
    def test_blocks_of_attributes(self, classes):
        # More than BLOCK_CELLS / SEGMENT_ROWS attributes take two attribute
        # blocks, and the nodes several batches.
        rng = np.random.default_rng(classes)
        m = BLOCK_CELLS // SEGMENT_ROWS + 40
        labels = rng.integers(0, classes, size=400)
        values = rng.integers(0, 6, size=(400, m)) + (rng.random((400, m)) < 0.2) * labels[:, None]
        data = dataset_from_arrays(values, labels, class_names=tuple(f"k{i}" for i in range(classes)))
        nodes = _batch_nodes(rng, data, 12, SEGMENT_ROWS)
        for rows, cond in zip(nodes, best_conditions(data, nodes)):
            assert repr(cond) == repr(oracles.per_attribute_best_condition(data, rows))

    def test_scratch_is_bounded(self):
        # One batch of BLOCK_CELLS cells, 64-row nodes of a 300-class table
        # on 16 attributes: its keys and group arrays, the running class
        # counts of every group (a class row each) and one chunk's gain
        # evaluation at a time, within the bound of the pruned searches.
        classes, m, n = 300, 16, BLOCK_CELLS // 16
        rng = np.random.default_rng(300)
        labels = rng.integers(0, classes, size=4 * n)
        data = dataset_from_arrays(rng.normal(size=(4 * n, m)), labels,
                                   class_names=tuple(f"k{i}" for i in range(classes)))
        nodes = np.split(rng.permutation(4 * n)[:n], n // SEGMENT_ROWS)
        best_conditions(data, nodes)  # builds the table's first arrays untraced
        tracemalloc.start()
        try:
            best_conditions(data, nodes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < (12 + 2 * classes) * (BLOCK_CELLS + n) * 8


class TestSearchesFromWalks:
    """The nested row subsets of real walks, each search checked against the oracle."""

    @staticmethod
    def _searches(fit, tables, params, test_step, monkeypatch, batches=None):
        """Every search of seeded fits on the tables, each checked against the oracle.

        Searches made one at a time and in batches are both recorded, and
        ``batches`` (if given) collects each batch's node count.
        """
        searches = []

        def spy(data, rows, hist=None):
            got = best_condition(data, rows, hist)
            searches.append((data, np.array(rows), got))
            return got

        def batch_spy(data, nodes):
            found = best_conditions(data, nodes)
            searches.extend((data, np.array(rows), got) for rows, got in zip(nodes, found))
            if batches is not None:
                batches.append(len(nodes))
            return found

        monkeypatch.setattr(eager_tree, "best_condition", spy)
        monkeypatch.setattr(eager_tree, "best_conditions", batch_spy)
        for data in tables:
            fit(data, np.arange(data.n_rows), np.arange(0, data.n_rows, test_step), 2, params, 17)
        for data, rows, got in searches:
            want = oracles.per_attribute_best_condition(data, rows)
            assert repr(got) == repr(want), rows.size
        return searches

    @pytest.mark.parametrize("classes", [2, 3, 8])
    @pytest.mark.parametrize("fit", [fit_predict_eager, fit_predict_batched, fit_predict_lazy])
    def test_every_search_matches_per_attribute_search(self, fit, classes, monkeypatch):
        # The eager and batched walks search their many small nodes of a
        # depth in batches; a lazy walk holds one node per depth and never does.
        rng = np.random.default_rng(40 + classes)
        tables = [gaussian_dataset(rng, 150, 4, classes, spread=0.8),
                  random_dataset(rng, 150, 3, 2, classes, value_grid=6),
                  gaussian_dataset(rng, 1000, 4, classes, spread=0.5)]
        batches = []
        searches = self._searches(fit, tables, SplitParams(min_count=2, max_depth=8), 25,
                                  monkeypatch, batches)
        two = sum(np.count_nonzero(class_histogram(data, rows)) == 2 for data, rows, _ in searches)
        assert len(searches) >= 20 and two >= 5
        assert (len(batches) >= 1) == (fit is not fit_predict_lazy)
        assert all(count >= SEGMENT_MIN for count in batches)

    @pytest.mark.parametrize("fit", [fit_predict_eager, fit_predict_batched, fit_predict_lazy])
    def test_pruned_searches_match_per_attribute_search(self, fit, monkeypatch):
        # The top nodes of a 3-class table of 1 500 rows hold more than
        # TABLE_ROWS rows, so their all-numeric blocks are pruned.
        rng = np.random.default_rng(1500)
        tables = [gaussian_dataset(rng, 1500, 4, 3, spread=0.6)]
        searches = self._searches(fit, tables, SplitParams(min_count=2, max_depth=5), 600,
                                  monkeypatch)
        assert sum(rows.size > TABLE_ROWS for _, rows, _ in searches) >= 3

    @pytest.mark.parametrize("fit", [fit_predict_eager, fit_predict_batched, fit_predict_lazy])
    def test_counted_searches_match_per_attribute_search(self, fit, monkeypatch):
        # The top nodes of a 5-class table of 1 500 rows with 3 numeric and
        # 4 categorical attributes count their categorical attributes.
        rng = np.random.default_rng(1501)
        tables = [random_dataset(rng, 1500, 3, 4, 5, value_grid=40)]
        searches = self._searches(fit, tables, SplitParams(min_count=2, max_depth=5), 600,
                                  monkeypatch)
        assert sum(rows.size > TABLE_ROWS for _, rows, _ in searches) >= 3


class TestSplitParams:
    def test_defaults(self):
        params = SplitParams()
        assert params.min_count == 5 and params.max_depth == 20

    def test_validation(self):
        with pytest.raises(ValueError):
            SplitParams(min_count=0)
        with pytest.raises(ValueError):
            SplitParams(max_depth=-1)
