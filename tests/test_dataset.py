import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import awkward_datasets, dataset_from_arrays, random_dataset
from oracles import (
    SplitMix64,
    per_attribute_best_condition,
    reference_load_csv,
    reference_load_prediction_rows,
)
from treelab import (
    DatasetError,
    SplitParams,
    best_condition,
    bootstrap,
    fit_predict_batched,
    fit_predict_eager,
    fit_predict_lazy,
    load_csv,
    load_prediction_rows,
    make_folds,
)
from treelab.dataset import row_indices


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestLoadCsv:
    def test_minimal_parse(self, tmp_path):
        # header row named, one numeric attribute, labels coded in
        # first-appearance order
        path = write(tmp_path, "a,b\n1,x\n2,y\n3,x\n")
        data = load_csv(path)
        assert data.n_rows == 3
        assert data.attr_names == ("a",)
        assert data.categories == (None,)
        assert data.class_names == ("x", "y")
        assert data.labels.tolist() == [0, 1, 0]
        assert data.name == "data"

    def test_headerless_parse(self, tmp_path):
        path = write(tmp_path, "1,x\n2,y\n")
        data = load_csv(path, has_header=False)
        assert data.n_rows == 2
        assert data.attr_names == ("a0",)
        assert data.categories == (None,)
        assert data.class_names == ("x", "y")

    def test_single_class_rejected(self, tmp_path):
        # A file whose label column holds one distinct value is unusable.
        path = write(tmp_path, "a,b\n1,x\n")
        with pytest.raises(DatasetError, match="2 distinct classes"):
            load_csv(path)

    def test_missing_rows_dropped(self, tmp_path):
        rows = "a,b\n1,x\n?,y\n3,x\n4,y\n5,x\n"
        data = load_csv(write(tmp_path, rows))
        assert data.n_rows == 4

    def test_empty_cell_is_missing(self, tmp_path):
        data = load_csv(write(tmp_path, "a,b\n1,x\n,y\n3,y\n"))
        assert data.n_rows == 2

    def test_mixed_column_becomes_categorical(self, tmp_path):
        data = load_csv(write(tmp_path, "a,b\n1,x\nfoo,y\n2,x\n"))
        assert data.categories[0] == ("1", "foo", "2")
        assert data.values[:, 0].tolist() == [0.0, 1.0, 2.0]

    def test_non_finite_numbers_are_categorical(self, tmp_path):
        data = load_csv(write(tmp_path, "a,b\n1,x\ninf,y\nnan,x\n"))
        assert data.categories == (("1", "inf", "nan"),)

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(DatasetError, match="cannot read"):
            load_csv(tmp_path / "absent.csv")

    def test_single_column_rejected(self, tmp_path):
        with pytest.raises(DatasetError, match="2 columns"):
            load_csv(write(tmp_path, "b\nx\ny\n"))

    def test_all_rows_missing_rejected(self, tmp_path):
        with pytest.raises(DatasetError, match="no data rows"):
            load_csv(write(tmp_path, "a,b\n?,x\n?,y\n"))

    def test_ragged_rows_rejected(self, tmp_path):
        with pytest.raises(DatasetError, match="cells"):
            load_csv(write(tmp_path, "a,b\n1,x\n2\n"))

    def test_breast_reference_shape(self, breast_csv):
        data = load_csv(breast_csv)
        assert data.n_rows == 569
        assert data.n_attributes == 30
        assert data.categories == (None,) * 30
        assert data.class_count == 2


# Cells the loader must read exactly as the per-cell reference does: padded
# and missing cells, quoted commas and line ends, non-finite and unusual
# numbers, and numbers that differ only as text.
NUMBER_CELLS = ["1", " 1 ", "2.5", "-0", "+.5", "1_000", "\u0663", "0.1", "?", ""]
OTHER_CELLS = [
    "\t?\t", "nan", "-inf", "1e400", "1.0", "1.00", "a", " b ", "c,d",
    'say "hi"', "e\r\nf", "g\rh",
]
LABEL_CELLS = ["x", " y ", "z", "1.0", "1.00", "?"]
NAME_CELLS = ["p", "q", "r", "label", " s "]


def csv_field(cell, quote):
    if quote or any(ch in cell for ch in ',"\r\n'):
        return '"' + cell.replace('"', '""') + '"'
    return cell


@st.composite
def csv_texts(draw, header, columns):
    """A CSV file: ``header`` if given, then rows whose cell ``j`` is drawn
    from ``columns[j]``, with random quoting, line ends and blank lines."""
    rows = draw(st.lists(
        st.tuples(*(st.sampled_from(pool) for pool in columns)), min_size=2, max_size=8))
    if header is not None:
        rows.insert(0, header)
    line_end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    lines = [
        ",".join(csv_field(cell, draw(st.booleans())) for cell in row) for row in rows
    ]
    for _ in range(draw(st.integers(0, 2))):
        # a blank line is skipped; a line of spaces is a one-cell row
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["", "", "", " "])))
    return line_end.join(lines) + draw(st.sampled_from(["", line_end]))


def cell_pools(draw, m):
    return [draw(st.sampled_from([NUMBER_CELLS, NUMBER_CELLS + OTHER_CELLS]))
            for _ in range(m)]


def outcome(load, *args, **kwargs):
    try:
        return load(*args, **kwargs), None
    except (DatasetError, ValueError) as exc:
        return None, (type(exc), str(exc))


class TestLoaderMatchesReference:
    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_load_csv_and_prediction_rows(self, data):
        draw = data.draw
        m = draw(st.integers(1, 3))
        has_header = draw(st.booleans())
        header = [draw(st.sampled_from(NAME_CELLS)) for _ in range(m + 1)]
        train_text = draw(csv_texts(header if has_header else None,
                                    cell_pools(draw, m) + [LABEL_CELLS]))
        with tempfile.TemporaryDirectory() as tmp:
            train_path = Path(tmp) / "train.csv"
            train_path.write_text(train_text, encoding="utf-8", newline="")
            train, error = outcome(load_csv, train_path, has_header=has_header)
            want, want_error = outcome(reference_load_csv, train_path, has_header)
            assert error == want_error
            if train is None:
                return
            assert train.values.tobytes() == want["values"].tobytes()
            assert train.labels.tolist() == want["labels"]
            for name in ("attr_names", "label_name", "class_names", "categories"):
                assert getattr(train, name) == want[name], name

            width = draw(st.sampled_from([m, m, m + 1, m + 1, m + 2]))
            names = list(train.attr_names) + [train.label_name, "extra"]
            test_header = draw(st.sampled_from([names[:width]] * 3 + [["p"] * width]))
            test_text = draw(csv_texts(
                test_header if has_header else None,
                cell_pools(draw, m) + [LABEL_CELLS, ["0"]][:width - m]))
            test_path = Path(tmp) / "test.csv"
            test_path.write_text(test_text, encoding="utf-8", newline="")
            matrix, error = outcome(load_prediction_rows, train, test_path,
                                    has_header=has_header)
            want, want_error = outcome(reference_load_prediction_rows, train,
                                       test_path, has_header)
            assert error == want_error
            if matrix is not None:
                assert matrix.shape == want.shape
                assert matrix.tobytes() == want.tobytes()

    def test_first_bad_cell_in_row_order_is_named(self, tmp_path):
        train = load_csv(write(tmp_path, "a,b,label\n1,2,x\n3,4,y\n"))
        test = write(tmp_path, "a,b\n1,2\n5,nan\nzz,1e400\nyy,3\n", name="test.csv")
        with pytest.raises(DatasetError, match="non-numeric cell 'zz' in numeric column 'a'"):
            load_prediction_rows(train, test)


class TestMakeFolds:
    def test_even_split(self):
        plan = make_folds(6, 3, seed=1)
        assert np.bincount(plan).tolist() == [2, 2, 2]

    def test_remainder_distribution(self):
        plan = make_folds(7, 3, seed=42)
        assert sorted(np.bincount(plan).tolist()) == [2, 2, 3]

    def test_leave_one_out(self):
        plan = make_folds(569, 569, seed=1)
        assert np.bincount(plan).tolist() == [1] * 569

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            make_folds(5, 1, seed=0)
        with pytest.raises(ValueError):
            make_folds(5, 6, seed=0)

    @given(
        n=st.integers(2, 200),
        k=st.integers(2, 200),
        seed=st.integers(0, 2**64 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_partition_properties(self, n, k, seed):
        k = min(k, n)
        assignment = make_folds(n, k, seed)
        assert assignment.dtype == np.int64 and not assignment.flags.writeable
        assert assignment.size == n
        assert assignment.min() >= 0 and assignment.max() < k
        sizes = np.bincount(assignment, minlength=k)
        assert sizes.max() - sizes.min() <= 1
        again = make_folds(n, k, seed)
        assert np.array_equal(assignment, again)

    @pytest.mark.parametrize("seed", [0, 1, 12345, 2**63, 2**64 - 1])
    @pytest.mark.parametrize("n", [2, 7, 569, 18_000])
    def test_matches_scalar_swap_loop(self, seed, n):
        # the vectorised draws reproduce the sequential Fisher-Yates shuffle
        order = list(range(n))
        rng = SplitMix64(seed)
        for i in range(n - 1, 0, -1):
            j = rng.below(i + 1)
            order[i], order[j] = order[j], order[i]
        k = min(n, 10)
        want = [0] * n
        for position, row in enumerate(order):
            want[row] = position % k
        assert make_folds(n, k, seed).tolist() == want

    def test_train_test_complement(self):
        # The test folds together hold every row exactly once.
        plan = make_folds(11, 4, seed=9)
        merged = np.sort(np.concatenate([np.flatnonzero(plan == f) for f in range(4)]))
        assert np.array_equal(merged, np.arange(11))


class TestBootstrap:
    def test_single_row(self):
        sample = bootstrap([7], seed=3)
        assert sample.tolist() == [7]

    def test_deterministic(self):
        a = bootstrap(np.arange(10), seed=7)
        b = bootstrap(np.arange(10), seed=7)
        assert np.array_equal(a, b)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            bootstrap([], seed=0)

    def test_read_only_int64_array(self):
        indices = np.arange(10, dtype=np.int64)
        sample = bootstrap(indices, seed=5)
        assert type(sample) is np.ndarray
        assert sample.dtype == np.int64
        assert not sample.flags.writeable
        with pytest.raises(ValueError):
            sample[0] = 0
        # the caller's array is not frozen with it
        assert indices.flags.writeable

    @pytest.mark.parametrize("seed", [0, 1, 12345, 2**63, 2**64 - 1])
    @pytest.mark.parametrize("n", [1, 7, 512, 18_000])
    def test_matches_scalar_stream(self, seed, n):
        # the vectorised draw is the stream of SplitMix64(seed).below(n)
        indices = np.arange(5, 5 + n) * 3
        rng = SplitMix64(seed)
        want = [int(indices[rng.below(n)]) for _ in range(n)]
        assert bootstrap(indices, seed).tolist() == want

    @given(
        n=st.integers(1, 300),
        seed=st.integers(0, 2**64 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_length_and_membership(self, n, seed):
        indices = np.arange(100, 100 + n)
        sample = bootstrap(indices, seed)
        assert sample.size == n
        assert np.isin(sample, indices).all()

    def test_distinct_fraction_matches_expectation(self):
        # Drawing n of n with replacement keeps 1 - (1 - 1/n)^n distinct rows
        # in expectation; check the Monte-Carlo average over 100 seeds.
        n = 1000
        expected = 1.0 - (1.0 - 1.0 / n) ** n
        indices = np.arange(n)
        fractions = [
            np.unique(bootstrap(indices, seed)).size / n
            for seed in range(100)
        ]
        assert abs(float(np.mean(fractions)) - expected) < 0.05


class TestRowIndices:
    """Fits take row indices only: integers, not booleans, each a row of the data."""

    BAD = {
        "bool_mask": lambda n: np.arange(n) < n // 2,
        "float": lambda n: np.arange(n // 2, dtype=np.float64),
        "minus_one": lambda n: np.array([0, 1, -1]),
        "n_rows": lambda n: np.array([0, 1, n]),
    }

    @pytest.mark.parametrize("fit", [fit_predict_eager, fit_predict_batched, fit_predict_lazy])
    @pytest.mark.parametrize("side", ["train", "test"])
    @pytest.mark.parametrize("bad", sorted(BAD))
    def test_bad_indices_rejected(self, fit, side, bad):
        data = random_dataset(np.random.default_rng(3), 12, 2, 0, 2)
        rows = self.BAD[bad](data.n_rows)
        good = np.arange(data.n_rows)
        train, test = (rows, good) if side == "train" else (good, rows)
        with pytest.raises(ValueError, match="row indices"):
            fit(data, train, test, 1, SplitParams(min_count=1), 0)

    def test_integer_kinds_accepted(self, toy4):
        for rows in ([3, 0], np.array([3, 0], dtype=np.uint8), np.array([3, 0], dtype=np.int32)):
            got = row_indices(toy4, rows)
            assert got.dtype == np.int64 and got.tolist() == [3, 0]
        assert row_indices(toy4, np.array([], dtype=np.int64)).size == 0


class TestRankCodes:
    """``codes`` and ``levels`` rank each column's values for the split search."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_values_rejected(self, bad):
        with pytest.raises(DatasetError, match="finite"):
            dataset_from_arrays([[1.0, 2.0], [bad, 3.0]], [0, 1])

    @given(data=awkward_datasets())
    @settings(max_examples=200, deadline=None)
    def test_levels_decode_codes(self, data):
        assert data.codes.shape == (data.n_attributes, data.n_rows)
        assert data.codes.dtype == np.int32
        assert not data.codes.flags.writeable and not data.levels.flags.writeable
        for j in range(data.n_attributes):
            assert np.array_equal(data.levels[data.codes[j]], data.values[:, j])

    @given(data=awkward_datasets())
    @settings(max_examples=200, deadline=None)
    def test_each_column_owns_a_contiguous_ascending_range(self, data):
        first = 0
        for j in range(data.n_attributes):
            used = np.unique(data.codes[j])
            # every level of the column is used, and the next column's
            # range starts right after this one's
            assert used.tolist() == list(range(first, first + used.size))
            column_levels = data.levels[used]
            assert np.all(column_levels[1:] > column_levels[:-1])
            first += used.size
        assert first == data.levels.size

    def test_int32_on_the_benchmark_tables(self, tmp_path):
        sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))
        try:
            import workloads
        finally:
            sys.path.pop(0)
        for generate in (workloads.generate_paper_cv, workloads.generate_big_predict,
                         workloads.generate_categorical_trace):
            generate(5, tmp_path)
        for name in ("cv.csv", "big_train.csv", "cat_train.csv"):
            assert load_csv(tmp_path / name).codes.dtype == np.int32, name

    def test_int64_when_keys_overflow_int32(self):
        # 2**17 levels shifted by the 15 label bits of 2**14 + 1 classes make
        # keys of up to 2**32 - 1, past int32: the codes widen, and the search
        # still agrees with the per-attribute reference.
        rng = np.random.default_rng(17)
        n, class_count = 2**17, 2**14 + 1
        values = rng.permutation(n).astype(np.float64)
        labels = rng.integers(0, class_count, size=n)
        data = dataset_from_arrays(values, labels,
                                   class_names=tuple(f"k{c}" for c in range(class_count)))
        assert data.codes.dtype == np.int64
        assert (int(data.codes.max()) << 15) > np.iinfo(np.int32).max
        assert np.array_equal(data.levels[data.codes[0]], values)
        for size in (2, 7, 40):
            # half the rows hold the largest codes
            rows = np.concatenate([np.argsort(values)[-(size // 2):],
                                   rng.integers(0, n, size=size - size // 2)])
            got = best_condition(data, rows)
            assert repr(got) == repr(per_attribute_best_condition(data, rows))
