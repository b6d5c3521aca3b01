import csv
import io
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from conftest import awkward_datasets, awkward_tables, dataset_from_arrays, random_dataset
from oracles import (
    SplitMix64,
    decode,
    iter_candidates,
    per_attribute_best_condition,
    reference_load_csv,
    reference_load_prediction_rows,
)
from treelab import (
    Condition,
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
    partition,
    run_cv,
)
from treelab import dataset as dataset_module
from treelab.dataset import row_indices
from treelab.trace import format_trace_line


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
        assert decode(data)[:, 0].tolist() == [0.0, 1.0, 2.0]

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
# Plain files: ASCII numbers and labels, no quoting, no bare \r line end.
PLAIN_NUMBER_CELLS = ["1", " 1 ", "2.5", "-0", "+.5", "0.1", "1e-3", "-7.250000", "3.0E+2"]
PLAIN_LABEL_CELLS = ["x", " y ", "z", "1.0", "1.00"]


def csv_field(cell, quote):
    if quote or any(ch in cell for ch in ',"\r\n'):
        return '"' + cell.replace('"', '""') + '"'
    return cell


@st.composite
def csv_texts(draw, header, columns, plain=False):
    """A CSV file: ``header`` if given, then rows whose cell ``j`` is drawn
    from ``columns[j]``, with random quoting, line ends and blank lines.
    A ``plain`` file quotes no cell and ends its lines with LF or CRLF."""
    rows = draw(st.lists(
        st.tuples(*(st.sampled_from(pool) for pool in columns)), min_size=2, max_size=8))
    if header is not None:
        rows.insert(0, header)
    line_end = draw(st.sampled_from(["\n", "\r\n"] + ["\r"] * (not plain)))
    lines = [
        ",".join(csv_field(cell, not plain and draw(st.booleans())) for cell in row)
        for row in rows
    ]
    for _ in range(draw(st.integers(0, 2))):
        # a blank line is skipped; a line of spaces is a one-cell row
        lines.insert(draw(st.integers(0, len(lines))),
                     draw(st.sampled_from(["", "", "", " "][:3 if plain else 4])))
    return line_end.join(lines) + draw(st.sampled_from(["", line_end]))


def cell_pools(draw, m, plain=False):
    if plain:
        return [PLAIN_NUMBER_CELLS] * m
    return [draw(st.sampled_from([NUMBER_CELLS, NUMBER_CELLS + OTHER_CELLS]))
            for _ in range(m)]


def outcome(load, *args, **kwargs):
    try:
        return load(*args, **kwargs), None
    except (DatasetError, ValueError) as exc:
        return None, (type(exc), str(exc))


def traced_outcome(load, *args, **kwargs):
    """:func:`outcome`, and the reader that read the file: ``csv.reader`` or ``loadtxt``."""
    with mock.patch.object(dataset_module.csv, "reader", wraps=csv.reader) as reader:
        result = outcome(load, *args, **kwargs)
    return result, "csv.reader" if reader.called else "loadtxt"


def assert_loads_match(path, has_header):
    """``load_csv`` gives the reference's fields or error; returns the dataset and its reader."""
    (train, error), reader = traced_outcome(load_csv, path, has_header=has_header)
    want, want_error = outcome(reference_load_csv, path, has_header)
    assert error == want_error
    if train is not None:
        assert decode(train).tobytes() == want["values"].tobytes()
        assert train.labels.tolist() == want["labels"]
        for name in ("attr_names", "label_name", "class_names", "categories"):
            assert getattr(train, name) == want[name], name
    return train, reader


def assert_prediction_rows_match(train, path, has_header):
    """``load_prediction_rows`` gives the reference's matrix or error; returns its reader."""
    (matrix, error), reader = traced_outcome(load_prediction_rows, train, path,
                                             has_header=has_header)
    want, want_error = outcome(reference_load_prediction_rows, train, path, has_header)
    assert error == want_error
    if matrix is not None:
        assert matrix.shape == want.shape
        assert matrix.tobytes() == want.tobytes()
    return reader


# Files that must read as csv.reader reads them, and the reader that reads
# them: numpy's for plain numbers however padded, csv.reader for anything
# numpy could read differently or that ends in an error.
EDGE_FILES = {
    "nul_in_number": ("a,b,label\n1\x00,2,x\n3,4,y\n", "csv.reader"),
    "nul_in_label": ("a,b,label\n1,2,x\x00\n3,4,y\n", "csv.reader"),
    "field_over_limit": ("a,b,label\n" + "1" * 131_073 + ",2,x\n3,4,y\n", "csv.reader"),
    "line_over_limit": ("a,b,label\n1,2," + "x" * 131_070 + "\n3,4,y\n", "csv.reader"),
    "row_wider_than_header": ("a,b,label\n1,2,x,9\n3,4,y\n", "csv.reader"),
    "rows_wider_than_header": ("a,b,label\n1,2,x,9\n3,4,y,9\n", "csv.reader"),
    "hash_in_number": ("a,b,label\n#1,2,x\n3,4,y\n", "csv.reader"),
    "hash_in_label": ("a,b,label\n1,2,#x\n3,4,y#\n", "loadtxt"),
    "unicode_space_padding": ("a,b,label\n\x0c1,2\x1c,x\n3\x85,\u20284,y\n", "loadtxt"),
    "unicode_space_in_label": ("a,b,label\n1,2,x\x0cz\n3,4,\x1cy\x85\n5,6,w\u2028v\n",
                               "loadtxt"),
    "tab_and_nbsp_padding": ("a,b,label\n\t1\t,\xa02\xa0,x\n3,\t4,y\n", "loadtxt"),
    "header_only": ("a,b,label\n", "csv.reader"),
    "blank_line_before_header": ("\na,b,label\n1,2,x\n3,4,y\n", "loadtxt"),
    "crlf_blank_lines": ("\r\na,b,label\r\n1,2,x\r\n\r\n3,4,y\r\n", "loadtxt"),
    "question_label": ("a,b,label\n1,2,?\n3,4,y\n5,6,x\n", "csv.reader"),
    "empty_label": ("a,b,label\n1,2, \n3,4,y\n5,6,x\n", "csv.reader"),
    "bare_cr": ("a,b,label\r1,2,x\r3,4,y\r", "csv.reader"),
    "quoted_number": ('a,b,label\n"1",2,x\n3,4,y\n', "csv.reader"),
    "python_only_numbers": ("a,b,label\n1_000,\u0663,x\n3,4,y\n", "csv.reader"),
    "non_finite": ("a,b,label\nnan,2,x\n3,1e400,y\n", "csv.reader"),
    "line_of_spaces": ("a,b,label\n1,2,x\n \n3,4,y\n", "csv.reader"),
    "byte_order_mark": ("\ufeffa,b,label\n1,2,x\n3,4,y\n", "loadtxt"),
}


class TestLoaderMatchesReference:
    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_load_csv_and_prediction_rows(self, data):
        draw = data.draw
        plain = draw(st.booleans())
        m = draw(st.integers(1, 3))
        has_header = draw(st.booleans())
        header = [draw(st.sampled_from(NAME_CELLS)) for _ in range(m + 1)]
        labels = PLAIN_LABEL_CELLS if plain else LABEL_CELLS
        train_text = draw(csv_texts(header if has_header else None,
                                    cell_pools(draw, m, plain) + [labels], plain))
        with tempfile.TemporaryDirectory() as tmp:
            train_path = Path(tmp) / "train.csv"
            train_path.write_text(train_text, encoding="utf-8", newline="")
            train, reader = assert_loads_match(train_path, has_header)
            event(f"{'plain' if plain else 'mixed'} load_csv: {reader}")
            if train is None:
                return

            width = draw(st.sampled_from([m, m, m + 1, m + 1, m + 2]))
            names = list(train.attr_names) + [train.label_name, "extra"]
            test_header = draw(st.sampled_from([names[:width]] * 3 + [["p"] * width]))
            test_text = draw(csv_texts(
                test_header if has_header else None,
                cell_pools(draw, m, plain) + [labels, ["0"]][:width - m], plain))
            test_path = Path(tmp) / "test.csv"
            test_path.write_text(test_text, encoding="utf-8", newline="")
            reader = assert_prediction_rows_match(train, test_path, has_header)
            event(f"{'plain' if plain else 'mixed'} load_prediction_rows: {reader}")

    @pytest.mark.parametrize("case", sorted(EDGE_FILES))
    def test_edge_files(self, tmp_path, case):
        text, want_reader = EDGE_FILES[case]
        path = tmp_path / "edge.csv"
        path.write_text(text, encoding="utf-8", newline="")
        _, reader = assert_loads_match(path, has_header=True)
        assert reader == want_reader
        train = load_csv(write(tmp_path, "a,b,label\n1,2,x\n3,4,y\n", name="train.csv"))
        assert assert_prediction_rows_match(train, path, has_header=True) == want_reader

    def test_first_bad_cell_in_row_order_is_named(self, tmp_path):
        train = load_csv(write(tmp_path, "a,b,label\n1,2,x\n3,4,y\n"))
        test = write(tmp_path, "a,b\n1,2\n5,nan\nzz,1e400\nyy,3\n", name="test.csv")
        with pytest.raises(DatasetError, match="non-numeric cell 'zz' in numeric column 'a'"):
            load_prediction_rows(train, test)


class CsvReaderCalled(Exception):
    pass


def refuse_csv_reader(*args, **kwargs):
    raise CsvReaderCalled


def numeric_csv_text(rng, rows, m, *, labels, line_end, has_header):
    """Numbers printed as the benchmark tables and ``repr`` print them."""
    formats = ["{:.6f}", "{!r}", "{:.17g}", "{:e}", "{:.0f}"]
    lines = [",".join([f"x{j}" for j in range(m)] + ["label"] * labels)] * has_header
    for i, row in enumerate(rng.normal(scale=100.0, size=(rows, m)).tolist()):
        cells = [formats[(i + j) % len(formats)].format(v) for j, v in enumerate(row)]
        lines.append(",".join(cells + [f"k{i % 3}"] * labels))
    return line_end.join(lines) + line_end


def assert_same_dataset(got, want):
    for name in ("name", "attr_names", "class_names", "categories", "label_name", "offsets"):
        assert getattr(got, name) == getattr(want, name), name
    for name in ("labels", "numeric", "codes", "levels"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), name


class TestPlainFastPath:
    """All-numeric, quote-free files are parsed without ``csv.reader``."""

    @pytest.mark.parametrize("line_end", ["\n", "\r\n"])
    @pytest.mark.parametrize("has_header", [True, False])
    def test_numeric_files_skip_csv_reader(self, tmp_path, monkeypatch, line_end, has_header):
        rng = np.random.default_rng(7)
        train_path = write(tmp_path, numeric_csv_text(
            rng, 60, 4, labels=True, line_end=line_end, has_header=has_header), "train.csv")
        test_path = write(tmp_path, numeric_csv_text(
            rng, 25, 4, labels=False, line_end=line_end, has_header=has_header), "test.csv")
        # csv.reader's reading: the loaders with the numpy path turned off
        with monkeypatch.context() as patch:
            patch.setattr(dataset_module, "_read_plain", lambda *args, **kwargs: None)
            want = load_csv(train_path, has_header=has_header)
            want_matrix = load_prediction_rows(want, test_path, has_header=has_header)

        monkeypatch.setattr(dataset_module.csv, "reader", refuse_csv_reader)
        got = load_csv(train_path, has_header=has_header)
        assert_same_dataset(got, want)
        matrix = load_prediction_rows(got, test_path, has_header=has_header)
        assert matrix.shape == want_matrix.shape == (25, 4)
        assert matrix.tobytes() == want_matrix.tobytes()

    def test_categorical_column_reads_through_csv_reader(self, tmp_path, monkeypatch):
        numeric_train = write(tmp_path, "a,b,label\n1,2,x\n3,4,y\n", "numeric.csv")
        mixed_train = write(tmp_path, "a,b,label\n1,u,x\n3,v,y\n", "mixed.csv")
        mixed = load_csv(mixed_train)
        numeric = load_csv(numeric_train)
        monkeypatch.setattr(dataset_module.csv, "reader", refuse_csv_reader)
        load_csv(numeric_train)
        with pytest.raises(CsvReaderCalled):
            load_csv(mixed_train)
        # a numeric file scored against a categorical schema, too
        load_prediction_rows(numeric, numeric_train)
        with pytest.raises(CsvReaderCalled):
            load_prediction_rows(mixed, write(tmp_path, "a,b\n1,2\n", "test.csv"))


# Training files for both readers: numpy's for the numeric ones, csv.reader's
# for the categorical one.
BOM_TRAIN_FILES = {
    "header": ("a,b,label\n1,2.5,x\n3,4,y\n5,6,x\n", True),
    "no_header": ("1,2.5,x\n3,4,y\n5,6,x\n", False),
    "categorical": ("a,b,label\nred,2.5,x\nblue,4,y\nred,6,x\n", True),
}


class TestByteOrderMark:
    """A file that starts with a UTF-8 byte-order mark loads as it does without one."""

    @staticmethod
    def with_and_without(tmp_path, text, name):
        """The same file written without and with a byte-order mark, under one name."""
        paths = []
        for folder, mark in (("plain", ""), ("marked", "\ufeff")):
            path = tmp_path / folder / name
            path.parent.mkdir(exist_ok=True)
            path.write_bytes((mark + text).encode("utf-8"))
            paths.append(path)
        return paths

    @pytest.mark.parametrize("case", sorted(BOM_TRAIN_FILES))
    def test_load_csv(self, tmp_path, case):
        text, has_header = BOM_TRAIN_FILES[case]
        plain, marked = self.with_and_without(tmp_path, text, "train.csv")
        want = load_csv(plain, has_header=has_header)
        assert want.numeric.all() == (case != "categorical")
        assert_same_dataset(load_csv(marked, has_header=has_header), want)

    @pytest.mark.parametrize("case", sorted(BOM_TRAIN_FILES))
    def test_load_prediction_rows(self, tmp_path, case):
        text, has_header = BOM_TRAIN_FILES[case]
        train = load_csv(write(tmp_path, text, "train.csv"), has_header=has_header)
        rows = "red,3\nblue,9\n" if case == "categorical" else "1,3\n7,9\n"
        plain, marked = self.with_and_without(
            tmp_path, "a,b\n" * has_header + rows, "test.csv")
        want = load_prediction_rows(train, plain, has_header=has_header)
        got = load_prediction_rows(train, marked, has_header=has_header)
        assert got.shape == want.shape == (2, 2)
        assert got.tobytes() == want.tobytes()


LOADTXT = {"delimiter": ",", "comments": None, "dtype": np.float64, "ndmin": 2}


class TestLoadtxtContract:
    """The ``np.loadtxt`` behaviour the loader's numpy path relies on.

    A numpy release that changes any of it fails here, instead of quietly
    changing which reader a file takes or the values it gets.
    """

    @pytest.mark.parametrize("cell", ["1_000", "\u0663", "?", "", " ", '"1"', "1#", "0x10"])
    def test_rejects_what_float_reads_otherwise(self, cell):
        with pytest.raises(ValueError):
            np.loadtxt([f"{cell},x", "1,y"], usecols=range(1), **LOADTXT)

    def test_rejects_bare_carriage_return(self):
        for lines in (["1,x\r2,y"], io.StringIO("1,x\r2,y\r")):
            with pytest.raises(ValueError):
                np.loadtxt(lines, usecols=range(1), **LOADTXT)

    def test_accepts_crlf_and_skips_blank_lines(self):
        for lines in (io.StringIO("1,x\r\n\r\n2,y\r\n"), ["1,x", "", "2,y"]):
            assert np.loadtxt(lines, usecols=range(1), **LOADTXT).tolist() == [[1.0], [2.0]]

    def test_skips_columns_outside_usecols_unparsed(self):
        got = np.loadtxt(["1,2,x\"#", "3,4,?"], usecols=range(2), **LOADTXT)
        assert got.tolist() == [[1.0, 2.0], [3.0, 4.0]]

    def test_strips_what_str_strip_strips(self):
        pads = "\t\x0c\x1c\x85\xa0\u2028 "
        got = np.loadtxt([f"{pads}1.5{pads},x"], usecols=range(1), **LOADTXT)
        assert got.tolist() == [[1.5]]

    @pytest.mark.parametrize("fmt", ["{:.6f}", "{:.17g}", "{:e}", "{!r}"])
    def test_doubles_equal_float(self, fmt):
        rng = np.random.default_rng(11)
        bits = rng.integers(0, 1 << 64, size=20_000, dtype=np.uint64, endpoint=False)
        doubles = bits.view(np.float64)
        doubles = np.concatenate([doubles[np.isfinite(doubles)], rng.normal(size=2_000),
                                  [0.0, -0.0, 5e-324, 1.7976931348623157e308]])
        cells = [fmt.format(v) for v in doubles.tolist()]
        got = np.loadtxt([f"{cell},x" for cell in cells], usecols=range(1), **LOADTXT)
        want = np.array([float(cell) for cell in cells])
        assert got[:, 0].tobytes() == want.tobytes()


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

    @given(table=awkward_tables())
    @settings(max_examples=200, deadline=None)
    def test_levels_decode_codes(self, table):
        values, data = table
        assert data.codes.shape == (data.n_attributes, data.n_rows)
        assert data.codes.dtype == np.int32
        assert not data.codes.flags.writeable and not data.levels.flags.writeable
        for j in range(data.n_attributes):
            assert np.array_equal(data.levels[data.codes[j]], values[:, j])
        assert np.array_equal(decode(data), values)

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

    @given(table=awkward_tables())
    @settings(max_examples=100, deadline=None)
    def test_offsets_bound_each_columns_levels(self, table):
        values, data = table
        offsets = data.offsets
        assert len(offsets) == data.n_attributes + 1 and all(type(at) is int for at in offsets)
        assert offsets[0] == 0 and offsets[-1] == data.levels.size
        for j in range(data.n_attributes):
            assert data.codes[j].min() >= offsets[j] and data.codes[j].max() < offsets[j + 1]
            assert np.array_equal(data.levels[offsets[j]:offsets[j + 1]], np.unique(values[:, j]))

    @pytest.mark.parametrize("kinds", ["nnn", "c", "cnnc", "ncncn"])
    def test_categorical_holds_each_categorical_columns_code_range(self, kinds):
        rng = np.random.default_rng(len(kinds))
        values = rng.integers(0, 6, size=(40, len(kinds)))
        data = dataset_from_arrays(values, rng.integers(0, 3, size=40), kinds=kinds)
        attributes, first, counts = data.categorical
        assert data.categorical.dtype == data.codes.dtype and not data.categorical.flags.writeable
        assert attributes.tolist() == [j for j, kind in enumerate(kinds) if kind == "c"]
        for j, start, count in zip(attributes.tolist(), first.tolist(), counts.tolist()):
            assert (start, start + count) == data.offsets[j:j + 2]
            assert count == np.unique(values[:, j]).size

    def test_equality_is_identity(self):
        # Two tables built from one seed hold equal arrays but are two
        # datasets; == neither compares arrays nor raises, and hash works.
        first, second = (random_dataset(np.random.default_rng(3), 30, 2, 1, 3) for _ in range(2))
        assert np.array_equal(first.codes, second.codes)
        assert np.array_equal(first.labels, second.labels)
        assert first == first and first != second and not first == second
        assert hash(first) == hash(first) and len({first, second, first}) == 2

    BENCHMARK_TABLES = ("cv.csv", "big_train.csv", "cat_train.csv")

    @pytest.fixture(scope="class")
    def benchmark_dir(self, tmp_path_factory):
        """The seed-5 benchmark workload files, generated once for the class."""
        sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))
        try:
            import workloads
        finally:
            sys.path.pop(0)
        work = tmp_path_factory.mktemp("benchmark")
        for generate in (workloads.generate_paper_cv, workloads.generate_big_predict,
                         workloads.generate_categorical_trace):
            generate(5, work)
        return work

    def test_int32_on_the_benchmark_tables(self, benchmark_dir):
        for name in self.BENCHMARK_TABLES:
            assert load_csv(benchmark_dir / name).codes.dtype == np.int32, name

    def test_benchmark_tables_held_once(self, benchmark_dir):
        # The rank codes are the one stored form of a table: no field is a
        # float value matrix beside them.
        for name in self.BENCHMARK_TABLES:
            data = load_csv(benchmark_dir / name)
            shape = (data.n_rows, data.n_attributes)
            for field, array in vars(data).items():
                if isinstance(array, np.ndarray):
                    assert not (array.dtype == np.float64 and array.shape == shape), (name, field)

    def test_cv_never_decodes_the_values(self, benchmark_dir):
        # A fit reads the codes and decodes its test rows (a fold) from the
        # levels; no array it derives from the levels holds the whole table.
        class Levels(np.ndarray):
            largest = 0

            def __array_finalize__(self, obj):
                Levels.largest = max(Levels.largest, self.size)

        tables = {"cv": load_csv(benchmark_dir / "cv.csv"),
                  "mixed": random_dataset(np.random.default_rng(4), 60, 2, 2, 3)}
        for name, data in tables.items():
            object.__setattr__(data, "levels", data.levels.view(Levels))
            for algorithm in ("dt", "lazy", "batched"):
                Levels.largest = 0
                run_cv(data, algorithm, 2, 1, SplitParams(max_depth=3), seed=0)
                assert 0 < Levels.largest < data.n_rows * data.n_attributes, (name, algorithm)
            assert not hasattr(data, "values"), name

    def test_both_zeros_read_as_one_zero(self):
        # levels keeps one zero per column, so in a column holding both
        # zeros each of them decodes as the same one: equal to the input,
        # and the partitions, traces and predictions are those of the table
        # with every zero +0.0.
        rng = np.random.default_rng(8)
        mixed = rng.choice([-0.0, 0.0, -1.5, 0.5, 2.0], size=(40, 2))
        labels = rng.integers(0, 3, size=40)
        positive = mixed + 0.0  # -0.0 + 0.0 is +0.0
        zero = mixed == 0
        assert np.signbit(mixed[zero]).any() and not np.signbit(mixed[zero]).all()
        data, plain = (dataset_from_arrays(values, labels) for values in (mixed, positive))
        assert np.array_equal(decode(data), mixed)
        for j in range(2):
            assert np.unique(np.signbit(decode(data)[zero[:, j], j])).size == 1

        rows = np.arange(40)
        conditions = list(iter_candidates(plain, rows)) + [
            Condition(attribute=j, op=op, value=value)
            for j in range(2) for op in ("le", "eq") for value in (0.0, -0.0)]
        for cond in conditions:
            for got, want in zip(partition(cond, data, rows), partition(cond, plain, rows)):
                assert got.tolist() == want.tolist()
        params = SplitParams(min_count=2)
        for fit in (fit_predict_eager, fit_predict_lazy, fit_predict_batched):
            for test, plain_test in ((rows[30:], rows[30:]), (mixed, positive)):
                traces = []
                for table, table_test in ((data, test), (plain, plain_test)):
                    lines = []
                    got, _ = fit(table, rows[:30], table_test, 3, params, 11,
                                 on_visit=lambda event: lines.append(format_trace_line(event)))
                    traces.append((got.tobytes(), lines))
                assert traces[0] == traces[1]

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
