"""CSV-backed datasets, cross-validation folds, and bootstrap resampling.

Dataset layout: the last CSV column holds class labels, every other column
is an attribute.  A column is numeric when each of its cells parses as a
finite number, categorical otherwise; categorical values (and the labels)
are stored as dense integer codes assigned in first-appearance order, with
the decoding tables kept on the dataset.  Cells are stripped of surrounding
whitespace; cells equal to ``?`` or empty mark missing values, and rows
holding one are dropped before anything else is inferred.  A file of plain
numbers, one that ``csv.reader`` and numpy's C reader cannot read apart,
has its attribute block parsed by one ``np.loadtxt`` call; any other file
is read by ``csv.reader`` into rows, and then each column straight out of
them, one pass per column.  Both give the same values and errors.

All structures here are immutable after construction and safe to share
across threads; the three operations are pure functions of their inputs,
including the seed.
"""

from __future__ import annotations

import csv
from dataclasses import InitVar, dataclass, field
from operator import itemgetter
from pathlib import Path

import numpy as np

from .rng import draws_below

MISSING_CELLS = frozenset({"", "?"})


class DatasetError(Exception):
    """Input data that cannot be turned into a usable dataset."""


class SchemaMismatchError(DatasetError):
    """A prediction file whose columns do not line up with the training data."""


@dataclass(frozen=True, eq=False)
class Dataset:
    """A column-typed table of observations, held as rank codes, with coded labels.

    ``levels`` holds each column's distinct values in ascending order, column
    after column, and ``codes`` is an ``(n_attributes, n_rows)`` array of
    indices into it: a cell's value's rank in its column plus the column's
    offset, so no two columns share a code; column ``j``'s levels are
    ``levels[offsets[j]:offsets[j + 1]]`` (a tuple of ints, which index
    fastest).  Codes are int32 unless ``levels.size << label_bits`` exceeds
    its maximum, so a split-search key, ``code << label_bits | label``, fits
    their dtype.  The constructor derives all three from ``values``, a
    finite ``(n_rows, n_attributes)`` float matrix with categorical cells as
    codes, and keeps no copy of it.  Equal values share a level, so a
    column's zeros all decode as one of ``0.0`` and ``-0.0``, which no
    comparison tells apart.  ``categories[j]`` decodes attribute ``j``
    (``None``: numeric); ``numeric`` is its read-only mask.  Two datasets
    compare equal only if they are the same object.
    """

    name: str
    attr_names: tuple[str, ...]
    values: InitVar[np.ndarray]
    labels: np.ndarray
    class_names: tuple[str, ...]
    categories: tuple[tuple[str, ...] | None, ...]
    label_name: str = "label"
    numeric: np.ndarray = field(init=False, repr=False)
    codes: np.ndarray = field(init=False, repr=False)
    levels: np.ndarray = field(init=False, repr=False)
    offsets: tuple[int, ...] = field(init=False, repr=False)

    def __post_init__(self, values):
        values = np.asarray(values, dtype=np.float64)
        labels = np.asarray(self.labels, dtype=np.int64)
        if values.ndim != 2:
            raise DatasetError("values must be a 2-D matrix")
        n, m = values.shape
        if n < 1 or m < 1:
            raise DatasetError("need at least one row and one attribute")
        if labels.shape != (n,):
            raise DatasetError("labels must have one entry per row")
        if len(self.attr_names) != m:
            raise DatasetError("attribute metadata does not match the value matrix")
        if len(self.categories) != m:
            raise DatasetError("need one decoding table slot per attribute")
        if len(self.class_names) < 2:
            raise DatasetError("need at least 2 distinct classes")
        if labels.size and (labels.min() < 0 or labels.max() >= len(self.class_names)):
            raise DatasetError("label codes out of range")
        # Ranks need a total order, which NaN breaks.
        if not np.isfinite(values).all():
            raise DatasetError("values must be finite")
        numeric = np.array([table is None for table in self.categories])
        codes, levels, offsets = _rank_codes(values, self.label_bits)
        object.__setattr__(self, "offsets", offsets)
        for name, array in (("labels", labels), ("numeric", numeric),
                            ("codes", codes), ("levels", levels)):
            array.setflags(write=False)
            object.__setattr__(self, name, array)

    @property
    def n_rows(self) -> int:
        return self.codes.shape[1]

    @property
    def n_attributes(self) -> int:
        return self.codes.shape[0]

    @property
    def class_count(self) -> int:
        return len(self.class_names)

    @property
    def label_bits(self) -> int:
        """Low bits of a split-search key that hold a row's class label."""
        return max(1, (self.class_count - 1).bit_length())


def _rank_codes(values: np.ndarray, label_bits: int) -> tuple[np.ndarray, np.ndarray, tuple]:
    """The ``(codes, levels, offsets)`` of :class:`Dataset`.

    Each column is sorted on its own, so the scratch is a few columns long;
    a level starts wherever the sorted value changes, so ``-0.0`` and
    ``0.0`` are one level.
    """
    codes = np.empty(values.shape[::-1], dtype=np.int32)
    levels = []
    for j, column in enumerate(values.T):
        order = np.argsort(column)
        ordered = column[order]
        starts = np.empty(ordered.size, dtype=bool)
        starts[0] = True
        np.not_equal(ordered[1:], ordered[:-1], out=starts[1:])
        levels.append(ordered[starts])
        codes[j, order] = np.cumsum(starts, dtype=np.int32) - 1
    offsets = np.cumsum([0] + [distinct.size for distinct in levels])
    levels = np.concatenate(levels)
    if levels.size << label_bits > np.iinfo(np.int32).max:
        codes = codes.astype(np.int64)
    codes += offsets[:-1].astype(codes.dtype)[:, None]
    return codes, levels, tuple(offsets.tolist())


def _read_plain(
    path, has_header: bool, m: int | None = None
) -> tuple[tuple[str, ...] | None, np.ndarray, list[str] | None] | None:
    """The header, the attribute matrix and the label cells of a plain file.

    The first ``m`` columns (all but the last one by default) are read by
    ``np.loadtxt``, and each label is the stripped last cell of its line, or
    ``None`` for a file exactly ``m`` columns wide.  Returns ``None`` unless
    the file reads as :func:`_read_rows` would read it: no quote, NUL or bare
    ``\\r`` line end, no line longer than the csv field limit, every line as
    wide as the first, at least one data row, no missing label and every
    attribute a finite number.  numpy rejects each number cell that
    ``float`` reads differently, such as ``1_000``, ``\\u0663`` or ``?``.
    """
    try:
        with open(path, newline="") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError):
        return None
    if '"' in text or "\0" in text or text.count("\r") != text.count("\r\n"):
        return None
    lines = list(filter(None, text.replace("\r\n", "\n").split("\n")))
    del text
    if not lines or max(map(len, lines)) > csv.field_size_limit():
        return None
    width = lines[0].count(",") + 1
    m = width - 1 if m is None else m
    header = tuple(map(str.strip, lines.pop(0).split(","))) if has_header else None
    if not lines or m < 1 or width not in (m, m + 1):
        return None
    # Parsed before the checks that read every line in Python: numpy stops
    # at the first bad cell, on the first data line of a categorical file.
    try:
        values = np.loadtxt(lines, dtype=np.float64, delimiter=",", comments=None,
                            usecols=range(m), ndmin=2)
    except ValueError:
        return None
    if any(line.count(",") + 1 != width for line in lines):
        return None
    labels = None
    if width > m:
        labels = [line[line.rindex(",") + 1:].strip() for line in lines]
        if not MISSING_CELLS.isdisjoint(labels):
            return None
    if values.shape != (len(lines), m) or not np.isfinite(values).all():
        return None
    return header, values, labels


def _read_rows(
    path, has_header: bool
) -> tuple[tuple[str, ...] | None, int, list[tuple[str, ...]]]:
    """The header row (``None`` without one), the row width and the data rows.

    Cells are stripped, and data rows holding a missing cell are dropped.
    """
    try:
        with open(path, newline="") as handle:
            rows = [tuple(map(str.strip, row)) for row in csv.reader(handle) if row]
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise DatasetError(f"cannot read {path}: {exc}") from exc
    if not rows:
        raise DatasetError(f"{path}: file holds no rows")
    width = len(rows[0])
    for i, row_width in enumerate(map(len, rows)):
        if row_width != width:
            raise DatasetError(f"{path}: row {i} has {row_width} cells, expected {width}")
    header, data_rows = (rows[0], rows[1:]) if has_header else (None, rows)
    return header, width, [row for row in data_rows if MISSING_CELLS.isdisjoint(row)]


def _parse_numbers(cells, count: int) -> np.ndarray | None:
    """``count`` cells as float64, or ``None`` unless each is a finite number.

    ``float`` decides what a number is, so underscores and Unicode digits
    mean what they mean to Python.
    """
    try:
        column = np.fromiter(map(float, cells), dtype=np.float64, count=count)
    except ValueError:
        return None
    return column if np.isfinite(column).all() else None


def _encode_category(cells) -> tuple[list[int], tuple[str, ...]]:
    codes: dict[str, int] = {}
    encoded = [codes.setdefault(cell, len(codes)) for cell in cells]
    return encoded, tuple(codes)


def _read_columns(
    path, has_header: bool
) -> tuple[tuple[str, ...] | None, np.ndarray, list, list[str]]:
    """The header, the values, the decoding tables and the label cells, by ``csv.reader``."""
    header, width, rows = _read_rows(path, has_header)
    if width < 2:
        raise DatasetError(f"{path}: need at least 2 columns (attributes + label)")
    if not rows:
        raise DatasetError(f"{path}: no data rows left after dropping missing values")

    # Each column is read straight out of the rows, one pass per use, so
    # the cells are never held a second time as columns.
    m = width - 1
    values = np.empty((len(rows), m), dtype=np.float64)
    categories: list[tuple[str, ...] | None] = []
    for j in range(m):
        pick = itemgetter(j)
        column = _parse_numbers(map(pick, rows), len(rows))
        if column is not None:
            categories.append(None)
            values[:, j] = column
        else:
            encoded, table = _encode_category(map(pick, rows))
            categories.append(table)
            values[:, j] = encoded
    return header, values, categories, [row[m] for row in rows]


def load_csv(path, *, has_header: bool = True) -> Dataset:
    """Load a comma-separated dataset.

    The last column always holds the class labels and is treated as
    categorical.  Attribute columns are numeric when every cell parses as a
    finite number.  Rows containing ``?`` or empty cells are dropped.
    """
    plain = _read_plain(path, has_header)
    if plain is None:
        header, values, categories, label_cells = _read_columns(path, has_header)
    else:
        header, values, label_cells = plain
        categories = [None] * values.shape[1]
    m = values.shape[1]
    attr_names = header[:m] if header else tuple(f"a{j}" for j in range(m))
    label_name = header[m] if header else "label"

    label_codes, class_names = _encode_category(label_cells)
    if len(class_names) < 2:
        raise DatasetError(f"{path}: need at least 2 distinct classes")
    # The cells are read; free them before the dataset derives its codes.
    del plain, label_cells

    return Dataset(
        name=Path(path).stem,
        attr_names=attr_names,
        values=values,
        labels=np.asarray(label_codes, dtype=np.int64),
        class_names=class_names,
        categories=tuple(categories),
        label_name=label_name,
    )


def load_prediction_rows(train: Dataset, path, *, has_header: bool = True) -> np.ndarray:
    """Parse a prediction CSV against a training dataset's schema.

    The file must carry the training attribute columns, optionally followed
    by a label column (it is ignored).  Categorical values unseen in
    training encode as -1, which no equality condition matches.  Rows with
    missing cells are dropped; a non-numeric cell in a numeric column is a
    schema mismatch.
    """
    m = train.n_attributes
    plain = _read_plain(path, has_header, m) if train.numeric.all() else None
    if plain is None:
        header, width, rows = _read_rows(path, has_header)
        if width not in (m, m + 1):
            raise SchemaMismatchError(
                f"{path}: expected {m} or {m + 1} columns, found {width}"
            )
    else:
        header, matrix, _ = plain
    if header is not None:
        expected = train.attr_names + ((train.label_name,) if len(header) == m + 1 else ())
        if header != expected:
            raise SchemaMismatchError(
                f"{path}: header {header!r} does not match training columns"
            )
    if plain is not None:
        return matrix

    matrix = np.empty((len(rows), m), dtype=np.float64)
    for j in range(m):
        pick = itemgetter(j)
        if train.numeric[j]:
            column = _parse_numbers(map(pick, rows), len(rows))
            if column is None:
                cells = map(pick, rows)
                bad = next(cell for cell in cells if _parse_numbers((cell,), 1) is None)
                raise SchemaMismatchError(
                    f"{path}: non-numeric cell {bad!r} in numeric column"
                    f" {train.attr_names[j]!r}"
                )
            matrix[:, j] = column
        else:
            table = {category: code for code, category in enumerate(train.categories[j])}
            matrix[:, j] = [table.get(cell, -1) for cell in map(pick, rows)]
    return matrix


def row_indices(data: Dataset, rows) -> np.ndarray:
    """``rows`` as int64 row indices into ``data``, checked.

    ``rows`` must be a 1-D array of integers, not booleans, each in
    ``[0, data.n_rows)``; anything else raises ``ValueError``.
    """
    arr = np.asarray(rows)
    if arr.ndim != 1 or not np.issubdtype(arr.dtype, np.integer):
        raise ValueError("row indices must be a 1-D array of integers")
    if arr.size and not (0 <= arr.min() and arr.max() < data.n_rows):
        raise ValueError(f"row indices must lie in [0, {data.n_rows})")
    return arr.astype(np.int64, copy=False)


def as_test_matrix(data: Dataset, test) -> np.ndarray:
    """Normalize a test-set argument to an ``(n_s, m)`` value matrix.

    Accepts either row indices into ``data`` (:func:`row_indices`) or an
    already-materialized value matrix (from :func:`load_prediction_rows`).
    """
    arr = np.asarray(test)
    if arr.ndim == 1:
        return data.levels[data.codes[:, row_indices(data, arr)].T]
    if arr.ndim == 2 and arr.shape[1] == data.n_attributes:
        return np.asarray(arr, dtype=np.float64)
    raise ValueError("test must be row indices or an (n_s, n_attributes) matrix")


def make_folds(n_rows: int, k: int, seed: int) -> np.ndarray:
    """Assign rows to ``k`` folds: deterministic shuffle, then round-robin.

    Returns the read-only int64 fold of every row.  Fold sizes differ by at
    most one, and the same ``(n_rows, k, seed)`` always yields the identical
    assignment.
    """
    if not 2 <= k <= n_rows:
        raise ValueError(f"fold count {k} out of range [2, {n_rows}]")
    # Swap i takes draw n_rows - i of the stream, reduced below i + 1.
    draws = draws_below(seed, n_rows - 1, np.arange(n_rows, 1, -1)).tolist()
    order = list(range(n_rows))
    for i, j in zip(range(n_rows - 1, 0, -1), draws):
        order[i], order[j] = order[j], order[i]
    assignment = np.empty(n_rows, dtype=np.int64)
    assignment[order] = np.arange(n_rows) % k
    assignment.setflags(write=False)
    return assignment


def bootstrap(train_indices, seed: int) -> np.ndarray:
    """Draw ``len(train_indices)`` of the given rows uniformly with replacement.

    The draw is a read-only int64 array of row indices.
    """
    idx = np.asarray(train_indices, dtype=np.int64)
    if idx.size == 0:
        raise ValueError("cannot bootstrap an empty training set")
    sample = idx[draws_below(seed, idx.size, idx.size)]
    sample.setflags(write=False)
    return sample
