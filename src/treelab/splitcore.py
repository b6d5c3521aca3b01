"""Split selection shared by the eager, lazy, and batched tree algorithms.

All three algorithms call the same :func:`best_condition`, so equal row
subsets always produce identical splits.  Candidates are binary tests:
``value <= threshold`` on numeric attributes (thresholds at midpoints of
consecutive distinct values) and ``value == code`` on categorical ones (one
candidate per code present).  The score is Shannon information gain in bits;
ties break to the lowest attribute index, then the lowest threshold or code.

A search scores all attributes of a node together, in blocks of at most
``BLOCK_CELLS`` rows x attributes: one sort per block, one count of classes
per run of equal values, and one gain evaluation over every candidate of the
block.  Only the per-run class counts and values are read, so whether the
sort is stable does not matter, and the candidates, their gains and the
tie-break are those of a search that takes one attribute at a time.

Class counts are class-major, a ``(classes, groups)`` array, so every step of
the gain pass runs over long contiguous rows.  The entropy's sum over classes
adds whole class rows in a fixed order, the one in which numpy 2.x sums a
contiguous row of doubles (:func:`_class_sum`): the gains equal those of a
per-group ``sum(axis=1)`` bit for bit, and the order is pinned here rather
than left to numpy.

Two-class nodes of up to ``TABLE_ROWS`` rows read their side entropies from
a table built once per process, by :func:`_entropies` itself, the first time
such a node is searched: a two-class side's entropy depends only on its size
and its class-0 count.  The gains are the same doubles as on the direct
path, which larger nodes and nodes of other class counts keep.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Literal

import numpy as np

from .dataset import Dataset

# Cells (rows x attributes) sorted together in one block of a split search;
# bounds the per-block sort and count temporaries, not the node's value copy.
BLOCK_CELLS = 4096

# Largest two-class node whose side entropies come from the table; the table
# holds (TABLE_ROWS + 1)(TABLE_ROWS + 2) / 2 doubles, ~1 MB.
TABLE_ROWS = 512
# Side sizes per step of the table build; bounds its temporaries.
_TABLE_CHUNK = 32


@dataclass(frozen=True, slots=True)
class Condition:
    """Binary test on one attribute; rows where it holds are the valid side."""

    attribute: int
    op: Literal["le", "eq"]
    value: float


@dataclass(frozen=True)
class SplitParams:
    """Stopping parameters: minimum rows per expandable node, maximum depth."""

    min_count: int = 5
    max_depth: int = 20

    def __post_init__(self):
        if self.min_count < 1:
            raise ValueError("min_count must be at least 1")
        if self.max_depth < 0:
            raise ValueError("max_depth must be non-negative")


def class_histogram(data: Dataset, rows) -> np.ndarray:
    """Per-class counts of the given rows, length ``data.class_count``."""
    rows = np.asarray(rows, dtype=np.int64)
    return np.bincount(data.labels[rows], minlength=data.class_count)


def _check_histogram(hist) -> np.ndarray:
    counts = np.asarray(hist, dtype=np.int64)
    if counts.ndim != 1:
        raise ValueError("histogram must be one-dimensional")
    if counts.size and counts.min() < 0:
        raise ValueError("histogram counts must be non-negative")
    if counts.sum() < 1:
        raise ValueError("histogram is empty")
    return counts


def _class_sum(terms: np.ndarray) -> np.ndarray:
    """Sum over the class rows of a ``(classes, k)`` array, per column.

    Whole rows are added in the order in which numpy 2.x's ``add.reduce``
    sums one contiguous row of doubles, so the result equals
    ``terms.T.sum(axis=1)`` bit for bit while every add runs over ``k``
    contiguous values.  Fewer than 8 rows: left to right from 0.0.  Up to 128
    rows: 8 running sums, combined pairwise, then the remaining rows in
    order.  Above that: the sum of two halves, the first a multiple of 8 rows
    long.  numpy adds its sum to the identity 0.0, which only turns a zero
    sum positive, so adding 0.0 to each partial sum gives the same result.
    """
    count = terms.shape[0]
    if count < 8:
        total = terms[0] + 0.0
        for row in terms[1:]:
            total += row
        return total
    if count > 128:
        half = count // 2 - count // 2 % 8
        return _class_sum(terms[:half]) + _class_sum(terms[half:])
    acc = terms[:8]
    end = count - count % 8
    for first in range(8, end, 8):
        acc = acc + terms[first:first + 8]
    total = ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]))
    for row in terms[end:]:
        total += row
    total += 0.0
    return total


def _entropies(counts: np.ndarray, totals) -> np.ndarray:
    """Shannon entropy (bits) of each column of a ``(classes, k)`` count matrix.

    ``totals`` holds the column sums.  ``log2`` runs over the whole contiguous
    array and zero counts are masked afterwards: ``log2(..., where=...)``
    takes another loop, which can round differently and so change which
    split wins a near tie.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        p = counts / np.asarray(totals, dtype=np.float64)
        terms = np.log2(p)
        terms *= p
    np.copyto(terms, 0.0, where=counts == 0)
    return -_class_sum(terms)


def _tri(sizes):
    """Offset of side size ``N``'s row (cells ``c = 0..N``) in the table."""
    return sizes * (sizes + 1) >> 1


@cache
def _entropy_table() -> np.ndarray:
    """Two-class side entropies for ``c <= N <= TABLE_ROWS``.

    Cell ``_tri(N) + c`` is the entropy of a side of ``N`` rows, ``c`` of
    them of class 0, computed by :func:`_entropies`, so it equals the direct
    path bit for bit.  Built on the first call, a few side sizes at a time,
    and read-only.
    """
    table = np.empty(_tri(TABLE_ROWS + 1))
    for first in range(0, TABLE_ROWS + 1, _TABLE_CHUNK):
        sizes = np.arange(first, min(first + _TABLE_CHUNK, TABLE_ROWS + 1))
        start, stop = _tri(first), _tri(sizes[-1] + 1)
        totals = np.repeat(sizes, sizes + 1)
        class0 = np.arange(start, stop) - _tri(totals)
        table[start:stop] = _entropies(np.stack([class0, totals - class0]), totals)
    table.flags.writeable = False
    return table


def _gains(parent_entropy, parent: np.ndarray, valid: np.ndarray,
           n_valid: np.ndarray) -> np.ndarray:
    """Information gain of each column of a ``(classes, k)`` valid-side matrix.

    ``parent`` is the class histogram of all rows, ``parent_entropy`` its
    entropy and ``n_valid`` the column sums of ``valid``; the invalid side
    is the rest of the parent.  A two-class node of at most ``TABLE_ROWS``
    rows reads only the class-0 row of ``valid``.
    """
    n = parent.sum()
    n_invalid = n - n_valid
    if parent.size == 2 and n <= TABLE_ROWS:
        table = _entropy_table()
        e_invalid = table[_tri(n_invalid) + (parent[0] - valid[0])]
        e_valid = table[_tri(n_valid) + valid[0]]
    else:
        # Both sides in one entropy pass, invalid columns first; columns are
        # reduced independently.
        k = n_valid.size
        sides = np.empty((parent.size, 2 * k))
        np.subtract(parent[:, None], valid, out=sides[:, :k])
        sides[:, k:] = valid
        entropies = _entropies(sides, np.concatenate([n_invalid, n_valid]))
        e_invalid, e_valid = entropies[:k], entropies[k:]
    return parent_entropy - ((n_invalid / n) * e_invalid + (n_valid / n) * e_valid)


def entropy(hist) -> float:
    """Shannon entropy of a class histogram, in bits."""
    counts = _check_histogram(hist)
    return float(_entropies(counts[:, None], [counts.sum()])[0])


def information_gain(parent, invalid_side, valid_side) -> float:
    """Entropy of the parent minus the size-weighted entropy of the sides."""
    parent = _check_histogram(parent)
    invalid = _check_histogram(invalid_side)
    valid = _check_histogram(valid_side)
    if invalid.size != parent.size or valid.size != parent.size:
        raise ValueError("histograms must share the class axis")
    if not np.array_equal(invalid + valid, parent):
        raise ValueError("side histograms must sum to the parent")
    gain = _gains(entropy(parent), parent, valid[:, None], valid.sum(keepdims=True))
    return float(gain[0])


def valid_mask(cond: Condition, column: np.ndarray) -> np.ndarray:
    """Boolean mask of where the condition holds, over one value column."""
    if cond.op == "le":
        return column <= cond.value
    return column == cond.value


def partition(cond: Condition, data: Dataset, rows) -> tuple[np.ndarray, np.ndarray]:
    """Stable split of ``rows`` into (invalid, valid) by one condition."""
    rows = np.asarray(rows, dtype=np.int64)
    mask = valid_mask(cond, data.values[rows, cond.attribute])
    return rows[~mask], rows[mask]


def best_condition(data: Dataset, rows) -> Condition | None:
    """The candidate condition with the highest information gain.

    Only candidates that leave both sides non-empty are considered.  Returns
    ``None`` when no candidate exists or the best gain is not positive, in
    which case the caller should make a leaf.
    """
    rows = np.asarray(rows, dtype=np.int64)
    if rows.size == 0:
        raise ValueError("best_condition needs at least one row")
    n = rows.size
    class_count = data.class_count
    labels = data.labels[rows]
    parent = np.bincount(labels, minlength=class_count)
    parent_entropy = _entropies(parent[:, None], [n])[0]
    # Class rows the gain pass reads: a two-class table lookup needs class 0.
    tracked = 1 if class_count == 2 and n <= TABLE_ROWS else class_count
    numeric = data.numeric
    # Row j holds attribute j, so every block below is one contiguous slice.
    columns = np.ascontiguousarray(data.values[rows].T)

    best: Condition | None = None
    best_gain = 0.0
    width = max(1, BLOCK_CELLS // n)
    for first in range(0, data.n_attributes, width):
        # Row j of the block is attribute first + j; each row is sorted on
        # its own, and runs of equal values in it form one group.
        block = columns[first:first + width]
        order = np.argsort(block, axis=1)
        sorted_labels = labels[order].ravel()
        order += np.arange(0, block.size, n)[:, None]
        flat = block.ravel()[order].ravel()
        starts = np.empty(flat.size, dtype=bool)
        np.not_equal(flat[1:], flat[:-1], out=starts[1:])
        starts[::n] = True
        group_start = np.flatnonzero(starts)
        group_end = np.append(group_start[1:], flat.size)
        groups = group_start.size
        group = np.cumsum(starts) - 1
        # Class-major counts: row c holds class c's count in every group.
        counts = np.bincount(sorted_labels * groups + group,
                             minlength=class_count * groups).reshape(class_count, groups)
        attr = group_start // n

        # Numeric: the valid side of a group's threshold is every row of its
        # attribute up to the group's end.  Each attribute's groups hold all
        # n rows, so the running total restarts by subtracting attr * parent.
        counts = counts[:tracked]
        valid = np.cumsum(counts, axis=1) - parent[:tracked, None] * attr
        n_valid = group_end - attr * n
        # Categorical: the valid side of ``value == code`` is the group.
        if not numeric[first:first + width].all():
            categorical = ~numeric[first + attr]
            valid = np.where(categorical, counts, valid)
            n_valid = np.where(categorical, group_end - group_start, n_valid)
        gains = _gains(parent_entropy, parent, valid, n_valid)
        # The last numeric group and a lone categorical group leave the
        # invalid side empty and are not candidates.
        gains[n_valid == n] = -np.inf

        # Groups run in (attribute, value) order, so the first maximum is
        # the tie-break winner; a later block must beat it strictly.
        pick = int(np.argmax(gains))
        if gains[pick] > best_gain:
            best_gain = float(gains[pick])
            attribute = first + int(attr[pick])
            low = float(flat[group_start[pick]])
            if not numeric[attribute]:
                best = Condition(attribute=attribute, op="eq", value=low)
            else:
                high = float(flat[group_end[pick]])
                threshold = (low + high) / 2.0
                # The midpoint of two adjacent doubles can round up onto the
                # high value, which would move the high group to the valid
                # side; pin it back.
                if not threshold < high:
                    threshold = low
                best = Condition(attribute=attribute, op="le", value=threshold)
    return best
