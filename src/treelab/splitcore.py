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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np

from .dataset import AttributeKind, Dataset

# Cells (rows x attributes) sorted together in one block of a split search;
# bounds the search's temporaries whatever the node size.
BLOCK_CELLS = 4096


@dataclass(frozen=True)
class Condition:
    """Binary test on one attribute; rows where it holds are the valid side."""

    attribute: int
    op: Literal["le", "eq"]
    value: float

    def holds_for(self, row: np.ndarray) -> bool:
        cell = row[self.attribute]
        if self.op == "le":
            return bool(cell <= self.value)
        return bool(cell == self.value)

    def describe(self) -> str:
        return f"{self.attribute} {self.op} {self.value!r}"


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


def _entropy_of_rows(counts: np.ndarray, totals) -> np.ndarray:
    """Shannon entropy (bits) of each row of a ``(k, h)`` count matrix.

    ``totals`` holds the row sums.  ``log2`` runs over the whole contiguous
    array and zero counts are masked afterwards: ``log2(..., where=...)``
    takes another loop, which can round differently and so change which
    split wins a near tie.
    """
    c = np.asarray(counts, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        p = c / np.asarray(totals, dtype=np.float64)[:, None]
        terms = np.where(c > 0, p * np.log2(p), 0.0)
    return -terms.sum(axis=1)


def _gain_of_splits(
    parent_entropy: float,
    n: int,
    invalid_counts: np.ndarray,
    valid_counts: np.ndarray,
    n_invalid: np.ndarray,
    n_valid: np.ndarray,
) -> np.ndarray:
    """Information gain of each (invalid, valid) histogram pair of ``n`` rows."""
    # one stacked entropy evaluation; rows are reduced independently, so the
    # values match separate per-side calls bit for bit
    entropies = _entropy_of_rows(np.concatenate([invalid_counts, valid_counts]),
                                 np.concatenate([n_invalid, n_valid]))
    k = invalid_counts.shape[0]
    children = (n_invalid / n) * entropies[:k] + (n_valid / n) * entropies[k:]
    return parent_entropy - children


def entropy(hist) -> float:
    """Shannon entropy of a class histogram, in bits."""
    counts = _check_histogram(hist)
    return float(_entropy_of_rows(counts[None, :], [counts.sum()])[0])


def information_gain(parent, invalid_side, valid_side) -> float:
    """Entropy of the parent minus the size-weighted entropy of the sides."""
    parent = _check_histogram(parent)
    invalid = _check_histogram(invalid_side)
    valid = _check_histogram(valid_side)
    if invalid.size != parent.size or valid.size != parent.size:
        raise ValueError("histograms must share the class axis")
    if not np.array_equal(invalid + valid, parent):
        raise ValueError("side histograms must sum to the parent")
    gain = _gain_of_splits(entropy(parent), parent.sum(), invalid[None, :], valid[None, :],
                           invalid.sum(keepdims=True), valid.sum(keepdims=True))
    return float(gain[0])


def majority_class(hist) -> int:
    """Most frequent class; ties break to the lowest class index."""
    counts = _check_histogram(hist)
    return int(np.argmax(counts))


def is_pure(hist) -> bool:
    """True when exactly one class has a nonzero count."""
    counts = _check_histogram(hist)
    return int(np.count_nonzero(counts)) == 1


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
    parent_entropy = _entropy_of_rows(parent[None, :], [n])[0]
    numeric = np.array([kind is AttributeKind.NUMERIC for kind in data.attr_kinds])
    values = data.values[rows]

    best: Condition | None = None
    best_gain = 0.0
    width = max(1, BLOCK_CELLS // n)
    for first in range(0, data.n_attributes, width):
        # Row j of the block is attribute first + j; each row is sorted on
        # its own, and runs of equal values in it form one group.
        block = values[:, first:first + width].T
        order = np.argsort(block, axis=1)
        flat = np.take_along_axis(block, order, axis=1).ravel()
        starts = np.empty(flat.size, dtype=bool)
        np.not_equal(flat[1:], flat[:-1], out=starts[1:])
        starts[::n] = True
        group_start = np.flatnonzero(starts)
        group_end = np.append(group_start[1:], flat.size)
        groups = group_start.size
        group = np.cumsum(starts) - 1
        counts = np.bincount(group * class_count + labels[order].ravel(),
                             minlength=groups * class_count).reshape(groups, class_count)
        attr = group_start // n

        # Numeric: the valid side of a group's threshold is every row of its
        # attribute up to the group's end.  Each attribute's groups hold all
        # n rows, so the running total restarts by subtracting attr * parent.
        valid = np.cumsum(counts, axis=0) - attr[:, None] * parent
        n_valid = group_end - attr * n
        # Categorical: the valid side of ``value == code`` is the group.
        categorical = ~numeric[first:first + width][attr]
        if categorical.any():
            valid[categorical] = counts[categorical]
            n_valid[categorical] = (group_end - group_start)[categorical]
        gains = _gain_of_splits(parent_entropy, n, parent - valid, valid,
                                n - n_valid, n_valid)
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
            if categorical[pick]:
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
