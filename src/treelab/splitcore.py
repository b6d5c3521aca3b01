"""Split selection shared by the eager, lazy, and batched tree algorithms.

All three algorithms call the same :func:`best_condition`, so equal row
subsets always produce identical splits.  Candidates are binary tests:
``value <= threshold`` on numeric attributes (thresholds at midpoints of
consecutive distinct values) and ``value == code`` on categorical ones (one
candidate per code present).  The score is Shannon information gain in bits;
ties break to the lowest attribute index, then the lowest threshold or code.

A search scores all attributes of a node together, in blocks of at most
``BLOCK_CELLS`` rows x attributes.  A block gathers the node's cells from the
table's rank codes (``Dataset.codes``), packs each row's label into the low
bits of its codes, and sorts these integer keys once: each attribute's cells
come out ordered by value, and a run of equal codes is one group.  Then one
count of classes per group and one gain evaluation over every candidate of
the block; a threshold's values are read back from ``Dataset.levels``.
Ranks preserve the order and the equalities of the values, so the
candidates, their gains and the tie-break are those of a search that takes
one attribute at a time on the values themselves.  A caller that has just
counted the node's class histogram passes it as ``hist``, and the search
does not count it again.

Class counts are class-major, a ``(classes, groups)`` array, so every step of
the gain pass runs over long contiguous rows.  The entropy's sum over classes
adds whole class rows in a fixed order, the one in which numpy 2.x sums a
contiguous row of doubles (:func:`_class_sum`): the gains equal those of a
per-group ``sum(axis=1)`` bit for bit, and the order is pinned here rather
than left to numpy.

The path is picked by the classes the node holds, not by the table's class
count.  A node of up to ``TABLE_ROWS`` rows that holds exactly two classes
(``parent.nonzero()``) needs only counts of the lower one: its keys carry
label 1 for the higher class, and a block takes one running count of label-0
rows in sort order, which restarts on each attribute row.  Side and node
entropies come from a table built once per process, by :func:`_entropies`
itself, the first time such a node is searched: such a side's entropy
depends only on its size and its count of the lower class, at which the
table is read.  This is bit-safe whatever the table's class count.  On the
direct path, a column with two non-zero class rows has its zero rows' terms
masked to ``+0.0``, and ``x + 0.0`` is ``x`` exactly for every non-zero
``x``, so however :func:`_class_sum` orders its adds, one rounding add meets
the two non-zero terms; they are the same elementwise doubles (``p`` and its
``log2``) as in the table's two-row column, and addition commutes.  One
non-zero row, or none, sums to ``+0.0`` either way.  Both paths then share
the gain formula.

In an all-numeric block, such a node scores one candidate per cut between
unequal neighbours: the cut after cell ``j`` of a row leaves ``j + 1`` rows
valid, so the side sizes and their table offsets are vectors indexed by
``j``.  The cut after a row's last cell leaves no row invalid and scores
``0.0``, which never wins.  A block with a categorical attribute scores one
candidate per group instead: a numeric group's valid side reads the running
count at the group's last cell, and a categorical group subtracts the count
just before its start, none at the start of a row.  Larger nodes and nodes
of three or more classes take the direct path, whose one entropy pass per
block covers both sides of every candidate and the node itself.  A node of
one class returns ``None`` at once: every side holds that class alone, so
each gain is ``0.0``, which is not positive.

A node of more than ``TABLE_ROWS`` rows prunes its all-numeric blocks
(:func:`_pruned_cuts`).  Each attribute row's sorted cells are cut into
chunks of ``CHUNK_CELLS``; one ``bincount`` counts the classes per chunk, a
running sum over the chunks gives the valid side at every chunk's end, and
one entropy pass covers both sides of every chunk end.  Write ``f(x) =
|x| H(x)`` for a class-count vector ``x`` (``f(0) = 0``), so that a cut whose
valid side is ``v`` has gain ``H(p) - (f(v) + f(p - v)) / n``.  ``f`` is the
perspective of the concave entropy, hence concave, and 1-homogeneous, so
``f(a + b) = 2 f((a + b) / 2) >= f(a) + f(b)``, and ``f >= 0``.  Valid sides
only grow along a row: a cut inside a chunk has ``v_start <= v <= v_end``
per class, where ``v_start`` is the valid side at the end of the chunk
before (none at a row's start) and ``v_end`` the one at the chunk's end.  So
``f(v) >= f(v_start) + f(v - v_start) >= f(v_start)`` and likewise ``f(p -
v) >= f(p - v_end)``: no cut of the chunk gains more than its bound ``H(p)
- (f(v_start) + f(p - v_end)) / n``.  Both terms are a side size times an
entropy that the chunk-end pass has computed, so the bound costs nothing
more.  A chunk's cuts are scored by :func:`_gains`, as before, only when its
bound reaches ``floor - PRUNE_MARGIN``, where ``floor`` is the larger of the
earlier blocks' best gain and the best gain of this block's chunk ends that
are real cuts (between unequal neighbours, not at a row's end).  Each
scored gain is the same double as when every group is scored: the valid
side's counts are the same integers, and entropies reduce each column on
its own.

The margin covers rounding.  Gains and bounds are at most ``log2(classes)``
bits, and rounding (in the entropy's terms and class sum, the weights and
one subtraction) moves each by a few hundred ulps of that at most: ~1e-14
for a few classes, ~1e-11 even for 10 000 classes, against a margin of
1e-9.  So every cut of a dropped chunk scores below
``floor``: it cannot beat the earlier blocks, which a block must do
strictly; and when ``floor`` is a chunk end's gain, that end is a cut of a
kept chunk (its own bound is at least its gain), so the kept maximum is at
least ``floor`` less rounding, and a dropped cut neither exceeds nor ties
it.  The kept cuts run in (attribute, value) order, so their first maximum
is the block's first maximum, and the tie-break is unchanged.  Nodes of up
to ``TABLE_ROWS`` rows are not pruned: a chunk's slack is about
``CHUNK_CELLS * log2(n) / n`` bits, so such searches kept 5-67% of their
cuts, and the chunk pass cost more than the pruning saved.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Literal

import numpy as np

from .dataset import Dataset

# Cells (rows x attributes) sorted together in one block of a split search;
# bounds all of a search's scratch: the block's keys and its per-group
# arrays.  A node of more rows takes one attribute per block.  Timed per
# node-size band against 4 096 and 32 768 cells (ROADMAP item 3).
BLOCK_CELLS = 16384

# Largest two-class node whose side entropies come from the table; the table
# holds (TABLE_ROWS + 1)(TABLE_ROWS + 2) / 2 doubles, ~1 MB.
TABLE_ROWS = 512
# Side sizes per step of the table build; bounds its temporaries.
_TABLE_CHUNK = 32

# Consecutive sorted cells of an attribute row counted and bounded together
# in an all-numeric block of a node of more than TABLE_ROWS rows; only the
# cuts of the chunks whose bound reaches the best gain are scored.  16 timed
# no better on the workloads' large nodes, and a larger chunk has a looser
# bound.
CHUNK_CELLS = 8
# Slack below the best gain under which a chunk is dropped: far above the
# rounding of gains and bounds (module docstring).
PRUNE_MARGIN = 1e-9


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
    split wins a near tie.  A zero count's term is NaN (``0 * -inf``, or
    ``0 / 0`` in an empty column) and every other term is finite and at
    most ``+0.0`` (never ``-0.0``: ``p = 1`` gives ``1 * +0.0``), so
    ``fmin(term, 0.0)`` sets exactly the zero counts' terms to ``+0.0`` in
    one pass and keeps every other term's bits.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        p = counts / np.asarray(totals, dtype=np.float64)
        terms = np.log2(p)
        terms *= p
    np.fmin(terms, 0.0, out=terms)
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


def _table_gains(parent_entropy, n, parent0, valid0: np.ndarray,
                 n_valid: np.ndarray) -> np.ndarray:
    """Information gains of a node of at most ``TABLE_ROWS`` rows and two classes.

    ``parent0`` is the node's count of its lower class; each candidate's
    valid side holds ``n_valid`` rows, ``valid0`` of them of that class, and
    its invalid side is the rest of the node.  Both side entropies come from
    the table.
    """
    table = _entropy_table()
    n_invalid = n - n_valid
    gains = table[_tri(n_invalid) + parent0 - valid0]
    gains *= n_invalid / n
    e_valid = table[_tri(n_valid) + valid0]
    e_valid *= n_valid / n
    gains += e_valid
    return np.subtract(parent_entropy, gains, out=gains)


def _side_entropies(parent: np.ndarray, valid: np.ndarray, n_valid: np.ndarray):
    """Entropies of each candidate's invalid and valid sides, and of the node.

    ``parent`` is the class histogram of all rows, ``valid`` a ``(classes,
    k)`` valid-side matrix and ``n_valid`` its column sums; the invalid side
    is the rest of the parent.  Both sides and the parent take one entropy
    pass: invalid columns, valid columns, then the parent's; columns are
    reduced independently.
    """
    n = parent.sum()
    k = n_valid.size
    sides = np.empty((parent.size, 2 * k + 1))
    np.subtract(parent[:, None], valid, out=sides[:, :k])
    sides[:, k:-1] = valid
    sides[:, -1] = parent
    entropies = _entropies(sides, np.concatenate([n - n_valid, n_valid, [n]]))
    return entropies[:k], entropies[k:-1], entropies[-1]


def _gains(parent: np.ndarray, valid: np.ndarray, n_valid: np.ndarray) -> np.ndarray:
    """Information gain of each column of a ``(classes, k)`` valid-side matrix.

    ``parent`` is the class histogram of all rows and ``n_valid`` the column
    sums of ``valid``; the invalid side is the rest of the parent.  This is
    the direct path.  :func:`best_condition` scores with it every group of
    a block with a categorical attribute, and every group of an all-numeric
    block when the node holds three or more classes and at most
    ``TABLE_ROWS`` rows; in an all-numeric block of a node of more rows, it
    scores only the cuts that :func:`_pruned_cuts` keeps.  Nodes of at most
    ``TABLE_ROWS`` rows that hold two classes take :func:`_table_gains`
    instead.
    """
    n = parent.sum()
    e_invalid, e_valid, parent_entropy = _side_entropies(parent, valid, n_valid)
    return parent_entropy - (((n - n_valid) / n) * e_invalid + (n_valid / n) * e_valid)


def _chunk_bounds(parent: np.ndarray, ends: np.ndarray,
                  sizes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each chunk's bound and the gain of the cut at its end.

    ``ends`` is a ``(classes, rows, chunks + 1)`` array of valid sides: in
    each row, column ``c + 1`` at the end of chunk ``c`` and column 0 empty;
    ``sizes`` holds their sizes, one per column.  Returns two ``(rows,
    chunks)`` arrays: ``H(p) - (f(start) + f(p - end)) / n``, which no cut
    inside the chunk exceeds (module docstring), and ``H(p) - (f(end) + f(p
    - end)) / n``, where ``f(x) = |x| H(x)``.
    """
    classes, rows, columns = ends.shape
    n = parent.sum()
    sizes = np.tile(sizes, rows)
    e_invalid, e_valid, parent_entropy = _side_entropies(
        parent, ends.reshape(classes, -1), sizes)
    f_invalid = ((n - sizes) * e_invalid).reshape(rows, columns)[:, 1:]
    f_valid = (sizes * e_valid).reshape(rows, columns)
    bounds = parent_entropy - (f_valid[:, :-1] + f_invalid) / n
    reached = parent_entropy - (f_valid[:, 1:] + f_invalid) / n
    return bounds, reached


def _pruned_cuts(parent: np.ndarray, keys: np.ndarray, bits: int, starts: np.ndarray,
                 best_gain: float) -> tuple[np.ndarray, np.ndarray]:
    """Gains of the cuts of an all-numeric block that can reach the best gain.

    ``keys`` is the block's ``(rows, n)`` array of sorted keys, labels in
    their low ``bits``, and ``starts`` marks each cell that starts a group;
    ``best_gain`` is the best gain of the earlier blocks.  Each row's cells
    are counted per chunk of ``CHUNK_CELLS``, and a chunk's cuts are scored
    only when its bound reaches the best gain known, less ``PRUNE_MARGIN``
    (module docstring).  Returns the gains of the kept chunks' cuts between
    unequal neighbours, in (attribute, value) order, and the cell after
    which each cuts.
    """
    classes = parent.size
    rows, n = keys.shape
    # Class counts per chunk, class-major, each row's chunks after one empty
    # column; their running sum is the valid side at each chunk's end.
    chunks = -(-n // CHUNK_CELLS)
    k = rows * (chunks + 1)
    index = np.bitwise_and(keys, (1 << bits) - 1, dtype=np.int64)
    index *= k
    index += np.repeat(np.arange(1, chunks + 1), CHUNK_CELLS)[:n]
    index += np.arange(0, k, chunks + 1)[:, None]
    ends = np.bincount(index.ravel(), minlength=classes * k).reshape(classes, rows, chunks + 1)
    del index
    np.cumsum(ends, axis=2, out=ends)
    bounds, reached = _chunk_bounds(
        parent, ends, np.minimum(np.arange(chunks + 1) * CHUNK_CELLS, n))
    # A chunk's end is a real cut unless it ends its row or falls inside a
    # group; the block reaches the best of their gains.
    real = starts.reshape(rows, n)[:, CHUNK_CELLS::CHUNK_CELLS]
    floor = max(best_gain, reached[:, :-1][real].max(initial=-np.inf))
    keep = np.flatnonzero(bounds >= floor - PRUNE_MARGIN)

    # The kept chunks' cells; cells past a row's end repeat its last cell
    # and are not cuts.
    row, chunk = np.divmod(keep, chunks)
    position = chunk[:, None] * CHUNK_CELLS + np.arange(CHUNK_CELLS)
    cells = row[:, None] * n + np.minimum(position, n - 1)
    labels = keys.ravel()[cells] & ((1 << bits) - 1)
    valid = np.cumsum(labels == np.arange(classes)[:, None, None], axis=2)
    valid += ends.reshape(classes, k)[:, keep + row, None]
    cut = (position < n - 1) & starts.take(cells + 1, mode="clip")
    return _gains(parent, valid[:, cut], position[cut] + 1), cells[cut]


def valid_mask(cond: Condition, column: np.ndarray) -> np.ndarray:
    """Boolean mask of where the condition holds, over one value column."""
    if cond.op == "le":
        return column <= cond.value
    return column == cond.value


def partition(cond: Condition, data: Dataset, rows) -> tuple[np.ndarray, np.ndarray]:
    """Stable split of ``rows`` into (invalid, valid) by one condition.

    The condition becomes one bound on the attribute's rank codes: the
    first code above the threshold, or the code of the tested value (-1,
    which no cell holds, when the value is none of the column's levels).
    """
    rows = np.asarray(rows, dtype=np.int64)
    start, stop = data.offsets[cond.attribute], data.offsets[cond.attribute + 1]
    levels = data.levels[start:stop]
    codes = data.codes[cond.attribute, rows]
    if cond.op == "le":
        mask = codes < start + int(levels.searchsorted(cond.value, side="right"))
    else:
        at = int(levels.searchsorted(cond.value))
        mask = codes == (start + at if at < levels.size and levels[at] == cond.value else -1)
    return rows[~mask], rows[mask]


def best_condition(data: Dataset, rows, hist=None) -> Condition | None:
    """The candidate condition with the highest information gain.

    Only candidates that leave both sides non-empty are considered.  Returns
    ``None`` when no candidate exists or the best gain is not positive, in
    which case the caller should make a leaf.  ``hist`` is the class
    histogram of ``rows`` (:func:`class_histogram`) when the caller has
    counted it already; otherwise the search counts it.
    """
    rows = np.asarray(rows, dtype=np.int64)
    if rows.size == 0:
        raise ValueError("best_condition needs at least one row")
    n = rows.size
    labels = data.labels[rows]
    parent = np.bincount(labels, minlength=data.class_count) if hist is None else hist
    present = parent.nonzero()[0]
    if present.size < 2:
        # Every side of a one-class node holds that class alone: each
        # candidate's gain is 0.0, which is not positive.
        return None
    # A node of up to TABLE_ROWS rows that holds two classes needs only the
    # lower one's counts: its keys carry label 1 for the higher class.
    two_class = present.size == 2 and n <= TABLE_ROWS
    if two_class:
        parent0 = parent[present[0]]
        parent_entropy = _entropy_table()[_tri(n) + parent0]
        labels = labels == present[1]
    numeric = data.numeric
    # A key is a cell's rank code with its row's label in the low bits, so
    # sorting keys sorts by value and groups each value's rows by class.
    bits = data.label_bits
    labels = labels.astype(data.codes.dtype)

    best: Condition | None = None
    best_gain = 0.0
    width = max(1, BLOCK_CELLS // n)
    for first in range(0, data.n_attributes, width):
        # Row j of the block is attribute first + j; each row is sorted on
        # its own, and runs of equal codes in it form one group.
        keys = data.codes[first:first + width].take(rows, axis=1)
        keys <<= bits
        keys |= labels
        keys.sort(axis=1)
        flat = (keys >> bits).ravel()
        # No two attributes share a code, so each row starts a group.
        starts = np.empty(flat.size, dtype=bool)
        starts[0] = True
        np.not_equal(flat[1:], flat[:-1], out=starts[1:])
        all_numeric = numeric[first:first + width].all()
        if all_numeric and (two_class or n > TABLE_ROWS):
            if two_class:
                # Every cell is scored as a cut, and the cuts inside a group
                # are dropped.  The cut after cell j of a row leaves j + 1
                # rows valid, prefix0 of them of the lower class; after a
                # row's last cell, none invalid, which scores 0.0 and never
                # wins.
                prefix0 = np.cumsum((keys & 1) == 0, axis=1)
                gains = _table_gains(parent_entropy, n, parent0, prefix0,
                                     np.arange(1, n + 1))
                gains = np.where(starts[1:], gains.ravel()[:-1], -np.inf)
                cells = None
            else:
                gains, cells = _pruned_cuts(parent, keys, bits, starts, best_gain)
                if gains.size == 0:
                    continue
            pick = int(np.argmax(gains))
            if gains[pick] > best_gain:
                best_gain = float(gains[pick])
                cell = pick if cells is None else int(cells[pick])
                best = _threshold(data, first + cell // n, flat[cell], flat[cell + 1])
            continue
        if two_class:
            # Rows of the lower class (label 0 in the keys) up to and
            # including each cell, in sort order, restarting on each row.
            prefix0 = np.cumsum((keys & 1) == 0, axis=1).ravel()
        else:
            sorted_labels = (keys & ((1 << bits) - 1)).ravel()
        group_start = np.flatnonzero(starts)
        group_end = np.empty_like(group_start)
        group_end[:-1] = group_start[1:]
        group_end[-1] = flat.size
        attr = group_start // n
        row_start = attr * n

        # Numeric: the valid side of a group's threshold is every row of its
        # attribute up to the group's end.  Categorical: the valid side of
        # ``value == code`` is the group.
        n_valid = group_end - row_start
        categorical = None
        if not all_numeric:
            categorical = ~numeric[first + attr]
            n_valid = np.where(categorical, group_end - group_start, n_valid)
        if two_class:
            valid0 = prefix0[group_end - 1]
            if categorical is not None:
                # The lower class's count before a group; none before a row's start.
                before = np.where(group_start == row_start, 0, prefix0[group_start - 1])
                valid0 = np.where(categorical, valid0 - before, valid0)
            gains = _table_gains(parent_entropy, n, parent0, valid0, n_valid)
        else:
            groups = group_start.size
            group = np.cumsum(starts) - 1
            # Class-major counts: row c holds class c's count in every group.
            # A block has no more groups than the table has levels, so this
            # index fits the codes' dtype, as the keys do.
            counts = np.bincount(sorted_labels * groups + group,
                                 minlength=parent.size * groups).reshape(parent.size, groups)
            # Each attribute's groups hold all n rows, so the running total
            # restarts by subtracting attr * parent.
            valid = np.cumsum(counts, axis=1) - parent[:, None] * attr
            if categorical is not None:
                valid = np.where(categorical, counts, valid)
            gains = _gains(parent, valid, n_valid)
        # The last numeric group and a lone categorical group leave the
        # invalid side empty and are not candidates.
        gains[n_valid == n] = -np.inf

        # Groups run in (attribute, value) order, so the first maximum is
        # the tie-break winner; a later block must beat it strictly.
        pick = int(np.argmax(gains))
        if gains[pick] > best_gain:
            best_gain = float(gains[pick])
            attribute = first + int(attr[pick])
            if not numeric[attribute]:
                value = float(data.levels[flat[group_start[pick]]])
                best = Condition(attribute=attribute, op="eq", value=value)
            else:
                best = _threshold(data, attribute, flat[group_start[pick]],
                                  flat[group_end[pick]])
    return best


def _threshold(data: Dataset, attribute: int, low: int, high: int) -> Condition:
    """``value <= threshold`` between the levels of two adjacent codes."""
    low, high = float(data.levels[low]), float(data.levels[high])
    threshold = (low + high) / 2.0
    # The midpoint of two adjacent doubles can round up onto the high value,
    # which would move the high group to the valid side; pin it back.
    if not threshold < high:
        threshold = low
    return Condition(attribute=attribute, op="le", value=threshold)
