"""Split selection shared by the eager, lazy, and batched tree algorithms.

All three algorithms search a depth's nodes with one call of
:func:`best_conditions`, which returns :func:`best_condition` of each, so
equal row subsets always produce identical splits.  Candidates are binary
tests: ``value <= threshold`` on numeric attributes (thresholds at
midpoints of consecutive distinct values) and ``value == code`` on
categorical ones (one candidate per code present).  The score is Shannon
information gain in bits.

One rule picks the split: the highest gain, then the lowest attribute
index, then the lowest threshold or code.  A candidate is the tuple
``(gain, -low, high)`` of its gain and the codes below and above its cut, a
categorical group's code on both sides.  Codes ascend with the attribute
and then with the value, so the larger tuple is the winner.  The node's
best starts at ``_NO_SPLIT``, of gain ``0.0``, which every candidate of gain
``0.0`` compares below, and each scoring pass offers it its first maximum
with ``best = max(best, candidate)``.  A pass runs over its candidates in
(attribute, value) order, so its first maximum is its lowest-coded one; no
attribute is scored in two passes, so the order of the passes does not
matter.  The ``Condition`` is built once, from the winner.

A search scores all attributes of a node together, in blocks of at most
``BLOCK_CELLS`` rows x attributes.  A block gathers the node's cells from the
table's rank codes (``Dataset.codes``), packs each row's label into the low
bits of its codes, and sorts these integer keys once: each attribute's cells
come out ordered by value, and a run of equal codes is one group.  Then one
count of classes per group and one gain evaluation over every candidate of
the block; a threshold's values are read back from ``Dataset.levels``.
Ranks preserve the order and the equalities of the values, so the
candidates, their gains and the tie-break are those of a search that takes
one attribute at a time on the values themselves.

The route is picked by the node's size and the table's kinds.  A node of
up to ``TABLE_ROWS`` rows, or of an all-numeric table, sorts blocks of
consecutive attributes, as above.  A larger node of a table with
categorical attributes counts them with no sort (:func:`_count_levels`):
their levels are laid out one after another in code order, each
attribute's shifted by its first code less the levels before it
(``Dataset.categorical``), and one class-major ``bincount`` of ``label x
levels + level`` gives the valid side of every ``value == code``
candidate.  A level's column holds the same integers as its group in a
sorted block, and the gains reduce each column on its own, so every gain is
the same double; levels that hold none or all of the node's rows are
masked, and the first maximum in column order is the lowest (attribute,
value) among the highest gains, as the rule asks.  The count matrix has a
column for each level, present or not, so an attribute with more levels
than the node has rows is sorted instead, in blocks of such attributes:
no count has more columns than the cells it counts.  A count takes twice a
block's attributes: a counted cell holds 12 bytes of scratch (its int32
index and ``bincount``'s int64 copy), a sorted one at least 17 (its key, its
code, a group start and an int64 index).  The node's numeric attributes
form blocks of their own, which are pruned (see below): above
``TABLE_ROWS`` rows, no block mixes kinds.

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
block covers both sides of every candidate and the node itself; above
``TABLE_ROWS`` rows it scores only blocks of categorical attributes with
more levels than the node has rows.  A node of one class returns ``None``
at once: every side holds that class alone, so each gain is ``0.0``, which
is not positive.

A node of more than ``TABLE_ROWS`` rows prunes its all-numeric blocks, which
are all of its numeric attributes (:class:`_KeptCuts`).  Each attribute row's sorted cells are cut into
chunks of ``CHUNK_CELLS``; one ``bincount`` counts the classes per chunk,
and a running sum over the chunks gives the valid side at every chunk's
end.  Write ``f(x) = |x| H(x)`` for a class-count vector ``x`` (``f(0) =
0``), so that a cut whose valid side is ``v`` has gain ``H(p) - (f(v) + f(p
- v)) / n``.  ``f`` is the perspective of the concave entropy, hence
concave, and 1-homogeneous, so ``f(a + b) = 2 f((a + b) / 2) >= f(a) +
f(b)``, and ``f >= 0``.  Valid sides only grow along a row: a cut inside a
chunk has ``v_start <= v <= v_end`` per class, where ``v_start`` is the
valid side at the end of the chunk before (none at a row's start) and
``v_end`` the one at the chunk's end.  So ``f(v) >= f(v_start) + f(v -
v_start) >= f(v_start)`` and likewise ``f(p - v) >= f(p - v_end)``: no cut
of the chunk gains more than its bound ``H(p) - (f(v_start) + f(p -
v_end)) / n``.  With ``g(c) = c log2 c`` (``g(0) = 0``), ``f(x) = g(|x|) -
sum_k g(x_k)``: a search slices ``g`` for ``c = 0..n`` from the one built,
in one ``log2`` pass, for the table's rows (``Dataset.chunk_tables``), and
every chunk end's ``f`` of both sides is read from it, the class terms
added by :func:`_class_sum`, with no division or ``log2`` per class.

A block's chunks are bounded against a running ``floor``, the best gain
known in the node: the largest of ``0.0``, the best gain of the counted
categorical attributes and of every earlier direct block, the gains of the
chunk ends that are real cuts (between unequal neighbours, not at a row's
end) in this and every earlier pruned block, and the best kept cut scored
so far.
A chunk's cuts are kept only when its bound reaches ``floor -
PRUNE_MARGIN``.  The kept cuts of all of a node's pruned blocks, held as
valid sides, side sizes and the codes on both sides of each cut, are
scored by one :func:`_gains` call per node, earlier whenever classes x
kept cuts would reach ``BLOCK_CELLS``.  Each scored gain is the same
double as when every group is scored: the valid side's counts are the
same integers, and entropies reduce each column on its own.

The margin covers rounding.  Gains are at most ``log2(classes)`` bits, and
rounding (in the entropy's terms and class sum, the weights and one
subtraction) moves each by a few hundred ulps of that at most: ~1e-14 for
a few classes, ~1e-11 even for 10 000 classes.  In a bound, each ``g(c)``
is within a few ulps of ``c log2 c <= g(n)``, and ``g`` is superadditive,
so every partial class sum is at most ``g(n)`` and each of its at most
``classes`` adds rounds by ``eps g(n)`` at most (``eps = 2**-53``); three
``f`` values and two subtractions put the bound within about ``3 (classes
+ 8) eps log2(n)`` bits of its value once divided by ``n``: ~1e-13 for a
few classes at n = 2**20, ~7e-11 for 10 000 classes, against a margin of
1e-9.  So every cut of a dropped chunk scores below ``floor``.  When
``floor`` is a counted level's or a direct block's gain, the dropped cut
neither beats nor ties that candidate.  When it is a chunk end's gain, that
end's chunk was kept: its bound is at least its gain, and the floor its
block was bounded against was this same value; so a kept cut scores at
least ``floor`` less rounding, and a dropped cut neither exceeds nor ties
it.  When it is a
scored kept cut's gain, that cut is kept.  So the candidates that the
rule sees with the highest gain are those of a search that scores every
cut, and it picks the same one.  Nodes of up to ``TABLE_ROWS`` rows
are not pruned: a chunk's slack is about ``CHUNK_CELLS * log2(n) / n``
bits, so such searches kept 5-67% of their cuts, and the chunk pass cost
more than the pruning saved.

A search of at most ``SEGMENT_ROWS`` rows costs a few dozen numpy calls
whatever its size, so :func:`best_conditions` scores many such nodes of
one depth in one batch search (:func:`_batch_best`).  Its two-class nodes
take the table path and the others the direct path, in batches of
consecutive nodes of at most ``BLOCK_CELLS`` rows x attributes.  Each
node's index goes above the bits of its keys, and one sort of the batch's
keys orders them by node, then attribute, then value: every (node,
attribute) row sorts on its own, as a block's row does in
:func:`best_condition`.  The running counts, of the
lower class or of every class, restart at each row's first cell, and the
candidates of every node are scored at once by :func:`_table_gains` or
:func:`_gains`, with the node's size, class counts and entropy as per-group
operands: the formulas are elementwise, so each gain is the same double as
in the node's own search.  A node's groups are consecutive and ascend by
code, so its first maximum is its highest gain at its lowest code; it is
offered to the node's best, which starts at ``_NO_SPLIT``, as every pass
offers its own, and the ``Condition`` is built from the winner as above.
The direct path's running counts hold a class row per group, and its gains
are evaluated ``BLOCK_CELLS`` counts at a time, so a batch's scratch stays
within twice its classes per cell; the nodes' class histograms, a column
each, are counted in one ``bincount``.  Nodes are batched only on tables
of at most ``SEGMENT_CLASSES`` classes, where such counts are few.  A node
searched alone keeps :func:`best_condition`'s own loop, which is faster
for it than a batch of one.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cache
from typing import Literal

import numpy as np

from .dataset import Dataset

# Cells (rows x attributes) sorted together in one block of a split search,
# half those counted together by level; bounds all of a search's scratch: the
# block's keys and its per-group arrays.  A node of more rows takes one
# attribute per block.  Timed per
# node-size band against 4 096 and 32 768 cells (ROADMAP item 3).
BLOCK_CELLS = 16384

# Largest two-class node whose side entropies come from the table; the table
# holds (TABLE_ROWS + 1)(TABLE_ROWS + 2) / 2 doubles, ~1 MB.
TABLE_ROWS = 512
# Side sizes per step of the table build; bounds its temporaries.
_TABLE_CHUNK = 32

# Consecutive sorted cells of an attribute row counted and bounded together
# in an all-numeric block of a node of more than TABLE_ROWS rows; only the
# cuts of the chunks whose bound reaches the floor are scored.  Timed with
# the c log2 c bounds on the workloads' searches above TABLE_ROWS rows: 16
# took 0.91-0.98x the time of 8 above 2 000 rows and 1.04-1.13x below, 32
# 1.08-2.8x below 8 000 rows; a larger chunk has a looser bound.
CHUNK_CELLS = 8
# Slack below the best gain under which a chunk is dropped: far above the
# rounding of gains and bounds (module docstring).
PRUNE_MARGIN = 1e-9

# A best_conditions call with at least SEGMENT_MIN nodes of at most
# SEGMENT_ROWS rows scores those nodes in one batch search (_batch_best);
# SEGMENT_ROWS must not exceed TABLE_ROWS.  Chosen by replaying every search
# of the nine seed-5 workload commands, grouped by (tree, depth), against
# searching each node alone.  At SEGMENT_MIN = 8, 64 rows took 0.58x the
# search time on trace-dt, 0.79x on trace-batched and 0.88-0.90x on
# predict-dt/-batched; 32 rows took 0.65x, 0.87x and 0.91-0.93x; 128 rows
# 0.53x and 0.74x on the traces but 0.91-0.93x on the predictions.
SEGMENT_ROWS = 64
# At 64 rows, batches of 2 or 4 nodes took 1.00-1.08x on cv-dt/-batched,
# whose depths hold few small nodes; 16 took 0.61x on trace-dt, 32 0.67x.
SEGMENT_MIN = 8
# Nodes are batched only on tables of at most SEGMENT_CLASSES classes: a
# batch's direct path holds a count per class for each of its up to
# BLOCK_CELLS cells, 16 MiB at 128 classes, where a small node's own search
# counts only its few cells.  Fits of dt on a 3 000-row table of 4 numeric
# and 4 categorical attributes took 0.65-0.67x the time of per-node searches
# up to 64 classes, 0.84x at 128, 0.90x at 300 and 1.08x at 1 000.
SEGMENT_CLASSES = 128

# The best of a node before any candidate is scored: (gain, -low code, high
# code).  No code is negative, so a candidate of gain 0.0 compares below it.
_NO_SPLIT = (0.0, 1, 0)


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


def _gains(parent: np.ndarray, valid: np.ndarray, n_valid: np.ndarray, node=0) -> np.ndarray:
    """Information gain of each column of a ``(classes, k)`` valid-side matrix.

    ``parent`` is the class histogram of all rows and ``n_valid`` the column
    sums of ``valid``; the invalid side is the rest of the parent.  Both
    sides of every candidate and the parent take one entropy pass, over the
    invalid columns, the valid columns, then the parent's; columns are
    reduced independently.  This is the direct path.  :func:`best_condition`
    scores with it every group of a block with a categorical attribute, and
    every group of an all-numeric block when the node holds three or more
    classes and at most ``TABLE_ROWS`` rows.  In a node of more rows, it
    scores every level that :func:`_count_levels` counts and only the cuts
    that :class:`_KeptCuts` keeps.  Nodes of at most ``TABLE_ROWS`` rows
    that hold two classes take :func:`_table_gains` instead.

    A batch search (:func:`_segment_winners`) passes a ``(classes, nodes)``
    matrix of histograms as ``parent`` and each column's node as ``node``:
    the node's size, histogram and entropy are then per-column operands of
    the same elementwise formulas, so each gain is the same double.
    """
    parents = parent.reshape(parent.shape[0], -1)
    totals = parents.sum(axis=0)
    n = totals[node]
    k = n_valid.size
    sides = np.empty((parents.shape[0], 2 * k + totals.size))
    np.subtract(parents[:, node].reshape(parents.shape[0], -1), valid, out=sides[:, :k])
    sides[:, k:2 * k] = valid
    sides[:, 2 * k:] = parents
    entropies = _entropies(sides, np.concatenate([n - n_valid, n_valid, totals]))
    return entropies[2 * k:][node] - (((n - n_valid) / n) * entropies[:k]
                                      + (n_valid / n) * entropies[k:2 * k])


def _xlog2x(n: int) -> np.ndarray:
    """``g(c) = c log2 c`` for ``c = 0..n``, with ``g(0) = 0``, in one ``log2`` pass."""
    g = np.arange(n + 1, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        g *= np.log2(g)
    g[0] = 0.0
    return g


def _chunk_bounds(g: np.ndarray, parent: np.ndarray, ends: np.ndarray,
                  sizes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each chunk's bound and the gain of the cut at its end.

    ``g`` is :func:`_xlog2x` of the node's size.  ``ends`` is a ``(classes,
    rows, chunks + 1)`` array of valid sides: in each row, column ``c + 1``
    at the end of chunk ``c`` and column 0 empty; ``sizes`` holds their
    sizes, one per column.  Returns two ``(rows, chunks)`` arrays: ``H(p) -
    (f(start) + f(p - end)) / n``, which no cut inside the chunk exceeds, and
    ``H(p) - (f(end) + f(p - end)) / n``, where ``f(x) = g(|x|) - sum_k
    g(x_k)`` is ``|x| H(x)`` (module docstring).
    """
    classes, rows, columns = ends.shape
    n = g.size - 1
    valid = ends.reshape(classes, -1)
    f_valid = _class_sum(g.take(valid)).reshape(rows, columns)
    np.subtract(g.take(sizes), f_valid, out=f_valid)
    f_invalid = _class_sum(g.take(parent[:, None] - valid)).reshape(rows, columns)
    np.subtract(g.take(n - sizes), f_invalid, out=f_invalid)
    # n H(p) - f(p - end) for each chunk, less f(start) or f(end)
    rest = (g[n] - g.take(parent).sum()) - f_invalid[:, 1:]
    bounds = rest - f_valid[:, :-1]
    bounds /= n
    reached = np.subtract(rest, f_valid[:, 1:], out=rest)
    reached /= n
    return bounds, reached


def chunk_tables(n: int) -> tuple:
    """The arrays that :class:`_KeptCuts` slices to a node's size, for up to ``n`` rows.

    ``g(c) = c log2 c`` for ``c = 0..n`` (:func:`_xlog2x`), each cell's column
    in its row's chunk counts and the valid side's size at each column,
    ``CHUNK_CELLS`` more per column.  ``Dataset.chunk_tables`` holds them for
    the table's row count, built on first use; a slice of each holds the
    same values as the arrays built for fewer rows.
    """
    tables = (_xlog2x(n), np.arange(n) // CHUNK_CELLS + 1,
              np.arange(-(-n // CHUNK_CELLS) + 1) * CHUNK_CELLS)
    for array in tables:
        array.flags.writeable = False
    return tables


class _KeptCuts:
    """The cuts of a node's all-numeric blocks that can win, scored together.

    For a node of more than ``TABLE_ROWS`` rows.  :meth:`add` bounds a
    block's chunks against the running ``floor`` and keeps the cuts of those
    that reach it, as valid sides, side sizes and the codes on both sides of
    each cut; :meth:`score` scores every kept cut in one :func:`_gains` call,
    and runs early whenever classes x kept cuts would reach ``BLOCK_CELLS``.
    Both take the node's best candidate and return it, after offering it
    the first maximum of each scoring they run (module docstring).
    """

    def __init__(self, parent: np.ndarray, n: int, tables: tuple):
        self.parent = parent
        # Sliced to n from ``tables`` (:func:`chunk_tables`): c log2 c, each
        # cell's column in its row's chunk counts, after an empty column 0,
        # and the valid side's size at each column.
        g, column, sizes = tables
        self.g = g[:n + 1]
        self.column = column[:n]
        self.sizes = np.minimum(sizes[:-(-n // CHUNK_CELLS) + 1], n)
        self.floor = 0.0
        self.kept = []
        self.pending = 0

    def add(self, keys: np.ndarray, bits: int, starts: np.ndarray, flat: np.ndarray,
            best: tuple) -> tuple:
        """Keep the cuts of a block's chunks whose bound reaches the floor.

        ``keys`` is the block's ``(rows, n)`` array of sorted keys, labels in
        their low ``bits``, ``starts`` marks each cell that starts a group
        and ``flat`` holds the cells' codes; ``best`` is the node's best
        candidate so far, whose gain the floor takes in.  Each row's cells
        are counted per chunk of ``CHUNK_CELLS``, and a chunk's cuts are kept
        only when its bound reaches the floor less ``PRUNE_MARGIN`` (module
        docstring).
        """
        parent = self.parent
        classes = parent.size
        rows, n = keys.shape
        # Class counts per chunk, class-major, each row's chunks after one empty
        # column; their running sum is the valid side at each chunk's end.
        chunks = self.sizes.size - 1
        k = rows * (chunks + 1)
        index = np.bitwise_and(keys, (1 << bits) - 1, dtype=np.int64)
        index *= k
        index += self.column
        index += np.arange(0, k, chunks + 1)[:, None]
        ends = np.bincount(index.ravel(), minlength=classes * k).reshape(classes, rows, chunks + 1)
        del index
        np.cumsum(ends, axis=2, out=ends)
        bounds, reached = _chunk_bounds(self.g, parent, ends, self.sizes)
        # A chunk's end is a real cut unless it ends its row or falls inside a
        # group; the floor rises to the best of their gains.
        real = starts.reshape(rows, n)[:, CHUNK_CELLS::CHUNK_CELLS]
        reached = np.where(real, reached[:, :-1], -np.inf).max(initial=-np.inf)
        self.floor = max(self.floor, best[0], reached)
        keep = np.flatnonzero(bounds >= self.floor - PRUNE_MARGIN)
        if not keep.size:
            return best

        # The kept chunks' cells; cells past a row's end repeat its last cell
        # and are not cuts.
        row, chunk = np.divmod(keep, chunks)
        position = chunk[:, None] * CHUNK_CELLS + np.arange(CHUNK_CELLS)
        cells = row[:, None] * n + np.minimum(position, n - 1)
        labels = keys.ravel()[cells] & ((1 << bits) - 1)
        valid = np.cumsum(labels == np.arange(classes)[:, None, None], axis=2)
        valid += ends.reshape(classes, k)[:, keep + row, None]
        cut = (position < n - 1) & starts.take(cells + 1, mode="clip")
        cells = cells[cut]
        # The earlier blocks' cuts are scored first when this block's would
        # bring them to BLOCK_CELLS, and this block's when they reach it.
        if classes * (self.pending + cells.size) >= BLOCK_CELLS:
            best = self.score(best)
        self.kept.append((valid[:, cut], position[cut] + 1, flat[cells], flat[cells + 1]))
        self.pending += cells.size
        if classes * self.pending >= BLOCK_CELLS:
            best = self.score(best)
        return best

    def score(self, best: tuple) -> tuple:
        """Score the kept cuts and offer their first maximum to ``best``."""
        if not self.pending:
            return best
        valid, n_valid, low, high = (np.concatenate(parts, axis=-1) for parts in zip(*self.kept))
        self.kept, self.pending = [], 0
        gains = _gains(self.parent, valid, n_valid)
        pick = int(np.argmax(gains))
        best = max(best, (float(gains[pick]), -int(low[pick]), int(high[pick])))
        self.floor = max(self.floor, best[0])
        return best


def _blocks(attributes: np.ndarray, width: int) -> list:
    """``attributes`` cut into blocks of ``width``, the last one shorter."""
    return [attributes[first:first + width] for first in range(0, attributes.size, width)]


def _cells(codes: np.ndarray, attributes: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The codes of ``rows`` on ascending ``attributes``, one row per attribute.

    Consecutive attributes take one slice's ``take``, which is faster.
    """
    first = attributes[0]
    if attributes[-1] - first == attributes.size - 1:
        return codes[first:first + attributes.size].take(rows, axis=1)
    return codes[attributes[:, None], rows]


def _count_levels(data: Dataset, rows: np.ndarray, labels: np.ndarray, parent: np.ndarray,
                  spans: np.ndarray, best: tuple) -> tuple:
    """Score categorical attributes from one class x level count matrix, with no sort.

    ``spans`` holds columns of ``Dataset.categorical``: each attribute's
    index, first code and level count.  ``labels`` are the rows' labels in
    the codes' dtype.  The attributes' levels are laid out one after
    another, in code order, as the columns of a class-major count matrix; a
    level holding none or all of the rows is no candidate.  Offers the
    first maximum to ``best``, the node's best candidate, and returns it.
    """
    attributes, first_codes, level_counts = spans
    ends = level_counts.cumsum(dtype=level_counts.dtype)
    k = int(ends[-1])
    # A cell's column is its code less its attribute's shift, and its row
    # of the counts is its label.
    shift = first_codes - ends + level_counts
    index = _cells(data.codes, attributes, rows)
    index -= shift[:, None]
    index += labels * k
    counts = np.bincount(index.ravel(), minlength=parent.size * k).reshape(parent.size, k)
    n_valid = counts.sum(axis=0)
    gains = _gains(parent, counts, n_valid)
    gains[(n_valid == 0) | (n_valid == rows.size)] = -np.inf
    pick = int(np.argmax(gains))
    code = pick + int(shift[np.searchsorted(ends, pick, side="right")])
    return max(best, (float(gains[pick]), -code, code))


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
    labels = data.labels[rows]
    parent = np.bincount(labels, minlength=data.class_count)
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

    best = _NO_SPLIT
    kept = None
    width = max(1, BLOCK_CELLS // n)
    blocks = _blocks(np.arange(data.n_attributes), width)
    spans = data.categorical
    if n > TABLE_ROWS and spans.size:
        # Categorical attributes are counted per level, twice a block's
        # width at a time, unless they have more levels than the node has
        # rows; the numeric ones, and those, are sorted.
        wide = spans[2] > n
        counted = spans[:, ~wide]
        for first in range(0, counted.shape[1], 2 * width):
            chunk = counted[:, first:first + 2 * width]
            best = _count_levels(data, rows, labels, parent, chunk, best)
        blocks = [block for group in (np.flatnonzero(numeric), spans[0, wide])
                  for block in _blocks(group, width)]
    for block in blocks:
        # Row j of the block is its attribute j; each row is sorted on its
        # own, and runs of equal codes in it form one group.
        keys = _cells(data.codes, block, rows)
        keys <<= bits
        keys |= labels
        keys.sort(axis=1)
        flat = (keys >> bits).ravel()
        # No two attributes share a code, so each row starts a group.
        starts = np.empty(flat.size, dtype=bool)
        starts[0] = True
        np.not_equal(flat[1:], flat[:-1], out=starts[1:])
        kinds = numeric[block]
        all_numeric = kinds.all()
        if all_numeric and n > TABLE_ROWS:
            if kept is None:
                kept = _KeptCuts(parent, n, data.chunk_tables if n <= data.n_rows
                                 else chunk_tables(n))
            best = kept.add(keys, bits, starts, flat, best)
            continue
        if all_numeric and two_class:
            # Every cell is scored as a cut, and the cuts inside a group are
            # dropped.  The cut after cell j of a row leaves j + 1 rows
            # valid, prefix0 of them of the lower class; after a row's last
            # cell, none invalid, which scores 0.0 and never wins.
            prefix0 = np.cumsum((keys & 1) == 0, axis=1)
            gains = _table_gains(parent_entropy, n, parent0, prefix0, np.arange(1, n + 1))
            gains = np.where(starts[1:], gains.ravel()[:-1], -np.inf)
            pick = int(np.argmax(gains))
            best = max(best, (float(gains[pick]), -int(flat[pick]), int(flat[pick + 1])))
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
            categorical = ~kinds[attr]
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

        # A categorical group's code is on both sides of its candidate, and a
        # numeric group's high code starts the next group.  The block's last
        # group, a numeric row's last, is no candidate: its clipped read
        # never wins.
        pick = int(np.argmax(gains))
        low = int(flat[group_start[pick]])
        if categorical is None or not categorical[pick]:
            high = int(flat.take(group_end[pick], mode="clip"))
        else:
            high = low
        best = max(best, (float(gains[pick]), -low, high))
    if kept is not None:
        best = kept.score(best)
    return _condition(data, best)


def _condition(data: Dataset, best: tuple) -> Condition | None:
    """The condition of a node's best candidate, or ``None`` if it is ``_NO_SPLIT``."""
    if best is _NO_SPLIT:
        return None
    low, high = -best[1], best[2]
    attribute = bisect_right(data.offsets, low) - 1
    if not data.numeric[attribute]:
        return Condition(attribute=attribute, op="eq", value=float(data.levels[low]))
    return _threshold(data, attribute, low, high)


def best_conditions(data: Dataset, nodes: list) -> list:
    """:func:`best_condition` of each node of ``nodes``, a list of row arrays, in order.

    The one search call of a walk's depth, which decides alone which nodes
    are searched together.  The nodes of at most ``SEGMENT_ROWS`` rows share
    batch searches (:func:`_batch_best`) when there are at least
    ``SEGMENT_MIN`` of them and the table has at most ``SEGMENT_CLASSES``
    classes.  Every other node is searched alone, by the module global
    :func:`best_condition` (the benchmark's tracer rebinds it to time each
    call), which is faster for it than a batch of one: every search of at most ``TABLE_ROWS`` rows of the nine seed-5
    workload commands, each routed through :func:`_segment_winners` as a
    batch of one, took 1.38-2.12x the time, with no result changed.
    """
    small = [i for i, rows in enumerate(nodes) if rows.size <= SEGMENT_ROWS]
    if len(small) < SEGMENT_MIN or data.class_count > SEGMENT_CLASSES:
        return [best_condition(data, rows) for rows in nodes]
    best = dict(zip(small, _batch_best(data, [nodes[i] for i in small])))
    return [_condition(data, best[i]) if i in best else best_condition(data, rows)
            for i, rows in enumerate(nodes)]


def _batch_best(data: Dataset, nodes: list) -> list:
    """The best candidate of each node of ``nodes``, of at most ``TABLE_ROWS`` rows each.

    The nodes' class histograms are counted in one ``bincount``; the nodes
    of two classes and those of more are searched apart, in batches of
    consecutive nodes of at most ``BLOCK_CELLS`` rows x attributes
    (:func:`_segment_winners`, module docstring).  A node of one class
    keeps ``_NO_SPLIT``.
    """
    sizes = np.array([rows.size for rows in nodes])
    classes = data.class_count
    labels = data.labels[np.concatenate(nodes)]
    labels += np.repeat(np.arange(0, sizes.size * classes, classes), sizes)
    # Class-major: column j is node j's histogram.
    parents = np.bincount(labels, minlength=sizes.size * classes).reshape(-1, classes).T
    present = np.count_nonzero(parents, axis=0)
    width = min(data.n_attributes, max(1, BLOCK_CELLS // int(sizes.max())))
    capacity = BLOCK_CELLS // width
    blocks = _blocks(np.arange(data.n_attributes), width)
    best = [_NO_SPLIT] * len(nodes)
    for two_class, members in ((True, present == 2), (False, present > 2)):
        members = np.flatnonzero(members)
        # Consecutive members up to capacity rows in all.
        ends = np.cumsum(sizes[members])
        first = 0
        while first < members.size:
            last = int(np.searchsorted(ends, ends[first] - sizes[members[first]] + capacity,
                                       side="right"))
            batch = members[first:last]
            first = last
            rows = [nodes[i] for i in batch]
            for block in blocks:
                gains, low, high = _segment_winners(data, rows, sizes[batch], parents[:, batch],
                                                    two_class, block)
                for i, gain, code, next_code in zip(batch.tolist(), gains.tolist(),
                                                    low.tolist(), high.tolist()):
                    best[i] = max(best[i], (gain, -code, next_code))
    return best


def _segment_winners(data: Dataset, nodes: list, sizes: np.ndarray, parents: np.ndarray,
                     two_class: bool, block: np.ndarray) -> tuple:
    """Each node's first maximum on the attributes of ``block``: gains, low and high codes.

    This repeats the block scoring of :func:`best_condition` for many nodes
    at once, with the same gain formulas.

    ``parents`` holds the nodes' class histograms, one column each, and
    every node holds two classes (``two_class``) or every node more.  Each
    node's index goes above the bits of its keys, so one sort of all the
    batch's keys orders them by node, then attribute, then value: every
    (node, attribute) row of cells sorts on its own, and a node's groups are
    consecutive.  The running counts of classes restart at each row's first
    cell, and the node's size, histogram and entropy are per-group operands
    of the formulas of :func:`best_condition`, so each gain is its double.
    """
    count = sizes.size
    rows = np.concatenate(nodes)
    node_of_row = np.repeat(np.arange(count, dtype=np.int64), sizes)
    labels = data.labels[rows]
    if two_class:
        # Label 1 for each node's higher class, as in best_condition.
        present = parents > 0
        lower = present.argmax(axis=0)
        labels = labels == (present.shape[0] - 1 - present[::-1].argmax(axis=0))[node_of_row]
    bits = data.label_bits
    code_bits = int(data.levels.size).bit_length()
    # The codes' dtype holds code << bits (Dataset), and a batch has at most
    # BLOCK_CELLS nodes, so these int64 keys do not overflow.
    keys = _cells(data.codes, block, rows)
    keys <<= bits
    keys |= labels.astype(keys.dtype)
    keys = (keys + (node_of_row << (code_bits + bits))).ravel()
    keys.sort()

    coded = keys >> bits  # node and code
    starts = np.empty(coded.size, dtype=bool)
    starts[0] = True
    np.not_equal(coded[1:], coded[:-1], out=starts[1:])
    group_start = np.flatnonzero(starts)
    group_end = np.empty_like(group_start)
    group_end[:-1] = group_start[1:]
    group_end[-1] = coded.size
    node = coded[group_start] >> code_bits
    n = sizes[node]
    # A node's cells start after block.size cells per row of earlier nodes.
    offset = group_start - (np.cumsum(sizes) - sizes)[node] * block.size
    row_start = group_start - offset % n
    # Numeric: every cell of the row up to the group's end is valid.
    # Categorical: the group is.
    first = row_start
    n_valid = group_end - row_start
    kinds = data.numeric[block]
    categorical = None
    if not kinds.all():
        categorical = ~kinds[offset // n]
        first = np.where(categorical, group_start, row_start)
        n_valid = group_end - first
    if two_class:
        node0 = parents[lower, np.arange(count)]
        parent0 = node0[node]
        parent_entropy = _entropy_table()[_tri(sizes) + node0][node]
        # Rows of the lower class (label 0 in the keys) in sort order; a
        # candidate's valid side counts them from its first cell on.
        lower0 = (keys & 1) == 0
        running = np.cumsum(lower0)
        valid0 = running[group_end - 1] - running[first] + lower0[first]
        gains = _table_gains(parent_entropy, n, parent0, valid0, n_valid)
    else:
        classes = parents.shape[0]
        groups = group_start.size
        column = np.cumsum(starts)
        # Class-major running counts: column g + 1 holds each class's rows
        # through group g, after a column of zeros.
        index = keys & ((1 << bits) - 1)
        index *= groups + 1
        index += column
        running = np.bincount(index, minlength=classes * (groups + 1)).reshape(classes, groups + 1)
        del index
        np.cumsum(running, axis=1, out=running)
        before = column[first] - 1
        gains = np.empty(groups)
        # At most BLOCK_CELLS counts per gain evaluation bound its scratch.
        step = max(1, BLOCK_CELLS // classes)
        for lo in range(0, groups, step):
            hi = min(lo + step, groups)
            valid = running[:, lo + 1:hi + 1] - running[:, before[lo:hi]]
            nodes_from = node[lo]
            gains[lo:hi] = _gains(parents[:, nodes_from:node[hi - 1] + 1], valid, n_valid[lo:hi],
                                  node[lo:hi] - nodes_from)
    # The last numeric group and a lone categorical group leave the invalid
    # side empty and are not candidates.
    gains[n_valid == n] = -np.inf

    # The first maximum of each node: its lowest code among its highest gains.
    top = np.maximum.reduceat(gains, np.searchsorted(node, np.arange(count)))
    tied = np.flatnonzero(gains == top[node])
    pick = tied[np.searchsorted(node[tied], np.arange(count))]
    code_mask = (1 << code_bits) - 1
    low = coded[group_start[pick]] & code_mask
    # A numeric group's high code starts the next group; the batch's last
    # group, a numeric row's last, is no candidate: its clipped read never wins.
    high = coded.take(group_end[pick], mode="clip") & code_mask
    if categorical is not None:
        high = np.where(categorical[pick], low, high)
    return top, low, high


def _threshold(data: Dataset, attribute: int, low: int, high: int) -> Condition:
    """``value <= threshold`` between the levels of two adjacent codes."""
    low, high = float(data.levels[low]), float(data.levels[high])
    threshold = (low + high) / 2.0
    # The midpoint of two adjacent doubles can round up onto the high value,
    # which would move the high group to the valid side; pin it back.
    if not threshold < high:
        threshold = low
    return Condition(attribute=attribute, op="le", value=threshold)
