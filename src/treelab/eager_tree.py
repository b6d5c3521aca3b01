"""Bagged decision trees, and the one walk that grows them for all three algorithms.

One tree per bootstrap sample.  A node stops expanding when the depth
exceeds the maximum, the subset is smaller than the minimum count, the
subset is pure, or no candidate condition has positive gain; otherwise it
splits on the best condition.  The walk decides both from the node's own
class histogram: pure means one nonzero count, and a leaf's label is the
majority class, ties going to the lowest class index.  :func:`walk` grows
a tree one depth at a time, with no recursion, so the depth of a tree is
not bounded by Python's recursion limit; it makes one split search call a
depth, for every node of the depth that needs one, and
:func:`~treelab.splitcore.best_conditions` decides which of them share a
batch.  It partitions one copy of the rows in place and holds a few words
a node of its current depth.  It reports the tree's nodes in preorder,
invalid side first, once the tree is done.

The algorithms differ only in the :class:`WalkPolicy` of that walk: the
eager one (``EAGER``) expands every child, so its model words follow from
its node count.  The batched and lazy ones expand only the children that
still hold test rows.  Under all three the test rows go down with the
training rows and vote at the leaves they reach, one visit a node per tree.
No fit holds a tree; :func:`build_tree` assembles one from a walk's events.
:func:`fit_bagged` draws the bootstraps in one loop for every policy, and
predictions average the per-tree class votes with weight ``1/b``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dataset import Dataset, as_test_matrix, bootstrap, row_indices
from .metrics import RunMetrics, model_word_count
from .rng import mix_seed
from .splitcore import (
    SplitParams,
    Condition,
    best_conditions,
    class_histogram,
    partition,
    valid_mask,
)
from .trace import TraceEvent, TraceLimitExceeded


@dataclass(slots=True)
class TreeNode:
    """Leaf (``label`` set) or internal node (``condition`` and two children)."""

    label: int | None = None
    condition: Condition | None = None
    invalid_child: "TreeNode | None" = None
    valid_child: "TreeNode | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.condition is None


class WalkPolicy(NamedTuple):
    """Which children a walk expands, and how it accounts for and reports a node."""

    algorithm: str  # tag of the run metrics
    # Expand every child, whether or not test rows reach it; otherwise only
    # the children some of the walk's test rows fall on.
    expand_all: bool
    # One test row per walk: events name that row instead of a test count, and
    # the bootstrap alone holds stack words, not each node.
    per_row: bool


EAGER = WalkPolicy("DT", expand_all=True, per_row=False)


def walk(
    data: Dataset,
    rows: np.ndarray,
    params: SplitParams,
    metrics: RunMetrics,
    policy: WalkPolicy,
    *,
    test_matrix: np.ndarray,
    positions: np.ndarray,
    votes: np.ndarray,
    share: float,
    on_visit=None,
    bootstrap_index: int = 0,
    event_limit: int | None = None,
) -> None:
    """Visit the nodes of one tree that ``policy`` expands, one depth at a time.

    The walk partitions copies of ``rows`` and ``positions`` in place: each
    node of a depth is one slice of each, and a node that splits moves its
    invalid rows ahead of its valid ones, so that its children's slices are
    its two halves.  ``level`` holds a tuple per node of the current depth:
    the ends of its two slices, the stack words the node and its ancestors
    hold, and its path (``None`` without ``on_visit``); so a depth holds a
    few words a node, and no row subset of its own.  Every visited node
    counts as explored and hands its words on to its children, each adding
    its rows, so the metrics peak is the largest sum of subset sizes along
    a root-to-node path.  A per-row walk holds the bootstrap from the root
    on and adds nothing per node: its subsets reuse those words.

    A node's class histogram gives its label and whether it is pure, and is
    dropped once the node is visited.  The row slices of the nodes of a
    depth that need a split go to one :func:`best_conditions` call, which
    returns each node's best condition and decides alone which nodes it
    searches together.

    ``positions`` index rows of ``test_matrix``: they are split by the same
    condition as the training rows, and a leaf adds ``share`` to
    ``votes[positions, label]``.  Under ``expand_all`` the walk also keeps
    the children no test row reaches.  Each visit becomes a
    :class:`TraceEvent`, the only record of the node; when the tree is
    done, its events are passed to ``on_visit`` in preorder, invalid side
    first.  ``event_limit`` is the most events the caller takes: a depth
    that brings ``metrics.nodes_explored`` past it raises
    :class:`TraceLimitExceeded` before its nodes are visited, and the
    tree's events are not passed on.
    """
    expand_all = policy.expand_all
    per_row = policy.per_row
    test_row = int(positions[0]) if per_row else None
    rows = np.array(rows, dtype=np.int64)
    positions = np.array(positions, dtype=np.int64)
    events = []
    level = [(0, rows.size, 0, positions.size, rows.size, () if on_visit is not None else None)]
    depth = 0
    while level:
        metrics.nodes_explored += len(level)
        if event_limit is not None and metrics.nodes_explored > event_limit:
            raise TraceLimitExceeded(f"the fit made more than {event_limit} events")
        labels, searched = [], []
        leaves = depth > params.max_depth
        for first, end, _, _, held, _ in level:
            if held > metrics.peak_stack_words:
                metrics.peak_stack_words = held
            node_rows = rows[first:end]
            hist = class_histogram(data, node_rows)
            search = not (leaves or end - first < params.min_count or np.count_nonzero(hist) == 1)
            labels.append((int(hist.argmax()), search))
            if search:
                searched.append(node_rows)
        found = iter(best_conditions(data, searched))
        next_level = []
        for (first, end, start, stop, held, path), (label, search) in zip(level, labels):
            cond = next(found) if search else None
            if on_visit is not None:
                events.append(
                    TraceEvent(
                        bootstrap=bootstrap_index,
                        path=path,
                        train_count=end - first,
                        test_count=None if expand_all or per_row else stop - start,
                        condition=cond,
                        label=label if cond is None else None,
                        test_row=test_row,
                    )
                )
            if cond is None:
                votes[positions[start:stop], label] += share
                continue
            invalid_rows, valid_rows = partition(cond, data, rows[first:end])
            middle = first + invalid_rows.size
            tests = positions[start:stop]
            mask = valid_mask(cond, test_matrix[tests, cond.attribute])
            invalid_tests, valid_tests = tests[~mask], tests[mask]
            split = start + invalid_tests.size
            # A child's slices are written only if the child is visited.
            if expand_all or split > start:
                positions[start:split] = invalid_tests
                rows[first:middle] = invalid_rows
                next_level.append((first, middle, start, split,
                                   held if per_row else held + invalid_rows.size,
                                   None if path is None else path + (0,)))
            if expand_all or stop > split:
                positions[split:stop] = valid_tests
                rows[middle:end] = valid_rows
                next_level.append((middle, end, split, stop,
                                   held if per_row else held + valid_rows.size,
                                   None if path is None else path + (1,)))
        level = next_level
        depth += 1
    if on_visit is not None:
        # A path sorts before its extensions, and the invalid side (0)
        # before the valid one: sorted paths are the preorder.
        events.sort(key=lambda event: event.path)
        for event in events:
            on_visit(event)


def build_tree(
    data: Dataset,
    rows,
    params: SplitParams,
    metrics: RunMetrics,
    *,
    on_visit=None,
    bootstrap_index: int = 0,
) -> TreeNode:
    """Build one decision tree over the given row subset.

    The tree is assembled from the events of an ``EAGER`` :func:`walk`, each
    forwarded to ``on_visit``.  Events come in preorder, so a node's parent
    is always built before it.
    """
    rows = np.asarray(rows, dtype=np.int64)
    if rows.size == 0:
        raise ValueError("cannot build a tree node from zero rows")
    nodes: dict[tuple[int, ...], TreeNode] = {}

    def add_node(event: TraceEvent) -> None:
        node = nodes[event.path] = TreeNode(event.label, event.condition)
        if event.path:
            side = "valid_child" if event.path[-1] else "invalid_child"
            setattr(nodes[event.path[:-1]], side, node)
        if on_visit is not None:
            on_visit(event)

    walk(data, rows, params, metrics, EAGER, test_matrix=np.empty((0, data.n_attributes)),
         positions=np.empty(0, dtype=np.int64), votes=np.empty((0, data.class_count)),
         share=0.0, on_visit=add_node, bootstrap_index=bootstrap_index)
    return nodes[()]


def predict_row(tree: TreeNode, row: np.ndarray) -> int:
    """Follow valid/invalid branches until a leaf; return its class.

    The fits do not call this: they route their test rows in :func:`walk`.
    """
    node = tree
    while not node.is_leaf:
        cond = node.condition
        node = node.valid_child if valid_mask(cond, row[cond.attribute]) else node.invalid_child
    return node.label


def fit_bagged(
    data: Dataset,
    train_rows,
    test,
    b: int,
    params: SplitParams,
    base_seed: int,
    policy: WalkPolicy,
    on_visit=None,
    event_limit: int | None = None,
) -> tuple[np.ndarray, RunMetrics]:
    """The fit of all three algorithms, with ``b`` trees grown under ``policy``.

    Each tree adds ``1/b`` to the class it gives a test row, tree by tree, so
    every policy yields the same probability matrix bit for bit.  Each walk
    makes one event per node it explores, and the fit raises
    :class:`TraceLimitExceeded` once its events pass ``event_limit``
    (:func:`walk`).
    """
    if b < 1:
        raise ValueError("need at least one bootstrap")
    train_rows = row_indices(data, train_rows)
    test_matrix = as_test_matrix(data, test)
    n_test = test_matrix.shape[0]
    if n_test == 0:
        raise ValueError("test set must not be empty")
    predictions = np.zeros((n_test, data.class_count), dtype=np.float64)
    metrics = RunMetrics(algorithm=policy.algorithm)
    share = 1.0 / b
    positions = np.arange(n_test, dtype=np.int64)
    groups = [positions[j:j + 1] for j in range(n_test)] if policy.per_row else [positions]
    start = time.process_time()
    for i in range(b):
        rows = bootstrap(train_rows, mix_seed(base_seed, i))
        for group in groups:
            walk(
                data, rows, params, metrics, policy,
                test_matrix=test_matrix, positions=group, votes=predictions, share=share,
                on_visit=on_visit, bootstrap_index=i, event_limit=event_limit,
            )
    if policy.expand_all:
        # Every node the eager walk explores is a node of one of its trees.
        metrics.model_words = model_word_count(metrics.nodes_explored)
    metrics.cpu_seconds = time.process_time() - start
    return predictions, metrics


def fit_predict_eager(
    data: Dataset,
    train_rows,
    test,
    b: int,
    params: SplitParams,
    base_seed: int,
    *,
    on_visit=None,
    event_limit: int | None = None,
) -> tuple[np.ndarray, RunMetrics]:
    """Train ``b`` bagged trees and predict class probabilities for the test set.

    ``test`` is either row indices into ``data`` or a value matrix.  Returns
    the ``(n_s, class_count)`` probability matrix and the run metrics.
    """
    return fit_bagged(data, train_rows, test, b, params, base_seed, EAGER, on_visit,
                      event_limit)
