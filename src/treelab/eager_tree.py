"""Bagged decision trees, and the one walk that grows them for all three algorithms.

One tree per bootstrap sample.  A node stops expanding when the depth
exceeds the maximum, the subset is smaller than the minimum count, the
subset is pure, or no candidate condition has positive gain; otherwise it
splits on the best condition.  The walk decides both from the node's own
class histogram: pure means one nonzero count, and a leaf's label is the
majority class, ties going to the lowest class index.  :func:`walk` visits
the nodes depth first, invalid side first, from an explicit stack, so the
depth of a tree is not bounded by Python's recursion limit.

The algorithms differ only in the :class:`WalkPolicy` of that walk: the
eager one (``EAGER``) expands every child and builds the tree, routes the
test rows through it, then drops it; every node it explores is a tree node,
so its model words follow from its node count.  The batched and lazy ones
expand only the children that still hold test rows.
:func:`fit_bagged` draws the bootstraps in one loop for every policy, and
predictions average the per-tree class votes with weight ``1/b``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dataset import Dataset, as_test_matrix, bootstrap
from .metrics import RunMetrics, model_word_count
from .rng import mix_seed
from .splitcore import (
    SplitParams,
    Condition,
    best_condition,
    class_histogram,
    partition,
    valid_mask,
)
from .trace import TraceEvent


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
    # Expand every child and keep the tree; no test rows ride along.  Otherwise
    # a child is expanded only when some of the walk's test rows fall on its side.
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
    on_visit=None,
    bootstrap_index: int = 0,
    test_matrix: np.ndarray | None = None,
    positions: np.ndarray | None = None,
    votes: np.ndarray | None = None,
    share: float = 0.0,
) -> TreeNode | None:
    """Visit the nodes of one tree that ``policy`` expands, in preorder, from depth 0.

    The stack holds ``(rows, positions, path, node, held)`` for each node
    still to visit, where ``held`` is the stack words its ancestors hold; a
    node's depth is ``len(path)``.  Every visited node counts as explored,
    adds its rows to ``held`` and hands that on to its children, so the
    metrics peak is the largest sum of subset sizes along a root-to-node
    path.  A per-row walk holds the bootstrap from the root on and adds
    nothing per node: its subsets reuse those words.

    Under ``expand_all`` the walk fills in and returns a :class:`TreeNode`
    tree.  Otherwise ``positions`` index rows of ``test_matrix``: they are
    split by the same condition as the training rows, and a leaf adds
    ``share`` to ``votes[positions, label]``; the walk returns ``None``.
    """
    expand_all = policy.expand_all
    per_row = policy.per_row
    test_row = int(positions[0]) if per_row else None
    root = TreeNode() if expand_all else None
    stack: list = [(rows, positions, (), root, rows.size if per_row else 0)]
    while stack:
        rows, positions, path, node, held = stack.pop()
        metrics.nodes_explored += 1
        if not per_row:
            held += rows.size
        if held > metrics.peak_stack_words:
            metrics.peak_stack_words = held
        hist = class_histogram(data, rows)
        pure = np.count_nonzero(hist) == 1
        cond = None
        if not (len(path) > params.max_depth or rows.size < params.min_count or pure):
            cond = best_condition(data, rows)
        label = int(hist.argmax()) if cond is None else None
        if on_visit is not None:
            on_visit(
                TraceEvent(
                    bootstrap=bootstrap_index,
                    path=path,
                    train_count=int(rows.size),
                    test_count=None if expand_all or per_row else int(positions.size),
                    condition=cond,
                    label=label,
                    test_row=test_row,
                )
            )
        if expand_all:
            node.label, node.condition = label, cond
        if cond is None:
            if not expand_all:
                votes[positions, label] += share
            continue
        invalid_rows, valid_rows = partition(cond, data, rows)
        # Pushed valid side first, so the invalid subtree is visited first.
        if expand_all:
            node.invalid_child, node.valid_child = TreeNode(), TreeNode()
            stack.append((valid_rows, None, path + (1,), node.valid_child, held))
            stack.append((invalid_rows, None, path + (0,), node.invalid_child, held))
            continue
        mask = valid_mask(cond, test_matrix[positions, cond.attribute])
        if mask.any():
            stack.append((valid_rows, positions[mask], path + (1,), None, held))
        if not mask.all():
            stack.append((invalid_rows, positions[~mask], path + (0,), None, held))
    return root


def build_tree(
    data: Dataset,
    rows,
    params: SplitParams,
    metrics: RunMetrics,
    *,
    on_visit=None,
    bootstrap_index: int = 0,
) -> TreeNode:
    """Build one decision tree over the given row subset (:func:`walk`, ``EAGER``)."""
    rows = np.asarray(rows, dtype=np.int64)
    if rows.size == 0:
        raise ValueError("cannot build a tree node from zero rows")
    return walk(
        data, rows, params, metrics, EAGER, on_visit=on_visit, bootstrap_index=bootstrap_index
    )


def predict_row(tree: TreeNode, row: np.ndarray) -> int:
    """Follow valid/invalid branches until a leaf; return its class."""
    return route_row(tree, row)[0]


def route_row(tree: TreeNode, row: np.ndarray) -> tuple[int, tuple[int, ...]]:
    """The class of the leaf ``row`` reaches, and the branch path taken."""
    node = tree
    path: tuple[int, ...] = ()
    while not node.is_leaf:
        if valid_mask(node.condition, row[node.condition.attribute]):
            node = node.valid_child
            path += (1,)
        else:
            node = node.invalid_child
            path += (0,)
    return node.label, path


def fit_bagged(
    data: Dataset,
    train_rows,
    test,
    b: int,
    params: SplitParams,
    base_seed: int,
    policy: WalkPolicy,
    on_visit=None,
) -> tuple[np.ndarray, RunMetrics]:
    """The fit of all three algorithms, with ``b`` trees grown under ``policy``.

    Each tree adds ``1/b`` to the class it gives a test row, tree by tree, so
    every policy yields the same probability matrix bit for bit.
    """
    if b < 1:
        raise ValueError("need at least one bootstrap")
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
        if policy.expand_all:
            # Build, then route: partitioning the test rows alongside every
            # node of the build costs more than routing them afterwards.
            root = build_tree(data, rows, params, metrics,
                              on_visit=on_visit, bootstrap_index=i)
            for j in range(n_test):
                predictions[j, predict_row(root, test_matrix[j])] += share
            del root  # before the next build, so one tree is held at a time
            continue
        for group in groups:
            walk(
                data, rows, params, metrics, policy,
                on_visit=on_visit, bootstrap_index=i,
                test_matrix=test_matrix, positions=group, votes=predictions, share=share,
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
) -> tuple[np.ndarray, RunMetrics]:
    """Train ``b`` bagged trees and predict class probabilities for the test set.

    ``test`` is either row indices into ``data`` or a value matrix.  Returns
    the ``(n_s, class_count)`` probability matrix and the run metrics.
    """
    return fit_bagged(data, train_rows, test, b, params, base_seed, EAGER, on_visit)
