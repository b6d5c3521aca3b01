"""Batched lazy decision trees: co-partition training and test rows.

One walk per bootstrap (:func:`treelab.eager_tree.walk`) carries the
training subset and the test subset together.  At a leaf, every test row in
the subset receives the leaf class; at a split, both subsets are partitioned
by the same condition and a child is entered only when its test subset is
non-empty (invalid side first).  Every node needed by at least one test row
is therefore visited exactly once, and subtrees no test row reaches are
never expanded.
"""

from __future__ import annotations

import numpy as np

from .dataset import Dataset
from .eager_tree import WalkPolicy, fit_bagged
from .metrics import RunMetrics
from .splitcore import SplitParams

BATCHED = WalkPolicy("BL-DT", expand_all=False, per_row=False)


def fit_predict_batched(
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
    """Predict class probabilities with one co-partitioning walk per bootstrap.

    Test subsets are partitioned stably, and predictions are accumulated at
    each row's original position, so the output matrix order never changes.
    Every node on the walk's current path holds its training indices; the
    explored nodes are a subset of the eager build's, so the batched stack
    peak never exceeds the eager one.
    """
    return fit_bagged(data, train_rows, test, b, params, base_seed, BATCHED, on_visit,
                      event_limit)
