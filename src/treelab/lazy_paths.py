"""Lazy decision trees: grow one root-to-leaf path per test observation.

For every bootstrap and every test row, the batched walk
(:func:`treelab.eager_tree.walk`) runs with that row alone: it starts from
the full bootstrap subset, repeatedly computes the best condition, and keeps
only the side the test row falls on, until a stopping rule fires.  The
stopping rules and the split function are the same as the eager builder's,
so the prediction for each (bootstrap, row) pair is identical to routing the
row through the eager tree of that bootstrap.
"""

from __future__ import annotations

import numpy as np

from .dataset import Dataset
from .eager_tree import WalkPolicy, fit_bagged
from .metrics import RunMetrics
from .splitcore import SplitParams

LAZY = WalkPolicy("L-DT", expand_all=False, per_row=True)


def fit_predict_lazy(
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
    """Predict class probabilities by growing one path per (bootstrap, row).

    Node accounting: one explored node per split taken plus one per terminal
    leaf decision.  Each walk holds the bootstrap subset's words; the
    shrinking walk subsets reuse that allowance, so the stack peak per
    bootstrap is the bootstrap size itself.
    """
    return fit_bagged(data, train_rows, test, b, params, base_seed, LAZY, on_visit,
                      event_limit)
