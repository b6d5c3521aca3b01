"""Bagged decision trees three ways, with node and memory instrumentation.

All three algorithms are one tree walk with three expansion policies, over
the same bootstraps drawn in one loop, and each walk co-partitions the
training and test rows: the eager algorithm expands every node of every
tree; the lazy algorithm grows one root-to-leaf path per test observation;
the batched lazy algorithm expands every node a test row needs exactly
once.  No fit holds a tree: ``build_tree`` assembles one from the walk's
visit events.  All three share the same split function and bootstrap seeds
and produce bit-identical prediction matrices.  ``__all__`` holds what the
command line and the tests import from the package; helpers such as
``valid_mask``, ``ALGORITHMS`` and ``format_trace_line`` stay in their
modules.
"""

from .batched_lazy import fit_predict_batched
from .bench import run_cv
from .dataset import (
    Dataset,
    DatasetError,
    SchemaMismatchError,
    bootstrap,
    load_csv,
    load_prediction_rows,
    make_folds,
)
from .eager_tree import build_tree, fit_predict_eager, predict_row
from .lazy_paths import fit_predict_lazy
from .metrics import RunMetrics, model_word_count
from .rng import mix_seed
from .splitcore import (
    Condition,
    SplitParams,
    best_condition,
    partition,
)

__all__ = [
    "Condition",
    "Dataset",
    "DatasetError",
    "RunMetrics",
    "SchemaMismatchError",
    "SplitParams",
    "best_condition",
    "bootstrap",
    "build_tree",
    "fit_predict_batched",
    "fit_predict_eager",
    "fit_predict_lazy",
    "load_csv",
    "load_prediction_rows",
    "make_folds",
    "mix_seed",
    "model_word_count",
    "partition",
    "predict_row",
    "run_cv",
]
