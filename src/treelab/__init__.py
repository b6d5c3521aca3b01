"""Bagged decision trees three ways, with node and memory instrumentation.

All three algorithms are one tree walk with three expansion policies: the
eager algorithm expands every node and builds full trees before predicting;
the lazy algorithm grows one root-to-leaf path per test observation; the
batched lazy algorithm co-partitions training and test rows so every needed
node is expanded exactly once.  All three share the same split function and
bootstrap seeds and produce bit-identical prediction matrices.
"""

from .batched_lazy import fit_predict_batched
from .bench import ALGORITHMS, CvResult, FoldOutcome, run_cv, run_fold
from .dataset import (
    AttributeKind,
    BootstrapSample,
    Dataset,
    DatasetError,
    FoldPlan,
    SchemaMismatchError,
    as_test_matrix,
    bootstrap,
    load_csv,
    load_prediction_rows,
    make_folds,
)
from .eager_tree import (
    BaggedModel,
    TreeNode,
    build_bagged_model,
    build_tree,
    dump_tree,
    fit_predict_eager,
    predict_row,
    route_row,
)
from .lazy_paths import fit_predict_lazy
from .metrics import (
    AccountingError,
    RunMetrics,
    WORDS_PER_NODE,
    count_nodes,
    cpu_timer,
    model_word_count,
)
from .rng import SplitMix64, mix_seed
from .splitcore import (
    Condition,
    SplitParams,
    best_condition,
    class_histogram,
    entropy,
    information_gain,
    is_pure,
    majority_class,
    partition,
    valid_mask,
)
from .trace import TraceEvent, format_trace_line, path_string

__all__ = [
    "ALGORITHMS",
    "AccountingError",
    "AttributeKind",
    "BaggedModel",
    "BootstrapSample",
    "Condition",
    "CvResult",
    "Dataset",
    "DatasetError",
    "FoldOutcome",
    "FoldPlan",
    "RunMetrics",
    "SchemaMismatchError",
    "SplitMix64",
    "SplitParams",
    "TraceEvent",
    "TreeNode",
    "WORDS_PER_NODE",
    "as_test_matrix",
    "best_condition",
    "bootstrap",
    "build_bagged_model",
    "build_tree",
    "class_histogram",
    "count_nodes",
    "cpu_timer",
    "dump_tree",
    "entropy",
    "fit_predict_batched",
    "fit_predict_eager",
    "fit_predict_lazy",
    "format_trace_line",
    "information_gain",
    "is_pure",
    "load_csv",
    "load_prediction_rows",
    "majority_class",
    "make_folds",
    "mix_seed",
    "model_word_count",
    "partition",
    "path_string",
    "predict_row",
    "route_row",
    "run_cv",
    "run_fold",
    "valid_mask",
]
