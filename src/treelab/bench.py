"""k-fold cross-validation benchmark engine shared by the CLI and tests."""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .batched_lazy import fit_predict_batched
from .dataset import Dataset, make_folds
from .eager_tree import fit_predict_eager
from .lazy_paths import fit_predict_lazy
from .metrics import RunMetrics
from .rng import mix_seed
from .splitcore import SplitParams

ALGORITHMS = {
    "dt": ("DT", fit_predict_eager),
    "lazy": ("L-DT", fit_predict_lazy),
    "batched": ("BL-DT", fit_predict_batched),
}


@dataclass(frozen=True)
class CvResult:
    metrics: RunMetrics
    accuracy: float
    fold_peaks: tuple[int, ...]


def run_fold(
    data: Dataset,
    plan: np.ndarray,
    fold: int,
    algorithm: str,
    b: int,
    params: SplitParams,
    seed: int,
) -> tuple[RunMetrics, int]:
    """Fit on the training side of one fold; its metrics and correct test rows.

    The per-fold base seed is ``mix_seed(seed, fold)``, so every algorithm
    sees the same bootstraps for the same fold.
    """
    _, fit = ALGORITHMS[algorithm]
    test_rows = np.flatnonzero(plan == fold)
    train_rows = np.flatnonzero(plan != fold)
    matrix, metrics = fit(data, train_rows, test_rows, b, params, mix_seed(seed, fold))
    predicted = np.argmax(matrix, axis=1)
    return metrics, int((predicted == data.labels[test_rows]).sum())


def _fold_task(args) -> tuple[RunMetrics, int]:
    return run_fold(*args)


def run_cv(
    data: Dataset,
    algorithm: str,
    k: int,
    b: int,
    params: SplitParams,
    seed: int,
    jobs: int = 1,
) -> CvResult:
    """Run a full k-fold cross validation for one algorithm.

    Fold results merge in fold order whatever the execution order, so the
    outcome does not depend on ``jobs``.  At most ``min(jobs, k, cpu count)``
    worker processes run the folds; with one, they run in this process.
    """
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    tag, _ = ALGORITHMS[algorithm]
    plan = make_folds(data.n_rows, k, seed)
    tasks = [(data, plan, fold, algorithm, b, params, seed) for fold in range(k)]
    workers = min(jobs, k, os.cpu_count() or 1)
    if workers > 1:
        # Imported only for a pool: these modules take tens of milliseconds
        # to import, which every serial run would otherwise pay.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_fold_task, tasks))
    else:
        outcomes = [run_fold(*task) for task in tasks]
    merged = RunMetrics(algorithm=tag)
    for metrics, _ in outcomes:
        merged = merged.merge(metrics)
    correct = sum(fold_correct for _, fold_correct in outcomes)
    return CvResult(
        metrics=merged,
        accuracy=correct / data.n_rows,  # make_folds puts every row in exactly one test fold
        fold_peaks=tuple(metrics.peak_stack_words for metrics, _ in outcomes),
    )
