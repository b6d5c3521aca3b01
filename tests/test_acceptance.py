"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines and the
reported (never asserted) CPU timings.
"""

import time
from collections import Counter
from contextlib import contextmanager

import numpy as np
import pytest

import oracles
from conftest import gaussian_dataset, random_dataset
from treelab import (
    SplitParams,
    best_condition,
    bootstrap,
    build_tree,
    fit_predict_batched,
    fit_predict_eager,
    fit_predict_lazy,
    mix_seed,
    run_cv,
)
from treelab.cli import main as cli_main
from treelab.metrics import RunMetrics


@contextmanager
def criterion(number, title):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} [{title}]: FAIL")
        raise
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE {number} [{title}]: PASS ({elapsed:.1f}s)")


def breast_scale_dataset():
    """The 569x30 reference dataset, or a same-shape synthetic stand-in."""
    try:
        from sklearn.datasets import load_breast_cancer
    except ImportError:
        return gaussian_dataset(np.random.default_rng(569), 569, 30, 2, name="stand_in")
    from conftest import dataset_from_arrays

    raw = load_breast_cancer()
    return dataset_from_arrays(raw.data, raw.target,
                               class_names=tuple(raw.target_names), name="breast")


def random_trial(rng, trial):
    """One randomized equivalence trial; mixed kinds, 2-4 classes, b <= 10."""
    n = int(rng.integers(10, 201))
    n_numeric = int(rng.integers(1, 6))
    n_categorical = int(rng.integers(0, min(5, 11 - n_numeric)))
    n_classes = int(rng.integers(2, 5))
    b = int(rng.integers(1, 11)) if n <= 60 else int(rng.integers(1, 4))
    data = random_dataset(rng, n, n_numeric, n_categorical, n_classes)
    split = max(2, int(n * 0.75))
    train, test = np.arange(split), np.arange(split, n)
    params = SplitParams(min_count=int(rng.integers(1, 7)),
                         max_depth=int(rng.integers(3, 21)))
    return data, train, test, b, params, trial


def test_criterion_1_cross_algorithm_equivalence():
    with criterion(1, "cross-algorithm prediction equivalence"):
        rng = np.random.default_rng(20260811)
        for trial in range(200):
            data, train, test, b, params, base = random_trial(rng, trial)
            eager_matrix, _ = fit_predict_eager(data, train, test, b, params, base)
            lazy_matrix, _ = fit_predict_lazy(data, train, test, b, params, base)
            batched_matrix, _ = fit_predict_batched(data, train, test, b, params, base)
            assert eager_matrix.tobytes() == lazy_matrix.tobytes(), f"trial {trial}"
            assert eager_matrix.tobytes() == batched_matrix.tobytes(), f"trial {trial}"
        # Breast-scale check
        data = breast_scale_dataset()
        train, test = np.arange(512), np.arange(512, 569)
        params = SplitParams()
        eager_matrix, _ = fit_predict_eager(data, train, test, 2, params, 7)
        lazy_matrix, _ = fit_predict_lazy(data, train, test, 2, params, 7)
        batched_matrix, _ = fit_predict_batched(data, train, test, 2, params, 7)
        assert eager_matrix.tobytes() == lazy_matrix.tobytes()
        assert eager_matrix.tobytes() == batched_matrix.tobytes()


def test_criterion_2_loocv_node_identity():
    with criterion(2, "LOOCV lazy/batched explored-node identity"):
        rng = np.random.default_rng(2)
        for n in (18, 24, 30):
            data = random_dataset(rng, n, 2, 1, 3)
            params = SplitParams(min_count=2)
            b = 3
            for fold in range(n):
                train = np.delete(np.arange(n), fold)
                test = np.array([fold])
                lazy_events, batched_events = [], []
                fit_predict_lazy(data, train, test, b, params, fold,
                                 on_visit=lazy_events.append)
                fit_predict_batched(data, train, test, b, params, fold,
                                    on_visit=batched_events.append)
                lazy_counts = Counter(e.bootstrap for e in lazy_events)
                batched_counts = Counter(e.bootstrap for e in batched_events)
                assert lazy_counts == batched_counts, f"n={n} fold={fold}"


def test_criterion_3_node_count_dominance(toy4):
    with criterion(3, "explored-node dominance"):
        rng = np.random.default_rng(3)
        strict_vs_eager = strict_vs_lazy = False
        for _ in range(40):
            n = int(rng.integers(8, 80))
            data = random_dataset(rng, n, 2, 1, 3)
            split = max(2, int(n * 0.8))
            train, test = np.arange(split), np.arange(split, n)
            params = SplitParams(min_count=int(rng.integers(1, 5)))
            base = int(rng.integers(0, 2**32))
            b = 3
            eager_events, lazy_events, batched_events = [], [], []
            fit_predict_eager(data, train, test, b, params, base,
                              on_visit=eager_events.append)
            _, lazy_metrics = fit_predict_lazy(data, train, test, b, params, base,
                                               on_visit=lazy_events.append)
            _, batched_metrics = fit_predict_batched(
                data, train, test, b, params, base, on_visit=batched_events.append)
            eager_counts = Counter(e.bootstrap for e in eager_events)
            batched_counts = Counter(e.bootstrap for e in batched_events)
            for i in range(b):
                assert batched_counts[i] <= eager_counts[i]
            assert batched_metrics.nodes_explored <= lazy_metrics.nodes_explored
            if any(batched_counts[i] < eager_counts[i] for i in range(b)):
                strict_vs_eager = True
            if batched_metrics.nodes_explored < lazy_metrics.nodes_explored:
                strict_vs_lazy = True
        # constructed strict instances: one-sided test rows prune the valid
        # subtree; two test rows share the root under batching
        from conftest import find_full_coverage_seed

        base = find_full_coverage_seed(4)
        params = SplitParams(min_count=1)
        one_sided = np.array([[3.0], [4.0]])
        _, eager_metrics = fit_predict_eager(toy4, np.arange(4), one_sided, 1,
                                             params, base)
        _, batched_metrics = fit_predict_batched(toy4, np.arange(4), one_sided, 1,
                                                 params, base)
        assert batched_metrics.nodes_explored < eager_metrics.nodes_explored
        both_sides = np.array([[1.0], [4.0]])
        _, lazy_metrics = fit_predict_lazy(toy4, np.arange(4), both_sides, 1,
                                           params, base)
        _, batched_metrics = fit_predict_batched(toy4, np.arange(4), both_sides, 1,
                                                 params, base)
        assert batched_metrics.nodes_explored < lazy_metrics.nodes_explored
        assert strict_vs_eager and strict_vs_lazy


def test_criterion_4_visited_set_union():
    with criterion(4, "visited set equals union of lazy paths"):
        rng = np.random.default_rng(4)
        for trial in range(150):
            n = int(rng.integers(4, 13))
            data = random_dataset(rng, n, int(rng.integers(1, 3)),
                                  int(rng.integers(0, 2)), int(rng.integers(2, 4)),
                                  value_grid=4)
            split = max(2, n - int(rng.integers(1, 4)))
            train, test = np.arange(split), np.arange(split, n)
            params = SplitParams(min_count=int(rng.integers(1, 4)),
                                 max_depth=int(rng.integers(2, 9)))
            base = int(rng.integers(0, 2**32))
            b = 2
            lazy_events, batched_events = [], []
            fit_predict_lazy(data, train, test, b, params, base,
                             on_visit=lazy_events.append)
            fit_predict_batched(data, train, test, b, params, base,
                                on_visit=batched_events.append)
            trees = [build_tree(data, bootstrap(train, mix_seed(base, i)), params,
                                RunMetrics("DT"))
                     for i in range(b)]
            for i in range(b):
                lazy_paths = {e.path for e in lazy_events if e.bootstrap == i}
                batched_paths = [e.path for e in batched_events if e.bootstrap == i]
                assert len(batched_paths) == len(set(batched_paths)), f"trial {trial}"
                assert set(batched_paths) == lazy_paths, f"trial {trial}"
                # eager subtree reachable by the test rows
                reachable = set()
                for row in test:
                    _, path = oracles.route_row(trees[i], oracles.decode(data)[row])
                    reachable.update(path[:depth] for depth in range(len(path) + 1))
                assert set(batched_paths) == reachable, f"trial {trial}"


def test_criterion_5_memory_word_orderings():
    with criterion(5, "memory-word orderings"):
        rng = np.random.default_rng(5)
        benchmarked = [
            breast_scale_dataset(),
            random_dataset(rng, 400, 5, 2, 3),
            gaussian_dataset(rng, 120, 25, 2, name="skinny"),
        ]
        params = SplitParams()
        # the lazy stack peak is the largest fold's bootstrap size whatever
        # b is, so b=1 suffices for it
        bootstraps = {"dt": 3, "lazy": 1, "batched": 3}
        for data in benchmarked:
            peaks = {}
            for algorithm in ("dt", "lazy", "batched"):
                result = run_cv(data, algorithm, 10, bootstraps[algorithm],
                                params, seed=55)
                peaks[algorithm] = result.metrics.peak_stack_words
            assert peaks["lazy"] <= peaks["batched"] <= peaks["dt"], (
                f"{data.name}: {peaks}"
            )
            # storing 100 bagged trees dwarfs the build stack
            train = np.arange(int(data.n_rows * 0.9))
            test = np.arange(int(data.n_rows * 0.9), data.n_rows)
            _, metrics = fit_predict_eager(data, train, test, 100, params, 55)
            assert metrics.model_words > metrics.peak_stack_words, data.name


def test_criterion_6_splitcore_oracle_equivalence():
    with criterion(6, "split selection matches brute force"):
        rng = np.random.default_rng(6)
        for trial in range(1000):
            n = int(rng.integers(2, 13))
            data = random_dataset(rng, n, int(rng.integers(1, 4)),
                                  int(rng.integers(0, 3)), int(rng.integers(2, 4)),
                                  value_grid=int(rng.integers(2, 6)))
            rows = np.arange(n)
            got = best_condition(data, rows)
            want, want_gain = oracles.brute_best_condition(data, rows)
            assert got == want, f"trial {trial}: {got} != {want}"
            if got is not None:
                got_gain = oracles.gain_of(data, rows, got)
                assert abs(got_gain - want_gain) <= 1e-9, f"trial {trial}"


def test_criterion_7_timing_directionality():
    with criterion(7, "10-fold timing directionality (nodes asserted)"):
        data = breast_scale_dataset()
        params = SplitParams()
        results = {
            algorithm: run_cv(data, algorithm, 10, 2, params, seed=77)
            for algorithm in ("dt", "lazy", "batched")
        }
        nodes = {a: r.metrics.nodes_explored for a, r in results.items()}
        seconds = {a: r.metrics.cpu_seconds for a, r in results.items()}
        print(
            f"\n10-fold {data.name}: cpu DT={seconds['dt']:.2f}s "
            f"L-DT={seconds['lazy']:.2f}s BL-DT={seconds['batched']:.2f}s "
            f"(reported; direction expected L-DT > DT) | nodes DT={nodes['dt']} "
            f"L-DT={nodes['lazy']} BL-DT={nodes['batched']}"
        )
        assert nodes["batched"] < nodes["dt"]


def test_criterion_8_benchmark_determinism(tmp_path):
    with criterion(8, "byte-identical benchmark reports"):
        rng = np.random.default_rng(8)
        data = random_dataset(rng, 40, 2, 1, 2)
        csv_path = tmp_path / "bench.csv"
        header = list(data.attr_names) + [data.label_name]
        lines = [",".join(header)]
        for i, row in enumerate(oracles.decode(data)):
            cells = [repr(float(v)) for v in row]
            cells.append(data.class_names[data.labels[i]])
            lines.append(",".join(cells))
        csv_path.write_text("\n".join(lines) + "\n")
        args = [
            "benchmark", "--dataset", str(csv_path), "--folds", "2,5",
            "--bootstraps", "3", "--min-count", "2", "--seed", "13",
            "--jobs", "1", "--timing", "off",
        ]
        out_a, out_b = tmp_path / "run_a.csv", tmp_path / "run_b.csv"
        assert cli_main(args + ["--out", str(out_a)]) == 0
        assert cli_main(args + ["--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        assert (tmp_path / "run_a_plot.csv").read_bytes() == (
            tmp_path / "run_b_plot.csv"
        ).read_bytes()
        # with timing on, every column except cpu_seconds is still identical
        out_c, out_d = tmp_path / "run_c.csv", tmp_path / "run_d.csv"
        timed = [a for a in args if a not in ("--timing", "off")]
        assert cli_main(timed + ["--out", str(out_c)]) == 0
        assert cli_main(timed + ["--out", str(out_d)]) == 0

        def strip_cpu(text):
            return [
                ",".join(cell for i, cell in enumerate(line.split(",")) if i != 7)
                for line in text.splitlines()
            ]

        assert strip_cpu(out_c.read_text()) == strip_cpu(out_d.read_text())
