from collections import Counter

import numpy as np

from conftest import dataset_from_arrays, find_full_coverage_seed, random_dataset
from oracles import route_row
from treelab import (
    RunMetrics,
    SplitParams,
    build_tree,
    fit_predict_eager,
    fit_predict_lazy,
)
from treelab.dataset import bootstrap
from treelab.rng import mix_seed


def lazy_path_of_row(events, bootstrap_index, row):
    return [
        e for e in events
        if e.bootstrap == bootstrap_index and e.test_row == row
    ]


class TestPathEquivalence:
    def test_walk_matches_eager_route(self):
        # The split sequence of each lazy walk must equal the branch path the
        # eager tree of the same bootstrap routes that row through.
        rng = np.random.default_rng(101)
        params = SplitParams(min_count=2, max_depth=8)
        for _ in range(25):
            n = int(rng.integers(4, 16))
            data = random_dataset(rng, n, 2, 1, 3, value_grid=4)
            train = np.arange(n)
            test = rng.integers(0, n, size=3)
            base = int(rng.integers(0, 2**32))
            events = []
            fit_predict_lazy(data, train, test, 2, params, base,
                             on_visit=events.append)
            for i in range(2):
                sample = bootstrap(train, mix_seed(base, i))
                tree = build_tree(data, sample, params,
                                  RunMetrics("DT"))
                for j, row in enumerate(test):
                    label, path = route_row(tree, data.values[row])
                    walk = lazy_path_of_row(events, i, j)
                    assert walk[-1].condition is None
                    assert walk[-1].label == label
                    assert walk[-1].path == path
                    split_paths = tuple(e.path for e in walk[:-1])
                    assert split_paths == tuple(path[:d] for d in range(len(path)))

    def test_pure_training_needs_one_node_per_walk(self):
        data = dataset_from_arrays([[1.0], [2.0], [3.0]], [1, 1, 1],
                                   class_names=("A", "B"))
        events = []
        matrix, metrics = fit_predict_lazy(data, np.arange(3), np.arange(3), 2,
                                           SplitParams(), 0,
                                           on_visit=events.append)
        # 1 leaf decision per (bootstrap, test row)
        assert metrics.nodes_explored == 2 * 3
        assert all(e.condition is None for e in events)
        assert np.array_equal(matrix, np.array([[0.0, 1.0]] * 3))

    def test_toy_costs_and_predictions(self, toy4):
        base = find_full_coverage_seed(4)
        params = SplitParams(min_count=1, max_depth=20)
        test = np.array([[1.0], [4.0]])
        _, eager_metrics = fit_predict_eager(toy4, np.arange(4), test, 1, params, base)
        matrix, lazy_metrics = fit_predict_lazy(toy4, np.arange(4), test, 1, params, base)
        # each walk passes the root and one pure leaf: 2 + 2 visits vs eager's 3
        assert eager_metrics.nodes_explored == 3
        assert lazy_metrics.nodes_explored == 4
        assert np.array_equal(matrix, np.array([[1.0, 0.0], [0.0, 1.0]]))


class TestInvariants:
    def test_prediction_equivalence_bitwise(self):
        rng = np.random.default_rng(211)
        for _ in range(15):
            n = int(rng.integers(6, 40))
            data = random_dataset(rng, n, 2, 1, 3)
            split = max(2, int(n * 0.7))
            train, test = np.arange(split), np.arange(split, n)
            if test.size == 0:
                continue
            params = SplitParams(min_count=int(rng.integers(1, 5)))
            base = int(rng.integers(0, 2**32))
            b = int(rng.integers(1, 5))
            eager_matrix, _ = fit_predict_eager(data, train, test, b, params, base)
            lazy_matrix, _ = fit_predict_lazy(data, train, test, b, params, base)
            assert eager_matrix.tobytes() == lazy_matrix.tobytes()

    def test_visits_per_walk_bounded_by_depth(self):
        rng = np.random.default_rng(307)
        data = random_dataset(rng, 60, 3, 0, 2)
        params = SplitParams(min_count=1, max_depth=3)
        events = []
        fit_predict_lazy(data, np.arange(50), np.arange(50, 60), 2, params, 4,
                         on_visit=events.append)
        per_walk = Counter((e.bootstrap, e.test_row) for e in events)
        splits_per_walk = Counter(
            (e.bootstrap, e.test_row) for e in events if e.condition is not None
        )
        # at most max_depth+1 splits, plus the terminal leaf decision
        assert max(splits_per_walk.values()) <= params.max_depth + 1
        assert max(per_walk.values()) <= params.max_depth + 2

    def test_visits_scale_linearly_with_test_rows(self):
        rng = np.random.default_rng(401)
        data = random_dataset(rng, 50, 3, 1, 3)
        train = np.arange(40)
        test = np.arange(40, 50)
        params = SplitParams(min_count=2)
        _, metrics_1 = fit_predict_lazy(data, train, test, 2, params, 7)
        doubled = np.concatenate([test, test])
        _, metrics_2 = fit_predict_lazy(data, train, doubled, 2, params, 7)
        assert metrics_2.nodes_explored == 2 * metrics_1.nodes_explored
        # monotone in the test set
        _, metrics_sub = fit_predict_lazy(data, train, test[:4], 2, params, 7)
        assert metrics_sub.nodes_explored <= metrics_1.nodes_explored

    def test_peak_stack_is_bootstrap_size_and_below_eager(self):
        rng = np.random.default_rng(53)
        for _ in range(10):
            n = int(rng.integers(8, 50))
            data = random_dataset(rng, n, 2, 1, 2)
            split = int(n * 0.75)
            train, test = np.arange(split), np.arange(split, n)
            params = SplitParams(min_count=2)
            _, lazy_metrics = fit_predict_lazy(data, train, test, 3, params, 13)
            _, eager_metrics = fit_predict_eager(data, train, test, 3, params, 13)
            assert lazy_metrics.peak_stack_words == train.size
            assert lazy_metrics.peak_stack_words <= eager_metrics.peak_stack_words
