from collections import Counter

import numpy as np

from conftest import dataset_from_arrays, find_full_coverage_seed, random_dataset
from treelab import (
    SplitParams,
    fit_predict_batched,
    fit_predict_eager,
    fit_predict_lazy,
)


def events_of_bootstrap(events, i):
    return [e for e in events if e.bootstrap == i]


class TestAgreementWithLazy:
    def test_single_test_row_visits_match_lazy(self):
        rng = np.random.default_rng(601)
        params = SplitParams(min_count=2, max_depth=10)
        for _ in range(20):
            n = int(rng.integers(5, 30))
            data = random_dataset(rng, n, 2, 1, 2)
            train = np.arange(n - 1)
            test = np.array([n - 1])
            base = int(rng.integers(0, 2**32))
            lazy_events, batched_events = [], []
            lazy_matrix, lazy_metrics = fit_predict_lazy(
                data, train, test, 3, params, base, on_visit=lazy_events.append)
            batched_matrix, batched_metrics = fit_predict_batched(
                data, train, test, 3, params, base, on_visit=batched_events.append)
            assert lazy_metrics.nodes_explored == batched_metrics.nodes_explored
            for i in range(3):
                assert len(events_of_bootstrap(lazy_events, i)) == len(
                    events_of_bootstrap(batched_events, i))
            assert lazy_matrix.tobytes() == batched_matrix.tobytes()

    def test_toy_costs(self, toy4):
        base = find_full_coverage_seed(4)
        params = SplitParams(min_count=1, max_depth=20)
        test = np.array([[1.0], [4.0]])
        matrix_b, metrics_b = fit_predict_batched(toy4, np.arange(4), test, 1,
                                                  params, base)
        matrix_l, metrics_l = fit_predict_lazy(toy4, np.arange(4), test, 1,
                                               params, base)
        matrix_e, metrics_e = fit_predict_eager(toy4, np.arange(4), test, 1,
                                                params, base)
        # root + two pure leaves, against 4 lazy visits and 3 eager nodes
        assert metrics_b.nodes_explored == 3
        assert metrics_l.nodes_explored == 4
        assert metrics_e.nodes_explored == 3
        assert matrix_b.tobytes() == matrix_l.tobytes() == matrix_e.tobytes()

    def test_visited_set_is_union_of_lazy_paths(self):
        rng = np.random.default_rng(707)
        params = SplitParams(min_count=2, max_depth=8)
        for _ in range(30):
            n = int(rng.integers(4, 13))
            data = random_dataset(rng, n, 2, 1, 3, value_grid=4)
            split = max(2, n - 3)
            train, test = np.arange(split), np.arange(split, n)
            base = int(rng.integers(0, 2**32))
            lazy_events, batched_events = [], []
            fit_predict_lazy(data, train, test, 2, params, base,
                             on_visit=lazy_events.append)
            fit_predict_batched(data, train, test, 2, params, base,
                                on_visit=batched_events.append)
            for i in range(2):
                lazy_nodes = {e.path for e in events_of_bootstrap(lazy_events, i)}
                batched_nodes = [e.path for e in events_of_bootstrap(batched_events, i)]
                # visited exactly once each, and exactly the union of paths
                assert len(batched_nodes) == len(set(batched_nodes))
                assert set(batched_nodes) == lazy_nodes


class TestPruning:
    def test_one_sided_test_set_skips_valid_subtree(self, toy4):
        base = find_full_coverage_seed(4)
        params = SplitParams(min_count=1, max_depth=20)
        # both test rows fall on the invalid side of the root (value > 2.5)
        test = np.array([[3.0], [4.0]])
        events = []
        _, metrics_b = fit_predict_batched(toy4, np.arange(4), test, 1, params,
                                           base, on_visit=events.append)
        _, metrics_e = fit_predict_eager(toy4, np.arange(4), test, 1, params, base)
        assert all(not e.path[:1] == (1,) for e in events)
        assert metrics_b.nodes_explored < metrics_e.nodes_explored

    def test_node_dominance_per_bootstrap(self):
        rng = np.random.default_rng(811)
        params = SplitParams(min_count=2)
        for _ in range(10):
            n = int(rng.integers(10, 60))
            data = random_dataset(rng, n, 3, 1, 3)
            split = int(n * 0.8)
            train, test = np.arange(split), np.arange(split, n)
            base = int(rng.integers(0, 2**32))
            eager_events, lazy_events, batched_events = [], [], []
            fit_predict_eager(data, train, test, 3, params, base,
                              on_visit=eager_events.append)
            fit_predict_lazy(data, train, test, 3, params, base,
                             on_visit=lazy_events.append)
            fit_predict_batched(data, train, test, 3, params, base,
                                on_visit=batched_events.append)
            eager_counts = Counter(e.bootstrap for e in eager_events)
            lazy_counts = Counter(e.bootstrap for e in lazy_events)
            batched_counts = Counter(e.bootstrap for e in batched_events)
            for i in range(3):
                assert batched_counts[i] <= eager_counts[i]
                assert batched_counts[i] <= lazy_counts[i]


class TestOrderAndOutput:
    def test_depth_first_invalid_before_valid(self):
        # In a DFS emission with the invalid child first, every split is
        # followed immediately by its invalid-side child.
        rng = np.random.default_rng(97)
        data = random_dataset(rng, 30, 2, 0, 2)
        events = []
        fit_predict_batched(data, np.arange(24), np.arange(24, 30), 1,
                            SplitParams(min_count=2), 3, on_visit=events.append)
        for before, after in zip(events, events[1:]):
            if before.condition is not None:
                assert after.path == before.path + (0,) or (
                    # valid side only when no test row went invalid
                    after.path == before.path + (1,)
                )
                if after.path == before.path + (1,):
                    assert before.test_count == after.test_count

    def test_matrix_rows_follow_input_order(self):
        rng = np.random.default_rng(131)
        data = random_dataset(rng, 40, 3, 1, 3)
        train = np.arange(30)
        test = np.array([37, 31, 39, 31, 35])  # shuffled, with a duplicate
        params = SplitParams(min_count=2)
        matrix, _ = fit_predict_batched(data, train, test, 4, params, 21)
        for j, row in enumerate(test):
            single, _ = fit_predict_batched(data, train, np.array([row]), 4,
                                            params, 21)
            assert matrix[j].tobytes() == single[0].tobytes()

    def test_equivalence_with_eager(self):
        rng = np.random.default_rng(139)
        for _ in range(15):
            n = int(rng.integers(6, 50))
            data = random_dataset(rng, n, 2, 1, 3)
            split = max(2, int(n * 0.7))
            train, test = np.arange(split), np.arange(split, n)
            if test.size == 0:
                continue
            params = SplitParams(min_count=int(rng.integers(1, 5)))
            base = int(rng.integers(0, 2**32))
            b = int(rng.integers(1, 5))
            eager_matrix, _ = fit_predict_eager(data, train, test, b, params, base)
            batched_matrix, _ = fit_predict_batched(data, train, test, b, params, base)
            assert eager_matrix.tobytes() == batched_matrix.tobytes()

    def test_stack_peak_bracketed_by_lazy_and_eager(self):
        # Batched frames are a subset of the eager build's frames, so the
        # peak sits between the lazy peak (bootstrap size) and the eager one.
        rng = np.random.default_rng(149)
        for _ in range(10):
            n = int(rng.integers(8, 50))
            data = random_dataset(rng, n, 2, 1, 2)
            split = int(n * 0.75)
            train, test = np.arange(split), np.arange(split, n)
            params = SplitParams(min_count=2)
            base = int(rng.integers(0, 2**32))
            _, lazy_metrics = fit_predict_lazy(data, train, test, 3, params, base)
            _, batched_metrics = fit_predict_batched(data, train, test, 3, params, base)
            _, eager_metrics = fit_predict_eager(data, train, test, 3, params, base)
            assert (
                lazy_metrics.peak_stack_words
                <= batched_metrics.peak_stack_words
                <= eager_metrics.peak_stack_words
            )
