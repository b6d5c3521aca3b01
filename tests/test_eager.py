import os
import sys
import tracemalloc
from contextlib import contextmanager

import numpy as np
import pytest

import oracles
from conftest import dataset_from_arrays, find_full_coverage_seed, random_dataset
from oracles import count_nodes, decode, dump_tree, route_row
from treelab import (
    RunMetrics,
    SplitParams,
    bootstrap,
    build_tree,
    eager_tree,
    fit_predict_batched,
    fit_predict_eager,
    fit_predict_lazy,
    mix_seed,
    predict_row,
)
from treelab.eager_tree import TreeNode
from treelab.splitcore import SEGMENT_CLASSES, best_condition, best_conditions


def fresh_metrics():
    return RunMetrics(algorithm="DT")


class TestBuildTree:
    def test_purity_stop(self):
        data = dataset_from_arrays([[1.0]] * 5 + [[9.0]], [0] * 5 + [1])
        metrics = fresh_metrics()
        tree = build_tree(data, np.arange(5), SplitParams(min_count=5), metrics)
        assert tree.is_leaf and tree.label == 0
        assert metrics.nodes_explored == 1

    def test_min_count_stop(self):
        data = dataset_from_arrays([[1.0], [2.0], [3.0], [4.0]], [0, 0, 0, 1])
        metrics = fresh_metrics()
        tree = build_tree(data, np.arange(4), SplitParams(min_count=5), metrics)
        assert tree.is_leaf and tree.label == 0
        assert metrics.nodes_explored == 1

    def test_toy_expansion(self, toy4):
        metrics = fresh_metrics()
        tree = build_tree(
            data=toy4, rows=np.arange(4),
            params=SplitParams(min_count=1, max_depth=20), metrics=metrics,
        )
        assert not tree.is_leaf
        assert (tree.condition.attribute, tree.condition.op, tree.condition.value) == (0, "le", 2.5)
        assert tree.invalid_child.is_leaf and tree.invalid_child.label == 1
        assert tree.valid_child.is_leaf and tree.valid_child.label == 0
        assert metrics.nodes_explored == 3

    def test_depth_zero_forces_split_then_leaves(self, toy4):
        # max_depth=0: the root may split once, children at depth 1 are leaves.
        metrics = fresh_metrics()
        tree = build_tree(toy4, np.arange(4), SplitParams(1, 0), metrics)
        assert not tree.is_leaf
        assert tree.invalid_child.is_leaf and tree.valid_child.is_leaf

    def test_empty_rows_rejected(self, toy4):
        with pytest.raises(ValueError):
            build_tree(toy4, [], SplitParams(), fresh_metrics())

    def test_leaf_takes_strict_majority(self):
        data = dataset_from_arrays([[1.0], [2.0], [3.0], [4.0]], [1, 2, 1, 0])
        tree = build_tree(data, np.arange(4), SplitParams(min_count=5), fresh_metrics())
        assert tree.is_leaf and tree.label == 1

    def test_leaf_tie_goes_to_lowest_class(self):
        data = dataset_from_arrays([[float(v)] for v in range(5)], [2, 1, 2, 1, 0])
        tree = build_tree(data, np.arange(5), SplitParams(min_count=6), fresh_metrics())
        assert tree.is_leaf and tree.label == 1

    def test_pure_node_is_leaf_at_min_count_one(self, monkeypatch):
        # Purity alone stops the walk: no split search runs on a pure node,
        # whether searched alone or in a batch.
        def no_search(data, rows, hist=None):
            raise AssertionError("split search on a pure node")

        def no_batch(data, nodes):
            raise AssertionError("batch split search on a pure node")

        monkeypatch.setattr(eager_tree, "best_condition", no_search)
        monkeypatch.setattr(eager_tree, "best_conditions", no_batch)
        data = dataset_from_arrays([[1.0], [2.0], [3.0]], [1, 1, 1])
        metrics = fresh_metrics()
        tree = build_tree(data, np.arange(3), SplitParams(min_count=1), metrics)
        assert tree.is_leaf and tree.label == 1
        assert metrics.nodes_explored == 1

    def test_pure_nodes_of_a_batched_depth_are_not_searched(self, monkeypatch):
        # A 16-class table whose attribute 0 isolates each class: the root
        # splits on it level by level, and the depths that hold many small
        # nodes batch their searches.  No pure node reaches either entry.
        searched = []

        def impure(data, rows):
            hist = eager_tree.class_histogram(data, rows)
            assert np.count_nonzero(hist) >= 2, "split search on a pure node"
            searched.append(rows.size)

        def search(data, rows, hist=None):
            impure(data, rows)
            return best_condition(data, rows, hist)

        def batch(data, nodes):
            for rows in nodes:
                impure(data, rows)
            batches.append(len(nodes))
            return best_conditions(data, nodes)

        batches = []
        monkeypatch.setattr(eager_tree, "best_condition", search)
        monkeypatch.setattr(eager_tree, "best_conditions", batch)
        rng = np.random.default_rng(16)
        labels = np.repeat(np.arange(16), 20)
        values = np.column_stack([labels + rng.random(labels.size) * 0.5,
                                  rng.normal(size=labels.size)])
        data = dataset_from_arrays(values, labels, class_names=tuple(f"k{i}" for i in range(16)))
        tree = build_tree(data, np.arange(labels.size), SplitParams(min_count=1), fresh_metrics())
        assert batches and count_nodes(tree) == 31

    def test_no_gain_becomes_leaf(self):
        # Impure rows with a constant attribute cannot split.
        data = dataset_from_arrays([[1.0], [1.0], [1.0]], [0, 1, 1])
        tree = build_tree(data, np.arange(3), SplitParams(min_count=1), fresh_metrics())
        assert tree.is_leaf and tree.label == 1

    def test_matches_independent_recursion_replay(self):
        rng = np.random.default_rng(88)
        params = SplitParams(min_count=2, max_depth=6)
        for _ in range(40):
            n = int(rng.integers(3, 13))
            data = random_dataset(rng, n, 2, 1, 3, value_grid=4)
            events = []
            build_tree(data, np.arange(n), params, fresh_metrics(),
                       on_visit=events.append)
            replay = oracles.expand_recursion(data, np.arange(n), params)
            assert len(events) == len(replay)
            for event, (path, rows, kind, payload) in zip(events, replay):
                assert event.path == path
                assert event.train_count == len(rows)
                if kind == "split":
                    assert event.condition == payload and event.label is None
                else:
                    assert event.condition is None and event.label == payload


class TestPredictRow:
    def test_leaf_root(self):
        assert predict_row(TreeNode(label=2), np.array([0.0])) == 2

    def test_branches(self, toy4):
        tree = build_tree(toy4, np.arange(4), SplitParams(min_count=1),
                          fresh_metrics())
        assert predict_row(tree, np.array([1.0])) == 0
        assert predict_row(tree, np.array([10.0])) == 1

    def test_route_reports_path(self, toy4):
        tree = build_tree(toy4, np.arange(4), SplitParams(min_count=1),
                          fresh_metrics())
        assert route_row(tree, np.array([1.0])) == (0, (1,))
        assert route_row(tree, np.array([10.0])) == (1, (0,))

    def test_training_rows_reach_their_leaf(self):
        # Every bootstrap row routed through its own tree lands on a leaf
        # whose training subset contained it.
        rng = np.random.default_rng(17)
        params = SplitParams(min_count=2, max_depth=8)
        for _ in range(30):
            n = int(rng.integers(3, 13))
            data = random_dataset(rng, n, 2, 0, 2, value_grid=4)
            tree = build_tree(data, np.arange(n), params, fresh_metrics())
            replay = oracles.expand_recursion(data, np.arange(n), params)
            leaf_rows = {path: rows for path, rows, kind, _ in replay if kind == "leaf"}
            for r in range(n):
                label, path = route_row(tree, decode(data)[r])
                assert r in leaf_rows[path]


class TestDumpTree:
    def test_golden(self, toy4):
        tree = build_tree(toy4, np.arange(4), SplitParams(min_count=1),
                          fresh_metrics())
        assert dump_tree(tree) == "I 0 le 2.5\nL 1\nL 0\n"

    def test_leaf_only(self):
        assert dump_tree(TreeNode(label=3)) == "L 3\n"


class TestFitPredictEager:
    def test_pure_training_set(self):
        data = dataset_from_arrays([[1.0], [2.0], [3.0]], [1, 1, 1],
                                   class_names=("A", "B"))
        matrix, _ = fit_predict_eager(data, np.arange(3), np.arange(3), 1,
                                      SplitParams(), 0)
        assert np.array_equal(matrix, np.array([[0.0, 1.0]] * 3))

    def test_identical_bootstraps_match_single(self):
        # With a single training row every bootstrap is that row, so b=2
        # accumulates 2 * (1/2) and reproduces the b=1 matrix.
        data = dataset_from_arrays([[1.0], [2.0]], [0, 1])
        single, _ = fit_predict_eager(data, [0], np.arange(2), 1, SplitParams(), 5)
        double, _ = fit_predict_eager(data, [0], np.arange(2), 2, SplitParams(), 5)
        assert np.array_equal(single, double)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(3)
        data = random_dataset(rng, 50, 3, 1, 3)
        matrix, _ = fit_predict_eager(data, np.arange(35), np.arange(35, 50), 7,
                                      SplitParams(min_count=2), 11)
        assert np.allclose(matrix.sum(axis=1), 1.0, atol=1e-9)

    def test_rejects_bad_inputs(self, toy4):
        with pytest.raises(ValueError):
            fit_predict_eager(toy4, np.arange(4), np.arange(4), 0, SplitParams(), 0)
        with pytest.raises(ValueError):
            fit_predict_eager(toy4, np.arange(4), np.array([], dtype=int), 1,
                              SplitParams(), 0)

    def test_node_count_is_odd_and_bounded(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            n = int(rng.integers(2, 40))
            data = random_dataset(rng, n, 2, 1, 3)
            params = SplitParams(min_count=int(rng.integers(1, 6)))
            tree = build_tree(data, np.arange(n), params, fresh_metrics())
            total = count_nodes(tree)
            assert total % 2 == 1
            assert total <= 2 * n - 1

    def test_same_seed_rebuild_is_identical(self):
        rng = np.random.default_rng(29)
        data = random_dataset(rng, 40, 3, 1, 3)
        events_a, events_b = [], []
        fit_predict_eager(data, np.arange(30), np.arange(30, 40), 4,
                          SplitParams(min_count=2), 99, on_visit=events_a.append)
        fit_predict_eager(data, np.arange(30), np.arange(30, 40), 4,
                          SplitParams(min_count=2), 99, on_visit=events_b.append)
        assert events_a == events_b

    def test_nodes_explored_independent_of_test_set(self):
        rng = np.random.default_rng(41)
        data = random_dataset(rng, 40, 3, 0, 2)
        _, metrics_small = fit_predict_eager(data, np.arange(30), [30], 3,
                                             SplitParams(min_count=2), 8)
        _, metrics_large = fit_predict_eager(data, np.arange(30),
                                             np.arange(30, 40), 3,
                                             SplitParams(min_count=2), 8)
        assert metrics_small.nodes_explored == metrics_large.nodes_explored

    def test_model_words_are_four_per_node(self, toy4):
        base = find_full_coverage_seed(4)
        events = []
        _, metrics = fit_predict_eager(toy4, np.arange(4), np.arange(4), 1,
                                       SplitParams(min_count=1), base,
                                       on_visit=events.append)
        assert metrics.nodes_explored == 3
        assert metrics.model_words == 4 * 3

    @staticmethod
    def built_tree_bytes(data, rows, params):
        """A tree built over ``rows``, and the bytes held once its build returns.

        Blocks allocated inside numpy are left out: numpy keeps freed small
        buffers in caches of its own, which tracemalloc counts as allocated.
        """
        numpy_files = tracemalloc.Filter(False, os.path.dirname(np.__file__) + "/*")
        tracemalloc.start()
        try:
            tree = build_tree(data, rows, params, fresh_metrics())
            snapshot = tracemalloc.take_snapshot().filter_traces([numpy_files])
        finally:
            tracemalloc.stop()
        return tree, sum(stat.size for stat in snapshot.statistics("filename"))

    def test_peak_memory_holds_one_tree_whatever_b(self):
        # The fit keeps nothing of a tree once its walk has voted with the
        # test rows, so going from b=1 to b=8 adds far less than one tree to
        # the traced peak, let alone seven.  A first b=8 fit and a first build
        # fill the process-wide caches and free lists, which tracemalloc
        # counts as allocated.
        rng = np.random.default_rng(79)
        data = random_dataset(rng, 300, 4, 0, 3)
        train, test = np.arange(250), np.arange(250, 300)
        params = SplitParams(min_count=1)
        fit_predict_eager(data, train, test, 8, params, 5)

        def traced_peak(b):
            tracemalloc.start()
            try:
                fit_predict_eager(data, train, test, b, params, 5)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        rows = bootstrap(train, mix_seed(5, 0))
        build_tree(data, rows, params, fresh_metrics())
        tree, tree_bytes = self.built_tree_bytes(data, rows, params)
        assert count_nodes(tree) > 100
        assert traced_peak(8) - traced_peak(1) < 2 * tree_bytes

    def test_fit_holds_no_tree(self, monkeypatch):
        # The traced memory a fit holds, sampled as each node counts its
        # classes, is the same for dt as for batched up to the few words a
        # node that the walk holds for a depth: dt's widest depth holds 20
        # of the tree's 137 nodes, batched's at most the 3 test rows' nodes.
        # A fit that built the tree would hold the tree on top.  No on_visit
        # is passed, as the walk holds a tree's events until the tree is
        # done.  Split searches' scratch sets the plain peak of both fits at
        # the root, before any tree exists.
        rng = np.random.default_rng(79)
        data = random_dataset(rng, 300, 4, 0, 3)
        train, test = np.arange(250), np.arange(250, 253)
        params = SplitParams(min_count=1)
        count_classes = eager_tree.class_histogram

        def held_at_visits(fit):
            most = 0

            def sample(data, rows):
                nonlocal most
                most = max(most, tracemalloc.get_traced_memory()[0])
                return count_classes(data, rows)

            monkeypatch.setattr(eager_tree, "class_histogram", sample)
            tracemalloc.start()
            try:
                fit(data, train, test, 1, params, 5)
            finally:
                tracemalloc.stop()
                monkeypatch.setattr(eager_tree, "class_histogram", count_classes)
            return most

        rows = bootstrap(train, mix_seed(5, 0))
        build_tree(data, rows, params, fresh_metrics())
        tree, tree_bytes = self.built_tree_bytes(data, rows, params)
        assert count_nodes(tree) > 100
        for fit in (fit_predict_eager, fit_predict_batched):
            held_at_visits(fit)
        eager, batched = held_at_visits(fit_predict_eager), held_at_visits(fit_predict_batched)
        depth, widest = [tree], 0
        while depth:
            widest = max(widest, len(depth))
            depth = [child for node in depth if not node.is_leaf
                     for child in (node.invalid_child, node.valid_child)]
        assert widest == 20
        assert eager - batched < min(tree_bytes / 3, widest * 12 * 8)

    def test_event_limit_stops_the_walk(self):
        # The walk stops at the depth that takes the fit's events past the
        # limit and passes on, in preorder, every node of the depths it
        # visited; if on_visit takes them all, the fit raises.
        rng = np.random.default_rng(79)
        data = random_dataset(rng, 300, 4, 0, 3)
        fit_args = (data, np.arange(250), np.arange(250, 253), 1, SplitParams(min_count=1), 5)
        full, events = [], []
        fit_predict_eager(*fit_args, on_visit=full.append)
        with pytest.raises(RuntimeError, match="more than 10 events"):
            fit_predict_eager(*fit_args, on_visit=events.append, event_limit=10)
        last = max(len(event.path) for event in events)
        assert last < max(len(event.path) for event in full)
        assert events == [event for event in full if len(event.path) <= last]
        assert len(events) > 10

    def test_many_class_walk_peaks_at_its_largest_search(self, monkeypatch):
        # 500 rows of 40 classes in a table of 4 000, on three 25-level
        # attributes: many depths hold eight or more small nodes, which the
        # walk searches one at a time above SEGMENT_CLASSES classes, as a
        # batch counts every class for each of its cells.  The walk keeps no
        # histogram past its node's visit, so its traced peak is that of
        # its largest search, plus the fit's votes, one histogram and its
        # own few words.
        rng = np.random.default_rng(4000)
        labels = rng.integers(0, 40, size=500) * 97
        data = dataset_from_arrays(rng.integers(0, 25, size=(500, 3)).astype(float), labels,
                                   class_names=tuple(f"k{i}" for i in range(4000)))
        assert data.class_count > SEGMENT_CLASSES
        searched = []

        def search(data, rows, hist=None):
            if searched is not None:
                searched.append(np.array(rows))
            return best_condition(data, rows, hist)

        def no_batch(data, nodes):
            raise AssertionError("batch search on a 4 000-class table")

        def traced_peak(call):
            tracemalloc.start()
            try:
                call()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        monkeypatch.setattr(eager_tree, "best_condition", search)
        monkeypatch.setattr(eager_tree, "best_conditions", no_batch)
        fit_args = (data, np.arange(500), np.arange(3), 1, SplitParams(min_count=1), 5)
        fit_predict_eager(*fit_args)
        nodes, searched = searched, None
        assert len(nodes) > 200
        held = []
        count_classes = eager_tree.class_histogram

        def sample(data, rows):
            held.append(tracemalloc.get_traced_memory()[0])
            return count_classes(data, rows)

        monkeypatch.setattr(eager_tree, "class_histogram", sample)
        walk = traced_peak(lambda: fit_predict_eager(*fit_args))
        monkeypatch.setattr(eager_tree, "class_histogram", count_classes)
        largest = max(traced_peak(lambda: best_condition(data, rows)) for rows in nodes)
        votes, hist = 3 * data.class_count * 8, data.class_count * 8
        # Between searches the fit holds its votes and a few histograms'
        # worth of rows and words, not a histogram per node of a depth.
        assert max(held) < votes + 4 * hist
        assert walk < largest + votes + 2 * hist

    def test_tree_holds_few_bytes_per_node(self):
        # The cost model charges four words a node.  A node and its condition
        # declared with slots hold ~95 bytes; with an instance __dict__ each,
        # ~155.  Caches and free lists, which tracemalloc counts as allocated,
        # are filled by a first build.
        rng = np.random.default_rng(79)
        data = random_dataset(rng, 300, 4, 0, 3)
        rows = bootstrap(np.arange(250), mix_seed(5, 0))
        params = SplitParams(min_count=1)
        build_tree(data, rows, params, fresh_metrics())
        tree, tree_bytes = self.built_tree_bytes(data, rows, params)
        assert tree_bytes / count_nodes(tree) < 150

    @pytest.mark.parametrize("b", [1, 3])
    @pytest.mark.parametrize("min_count", [1, 5])
    def test_votes_equal_per_row_routes_through_built_trees(self, b, min_count):
        # The fit routes its test rows inside the walk over each tree; the
        # oracle routes them one at a time through the same trees, built by
        # build_tree.  Test rows hold a category code no training row has
        # (-1), and some subtrees are reached by no test row: the fit still
        # explores every node of every tree.
        rng = np.random.default_rng(61)
        data = random_dataset(rng, 90, 2, 2, 3)
        train = np.arange(60)
        test = decode(data)[60:].copy()
        test[::3, 3] = -1.0
        params = SplitParams(min_count=min_count)
        share = 1.0 / b
        expected = np.zeros((len(test), data.class_count))
        nodes = reached_nodes = 0
        for i in range(b):
            tree = build_tree(data, bootstrap(train, mix_seed(17, i)), params, fresh_metrics())
            reached = set()
            for j, row in enumerate(test):
                label, path = route_row(tree, row)
                expected[j, label] += share
                reached.update(path[:depth] for depth in range(len(path) + 1))
            nodes += count_nodes(tree)
            reached_nodes += len(reached)
        matrix, metrics = fit_predict_eager(data, train, test, b, params, 17)
        assert matrix.tobytes() == expected.tobytes()
        assert reached_nodes < nodes == metrics.nodes_explored


@contextmanager
def python_frames_above_here(count):
    """Lower the recursion limit to ``count`` Python frames above the caller's."""
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + count)
    try:
        yield
    finally:
        sys.setrecursionlimit(old)


class TestDeepTrees:
    """Tree depth is not bounded by Python's recursion limit."""

    # Frames the walk and the split search need below a fit, with room to spare.
    FRAMES = 30

    def chain(self, values, copies):
        # One numeric column whose labels alternate from value to value: each
        # split peels a few values off, so the tree is a chain.  Every value
        # repeats ``copies`` times, so a bootstrap keeps almost all of them.
        column = np.repeat(np.arange(values, dtype=np.float64), copies)
        labels = np.repeat(np.arange(values) % 2, copies)
        return dataset_from_arrays(column, labels), SplitParams(min_count=1, max_depth=10**6)

    def test_build_count_and_dump(self):
        data, params = self.chain(200, 1)
        events = []
        with python_frames_above_here(self.FRAMES):
            tree = build_tree(data, np.arange(200), params, fresh_metrics(),
                              on_visit=events.append)
            nodes = count_nodes(tree)
            text = dump_tree(tree)
        assert max(event.depth for event in events) == 199
        assert nodes == len(events) == 399
        assert len(text.splitlines()) == 399

    @pytest.mark.parametrize("fit", [fit_predict_eager, fit_predict_batched, fit_predict_lazy])
    def test_fits(self, fit):
        data, params = self.chain(150, 8)
        train, test = np.arange(data.n_rows), np.arange(0, data.n_rows, 100)
        events = []
        expected, _ = fit(data, train, test, 1, params, 2, on_visit=events.append)
        depth = max(event.depth for event in events)
        assert depth > 2 * self.FRAMES
        with python_frames_above_here(depth // 2):
            matrix, _ = fit(data, train, test, 1, params, 2)
        assert matrix.tobytes() == expected.tobytes()
