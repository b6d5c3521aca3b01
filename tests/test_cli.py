import collections
import concurrent.futures
import contextlib
import ctypes
import io
import json
import os
import resource
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import find_full_coverage_seed, random_dataset
from oracles import decode
from treelab import (
    SplitParams,
    bench,
    bootstrap,
    cli,
    eager_tree,
    load_csv,
    load_prediction_rows,
    mix_seed,
    run_cv,
    splitcore,
)
from treelab.cli import (
    EXIT_BAD_PARAMS,
    EXIT_DATASET_ERROR,
    EXIT_OUT_OF_MEMORY,
    EXIT_OUTPUT_ERROR,
    EXIT_SCHEMA_MISMATCH,
    EXIT_TRACE_GUARDRAIL,
    REPORT_COLUMNS,
    main,
    parse_fold_spec,
)
from treelab.cli import CliError

# Subprocesses import treelab from this checkout, installed or not.
SUBPROCESS_ENV = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))


def write_dataset_csv(path, data, with_labels=True):
    header = list(data.attr_names) + ([data.label_name] if with_labels else [])
    lines = [",".join(header)]
    for i, row in enumerate(decode(data)):
        cells = [repr(float(v)) for v in row]
        if with_labels:
            cells.append(data.class_names[data.labels[i]])
        lines.append(",".join(cells))
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.fixture()
def toy_csv(tmp_path):
    rng = np.random.default_rng(2024)
    data = random_dataset(rng, 8, 2, 0, 2)
    return write_dataset_csv(tmp_path / "toy.csv", data)


@pytest.fixture()
def train_test_csvs(tmp_path):
    rng = np.random.default_rng(77)
    data = random_dataset(rng, 30, 2, 1, 2)
    train = write_dataset_csv(tmp_path / "train.csv", data)
    # test file: first 6 rows, no label column
    header = ",".join(data.attr_names)
    lines = [header] + [
        ",".join(repr(float(v)) for v in row) for row in decode(data)[:6]
    ]
    test = tmp_path / "test.csv"
    test.write_text("\n".join(lines) + "\n")
    return train, test


def test_benchmark_defaults_match_protocol():
    # b=100, c=5, d=20 are the benchmark defaults.
    parser = __import__("treelab.cli", fromlist=["build_parser"]).build_parser()
    args = parser.parse_args(
        ["benchmark", "--dataset", "x.csv", "--folds", "10", "--out", "r.csv"]
    )
    assert (args.bootstraps, args.min_count, args.max_depth) == (100, 5, 20)
    assert args.jobs == 1 and args.timing == "cpu" and args.seed == 0


TRACE_HEADER_LINE = "# depth\tpath\ttrain\ttest\trow\taction"
NUMERIC_TOY = ("a,label\n1,A\n2,A\n3,B\n4,B\n", "a\n1\n4\n")
CATEGORICAL_TOY = ("c,label\nx,A\ny,B\nx,A\ny,B\n", "c\ny\nx\n")
# (train and test CSV, algorithm, trace lines after the header); the test
# rows of each toy fall on both sides of its one split
TRACE_CASES = [
    (NUMERIC_TOY, "batched", [
        "0\t-\t4\t2\t-\tsplit 0 le 2.5",
        "1\ti\t2\t1\t-\tleaf 1",
        "1\tv\t2\t1\t-\tleaf 0",
    ]),
    (CATEGORICAL_TOY, "batched", [
        "0\t-\t4\t2\t-\tsplit 0 eq 0.0",
        "1\ti\t2\t1\t-\tleaf 1",
        "1\tv\t2\t1\t-\tleaf 0",
    ]),
    (NUMERIC_TOY, "dt", [
        "0\t-\t4\t-\t-\tsplit 0 le 2.5",
        "1\ti\t2\t-\t-\tleaf 1",
        "1\tv\t2\t-\t-\tleaf 0",
    ]),
    (CATEGORICAL_TOY, "lazy", [
        "0\t-\t4\t-\t0\tsplit 0 eq 0.0",
        "1\ti\t2\t-\t0\tleaf 1",
        "0\t-\t4\t-\t1\tsplit 0 eq 0.0",
        "1\tv\t2\t-\t1\tleaf 0",
    ]),
]


def test_trace_golden_lines(tmp_path):
    seed = find_full_coverage_seed(4)
    train, test, out = tmp_path / "train.csv", tmp_path / "test.csv", tmp_path / "trace.txt"
    for (train_text, test_text), algorithm, lines in TRACE_CASES:
        train.write_text(train_text)
        test.write_text(test_text)
        code = main([
            "trace", "--train", str(train), "--test", str(test),
            "--algorithm", algorithm, "--min-count", "1", "--seed", str(seed),
            "--out", str(out),
        ])
        assert code == 0
        assert out.read_text().splitlines() == [TRACE_HEADER_LINE] + lines, algorithm


class TestFoldSpec:
    def test_single_and_list(self):
        assert parse_fold_spec("10", 100) == [10]
        assert parse_fold_spec("2,5,10", 100) == [2, 5, 10]

    def test_inclusive_range(self):
        assert parse_fold_spec("10:40:10", 100) == [10, 20, 30, 40]

    def test_mixed(self):
        assert parse_fold_spec("2,10:20:5", 100) == [2, 10, 15, 20]

    def test_out_of_range(self):
        with pytest.raises(CliError):
            parse_fold_spec("150", 100)
        with pytest.raises(CliError):
            parse_fold_spec("1", 100)

    def test_garbage(self):
        with pytest.raises(CliError):
            parse_fold_spec("ten", 100)

    def test_range_ends_checked(self):
        with pytest.raises(CliError, match="fold count 1 "):
            parse_fold_spec("1:10:1", 100)
        with pytest.raises(CliError, match="fold count 101 "):
            parse_fold_spec("2:101:50", 100)

    def test_empty_range_rejected(self, toy_csv, tmp_path):
        with pytest.raises(CliError, match="bad fold spec '5:2:1'"):
            parse_fold_spec("5:2:1", 100)
        out = tmp_path / "r.csv"
        assert main(["benchmark", "--dataset", str(toy_csv), "--folds", "5:2:1",
                     "--out", str(out)]) == EXIT_BAD_PARAMS
        assert not out.exists()

    def test_huge_range_fails_before_it_is_built(self, toy_csv, tmp_path):
        # Run in a child capped at 1 GiB of address space: building the
        # billion-element list would end in MemoryError (exit 15), not 11.
        def cap_memory():
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

        proc = subprocess.run(
            [sys.executable, "-m", "treelab", "benchmark", "--dataset", str(toy_csv),
             "--folds", "2:1000000000:1", "--out", str(tmp_path / "r.csv")],
            capture_output=True, text=True, timeout=60, preexec_fn=cap_memory,
            env=SUBPROCESS_ENV,
        )
        assert proc.returncode == EXIT_BAD_PARAMS, proc.stderr
        assert "fold count 1000000000 out of range" in proc.stderr


class TestBenchmark:
    def test_writes_rows_and_identical_accuracy(self, toy_csv, tmp_path):
        out = tmp_path / "report.csv"
        code = main([
            "benchmark", "--dataset", str(toy_csv), "--folds", "2",
            "--bootstraps", "1", "--min-count", "2", "--seed", "3",
            "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == (
            "dataset,algorithm,k,b,c,d,seed,cpu_seconds,nodes_explored,"
            "peak_stack_words,model_words,accuracy"
        )
        assert lines[0] == ",".join(REPORT_COLUMNS)
        assert len(lines) == 4  # header + one row per algorithm
        accuracies = {line.split(",")[-1] for line in lines[1:]}
        assert len(accuracies) == 1
        tags = [line.split(",")[1] for line in lines[1:]]
        assert tags == ["DT", "L-DT", "BL-DT"]
        plot = tmp_path / "report_plot.csv"
        assert plot.exists()
        assert len(plot.read_text().splitlines()) == 4

    def test_failed_write_leaves_existing_report(self, toy_csv, tmp_path, capsys):
        # The plot file cannot be written, so the report is not replaced either.
        out = tmp_path / "rep.csv"
        out.write_text("previous report\n")
        plot = tmp_path / "rep_plot.csv"
        plot.mkdir()
        assert main([
            "benchmark", "--dataset", str(toy_csv), "--folds", "2",
            "--bootstraps", "1", "--out", str(out),
        ]) == EXIT_OUTPUT_ERROR
        assert capsys.readouterr().err == f"treelab: cannot write {plot}: Is a directory\n"
        assert out.read_bytes() == b"previous report\n"
        assert sorted(tmp_path.glob("*.tmp")) == []

    def test_node_count_directions_at_ten_folds(self, tmp_path):
        rng = np.random.default_rng(404)
        data = random_dataset(rng, 120, 4, 0, 2)
        csv_path = write_dataset_csv(tmp_path / "mid.csv", data)
        out = tmp_path / "mid_report.csv"
        code = main([
            "benchmark", "--dataset", str(csv_path), "--folds", "10",
            "--bootstraps", "2", "--seed", "5", "--out", str(out),
        ])
        assert code == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        nodes = {row[1]: int(row[8]) for row in rows}
        assert nodes["BL-DT"] < nodes["DT"]
        assert nodes["L-DT"] > nodes["DT"]

    def test_breast_node_directions_at_10_and_40_folds(self, breast_csv, tmp_path):
        # per-bootstrap node orderings on the reference dataset: the batched
        # pass explores less than the eager build, the per-row walks more
        out = tmp_path / "breast_report.csv"
        code = main([
            "benchmark", "--dataset", str(breast_csv), "--folds", "10,40",
            "--bootstraps", "1", "--seed", "17", "--out", str(out),
        ])
        assert code == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        by_k = {}
        for row in rows:
            by_k.setdefault(int(row[2]), {})[row[1]] = int(row[8])
        for k in (10, 40):
            assert by_k[k]["BL-DT"] < by_k[k]["DT"]
        assert by_k[10]["L-DT"] > by_k[10]["DT"]

    def test_loocv_lazy_equals_batched(self, tmp_path):
        rng = np.random.default_rng(88)
        data = random_dataset(rng, 30, 2, 1, 2)
        csv_path = write_dataset_csv(tmp_path / "loo.csv", data)
        out = tmp_path / "loo_report.csv"
        code = main([
            "benchmark", "--dataset", str(csv_path), "--folds", "30",
            "--algorithms", "lazy,batched", "--bootstraps", "2",
            "--seed", "1", "--out", str(out),
        ])
        assert code == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        nodes = {row[1]: int(row[8]) for row in rows}
        assert nodes["L-DT"] == nodes["BL-DT"]

    def test_deterministic_reports_with_timing_off(self, toy_csv, tmp_path):
        args = [
            "benchmark", "--dataset", str(toy_csv), "--folds", "2,3",
            "--bootstraps", "2", "--min-count", "2", "--seed", "11",
            "--jobs", "1", "--timing", "off",
        ]
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(out_a)]) == 0
        assert main(args + ["--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        plot_a = tmp_path / "a_plot.csv"
        plot_b = tmp_path / "b_plot.csv"
        assert plot_a.read_bytes() == plot_b.read_bytes()

    def test_jobs_do_not_change_results(self, toy_csv, tmp_path):
        base = [
            "benchmark", "--dataset", str(toy_csv), "--folds", "3",
            "--bootstraps", "1", "--min-count", "2", "--seed", "4",
            "--timing", "off",
        ]
        out_serial = tmp_path / "serial.csv"
        out_parallel = tmp_path / "parallel.csv"
        assert main(base + ["--out", str(out_serial)]) == 0
        assert main(base + ["--jobs", "2", "--out", str(out_parallel)]) == 0
        assert out_serial.read_bytes() == out_parallel.read_bytes()

    @pytest.mark.parametrize("jobs, cpus, workers", [
        (64, 2, 2), (64, 8, 3), (2, 8, 2), (8, 1, None), (1, 8, None),
    ])
    def test_jobs_clamped_to_folds_and_cpus(self, toy_csv, monkeypatch, jobs, cpus, workers):
        # A stand-in pool records its size and runs the folds in this process.
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        data = load_csv(toy_csv)
        params = SplitParams(min_count=2)
        serial = run_cv(data, "batched", 3, 1, params, seed=4)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(bench.os, "cpu_count", lambda: cpus)
        result = run_cv(data, "batched", 3, 1, params, seed=4, jobs=jobs)
        assert sizes == ([] if workers is None else [workers])
        assert result.accuracy == serial.accuracy
        assert result.metrics.nodes_explored == serial.metrics.nodes_explored

    def test_env_seed_overrides_flag(self, toy_csv, tmp_path, monkeypatch):
        out_env = tmp_path / "env.csv"
        out_flag = tmp_path / "flag.csv"
        args = [
            "benchmark", "--dataset", str(toy_csv), "--folds", "2",
            "--bootstraps", "1", "--min-count", "2", "--timing", "off",
        ]
        monkeypatch.setenv("TREELAB_SEED", "9090")
        assert main(args + ["--seed", "1", "--out", str(out_env)]) == 0
        monkeypatch.delenv("TREELAB_SEED")
        assert main(args + ["--seed", "9090", "--out", str(out_flag)]) == 0
        assert out_env.read_text() == out_flag.read_text()

    def test_exit_codes(self, toy_csv, tmp_path):
        out = tmp_path / "x.csv"
        assert main([
            "benchmark", "--dataset", str(tmp_path / "absent.csv"),
            "--folds", "2", "--out", str(out),
        ]) == EXIT_DATASET_ERROR
        assert main([
            "benchmark", "--dataset", str(toy_csv), "--folds", "9999",
            "--out", str(out),
        ]) == EXIT_BAD_PARAMS
        assert main([
            "benchmark", "--dataset", str(toy_csv), "--folds", "2",
            "--bootstraps", "1", "--out", str(tmp_path / "nodir" / "x.csv"),
        ]) == EXIT_OUTPUT_ERROR

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_rejected(self, toy_csv, tmp_path, capsys, jobs):
        out = tmp_path / "x.csv"
        assert main([
            "benchmark", "--dataset", str(toy_csv), "--folds", "2",
            "--bootstraps", "1", "--jobs", jobs, "--out", str(out),
        ]) == EXIT_BAD_PARAMS
        assert "--jobs" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_command_line_exits_2_with_usage(self, capsys):
        # argparse's own status: no traceback, a usage line on stderr
        with pytest.raises(SystemExit) as exc:
            main(["benchmark", "--folds", "10"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:") and "--dataset" in err
        assert "Traceback" not in err


class TestPredict:
    def test_probabilities_quantized_and_identical(self, train_test_csvs, tmp_path):
        train, test = train_test_csvs
        outputs = {}
        for algorithm in ("dt", "batched", "lazy"):
            out = tmp_path / f"pred_{algorithm}.csv"
            code = main([
                "predict", "--train", str(train), "--test", str(test),
                "--algorithm", algorithm, "--bootstraps", "4",
                "--min-count", "2", "--seed", "6", "--out", str(out),
            ])
            assert code == 0
            outputs[algorithm] = out.read_bytes()
        assert outputs["dt"] == outputs["batched"] == outputs["lazy"]
        lines = outputs["dt"].decode().splitlines()
        assert lines[0].startswith("prob_")
        for line in lines[1:]:
            *probs, _ = line.split(",")
            for p in probs:
                assert float(p) in {0.0, 0.25, 0.5, 0.75, 1.0}

    def test_pure_training_set(self, tmp_path):
        train = tmp_path / "pure.csv"
        train.write_text("a,label\n1,x\n2,x\n3,x\n4,y\n")
        test = tmp_path / "t.csv"
        test.write_text("a\n1\n9\n")
        out = tmp_path / "pred.csv"
        # min-count 5 > 3 rows: every tree is a single leaf on the majority
        code = main([
            "predict", "--train", str(train), "--test", str(test),
            "--bootstraps", "1", "--seed", "12", "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "prob_x,prob_y,prediction"

    def test_schema_mismatch(self, train_test_csvs, tmp_path):
        train, _ = train_test_csvs
        bad = tmp_path / "bad.csv"
        bad.write_text("only_one\n1\n")
        out = tmp_path / "pred.csv"
        assert main([
            "predict", "--train", str(train), "--test", str(bad),
            "--out", str(out),
        ]) == EXIT_SCHEMA_MISMATCH


class TestLoaderErrors:
    # A field past csv's field size limit and a file that is not UTF-8 are
    # dataset errors, in the training file and in the prediction file alike.
    CONTENTS = {
        "oversize_field": b"a,label\n" + b"1" * 200_000 + b",x\n2,y\n",
        "not_utf8": b"a,label\n1,x\n2,\xff\xfe\n",
    }

    @pytest.mark.parametrize("case", sorted(CONTENTS))
    @pytest.mark.parametrize("role", ["train", "test"])
    def test_exit_10(self, train_test_csvs, tmp_path, capsys, case, role):
        train, test = train_test_csvs
        bad = tmp_path / "bad.csv"
        bad.write_bytes(self.CONTENTS[case])
        files = {"train": train, "test": test, role: bad}
        code = main([
            "predict", "--train", str(files["train"]), "--test", str(files["test"]),
            "--bootstraps", "1", "--out", str(tmp_path / "pred.csv"),
        ])
        assert code == EXIT_DATASET_ERROR
        assert f"cannot read {bad}" in capsys.readouterr().err
        assert not (tmp_path / "pred.csv").exists()


class TestOutOfMemory:
    @pytest.mark.parametrize("command", ["predict", "trace"])
    def test_exit_15_without_traceback(self, tmp_path, command):
        # 8 000 rows of 4 000 classes: the root search asks for ~490 MiB arrays,
        # more than a child capped at 1 GiB of address space can map.  The
        # categorical column holds one level per row, so the root counts
        # 8 000 levels per class; with a few levels, or none, the root fits.
        rng = np.random.default_rng(0)
        train = tmp_path / "many.csv"
        train.write_text("a,b,label\n" + "".join(
            f"{a:.6f},v{i},c{i // 2}\n" for i, a in enumerate(rng.normal(size=8000))))
        test = tmp_path / "test.csv"
        test.write_text("a,b\n0.1,v0\n")
        out = tmp_path / "out.csv"
        out.write_text("previous\n")

        def cap_memory():
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

        proc = subprocess.run(
            [sys.executable, "-m", "treelab", command, "--train", str(train),
             "--test", str(test), "--bootstraps", "1", "--out", str(out),
             *(["--force"] if command == "trace" else [])],
            capture_output=True, text=True, timeout=120, preexec_fn=cap_memory,
            env=SUBPROCESS_ENV,
        )
        assert proc.returncode == EXIT_OUT_OF_MEMORY, proc.stderr
        assert proc.stderr.startswith("treelab: out of memory: ")
        assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr
        assert out.read_text() == "previous\n"
        assert sorted(path.name for path in tmp_path.iterdir()) == [
            "many.csv", "out.csv", "test.csv"]

    def test_message_without_reason(self, toy_csv, tmp_path, monkeypatch, capsys):
        def fail(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(cli, "load_csv", fail)
        assert main(["benchmark", "--dataset", str(toy_csv), "--folds", "2",
                     "--out", str(tmp_path / "r.csv")]) == EXIT_OUT_OF_MEMORY
        assert capsys.readouterr().err == "treelab: out of memory: allocation failed\n"


class TestTrace:
    def test_batched_visits_nodes_once(self, train_test_csvs, tmp_path):
        train, test = train_test_csvs
        out = tmp_path / "trace.txt"
        code = main([
            "trace", "--train", str(train), "--test", str(test),
            "--algorithm", "batched", "--min-count", "2", "--seed", "2",
            "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("#")
        paths = [line.split("\t")[1] for line in lines[1:]]
        assert len(paths) == len(set(paths))

    def test_lazy_repeats_shared_prefix(self, train_test_csvs, tmp_path):
        train, test = train_test_csvs
        out = tmp_path / "trace_lazy.txt"
        code = main([
            "trace", "--train", str(train), "--test", str(test),
            "--algorithm", "lazy", "--min-count", "2", "--seed", "2",
            "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().splitlines()[1:]
        roots = [line for line in lines if line.split("\t")[1] == "-"]
        assert len(roots) == 6  # one root visit per test row

    def test_eager_trace_is_full_preorder_and_test_independent(
        self, train_test_csvs, tmp_path
    ):
        train, test = train_test_csvs
        single = tmp_path / "single.csv"
        with open(test) as handle:
            lines = handle.read().splitlines()
        single.write_text("\n".join(lines[:2]) + "\n")
        out_full = tmp_path / "trace_full.txt"
        out_single = tmp_path / "trace_single.txt"
        for test_path, out in ((test, out_full), (single, out_single)):
            assert main([
                "trace", "--train", str(train), "--test", str(test_path),
                "--algorithm", "dt", "--min-count", "2", "--seed", "2",
                "--out", str(out),
            ]) == 0
        assert out_full.read_bytes() == out_single.read_bytes()

    @staticmethod
    def _noisy_csvs(tmp_path, test_step):
        """A noisy 240-row, 3-class CSV of two numeric and one categorical
        attribute, and a test CSV of every ``test_step``-th of its rows."""
        rng = np.random.default_rng(12)
        labels = rng.integers(0, 3, size=240)
        numbers = rng.integers(0, 10, size=(240, 2)) + (rng.random((240, 2)) < 0.3) * labels[:, None]
        levels = (labels + rng.integers(0, 3, size=240)) % 4
        cells = [[f"{a:.1f}", f"{b:.1f}", f"v{c}"] for (a, b), c in zip(numbers, levels)]
        train, test = tmp_path / "train.csv", tmp_path / "test.csv"
        train.write_text("\n".join(["x0,x1,c2,label"] + [
            ",".join(row + [f"k{label}"]) for row, label in zip(cells, labels)]) + "\n")
        test.write_text("\n".join(["x0,x1,c2"] + [",".join(row) for row in cells[::test_step]]) + "\n")
        return train, test

    @staticmethod
    def _recursion_traces(data, test_values, params, seed, bootstraps):
        """The trace lines of each algorithm, from the independent recursion's preorder.

        dt lists every node, batched the nodes some test row reaches with
        their test counts, and lazy each test row's path, row by row.
        """
        traces = {alg: [TRACE_HEADER_LINE] for alg in ("dt", "batched", "lazy")}
        for i in range(bootstraps):
            rows = bootstrap(np.arange(data.n_rows), mix_seed(seed, i))
            replay = oracles.expand_recursion(data, rows, params)
            nodes = {path: (len(rows), kind, payload) for path, rows, kind, payload in replay}
            routes = []
            for row in test_values:
                path = ()
                while nodes[path][1] == "split":
                    path += (int(oracles.holds(nodes[path][2], row[nodes[path][2].attribute])),)
                routes.append(path)

            def line(path, test, row):
                train, kind, payload = nodes[path]
                action = (f"split {payload.attribute} {payload.op} {payload.value!r}"
                          if kind == "split" else f"leaf {payload}")
                text = "".join("iv"[side] for side in path) or "-"
                return f"{len(path)}\t{text}\t{train}\t{test}\t{row}\t{action}"

            for path, *_ in replay:
                traces["dt"].append(line(path, "-", "-"))
                reached = sum(route[:len(path)] == path for route in routes)
                if reached:
                    traces["batched"].append(line(path, reached, "-"))
            for j, route in enumerate(routes):
                traces["lazy"].extend(line(route[:depth], "-", j) for depth in range(len(route) + 1))
        return traces

    def test_batched_depths_trace_the_recursion_preorder(self, tmp_path, monkeypatch):
        # A noisy 3-class table whose trees have depths of eight or more
        # small nodes, which dt and batched search in batches.  Each
        # algorithm's trace is the preorder of the recursion on each bootstrap.
        train, test = self._noisy_csvs(tmp_path, 12)
        data = load_csv(train)
        test_values = load_prediction_rows(data, test)
        batches = []

        def batch(*args):
            batches.append(args)
            return segment_winners(*args)

        segment_winners = splitcore._segment_winners
        monkeypatch.setattr(splitcore, "_segment_winners", batch)
        want = self._recursion_traces(data, test_values, SplitParams(min_count=1), 3, 2)
        out = tmp_path / "trace.txt"
        for algorithm, lines in want.items():
            batches.clear()
            assert main(["trace", "--train", str(train), "--test", str(test),
                         "--algorithm", algorithm, "--bootstraps", "2", "--min-count", "1",
                         "--seed", "3", "--force", "--out", str(out)]) == 0
            assert out.read_text().splitlines() == lines, algorithm
            assert bool(batches) == (algorithm != "lazy"), algorithm

    def test_guardrail_crossed_inside_a_tree(self, tmp_path, monkeypatch):
        # The walk passes a tree's events on when the tree is done, but
        # raises at the depth that crosses the limit, before it counts that
        # depth's classes: a limit crossed a quarter of the way through the
        # only tree ends the run with no file, and the nodes past that depth
        # are never visited.
        train, test = self._noisy_csvs(tmp_path, 60)
        out = tmp_path / "trace.txt"
        args = ["trace", "--train", str(train), "--test", str(test), "--algorithm", "dt",
                "--bootstraps", "1", "--min-count", "1", "--seed", "3", "--out", str(out)]
        assert main(args + ["--force"]) == 0
        depths = collections.Counter(
            int(line.split("\t")[0]) for line in out.read_text().splitlines()[1:])
        nodes = sum(depths.values())
        out.unlink()
        limit = nodes // 4
        # The depth that crosses the limit is the last one explored.
        crossing = next(depth for depth in sorted(depths)
                        if sum(depths[d] for d in depths if d <= depth) > limit)
        visited = sum(depths[d] for d in depths if d <= crossing)
        assert visited < nodes // 2
        counted = []
        count_classes = eager_tree.class_histogram

        def spy(data, rows):
            counted.append(rows.size)
            return count_classes(data, rows)

        monkeypatch.setattr(eager_tree, "class_histogram", spy)
        monkeypatch.setattr(cli, "TRACE_LINE_LIMIT", limit)
        assert main(args) == EXIT_TRACE_GUARDRAIL
        assert len(counted) == visited - depths[crossing]
        assert not out.exists() and list(tmp_path.iterdir()) == [train, test]

    def test_guardrail(self, tmp_path):
        rng = np.random.default_rng(3)
        data = random_dataset(rng, 80, 3, 0, 2)
        train = write_dataset_csv(tmp_path / "big.csv", data)
        test = tmp_path / "bigtest.csv"
        header = ",".join(data.attr_names)
        rows = [",".join(repr(float(v)) for v in row) for row in decode(data)[:80]]
        test.write_text("\n".join([header] + rows) + "\n")
        out = tmp_path / "trace.txt"
        args = [
            "trace", "--train", str(train), "--test", str(test),
            "--algorithm", "lazy", "--bootstraps", "30", "--min-count", "2",
            "--seed", "1", "--out", str(out),
        ]
        assert main(args) == EXIT_TRACE_GUARDRAIL
        assert not out.exists()
        assert main(args + ["--force"]) == 0
        assert out.exists()

    def test_guardrail_stops_the_fit_at_the_limit(self, train_test_csvs, tmp_path,
                                                  monkeypatch):
        train, test = train_test_csvs
        limit = 5
        monkeypatch.setattr(cli, "TRACE_LINE_LIMIT", limit)
        tag, fit = cli.ALGORITHMS["lazy"]
        visits = []

        def counting_fit(*args, on_visit, **kwargs):
            def count(event):
                visits.append(event)
                on_visit(event)
            return fit(*args, on_visit=count, **kwargs)

        monkeypatch.setitem(cli.ALGORITHMS, "lazy", (tag, counting_fit))
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        out = out_dir / "trace.txt"
        args = [
            "trace", "--train", str(train), "--test", str(test),
            "--algorithm", "lazy", "--min-count", "2", "--seed", "2",
            "--out", str(out),
        ]
        assert main(args) == EXIT_TRACE_GUARDRAIL
        refused = len(visits)
        assert list(out_dir.iterdir()) == []
        # an existing output is left as it was
        out.write_text("previous\n")
        assert main(args) == EXIT_TRACE_GUARDRAIL
        assert out.read_text() == "previous\n"
        assert list(out_dir.iterdir()) == [out]
        # --force writes every line, header included
        visits.clear()
        assert main(args + ["--force"]) == 0
        assert len(out.read_text().splitlines()) == len(visits) + 1 > limit + 1
        # The fit raises inside the walk that takes its events past the
        # limit; on_visit has taken every event of the walks before it.
        ends = np.cumsum(list(collections.Counter(event.test_row for event in visits).values()))
        assert refused == ends[ends <= limit].max(initial=0)

    def test_out_in_missing_directory(self, train_test_csvs, tmp_path, capsys):
        train, test = train_test_csvs
        before = sorted(tmp_path.iterdir())
        out = tmp_path / "nodir" / "x.txt"
        assert main([
            "trace", "--train", str(train), "--test", str(test),
            "--min-count", "2", "--out", str(out),
        ]) == EXIT_OUTPUT_ERROR
        err = capsys.readouterr().err
        assert err.startswith(f"treelab: cannot write {out}")
        assert ".tmp" not in err
        assert sorted(tmp_path.iterdir()) == before


@pytest.mark.parametrize("out, reason", [
    pytest.param("nodir/x.csv", "No such file or directory", id="missing_dir"),
    pytest.param(".", "Is a directory", id="no_file_name"),
])
@pytest.mark.parametrize("command", ["benchmark", "predict", "trace"])
def test_unwritable_out_message(command, out, reason, toy_csv, train_test_csvs, tmp_path,
                                capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    inputs = (["--dataset", str(toy_csv), "--folds", "2"] if command == "benchmark"
              else ["--train", str(train_test_csvs[0]), "--test", str(train_test_csvs[1])])
    before = sorted(tmp_path.rglob("*"))
    assert main([command, *inputs, "--bootstraps", "1", "--out", out]) == EXIT_OUTPUT_ERROR
    assert capsys.readouterr().err == f"treelab: cannot write {out}: {reason}\n"
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("command, directory, refused, reason", [
    pytest.param("benchmark", "out.csv", "out.csv", "Is a directory", id="benchmark_out_dir"),
    pytest.param("benchmark", "out_plot.csv", "out_plot.csv", "Is a directory",
                 id="benchmark_plot_dir"),
    pytest.param("benchmark", None, "nodir/out.csv", "No such file or directory",
                 id="benchmark_missing_parent"),
    pytest.param("predict", "out.csv", "out.csv", "Is a directory", id="predict_out_dir"),
    pytest.param("predict", None, "nodir/out.csv", "No such file or directory",
                 id="predict_missing_parent"),
])
def test_unwritable_out_refused_before_the_fit(command, directory, refused, reason, toy_csv,
                                               train_test_csvs, tmp_path, capsys, monkeypatch):
    # An output that cannot be written is refused before any fit runs, so a
    # long run is not lost at its end.
    def fit(*args, **kwargs):
        raise AssertionError("the fit ran")

    monkeypatch.setattr(cli, "run_cv", fit)
    for name, (tag, _) in cli.ALGORITHMS.items():
        monkeypatch.setitem(cli.ALGORITHMS, name, (tag, fit))
    monkeypatch.chdir(tmp_path)
    if directory is not None:
        Path(directory).mkdir()
    inputs = (["--dataset", str(toy_csv), "--folds", "2"] if command == "benchmark"
              else ["--train", str(train_test_csvs[0]), "--test", str(train_test_csvs[1])])
    out = "nodir/out.csv" if directory is None else "out.csv"
    before = sorted(tmp_path.rglob("*"))
    assert main([command, *inputs, "--bootstraps", "1", "--out", out]) == EXIT_OUTPUT_ERROR
    assert capsys.readouterr().err == f"treelab: cannot write {refused}: {reason}\n"
    assert sorted(tmp_path.rglob("*")) == before


# Small tables, most of them usable, some of them ragged, holding missing
# cells, of one class, only a header, or ending in bytes that are not UTF-8.
CELLS = st.sampled_from(["1", "2.5", "-3", " 4 ", "x", "y"])
DEFECTS = [None] * 8 + ["ragged", "missing", "one_class", "header_only", "not_utf8"]


@st.composite
def csv_bytes(draw, n_attributes, labelled):
    header = [f"a{j}" for j in range(n_attributes)] + (["label"] if labelled else [])
    rows = [[draw(CELLS) for _ in range(n_attributes)] + (["AB"[i % 2]] if labelled else [])
            for i in range(draw(st.integers(2, 8)))]
    defect = draw(st.sampled_from(DEFECTS))
    if defect == "ragged":
        rows[-1].append("1")
    elif defect == "missing":
        rows[0][0] = draw(st.sampled_from(["?", ""]))
    elif defect == "one_class" and labelled:
        for row in rows:
            row[-1] = "A"
    elif defect == "header_only":
        rows = []
    text = "".join(",".join(row) + "\n" for row in [header, *rows]).encode()
    return text + (b"\xff\xfe,A\n" if defect == "not_utf8" else b"")


FLAGS = {
    "--bootstraps": ["-1", "0", "1", "1", "2", "1.5"],  # 1.5: an argparse error
    "--min-count": ["-1", "0", "1", "1", "5"],
    "--max-depth": ["-1", "0", "3", "3"],
    "--jobs": ["-3", "0", "1", "1"],  # benchmark only; above 1 would start a pool
    "--folds": ["2", "2", "3", "0", "x", "2:", "2:3:0", "3,2", "2:40:1"],
}


@st.composite
def cli_calls(draw):
    command = draw(st.sampled_from(["benchmark", "predict", "trace"]))
    flags = ["--folds", "--jobs"] if command == "benchmark" else []
    flags += ["--bootstraps", "--min-count", "--max-depth"]
    values = {flag: draw(st.sampled_from(FLAGS[flag])) for flag in flags}
    n_attributes = draw(st.integers(1, 2))
    train = draw(csv_bytes(n_attributes, labelled=True))
    test = draw(csv_bytes(n_attributes, labelled=draw(st.booleans())))
    out = draw(st.sampled_from(["file", "file", "missing_dir", "directory"]))
    return command, values, train, test, out


@given(call=cli_calls())
@settings(max_examples=100, deadline=None)
def test_generated_inputs_never_raise(call):
    command, values, train_bytes, test_bytes, out_kind = call
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        train, test = tmp / "train.csv", tmp / "test.csv"
        train.write_bytes(train_bytes)
        test.write_bytes(test_bytes)
        out = {"file": tmp / "out.csv", "missing_dir": tmp / "absent" / "out.csv",
               "directory": tmp}[out_kind]
        files = (["--dataset", str(train)] if command == "benchmark"
                 else ["--train", str(train), "--test", str(test)])
        argv = [command, *files, "--out", str(out),
                *(f"{flag}={value}" for flag, value in values.items())]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
    assert code in (0, 2, 10, 11, 12, 13, 14), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()


def test_cli_import_leaves_process_pool_unloaded():
    # Only a run with more than one worker process imports the pool machinery.
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, treelab.cli; print('multiprocessing' in sys.modules)"],
        capture_output=True, text=True, timeout=60, env=SUBPROCESS_ENV,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


# A child's thread count and its *_NUM_THREADS variables before and after it
# imports treelab, with numpy imported first when asked.
BLAS_THREADS = """
import json, os, sys

def state():
    return [len(os.listdir("/proc/self/task")),
            {name: value for name, value in os.environ.items() if name.endswith("_NUM_THREADS")}]

if sys.argv[1] == "numpy-first":
    import numpy
before = state()
import treelab
print(json.dumps([before, state()]))
"""


@pytest.mark.skipif(not Path("/proc/self/task").is_dir() or (os.cpu_count() or 1) < 2,
                    reason="needs /proc/self/task and at least 2 CPUs")
@pytest.mark.parametrize("caller, order, threads", [
    ({}, "treelab-first", 1),
    ({"OPENBLAS_NUM_THREADS": "2"}, "treelab-first", 2),
    ({"OMP_NUM_THREADS": "2"}, "treelab-first", 2),
    ({}, "numpy-first", None),  # numpy's own thread pool is left as it started
])
def test_import_loads_numpy_without_blas_threads(caller, order, threads):
    env = {key: value for key, value in SUBPROCESS_ENV.items() if not key.endswith("_NUM_THREADS")}
    env.update(caller)
    proc = subprocess.run([sys.executable, "-c", BLAS_THREADS, order],
                          capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
    before, after = json.loads(proc.stdout)
    assert after == (before if threads is None else [threads, caller])


def _trace_args(train_test_csvs, out):
    train, test = train_test_csvs
    return ["trace", "--train", str(train), "--test", str(test), "--algorithm", "lazy",
            "--min-count", "1", "--out", str(out)]


# After a small run, glibc's default policy still mmaps a 1 MiB block (one more
# hblks); under the policy main sets, the block comes from the heap.
KEEP_FREED_HEAP = """
import ctypes, sys
import numpy as np
from treelab import cli

class MallInfo2(ctypes.Structure):
    _fields_ = [(name, ctypes.c_size_t) for name in (
        "arena", "ordblks", "smblks", "hblks", "hblkhd", "usmblks", "fsmblks",
        "uordblks", "fordblks", "keepcost")]

mallinfo2 = ctypes.CDLL(None).mallinfo2
mallinfo2.argtypes, mallinfo2.restype = (), MallInfo2
code = cli.main(sys.argv[1:])
before = mallinfo2().hblks
block = np.ones(1 << 17)  # 1 MiB
print(code, mallinfo2().hblks - before)
"""


@pytest.mark.skipif(not hasattr(ctypes.CDLL(None), "mallinfo2"), reason="libc has no mallinfo2")
def test_main_keeps_freed_heap(train_test_csvs, tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", KEEP_FREED_HEAP, *_trace_args(train_test_csvs, tmp_path / "t")],
        capture_output=True, text=True, timeout=60, env=SUBPROCESS_ENV,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "0"]


def test_main_runs_where_libc_has_no_mallopt(train_test_csvs, tmp_path, monkeypatch):
    assert main(_trace_args(train_test_csvs, tmp_path / "with.txt")) == 0
    monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: object())
    assert main(_trace_args(train_test_csvs, tmp_path / "without.txt")) == 0
    assert (tmp_path / "without.txt").read_bytes() == (tmp_path / "with.txt").read_bytes()


def test_module_entry_point(toy_csv, tmp_path):
    out = tmp_path / "smoke.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "treelab", "benchmark", "--dataset", str(toy_csv),
         "--folds", "2", "--bootstraps", "1", "--min-count", "2",
         "--out", str(out)],
        capture_output=True,
        text=True,
        env=SUBPROCESS_ENV,
    )
    assert proc.returncode == 0, proc.stderr
    assert out.exists()
