"""Layered benchmark of the ``treelab`` CLI.

Run from the repository root::

    python3 benchmarks/run.py --workload paper-cv --seed 1 --seconds 40 --trace 0

The benchmark writes the workload's seeded CSVs into a scratch directory
under ``.bench_work/``, then runs the workload's ``treelab`` commands one
process at a time (``--jobs 1``).  Every command runs through ``spans.py``,
which times the package's functions from outside ``src/``.

``--trace 0`` cycles through the workload's schedule while a command still
fits in ``--seconds``, runs every command at least twice, and reports the
end-to-end metrics: times as medians over each command's runs, vote rates
over all of the run's calls.  ``--trace 1``
runs each command once untraced and then at least twice with every layer
wrapped, and reports the per-layer metrics and the tracing overhead; the
spans of its traced iterations are kept in
``.bench_work/<workload>-<seed>.spans.jsonl``.  The scratch directory is
deleted at the end of every run.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.

Every command run is one attempted operation.  It fails when it exits
non-zero, when algorithms disagree on a prediction byte or an accuracy,
when batched explores more nodes than dt, when its outputs or counters
differ from the first run of the same command (or, in a traced run, from
the untraced run), or when they differ from the values recorded for that seed
in ``expected.json``.  ``--record`` stores a clean run's values there.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import ALGORITHMS, Command, Workload, workloads  # noqa: E402

SPANS = HERE / "spans.py"
EXPECTED = HERE / "expected.json"
RUN_LIMIT_S = 150  # commands still running this long after the start are killed
MIN_RUNS = 2  # of every command in an untraced run; traced passes in a traced run
BANDS = ("le8", "le64", "le512", "gt512")
DIGEST_CHARS = 16  # of a sha256 hex digest; enough to tell outputs apart

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    **{f"votes_per_s.{alg}": "votes/s" for alg in ALGORITHMS},
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    **{f"splitcore.best_condition.s.{b}": "s" for b in BANDS},
    **{f"splitcore.best_condition.calls.{b}": "count" for b in BANDS},
    **{f"splitcore.best_condition.rows.{b}": "rows" for b in BANDS},
    "splitcore.best_condition.none_ratio": "ratio",
    "splitcore.partition.s": "s",
    "splitcore.partition.calls": "count",
    "splitcore.partition.rows": "rows",
    "splitcore.class_histogram.s": "s",
    "splitcore.class_histogram.calls": "count",
    "dataset.load_csv.s": "s",
    "dataset.load_csv.rows": "rows",
    "dataset.load_prediction_rows.s": "s",
    "dataset.bootstrap.s": "s",
    "dataset.bootstrap.calls": "count",
    "dataset.bootstrap.rows_drawn": "rows",
    "dataset.make_folds.s": "s",
    "eager_tree.build_tree.self_s": "s",
    "eager_tree.predict_row.s": "s",
    "eager_tree.predict_row.calls": "count",
    "eager_tree.fit_predict_eager.self_s": "s",
    "metrics.model_word_count.s": "s",
    **{f"metrics.nodes_explored.{alg}": "count" for alg in ALGORITHMS},
    **{f"metrics.peak_stack_words.{alg}": "words" for alg in ALGORITHMS},
    "metrics.model_words.dt": "words",
    "lazy_paths.fit_predict_lazy.self_s": "s",
    "batched_lazy.fit_predict_batched.self_s": "s",
    "trace.format_trace_line.s": "s",
    "trace.format_trace_line.calls": "count",
    "cli.self_s": "s",
    "bench.run_cv.self_s": "s",
    **{f"bench.run_fold.median_s.{alg}": "s" for alg in ALGORITHMS},
    **{f"bench.run_fold.max_s.{alg}": "s" for alg in ALGORITHMS},
    "tracing.wall_s": "s",
    "tracing.untraced_wall_s": "s",
    "tracing.overhead_s": "s",
    "tracing.self_s_sum": "s",
    "check.fail_ratio": "ratio",
}
# per-layer metrics that are exact counts: equal on every run of one seed
EXACT_UNITS = ("count", "rows", "words")
EXACT_EXTRA = ("splitcore.best_condition.none_ratio",)


@dataclass
class CommandRun:
    """One finished command: its cost, what it wrote, and what went wrong."""

    command: Command
    wall_s: float
    cpu_s: float
    rss_mb: float
    exit_code: int
    stats: dict | None
    stats_path: Path
    outputs: dict[str, str | None]
    failures: list[str] = field(default_factory=list)

    def fingerprint(self) -> dict:
        algorithms = (self.stats or {}).get("algorithms", {})
        return {
            "outputs": self.outputs,
            "predictions": {alg: entry["digest"] for alg, entry in sorted(algorithms.items())},
            "counters": {
                alg: [entry["nodes_explored"], entry["peak_stack_words"], entry["model_words"]]
                for alg, entry in sorted(algorithms.items())
            },
        }


def _digest(path: Path) -> str | None:
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()[:DIGEST_CHARS]
    except OSError:
        return None


class Runner:
    """Runs one workload's commands in a scratch directory and checks them."""

    def __init__(self, root: Path, work: Path, workload: Workload, expected: dict | None):
        self.work = work
        self.workload = workload
        self.expected = expected
        self.env = {key: value for key, value in os.environ.items() if key != "TREELAB_SEED"}
        src = str(root / "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            [src] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))
        self.count = 0
        self.deadline = time.perf_counter() + RUN_LIMIT_S

    def time_left(self) -> float:
        return max(0.0, self.deadline - time.perf_counter())

    def warm_up(self) -> None:
        """Import the package once, so bytecode caching is not timed."""
        subprocess.run([sys.executable, "-c", "import treelab.cli"], cwd=self.work,
                       env=self.env, check=True, timeout=self.time_left())

    def run_command(self, command: Command, mode: str) -> CommandRun:
        self.count += 1
        stats_path = self.work / f"stats_{self.count}_{command.name}.json"
        for name in command.outputs:
            (self.work / name).unlink(missing_ok=True)
        argv = [sys.executable, str(SPANS), str(stats_path), mode, "--", *command.argv]
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=self.work, env=self.env, stdout=subprocess.DEVNULL)
        timer = threading.Timer(self.time_left(), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        try:
            stats = json.loads(stats_path.read_text())
        except (OSError, ValueError):
            stats = None
        run = CommandRun(
            command=command,
            wall_s=wall,
            cpu_s=usage.ru_utime + usage.ru_stime,
            rss_mb=usage.ru_maxrss / 1024.0,
            exit_code=proc.returncode,
            stats=stats,
            stats_path=stats_path,
            outputs={name: _digest(self.work / name) for name in command.outputs},
        )
        if run.exit_code != 0:
            run.failures.append(f"exit code {run.exit_code}")
        if stats is None or stats.get("setup_s") is None:
            run.failures.append("no stats were written")
        missing = [name for name, digest in run.outputs.items() if digest is None]
        if missing:
            run.failures.append(f"missing outputs {missing}")
        return run

    def iteration(self, mode: str) -> list[CommandRun]:
        runs = [self.run_command(command, mode) for command in self.workload.commands]
        self.check_agreement(runs)
        return runs

    def check_agreement(self, runs: list[CommandRun]) -> None:
        """Cross-algorithm checks within one iteration."""
        by_name = {run.command.name: run for run in runs}
        try:
            checked = self.workload.check(self.work)
        except (OSError, KeyError) as exc:
            checked = [(runs[0].command.name, f"cannot check the outputs: {exc!r}")]
        for name, message in checked:
            by_name[name].failures.append(message)
        # commands that read the same test input must predict identical bytes
        groups: dict[str, list[tuple[CommandRun, str, dict]]] = {}
        for run in runs:
            test_input = _test_input(run.command)
            for alg, entry in (run.stats or {}).get("algorithms", {}).items():
                groups.setdefault(test_input, []).append((run, alg, entry))
        for members in groups.values():
            reference = members[0]
            for run, alg, entry in members[1:]:
                if entry["digest"] != reference[2]["digest"]:
                    run.failures.append(
                        f"{alg} prediction bytes differ from {reference[1]}")
            nodes = {alg: entry["nodes_explored"] for _, alg, entry in members}
            if "dt" in nodes and "batched" in nodes and nodes["batched"] > nodes["dt"]:
                run = next(run for run, alg, _ in members if alg == "batched")
                run.failures.append(
                    f"batched explored {nodes['batched']} nodes, more than dt's {nodes['dt']}")

    def check_repeat(self, runs: list[CommandRun], reference: list[CommandRun], what: str):
        for run, ref in zip(runs, reference):
            if run.fingerprint() != ref.fingerprint():
                run.failures.append(f"outputs or counters differ from {what}")
        if self.expected is None:
            return
        for run in runs:
            recorded = self.expected.get(run.command.name)
            if recorded is not None and run.fingerprint() != recorded:
                run.failures.append("outputs or counters differ from the recorded values")


def _test_input(command: Command) -> str:
    for flag in ("--test", "--dataset"):
        if flag in command.argv:
            return command.argv[command.argv.index(flag) + 1]
    raise ValueError(f"command {command.name} names no test input")


def _median(values) -> float:
    values = [value for value in values if value is not None]
    return float(statistics.median(values)) if values else 0.0


def _by_command(runs: list[CommandRun]) -> dict[str, list[CommandRun]]:
    groups: dict[str, list[CommandRun]] = {}
    for run in runs:
        groups.setdefault(run.command.name, []).append(run)
    return groups


def end_to_end(runs: list[CommandRun]) -> dict[str, float]:
    """The untraced end-to-end metrics of a run.

    ``wall_s`` and ``cpu_s`` add up one median run of every command;
    ``peak_rss_mb`` is the largest command's median.  ``votes_per_s`` is
    the votes of all the run's calls of an algorithm over their seconds, so
    that every call counts, whichever half of the run it fell in.
    """
    groups = _by_command(runs).values()
    done = [run for run in runs if run.stats]
    metrics = {
        "wall_s": sum(_median(run.wall_s for run in group) for group in groups),
        "cpu_s": sum(_median(run.cpu_s for run in group) for group in groups),
        "setup_s": _median(run.stats["setup_s"] for run in done),
        "peak_rss_mb": max(_median(run.rss_mb for run in group) for group in groups),
    }
    for alg in ALGORITHMS:
        entries = [run.stats["algorithms"][alg] for run in done
                   if alg in run.stats["algorithms"]]
        seconds = sum(entry["seconds"] for entry in entries)
        metrics[f"votes_per_s.{alg}"] = (
            sum(entry["votes"] for entry in entries) / seconds if seconds > 0 else 0.0)
    return metrics


def layer_metrics(runs: list[CommandRun]) -> dict[str, float]:
    """Per-layer metrics of one traced iteration (sums over its commands)."""
    totals: dict[str, float] = {}
    folds: dict[str, list[float]] = {alg: [] for alg in ALGORITHMS}
    counters = {alg: [0, 0, 0] for alg in ALGORITHMS}
    for run in runs:
        if not run.stats:
            continue
        layers = dict(run.stats["layers"])
        for alg, durations in layers.pop("bench.run_fold.fold_s").items():
            folds[alg].extend(durations)
        for key, value in layers.items():
            totals[key] = totals.get(key, 0.0) + value
        for alg, entry in run.stats["algorithms"].items():
            counters[alg][0] += entry["nodes_explored"]
            counters[alg][1] = max(counters[alg][1], entry["peak_stack_words"])
            counters[alg][2] += entry["model_words"]
    out = {name: totals.get(name, 0.0) for name in PER_LAYER}
    calls = sum(totals.get(f"splitcore.best_condition.calls.{b}", 0.0) for b in BANDS)
    if calls:
        out["splitcore.best_condition.none_ratio"] = (
            totals.get("splitcore.best_condition.none", 0.0) / calls)
    out["cli.self_s"] = sum(value for key, value in totals.items()
                            if key.startswith("cli.cmd_") and key.endswith(".self_s"))
    for alg in ALGORITHMS:
        if folds[alg]:
            out[f"bench.run_fold.median_s.{alg}"] = float(statistics.median(folds[alg]))
            out[f"bench.run_fold.max_s.{alg}"] = max(folds[alg])
        out[f"metrics.nodes_explored.{alg}"] = counters[alg][0]
        out[f"metrics.peak_stack_words.{alg}"] = counters[alg][1]
    out["metrics.model_words.dt"] = counters["dt"][2]
    out["tracing.wall_s"] = sum(run.wall_s for run in runs)
    out["tracing.bad_spans"] = totals.get("tracing.bad_spans", 0.0)
    return out


def _exact(name: str) -> bool:
    return PER_LAYER[name] in EXACT_UNITS or name in EXACT_EXTRA


def _more(runner: Runner, done: int, start: float, seconds: float) -> bool:
    """Start another iteration while the mean one still ends within ``seconds``."""
    elapsed = time.perf_counter() - start
    if not runner.time_left():
        return False
    return done < MIN_RUNS or elapsed + elapsed / done <= seconds


def untraced_run(runner: Runner, seconds: float):
    """Cycle through the schedule, skipping a command whose median run no
    longer ends within ``seconds``, until none does and every command has
    run ``MIN_RUNS`` times."""
    start = time.perf_counter()
    runs: list[CommandRun] = []
    walls: dict[str, list[float]] = {command.name: [] for command in runner.workload.commands}
    skipped = 0
    for command in itertools.cycle(runner.workload.schedule):
        if not runner.time_left() or skipped == len(runner.workload.schedule):
            break
        own = walls[command.name]
        elapsed = time.perf_counter() - start
        # a command with fewer runs is never skipped, so a whole cycle of
        # skips means every command has its MIN_RUNS
        if len(own) >= MIN_RUNS and elapsed + statistics.median(own) > seconds:
            skipped += 1
            continue
        skipped = 0
        run = runner.run_command(command, "light")
        own.append(run.wall_s)
        runs.append(run)
    first = {name: group[0] for name, group in _by_command(runs).items()}
    for run in runs:
        runner.check_repeat([run], [first[run.command.name]], "the first run")
    # the files on disk are the last run's of each command
    runner.check_agreement(list({run.command.name: run for run in runs}.values()))
    return runs, end_to_end(runs)


def traced_run(runner: Runner, seconds: float):
    start = time.perf_counter()
    reference = runner.iteration("light")
    runner.check_repeat(reference, reference, "the untraced run")
    traced: list[list[CommandRun]] = []
    layers: list[dict[str, float]] = []
    start_traced = time.perf_counter()
    while _more(runner, len(traced), start_traced, seconds - (start_traced - start)):
        runs = runner.iteration("trace")
        runner.check_repeat(runs, reference, "the untraced run")
        metrics = layer_metrics(runs)
        if layers and any(metrics[name] != layers[0][name] for name in PER_LAYER if _exact(name)):
            for run in runs:
                run.failures.append("per-layer counts differ from the first traced run")
        if metrics["tracing.self_s_sum"] > metrics["tracing.wall_s"]:
            for run in runs:
                run.failures.append("layer self times exceed the traced wall time")
        if metrics["tracing.bad_spans"]:
            for run in runs:
                run.failures.append(f"{metrics['tracing.bad_spans']:.0f} spans do not nest"
                                    " in their parent or have a negative self time")
        traced.append(runs)
        layers.append(metrics)
    out = {name: _median(metrics[name] for metrics in layers) for name in PER_LAYER}
    out["tracing.untraced_wall_s"] = sum(run.wall_s for run in reference)
    out["tracing.overhead_s"] = out["tracing.wall_s"] - out["tracing.untraced_wall_s"]
    return reference, traced, out


def keep_spans(traced: list[list[CommandRun]], path: Path) -> None:
    """Write the spans of every traced iteration to one file, one span a line:
    ``[iteration, command, name, start_s, end_s, span id, parent id]``."""
    with open(path, "w") as out:
        for i, runs in enumerate(traced, start=1):
            for run in runs:
                prefix = f"[{i}, {json.dumps(run.command.name)}, "
                spans = Path(f"{run.stats_path}.spans.jsonl")
                if spans.is_file():
                    with open(spans) as handle:
                        out.writelines(prefix + line[1:] for line in handle)


def machine_details() -> str:
    return (f"machine: nproc={os.cpu_count()} python={platform.python_version()}"
            f" numpy={np.__version__}; --jobs 1 throughout, so the process-pool fold"
            " path of treelab.bench is not measured")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads(0)))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="store this run's outputs and counters in expected.json")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    # on SIGTERM, unwind like an exception: the running command is killed and
    # waited for, and the scratch directory is deleted
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "treelab" / "cli.py").is_file():
        print("run.py: src/treelab not found; run from the repository root", file=sys.stderr)
        return 2
    workload = workloads(args.seed)[args.workload]
    recorded = json.loads(EXPECTED.read_text()) if EXPECTED.is_file() else {}
    expected = None if args.record else recorded.get(workload.name, {}).get(str(args.seed))
    work = root / ".bench_work" / f"{workload.name}-{args.seed}-{os.getpid()}"
    spans = root / ".bench_work" / f"{workload.name}-{args.seed}.spans.jsonl"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        workload.generate(args.seed, work)
        runner = Runner(root, work, workload, expected)
        runner.warm_up()
        if args.trace:
            reference, traced, values = traced_run(runner, args.seconds)
            keep_spans(traced, spans)
            all_runs = reference + [run for runs in traced for run in runs]
            units = PER_LAYER
        else:
            all_runs, values = untraced_run(runner, args.seconds)
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(1 for run in all_runs if run.failures)
    if args.trace:
        values["check.fail_ratio"] = failed / len(all_runs)
    for run in all_runs:
        for message in run.failures:
            print(f"FAILED {run.command.name}: {message}", file=sys.stderr)
    if args.record and not failed:
        recorded.setdefault(workload.name, {})[str(args.seed)] = {
            name: runs[0].fingerprint() for name, runs in _by_command(all_runs).items()}
        EXPECTED.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")

    print(machine_details())
    for name, runs in _by_command(all_runs).items():
        print(f"{name}: " + ", ".join(f"{run.wall_s:.3f}" for run in runs) + " s")
    print(f"workload {workload.name} (seed {args.seed}): {workload.why}")
    if args.record:
        checked = "recording" if not failed else "not recorded, the run failed"
    else:
        checked = "checked" if expected is not None else f"none for seed {args.seed}"
    print(f"{len(all_runs)} runs of {len(workload.commands)} commands;"
          f" fail_ratio {failed}/{len(all_runs)} = {failed / len(all_runs)};"
          f" recorded values: {checked}")
    if args.trace:
        print(f"spans of the traced iterations: {spans.relative_to(root)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(all_runs),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
