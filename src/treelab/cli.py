"""Benchmark, prediction, and trace commands.

``treelab benchmark`` sweeps fold counts and writes a per-(algorithm, k)
metrics report plus a plot-data file.  ``treelab predict`` writes class
probabilities for an unlabeled CSV.  ``treelab trace`` dumps the node-visit
sequence of one run.  The ``TREELAB_SEED`` environment variable overrides
``--seed`` everywhere.
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import errno
import os
import sys
from pathlib import Path

import numpy as np

from .bench import ALGORITHMS, run_cv
from .dataset import (
    DatasetError,
    SchemaMismatchError,
    load_csv,
    load_prediction_rows,
)
from .splitcore import SplitParams
from .trace import TRACE_HEADER, TraceLimitExceeded, format_trace_line

EXIT_DATASET_ERROR = 10
EXIT_BAD_PARAMS = 11
EXIT_OUTPUT_ERROR = 12
EXIT_SCHEMA_MISMATCH = 13
EXIT_TRACE_GUARDRAIL = 14
EXIT_OUT_OF_MEMORY = 15

TRACE_LINE_LIMIT = 10_000

# glibc hands freed blocks above its mmap threshold, and the heap top, back to
# the kernel, so each split search faults its numpy scratch in again.  Set both:
# setting only the trim threshold turns off glibc's dynamic mmap threshold, and
# large arrays are then mmapped and unmapped on every use.
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3  # mallopt(3) parameters
MMAP_THRESHOLD_MAX = 32 << 20  # glibc's largest accepted value on 64-bit

REPORT_COLUMNS = [
    "dataset", "algorithm", "k", "b", "c", "d", "seed",
    "cpu_seconds", "nodes_explored", "peak_stack_words", "model_words", "accuracy",
]
PLOT_COLUMNS = [
    "dataset", "algorithm", "k", "cpu_seconds", "nodes_explored",
    "peak_stack_words_mean", "peak_stack_words_max",
]


class CliError(Exception):
    def __init__(self, message: str, exit_code: int):
        super().__init__(message)
        self.exit_code = exit_code


def parse_fold_spec(spec: str, n_rows: int) -> list[int]:
    """Parse a fold list like ``10`` / ``2,5,10`` / ``10:400:10`` (inclusive)."""
    folds: list[int] = []
    for token in spec.split(","):
        token = token.strip()
        try:
            if ":" in token:
                start, stop, step = (int(part) for part in token.split(":"))
                if step <= 0 or start > stop:  # an empty range selects no fold
                    raise ValueError
                # check the ends first, so a huge range fails before it is built
                for k in (start, stop):
                    _check_fold_count(k, n_rows)
                folds.extend(range(start, stop + 1, step))
            else:
                folds.append(int(token))
        except ValueError:
            raise CliError(f"bad fold spec {token!r}", EXIT_BAD_PARAMS) from None
    for k in folds:
        _check_fold_count(k, n_rows)
    return folds


def _check_fold_count(k: int, n_rows: int) -> None:
    if not 2 <= k <= n_rows:
        raise CliError(f"fold count {k} out of range [2, {n_rows}]", EXIT_BAD_PARAMS)


def parse_algorithms(spec: str) -> list[str]:
    names = [token.strip() for token in spec.split(",") if token.strip()]
    if not names:
        raise CliError("no algorithms selected", EXIT_BAD_PARAMS)
    for name in names:
        if name not in ALGORITHMS:
            raise CliError(
                f"unknown algorithm {name!r}; choose from {sorted(ALGORITHMS)}",
                EXIT_BAD_PARAMS,
            )
    return names


def resolve_seed(seed: int) -> int:
    env = os.environ.get("TREELAB_SEED")
    if env is None:
        return seed
    try:
        return int(env)
    except ValueError:
        raise CliError(f"TREELAB_SEED must be an integer, got {env!r}", EXIT_BAD_PARAMS) from None


def _write_outputs(outputs) -> None:
    """Write each ``(path, write)`` to a file beside ``path``, then replace the paths.

    ``write(handle)`` fills one text file.  The paths are replaced only after
    every file is written, so a failed run leaves existing outputs as they were
    and no temporary file behind.
    """
    temps = []
    try:
        for out, write in outputs:
            temps.append(out.with_name(f"{out.name}.{os.getpid()}.tmp"))
            with open(temps[-1], "w", newline="") as handle:
                write(handle)
        for out, _ in outputs:
            if out.is_dir():  # would fail its rename, after earlier paths were replaced
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
        for (out, _), temp in zip(outputs, temps):
            os.replace(temp, out)
    except BaseException as exc:
        for temp in temps:
            temp.unlink(missing_ok=True)
        if isinstance(exc, OSError):
            message = f"cannot write {out}: {exc.strerror or exc}"
            raise CliError(message, EXIT_OUTPUT_ERROR) from exc
        raise


def _check_out(out: Path) -> None:
    """Refuse, before the run, an output path that names a directory or lies in a missing one.

    :func:`_write_outputs` checks again when it writes, since the file system
    can change during the run.
    """
    try:
        if not out.name or out.is_dir():  # "." or "/" name no file beside them
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
        os.stat(out.parent)
    except OSError as exc:
        raise CliError(f"cannot write {out}: {exc.strerror}", EXIT_OUTPUT_ERROR) from exc


def _csv(rows):
    """A ``write`` of :func:`_write_outputs` for one CSV table, header row first."""
    return lambda handle: csv.writer(handle, lineterminator="\n").writerows(rows)


def plot_path(out: Path) -> Path:
    return out.with_name(out.stem + "_plot" + (out.suffix or ".csv"))


def cmd_benchmark(args) -> int:
    data = load_csv(args.dataset, has_header=not args.no_header)
    algorithms = parse_algorithms(args.algorithms)
    ks = parse_fold_spec(args.folds, data.n_rows)
    params = SplitParams(min_count=args.min_count, max_depth=args.max_depth)
    if args.jobs < 1:
        raise CliError(f"--jobs must be at least 1, got {args.jobs}", EXIT_BAD_PARAMS)
    seed = resolve_seed(args.seed)

    report_rows = [REPORT_COLUMNS]
    plot_rows = [PLOT_COLUMNS]
    for k in ks:
        for name in algorithms:
            result = run_cv(data, name, k, args.bootstraps, params, seed, jobs=args.jobs)
            cpu = result.metrics.cpu_seconds if args.timing == "cpu" else 0.0
            report_rows.append([
                data.name, result.metrics.algorithm, k, args.bootstraps,
                params.min_count, params.max_depth, seed,
                repr(cpu), result.metrics.nodes_explored,
                result.metrics.peak_stack_words, result.metrics.model_words,
                repr(result.accuracy),
            ])
            plot_rows.append([
                data.name, result.metrics.algorithm, k, repr(cpu),
                result.metrics.nodes_explored,
                repr(float(np.mean(result.fold_peaks))),
                max(result.fold_peaks),
            ])
    out = Path(args.out)
    _write_outputs([(out, _csv(report_rows)), (plot_path(out), _csv(plot_rows))])
    return 0


def _load_fit(args):
    """The training set, and the ``--algorithm`` fit with its arguments, of predict and trace."""
    train = load_csv(args.train, has_header=not args.no_header)
    test_matrix = load_prediction_rows(train, args.test, has_header=not args.no_header)
    if test_matrix.shape[0] == 0:
        raise CliError(f"{args.test}: no usable test rows", EXIT_DATASET_ERROR)
    params = SplitParams(min_count=args.min_count, max_depth=args.max_depth)
    seed = resolve_seed(args.seed)
    _, fit = ALGORITHMS[args.algorithm]
    return train, fit, (train, np.arange(train.n_rows), test_matrix, args.bootstraps, params, seed)


def cmd_predict(args) -> int:
    train, fit, fit_args = _load_fit(args)
    matrix, _ = fit(*fit_args)
    header = [f"prob_{name}" for name in train.class_names] + ["prediction"]
    # csv writes a float as its repr
    labels = [train.class_names[c] for c in matrix.argmax(axis=1).tolist()]
    rows = [header] + [[*probs, label] for probs, label in zip(matrix.tolist(), labels)]
    _write_outputs([(Path(args.out), _csv(rows))])
    return 0


def cmd_trace(args) -> int:
    _, fit, fit_args = _load_fit(args)

    def write_trace(handle) -> None:
        def write_line(event) -> None:
            handle.write(format_trace_line(event) + "\n")

        handle.write(TRACE_HEADER + "\n")
        fit(*fit_args, on_visit=write_line,
            event_limit=None if args.force else TRACE_LINE_LIMIT)

    try:
        _write_outputs([(Path(args.out), write_trace)])
    except TraceLimitExceeded as exc:
        raise CliError(f"trace exceeds {TRACE_LINE_LIMIT} lines; pass --force to write it anyway",
                       EXIT_TRACE_GUARDRAIL) from exc
    return 0


def _add_common_params(parser, *, bootstraps_default: int) -> None:
    parser.add_argument("--bootstraps", type=int, default=bootstraps_default,
                        help=f"bootstrap count b (default {bootstraps_default})")
    parser.add_argument("--min-count", type=int, default=SplitParams.min_count,
                        help="minimum rows to expand a node (default %(default)s)")
    parser.add_argument("--max-depth", type=int, default=SplitParams.max_depth,
                        help="maximum exploration depth (default %(default)s)")
    parser.add_argument("--seed", type=int, default=0,
                        help="base seed (TREELAB_SEED overrides)")
    parser.add_argument("--no-header", action="store_true",
                        help="input CSVs carry no header row")
    parser.add_argument("--out", required=True, help="output file path")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="treelab",
                                     description="Bagged decision tree benchmark harness")
    sub = parser.add_subparsers(dest="command", required=True)

    bench = sub.add_parser("benchmark", help="k-fold cross-validation benchmark")
    bench.add_argument("--dataset", required=True, help="training CSV path")
    bench.add_argument("--algorithms", default="dt,lazy,batched",
                       help="comma list from {dt,lazy,batched}")
    bench.add_argument("--folds", required=True,
                       help="fold counts: '10', '2,5,10', or '10:400:10'")
    bench.add_argument("--jobs", type=int, default=1,
                       help="parallel fold workers, at least 1 (default 1)")
    bench.add_argument("--timing", choices=("cpu", "off"), default="cpu",
                       help="'off' writes 0.0 CPU seconds for reproducible reports")
    _add_common_params(bench, bootstraps_default=100)
    bench.set_defaults(func=cmd_benchmark)

    predict = sub.add_parser("predict", help="write class probabilities for a test CSV")
    predict.add_argument("--train", required=True)
    predict.add_argument("--test", required=True)
    predict.add_argument("--algorithm", choices=sorted(ALGORITHMS), default="dt")
    _add_common_params(predict, bootstraps_default=100)
    predict.set_defaults(func=cmd_predict)

    trace = sub.add_parser("trace", help="dump the node-visit sequence of one run")
    trace.add_argument("--train", required=True)
    trace.add_argument("--test", required=True)
    trace.add_argument("--algorithm", choices=sorted(ALGORITHMS), default="batched")
    trace.add_argument("--force", action="store_true",
                       help="write the trace even past the line guardrail")
    _add_common_params(trace, bootstraps_default=1)
    trace.set_defaults(func=cmd_trace)
    return parser


def _keep_freed_heap() -> None:
    """Keep freed heap memory in this process, where libc has ``mallopt``."""
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None:
        mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
        mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD_MAX)
        mallopt(M_TRIM_THRESHOLD, -1)  # -1: never trim


def main(argv=None) -> int:
    _keep_freed_heap()
    args = build_parser().parse_args(argv)
    try:
        out = Path(args.out)
        _check_out(out)
        if args.command == "benchmark":
            _check_out(plot_path(out))
        return args.func(args)
    except CliError as exc:
        print(f"treelab: {exc}", file=sys.stderr)
        return exc.exit_code
    except SchemaMismatchError as exc:
        print(f"treelab: {exc}", file=sys.stderr)
        return EXIT_SCHEMA_MISMATCH
    except DatasetError as exc:
        print(f"treelab: {exc}", file=sys.stderr)
        return EXIT_DATASET_ERROR
    except ValueError as exc:
        print(f"treelab: {exc}", file=sys.stderr)
        return EXIT_BAD_PARAMS
    except OSError as exc:
        print(f"treelab: {exc}", file=sys.stderr)
        return EXIT_OUTPUT_ERROR
    except MemoryError as exc:
        print(f"treelab: out of memory: {str(exc) or 'allocation failed'}", file=sys.stderr)
        return EXIT_OUT_OF_MEMORY


if __name__ == "__main__":
    sys.exit(main())
