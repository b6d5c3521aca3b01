"""Run one ``treelab`` CLI command with spans around the package's functions.

Usage::

    python3 spans.py STATS_JSON {light|trace} -- <treelab arguments>

This script rebinds public functions of the ``treelab`` modules to timing
wrappers, runs ``treelab.cli.main`` on the given arguments, and writes what
it saw to ``STATS_JSON``.  ``light`` wraps only the load, CV and fit entry
points, which are called a few times per command; ``trace`` wraps every
layer the benchmark reports.  Nothing under ``src/`` changes: each wrapped
name is rebound in every ``treelab`` module that imported it, so recursive
``build_tree`` calls and the ``ALGORITHMS`` table go through the wrappers.
Spans stay in memory while the command runs and are written next to the
stats file, as ``STATS_JSON.spans.jsonl``, when it ends.
"""

import time

START = time.perf_counter()  # setup_s counts from here, before treelab is imported

import hashlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from collections import defaultdict  # noqa: E402

DIGEST_CHARS = 16  # of a sha256 hex digest; enough to tell outputs apart
BANDS = ((8, "le8"), (64, "le64"), (512, "le512"))
SELF_TOLERANCE_S = 1e-9  # rounding of a duration minus its children's durations
# spans whose note is a row count, and the name of the count they add to
ROW_NOTES = {
    "splitcore.partition": "rows",
    "dataset.bootstrap": "rows_drawn",
    "dataset.load_csv": "rows",
}
FIT_ALGORITHMS = {
    "eager_tree.fit_predict_eager": "dt",
    "lazy_paths.fit_predict_lazy": "lazy",
    "batched_lazy.fit_predict_batched": "batched",
}


def band(rows: int) -> str:
    for limit, name in BANDS:
        if rows <= limit:
            return name
    return "gt512"


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _note_fit(args, kwargs, result):
    matrix, metrics = result
    b = _arg(args, kwargs, 3, "b")
    return {
        "votes": matrix.shape[0] * b,
        "digest": hashlib.sha256(matrix.tobytes()).hexdigest()[:DIGEST_CHARS],
        "nodes_explored": metrics.nodes_explored,
        "peak_stack_words": metrics.peak_stack_words,
        "model_words": metrics.model_words,
    }


def _note_run_cv(args, kwargs, result):
    data = _arg(args, kwargs, 0, "data")
    return {"algorithm": _arg(args, kwargs, 1, "algorithm"),
            "votes": data.n_rows * _arg(args, kwargs, 3, "b")}


def _note_run_fold(args, kwargs, result):
    return _arg(args, kwargs, 3, "algorithm")


def _note_best_condition(args, kwargs, result):
    return (len(_arg(args, kwargs, 1, "rows")), result is None)


def _note_partition(args, kwargs, result):
    return len(_arg(args, kwargs, 2, "rows"))


def _note_bootstrap(args, kwargs, result):
    return len(_arg(args, kwargs, 0, "train_indices"))


def _note_load_csv(args, kwargs, result):
    return result.n_rows


LIGHT = (
    ("dataset", "load_csv", _note_load_csv),
    ("dataset", "load_prediction_rows", None),
    ("bench", "run_cv", _note_run_cv),
    ("eager_tree", "fit_predict_eager", _note_fit),
    ("lazy_paths", "fit_predict_lazy", _note_fit),
    ("batched_lazy", "fit_predict_batched", _note_fit),
)
TRACE = LIGHT + (
    ("dataset", "make_folds", None),
    ("dataset", "bootstrap", _note_bootstrap),
    ("splitcore", "best_condition", _note_best_condition),
    ("splitcore", "partition", _note_partition),
    ("splitcore", "class_histogram", None),
    ("eager_tree", "build_tree", None),
    ("eager_tree", "predict_row", None),
    ("metrics", "model_word_count", None),
    ("bench", "run_fold", _note_run_fold),
    ("trace", "format_trace_line", None),
    ("cli", "cmd_benchmark", None),
    ("cli", "cmd_predict", None),
    ("cli", "cmd_trace", None),
)


class Tracer:
    """Nested spans of the wrapped calls: (name, start, end, id, parent id, note)."""

    def __init__(self):
        self.spans = []
        self._stack = [-1]
        self._ids = itertools.count()

    def wrap(self, name, fn, note):
        spans, stack, ids, clock = self.spans, self._stack, self._ids, time.perf_counter

        def wrapper(*args, **kwargs):
            span_id = next(ids)
            parent = stack[-1]
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
            spans.append((name, start, end, span_id, parent,
                          None if note is None else note(args, kwargs, result)))
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper


def _rebind(modules, original, wrapper) -> None:
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)
            elif isinstance(value, dict):
                for key, entry in list(value.items()):
                    if isinstance(entry, tuple) and any(item is original for item in entry):
                        value[key] = tuple(wrapper if item is original else item
                                           for item in entry)


def _stale_references(modules, originals) -> list[str]:
    stale = []
    for module in modules:
        for attr, value in vars(module).items():
            entries = [value]
            if isinstance(value, dict):
                entries = [item for entry in value.values() if isinstance(entry, tuple)
                           for item in entry]
            if any(any(item is original for original in originals) for item in entries):
                stale.append(f"{module.__name__}.{attr}")
    return stale


def install(tracer: Tracer, targets) -> None:
    """Rebind every target in every ``treelab`` module; fail if one is missed."""
    import treelab
    import treelab.cli  # noqa: F401  (not imported by the package itself)

    modules = [module for name, module in sorted(sys.modules.items())
               if name == "treelab" or name.startswith("treelab.")]
    originals = []
    for module_name, func_name, note in targets:
        original = getattr(getattr(treelab, module_name), func_name)
        originals.append(original)
        _rebind(modules, original, tracer.wrap(f"{module_name}.{func_name}", original, note))
    stale = _stale_references(modules, originals)
    if stale:
        raise SystemExit(f"spans.py: unwrapped references left: {stale}")


def algorithm_stats(spans) -> dict:
    """Seconds, votes, counters and prediction digest per algorithm."""
    per_alg = defaultdict(lambda: {"seconds": 0.0, "votes": 0, "nodes_explored": 0,
                                   "peak_stack_words": 0, "model_words": 0, "digests": []})
    # under ``treelab benchmark`` an algorithm's time is that of its run_cv call
    cv_algorithms = {note["algorithm"] for name, *_, note in spans if name == "bench.run_cv"}
    for name, start, end, _, _, note in spans:
        if name == "bench.run_cv":
            entry = per_alg[note["algorithm"]]
            entry["seconds"] += end - start
            entry["votes"] += note["votes"]
        alg = FIT_ALGORITHMS.get(name)
        if alg is None:
            continue
        entry = per_alg[alg]
        if alg not in cv_algorithms:
            entry["seconds"] += end - start
            entry["votes"] += note["votes"]
        entry["nodes_explored"] += note["nodes_explored"]
        entry["peak_stack_words"] = max(entry["peak_stack_words"], note["peak_stack_words"])
        entry["model_words"] += note["model_words"]
        entry["digests"].append(note["digest"])
    for entry in per_alg.values():
        joined = "".join(entry.pop("digests")).encode()
        entry["digest"] = hashlib.sha256(joined).hexdigest()[:DIGEST_CHARS]
    return dict(per_alg)


def layer_stats(spans) -> dict:
    """Additive per-layer totals: seconds, self seconds, calls, rows.

    ``tracing.bad_spans`` counts spans that do not nest: a parent id that
    names no span, a span that starts before or ends after its parent, or a
    negative self time (a child counted twice or under the wrong parent).
    """
    children = defaultdict(float)
    for _, start, end, _, parent, _ in spans:
        children[parent] += end - start
    bounds = {span_id: (start, end) for _, start, end, span_id, _, _ in spans}
    out = defaultdict(float)
    fold_s = defaultdict(list)
    for name, start, end, span_id, parent, note in spans:
        duration = end - start
        self_s = duration - children[span_id]
        outer = (start, end) if parent == -1 else bounds.get(parent)
        if outer is None or start < outer[0] or end > outer[1] or self_s < -SELF_TOLERANCE_S:
            out["tracing.bad_spans"] += 1
        out[f"{name}.s"] += duration
        out[f"{name}.self_s"] += self_s
        out[f"{name}.calls"] += 1
        out["tracing.self_s_sum"] += self_s
        if name == "splitcore.best_condition":
            rows, none = note
            size = band(rows)
            out[f"{name}.s.{size}"] += duration
            out[f"{name}.calls.{size}"] += 1
            out[f"{name}.rows.{size}"] += rows
            out[f"{name}.none"] += none
        elif name in ROW_NOTES:
            out[f"{name}.{ROW_NOTES[name]}"] += note
        elif name == "bench.run_fold":
            fold_s[note].append(duration)
    result = dict(out)
    result["bench.run_fold.fold_s"] = dict(fold_s)
    return result


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[1] not in ("light", "trace") or argv[2] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    stats_path, mode, cli_args = argv[0], argv[1], argv[3:]
    tracer = Tracer()
    install(tracer, TRACE if mode == "trace" else LIGHT)
    import treelab.cli

    code = treelab.cli.main(cli_args)
    spans = tracer.spans
    loads = [end for name, _, end, _, _, _ in spans if name.startswith("dataset.load_")]
    stats = {
        "setup_s": max(loads) - START if loads else None,
        "algorithms": algorithm_stats(spans),
    }
    if mode == "trace":
        stats["layers"] = layer_stats(spans)
        with open(stats_path + ".spans.jsonl", "w") as handle:
            for name, start, end, span_id, parent, _ in spans:
                handle.write(json.dumps([name, start - START, end - START, span_id, parent]))
                handle.write("\n")
    with open(stats_path, "w") as handle:
        json.dump(stats, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
