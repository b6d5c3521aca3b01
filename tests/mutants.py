"""Mutants that the tests must kill: small bugs in proof-carrying code.

Run from anywhere, off the tier-1 suite (pytest does not collect this file)::

    python tests/mutants.py          # every mutant
    python tests/mutants.py NAME...  # the named ones

Each entry names a file under ``src/``, the exact texts to replace in it
(each found exactly once) and the tests that must then fail.  The script
copies ``src/``, ``tests/`` and ``pyproject.toml`` into a temporary
directory per mutant, applies the edits there, runs those tests with pytest
and prints ``killed`` (some test failed) or ``survived`` (every test
passed); any other pytest outcome, such as a test id that names no test,
prints ``error``.  It exits 1 unless every mutant is killed, and 2 on a
name that is no mutant's.  A change that adds a proof-carrying path adds
its mutants here.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SPLITCORE = "src/treelab/splitcore.py"
SEARCH = "tests/test_splitcore.py::TestBestCondition::"
PRUNED = "tests/test_splitcore.py::TestPrunedSearch::"
COUNTED = "tests/test_splitcore.py::TestCountedSearch::"
# Searches whose equal best gains fall in two scoring passes.
RULE_TESTS = (
    "tests/test_splitcore.py::TestTwoClassSearch::test_matches_recount_and_per_attribute_search",
    PRUNED + "test_mixed_blocks_match_per_attribute_search",
    PRUNED + "test_numeric_copy_of_a_binary_column_ties_it",
    COUNTED + "test_categorical_and_numeric_copy_tie",
)
# Pruned searches whose best cut a too-high floor drops.
FLOOR_TESTS = (
    SEARCH + "test_matches_bruteforce_across_attribute_blocks",
    PRUNED + "test_matches_per_attribute_search",
    PRUNED + "test_mixed_blocks_match_per_attribute_search",
    PRUNED + "test_numeric_cut_just_above_an_earlier_categorical_wins",
)


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # relative to the repository root
    edits: tuple[tuple[str, str], ...]  # (exact text, replacement)
    tests: tuple[str, ...]  # pytest node ids, relative to the repository root


# Searches that the per-level count of categorical attributes scores.
COUNT_TESTS = (
    COUNTED + "test_matches_per_attribute_search",
    "tests/test_splitcore.py::TestSearchesFromWalks::test_counted_searches_match_per_attribute_search",
)

# The four scoring passes of best_condition and the batch search's offer to
# each node, each offering its first maximum.
PER_CUT = "best = max(best, (float(gains[pick]), -int(flat[pick]), int(flat[pick + 1])))"
PER_GROUP = "best = max(best, (float(gains[pick]), -low, high))"
KEPT = "best = max(best, (float(gains[pick]), -int(low[pick]), int(high[pick])))"
COUNTED_LEVEL = "return max(best, (float(gains[pick]), -code, code))"
BATCH = "best[i] = max(best[i], (gain, -code, next_code))"
OFFERS = (PER_CUT, PER_GROUP, KEPT, COUNTED_LEVEL, BATCH)

# Batch searches checked against per-node searches and the oracle.
BATCH_TESTS = (
    "tests/test_splitcore.py::TestBatchSearch::test_matches_per_node_search",
    "tests/test_splitcore.py::TestSearchesFromWalks::test_every_search_matches_per_attribute_search",
)


def _offer(line: str, rule: str) -> tuple[str, str]:
    """An edit of one offer: ``rule`` formats the best and the candidate into the new call."""
    head, call = line.split("max(", 1)
    best, candidate = call[:-1].split(", ", 1)
    return line, head + rule.format(best=best, candidate=candidate)


MUTANTS = (
    Mutant(
        "rule prefers the higher code", SPLITCORE,
        (("_NO_SPLIT = (0.0, 1, 0)", "_NO_SPLIT = (0.0, np.inf, 0)"),
         (PER_CUT, PER_CUT.replace("-int(flat[pick])", "int(flat[pick])")),
         (PER_GROUP, PER_GROUP.replace("-low", "low")),
         (KEPT, KEPT.replace("-int(low[pick])", "int(low[pick])")),
         (COUNTED_LEVEL, COUNTED_LEVEL.replace("-code", "code")),
         (BATCH, BATCH.replace("-code", "code")),
         ("low, high = -best[1], best[2]", "low, high = best[1], best[2]")),
        RULE_TESTS,
    ),
    Mutant(
        "equal gains go to the later pass", SPLITCORE,
        # The least positive double as the start, so that gains of 0.0 still lose.
        (("_NO_SPLIT = (0.0, 1, 0)", "_NO_SPLIT = (5e-324, 1, 0)"),
         *(_offer(line, "max({candidate}, {best}, key=lambda c: c[0])") for line in OFFERS)),
        RULE_TESTS,
    ),
    Mutant(
        "equal-gain clause dropped", SPLITCORE,
        tuple(_offer(line, "max({best}, {candidate}, key=lambda c: c[0])") for line in OFFERS),
        RULE_TESTS,
    ),
    Mutant(
        "chunk start and end swapped in the bounds", SPLITCORE,
        (("bounds = rest - f_valid[:, :-1]", "bounds = rest - f_valid[:, 1:]"),
         ("reached = np.subtract(rest, f_valid[:, 1:], out=rest)",
          "reached = np.subtract(rest, f_valid[:, :-1], out=rest)")),
        (PRUNED + "test_matches_per_attribute_search",
         PRUNED + "test_bounds_cover_every_cut_of_their_chunk",
         PRUNED + "test_mirrored_tie_breaks_to_lowest_threshold"),
    ),
    Mutant(
        "keep test above the floor", SPLITCORE,
        (("bounds >= self.floor - PRUNE_MARGIN", "bounds >= self.floor + 1e-3"),),
        FLOOR_TESTS,
    ),
    Mutant(
        "running floor raised", SPLITCORE,
        (("self.floor = max(self.floor, best[0], reached)",
          "self.floor = max(self.floor, best[0], reached) + 1e-3"),),
        FLOOR_TESTS,
    ),
    Mutant(
        "best so far raised in the floor", SPLITCORE,
        (("self.floor = max(self.floor, best[0], reached)",
          "self.floor = max(self.floor, best[0] + 1e-3, reached)"),),
        FLOOR_TESTS,
    ),
    Mutant(
        "block-end code read unclipped", SPLITCORE,
        (('int(flat.take(group_end[pick], mode="clip"))', "int(flat[group_end[pick]])"),),
        (SEARCH + "test_constant_attributes_give_none",),
    ),
    Mutant(
        "level shift off by one", SPLITCORE,
        (("shift = first_codes - ends + level_counts",
          "shift = first_codes - ends + level_counts - 1"),),
        COUNT_TESTS,
    ),
    Mutant(
        "count index drops the label", SPLITCORE,
        (("index += labels * k", "index += 0"),),
        COUNT_TESTS,
    ),
    Mutant(
        "levels counted past the node's rows", SPLITCORE,
        (("wide = spans[2] > n", "wide = spans[2] < 0"),),
        (SEARCH + "test_mixed_search_scratch_is_bounded",),
    ),
    Mutant(
        "partition reads attribute 0's codes", SPLITCORE,
        (("codes = data.codes[cond.attribute, rows]", "codes = data.codes[0, rows]"),),
        ("tests/test_splitcore.py::TestPartition", SEARCH + "test_sides_non_empty",
         "tests/test_eager.py::TestBuildTree::test_matches_independent_recursion_replay"),
    ),
    Mutant(
        "class sum pairs its partial sums differently", SPLITCORE,
        (("((acc[0] + acc[1]) + (acc[2] + acc[3]))", "((acc[0] + acc[2]) + (acc[1] + acc[3]))"),),
        ("tests/test_splitcore.py::TestClassSum",),
    ),
    Mutant(
        "batch tie takes the highest low code", SPLITCORE,
        (("pick = tied[np.searchsorted(node[tied], np.arange(count))]",
          'pick = tied[np.searchsorted(node[tied], np.arange(count), side="right") - 1]'),),
        ("tests/test_splitcore.py::TestBatchSearch::test_ties_break_to_the_first_attribute",
         *BATCH_TESTS),
    ),
    Mutant(
        "batch lower-class count runs on across rows", SPLITCORE,
        (("valid0 = running[group_end - 1] - running[first] + lower0[first]",
          "valid0 = running[group_end - 1]"),),
        BATCH_TESTS,
    ),
    Mutant(
        "batch class counts run on across rows", SPLITCORE,
        (("before = column[first] - 1", "before = column[first] * 0"),),
        BATCH_TESTS,
    ),
    Mutant(
        "batch keys leave out the node", SPLITCORE,
        (("keys = (keys + (node_of_row << (code_bits + bits))).ravel()",
          "keys = (keys + 0 * node_of_row).ravel()"),),
        BATCH_TESTS,
    ),
    Mutant(
        "walk passes events on in level order", "src/treelab/eager_tree.py",
        (("events.sort(key=lambda event: event.path)",
          "events.sort(key=lambda event: len(event.path))"),),
        ("tests/test_batched.py::TestOrderAndOutput::test_depth_first_invalid_before_valid",
         "tests/test_cli.py::test_trace_golden_lines",
         "tests/test_cli.py::TestTrace::test_batched_depths_trace_the_recursion_preorder"),
    ),
    Mutant(
        "walk passes the valid side on first", "src/treelab/eager_tree.py",
        (("events.sort(key=lambda event: event.path)",
          "events.sort(key=lambda event: [1 - side for side in event.path])"),),
        ("tests/test_batched.py::TestOrderAndOutput::test_depth_first_invalid_before_valid",
         "tests/test_cli.py::test_trace_golden_lines",
         "tests/test_eager.py::TestBuildTree::test_matches_independent_recursion_replay"),
    ),
    Mutant(
        "walk batches a many-class table", "src/treelab/eager_tree.py",
        (("batch = data.class_count <= SEGMENT_CLASSES", "batch = True"),),
        ("tests/test_eager.py::TestFitPredictEager::test_many_class_walk_peaks_at_its_largest_search",),
    ),
    Mutant(
        "walk holds each node's histogram for its depth", "src/treelab/eager_tree.py",
        (("hist = class_histogram(data, node_rows)",
          "hist = class_histogram(data, node_rows)\n            conds.append(hist)"),),
        ("tests/test_eager.py::TestFitPredictEager::test_many_class_walk_peaks_at_its_largest_search",
         "tests/test_eager.py::TestFitPredictEager::test_fit_holds_no_tree"),
    ),
    Mutant(
        "walk leaves a child's rows where they were", "src/treelab/eager_tree.py",
        (("                rows[first:middle] = invalid_rows\n", ""),),
        ("tests/test_eager.py::TestBuildTree::test_matches_independent_recursion_replay",),
    ),
    Mutant(
        "walk runs past the event limit", "src/treelab/eager_tree.py",
        (("stopped = bool(level) and event_limit is not None", "stopped = False and event_limit is not None"),),
        ("tests/test_eager.py::TestFitPredictEager::test_event_limit_stops_the_walk",
         "tests/test_cli.py::TestTrace::test_guardrail_crossed_inside_a_tree"),
    ),
    Mutant(
        "seed-mixing constant changed", "src/treelab/rng.py",
        (("_GAMMA = 0x9E3779B97F4A7C15", "_GAMMA = 0x9E3779B97F4A7C17"),),
        ("tests/test_rng.py", "tests/test_dataset.py::TestBootstrap"),
    ),
)


def apply(mutant: Mutant, root: Path) -> None:
    """Make ``mutant``'s edits to its file under ``root``."""
    path = root / mutant.path
    text = path.read_text()
    for old, new in mutant.edits:
        if text.count(old) != 1:
            raise ValueError(f"{mutant.name}: {old!r} occurs {text.count(old)} times in {mutant.path}")
        text = text.replace(old, new)
    path.write_text(text)


def run(mutant: Mutant) -> tuple[str, str]:
    """``(outcome, pytest's summary line)`` of the mutant's tests on a mutated copy."""
    with tempfile.TemporaryDirectory(prefix="treelab-mutant-") as tmp:
        copy = Path(tmp)
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, copy / name,
                            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        shutil.copy(ROOT / "pyproject.toml", copy)
        apply(mutant, copy)
        env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
        result = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *mutant.tests],
            cwd=copy, env=env, capture_output=True, text=True)
    lines = result.stdout.strip().splitlines() or [result.stderr.strip()]
    summary = lines[-1].strip("= ")
    outcome = {0: "survived", 1: "killed"}.get(result.returncode, "error")
    return outcome, summary


def main(argv: list[str]) -> int:
    chosen = [mutant for mutant in MUTANTS if not argv or mutant.name in argv]
    unknown = set(argv) - {mutant.name for mutant in MUTANTS}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}", file=sys.stderr)
        return 2
    start = time.perf_counter()
    outcomes = []
    for mutant in chosen:
        outcome, summary = run(mutant)
        outcomes.append(outcome)
        print(f"{outcome:8s} {mutant.name}: {re.sub(r' in [0-9.]+s.*', '', summary)}", flush=True)
    killed = outcomes.count("killed")
    print(f"{killed} of {len(outcomes)} mutants killed in {time.perf_counter() - start:.0f} s")
    return 0 if killed == len(outcomes) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
