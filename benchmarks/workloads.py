"""Seeded input tables and the ``treelab`` commands each workload runs.

Every table is a pure function of the workload seed.  Class balance and
per-attribute class separation are fixed, and only the draws come from the
seed, so every seed gives a table of the same difficulty and the work per
run varies little from seed to seed.  The CSVs are written before any timing
starts; the program sees nothing but these files.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

# paper-cv: same shape and class balance as the 569x30 WDBC table
# (212 malignant, 357 benign); per-attribute class separation is small
# ("hard"), so trees grow deep and lazy paths are long.
CV_ROWS = (212, 357)
CV_ATTRIBUTES = 30
CV_SEPARATION = 0.35
CV_FOLDS = 10
CV_BOOTSTRAPS = 1

# big-predict: three numeric classes, large nodes at the top of every tree.
BIG_TRAIN_ROWS = 20_000
BIG_TEST_ROWS = 2_000
BIG_ATTRIBUTES = 20
BIG_CLASSES = 3
BIG_SEPARATION = 0.5
BIG_BOOTSTRAPS = 1
BIG_LAZY_ROWS = 4  # lazy spot-check: the first rows of the test file

# categorical-trace: eight classes, mostly categorical columns.
CAT_TRAIN_ROWS = 3_000
CAT_TEST_ROWS = 90
CAT_CLASSES = 8
CAT_LEVELS = (4, 5, 6, 7, 8, 9, 10, 12, 14, 16)
CAT_NUMERIC = 2
CAT_SIGNAL = 0.3  # chance that a cell holds its class's preferred level
CAT_BOOTSTRAPS = 1
CAT_MIN_COUNT = 1  # grow to purity, so every tree and trace is large

ALGORITHMS = ("dt", "lazy", "batched")


@dataclass(frozen=True)
class Command:
    """One ``treelab`` invocation of a workload iteration."""

    name: str
    argv: tuple[str, ...]
    outputs: tuple[str, ...]  # files the command writes, relative to the work dir


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    generate: Callable[[int, Path], None]  # (seed, work dir): writes the input CSVs
    commands: tuple[Command, ...]
    # cross-algorithm checks on the files the commands last wrote:
    # (work dir) -> [(command name, message), ...]
    check: Callable[[Path], list[tuple[str, str]]]
    # the order in which an untraced run cycles through the commands
    schedule: tuple[Command, ...]


def _write_csv(path: Path, header: list[str], rows: list[list[str]]) -> None:
    lines = [",".join(header)] + [",".join(row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


def _numeric_rows(values: np.ndarray, labels=None, class_names=None) -> list[list[str]]:
    rows = [[f"{v:.6f}" for v in row] for row in values.tolist()]
    if labels is not None:
        for row, label in zip(rows, labels.tolist()):
            row.append(class_names[label])
    return rows


def _shuffled_labels(rng, counts) -> np.ndarray:
    labels = np.repeat(np.arange(len(counts)), counts)
    rng.shuffle(labels)
    return labels


def _gaussian(rng, labels, centers) -> np.ndarray:
    return centers[labels] + rng.normal(0.0, 1.0, size=(labels.size, centers.shape[1]))


def generate_paper_cv(seed: int, work: Path) -> None:
    rng = np.random.default_rng([seed, 1])
    labels = _shuffled_labels(rng, CV_ROWS)
    signs = rng.choice([-0.5, 0.5], size=CV_ATTRIBUTES)
    centers = np.stack([-signs, signs]) * CV_SEPARATION
    values = _gaussian(rng, labels, centers)
    header = [f"f{j}" for j in range(CV_ATTRIBUTES)] + ["diagnosis"]
    _write_csv(work / "cv.csv", header, _numeric_rows(values, labels, ("M", "B")))


def generate_big_predict(seed: int, work: Path) -> None:
    rng = np.random.default_rng([seed, 2])
    n = BIG_TRAIN_ROWS + BIG_TEST_ROWS
    counts = [n // BIG_CLASSES + (c < n % BIG_CLASSES) for c in range(BIG_CLASSES)]
    labels = _shuffled_labels(rng, counts)
    # every attribute puts the three class means at -s, 0, +s in a seeded order
    centers = np.stack([
        rng.permutation([-BIG_SEPARATION, 0.0, BIG_SEPARATION]) for _ in range(BIG_ATTRIBUTES)
    ], axis=1)
    values = _gaussian(rng, labels, centers)
    names = [f"x{j}" for j in range(BIG_ATTRIBUTES)]
    classes = tuple(f"k{c}" for c in range(BIG_CLASSES))
    train = slice(0, BIG_TRAIN_ROWS)
    _write_csv(work / "big_train.csv", names + ["label"],
               _numeric_rows(values[train], labels[train], classes))
    test_rows = _numeric_rows(values[BIG_TRAIN_ROWS:])
    _write_csv(work / "big_test.csv", names, test_rows)
    _write_csv(work / "big_test_lazy.csv", names, test_rows[:BIG_LAZY_ROWS])


def generate_categorical_trace(seed: int, work: Path) -> None:
    rng = np.random.default_rng([seed, 3])
    n = CAT_TRAIN_ROWS + CAT_TEST_ROWS
    counts = [n // CAT_CLASSES + (c < n % CAT_CLASSES) for c in range(CAT_CLASSES)]
    labels = _shuffled_labels(rng, counts)
    columns = []
    for levels in CAT_LEVELS:
        preferred = rng.integers(0, levels, size=CAT_CLASSES)
        noise = rng.integers(0, levels, size=n)
        codes = np.where(rng.random(n) < CAT_SIGNAL, preferred[labels], noise)
        columns.append([f"v{code}" for code in codes.tolist()])
    centers = rng.choice([-0.5, 0.5], size=(CAT_CLASSES, CAT_NUMERIC))
    numeric = _gaussian(rng, labels, centers)
    for j in range(CAT_NUMERIC):
        columns.append([f"{v:.4f}" for v in numeric[:, j].tolist()])
    rows = [list(cells) for cells in zip(*columns)]
    names = [f"c{j}" for j in range(len(CAT_LEVELS))] + [f"n{j}" for j in range(CAT_NUMERIC)]
    for row, label in zip(rows, labels.tolist()):
        row.append(f"class{label}")
    _write_csv(work / "cat_train.csv", names + ["label"], rows[:CAT_TRAIN_ROWS])
    _write_csv(work / "cat_test.csv", names + ["label"], rows[CAT_TRAIN_ROWS:])


def check_paper_cv(work: Path) -> list[tuple[str, str]]:
    """The three reports must hold one row each, with the same accuracy bytes."""
    failures = []
    accuracies = {}
    for alg in ALGORITHMS:
        with open(work / f"report_{alg}.csv", newline="") as handle:
            rows = list(csv.DictReader(handle))
        if len(rows) != 1:
            failures.append((f"cv-{alg}", f"report holds {len(rows)} rows, not 1"))
        accuracies[alg] = [row["accuracy"] for row in rows]
    for alg in ALGORITHMS[1:]:
        if accuracies[alg] != accuracies[ALGORITHMS[0]]:
            failures.append((f"cv-{alg}", f"accuracy {accuracies[alg]} differs from"
                                          f" {ALGORITHMS[0]}'s {accuracies[ALGORITHMS[0]]}"))
    return failures


def check_big_predict(work: Path) -> list[tuple[str, str]]:
    """Every prediction file must match the dt file row for row."""
    reference = (work / "pred_dt.csv").read_text().splitlines()
    failures = []
    for alg, rows in (("batched", BIG_TEST_ROWS), ("lazy", BIG_LAZY_ROWS)):
        lines = (work / f"pred_{alg}.csv").read_text().splitlines()
        if lines != reference[:rows + 1]:
            failures.append((f"predict-{alg}", "prediction file differs from dt's"))
    return failures


def check_categorical_trace(work: Path) -> list[tuple[str, str]]:
    """Traces differ by algorithm by design; predictions are compared by digest."""
    return []


def _common(seed: int, bootstraps: int, min_count: int = 5) -> tuple[str, ...]:
    return ("--bootstraps", str(bootstraps), "--min-count", str(min_count), "--max-depth", "20",
            "--seed", str(seed))


def workloads(seed: int) -> dict[str, Workload]:
    """The workloads, with their commands bound to ``seed``."""
    cv = {
        alg: Command(
            name=f"cv-{alg}",
            argv=("benchmark", "--dataset", "cv.csv", "--folds", str(CV_FOLDS),
                  "--algorithms", alg, "--jobs", "1", "--timing", "off",
                  *_common(seed, CV_BOOTSTRAPS), "--out", f"report_{alg}.csv"),
            outputs=(f"report_{alg}.csv", f"report_{alg}_plot.csv"),
        )
        for alg in ALGORITHMS
    }
    big = tuple(
        Command(
            name=f"predict-{alg}",
            argv=("predict", "--train", "big_train.csv", "--test", test,
                  "--algorithm", alg, *_common(seed, BIG_BOOTSTRAPS), "--out", out),
            outputs=(out,),
        )
        for alg, test, out in (
            ("dt", "big_test.csv", "pred_dt.csv"),
            ("batched", "big_test.csv", "pred_batched.csv"),
            ("lazy", "big_test_lazy.csv", "pred_lazy.csv"),
        )
    )
    cat = tuple(
        Command(
            name=f"trace-{alg}",
            argv=("trace", "--train", "cat_train.csv", "--test", "cat_test.csv",
                  "--algorithm", alg, "--force", *_common(seed, CAT_BOOTSTRAPS, CAT_MIN_COUNT),
                  "--out", f"trace_{alg}.txt"),
            outputs=(f"trace_{alg}.txt",),
        )
        for alg in ALGORITHMS
    )
    return {
        "paper-cv": Workload(
            name="paper-cv",
            why="paper protocol: 10-fold CV of dt, lazy and batched on a hard 569x30"
                " stand-in; small nodes, lazy paths, fold plan and CV merge at scale",
            generate=generate_paper_cv,
            commands=tuple(cv.values()),
            check=check_paper_cv,
            # a lazy CV takes about ten times as long as a dt or batched one:
            # dt and batched run twice per lazy run, so that their runs fall
            # before, between and after the lazy runs
            schedule=(*(cv["dt"], cv["batched"]) * 2, cv["lazy"]),
        ),
        "big-predict": Workload(
            name="big-predict",
            why="predict on 20000x20 numeric rows, 2000 routed: CSV parse, large-node"
                " split search, partition and routing; CV bypassed, lazy spot-checked",
            generate=generate_big_predict,
            commands=big,
            check=check_big_predict,
            schedule=big,
        ),
        "categorical-trace": Workload(
            name="categorical-trace",
            why="trace --force of every algorithm on an 8-class, mostly categorical"
                " table: the categorical split path and the whole-trace buffer",
            generate=generate_categorical_trace,
            commands=cat,
            check=check_categorical_trace,
            schedule=cat,
        ),
    }
