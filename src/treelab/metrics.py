"""Cost instrumentation: explored nodes, memory words, CPU time.

Word model: storing one observation index costs one word; storing one tree
node costs four words (attribute, condition parameter, and the two child
addresses).  Stack accounting charges every live node of a tree walk for the
observation indices it holds and tracks the high-water mark in
``peak_stack_words``.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field

WORDS_PER_NODE = 4


class AccountingError(RuntimeError):
    """Frame releases exceeded the charged total, or a run was merged early."""


@dataclass
class RunMetrics:
    """Counters for one algorithm run (possibly spanning many bootstraps)."""

    algorithm: str
    nodes_explored: int = 0
    peak_stack_words: int = 0
    model_words: int = 0
    cpu_seconds: float = 0.0
    live_stack_words: int = field(default=0, compare=False)

    def charge_frame(self, train_count: int) -> None:
        if train_count < 0:
            raise ValueError("frame count must be non-negative")
        self.live_stack_words += train_count
        if self.live_stack_words > self.peak_stack_words:
            self.peak_stack_words = self.live_stack_words

    def release_frame(self, train_count: int) -> None:
        if train_count < 0:
            raise ValueError("frame count must be non-negative")
        self.live_stack_words -= train_count
        if self.live_stack_words < 0:
            raise AccountingError("released more stack words than were charged")

    def merge(self, other: "RunMetrics") -> "RunMetrics":
        """Combine two finished runs of the same algorithm.

        Node counts, model words and CPU time add up; the stack peak is the
        maximum of the two peaks.
        """
        if self.algorithm != other.algorithm:
            raise ValueError(
                f"cannot merge metrics of {self.algorithm!r} with {other.algorithm!r}"
            )
        if self.live_stack_words or other.live_stack_words:
            raise AccountingError("cannot merge metrics of unfinished runs")
        return RunMetrics(
            algorithm=self.algorithm,
            nodes_explored=self.nodes_explored + other.nodes_explored,
            peak_stack_words=max(self.peak_stack_words, other.peak_stack_words),
            model_words=self.model_words + other.model_words,
            cpu_seconds=self.cpu_seconds + other.cpu_seconds,
        )


def count_nodes(root) -> int:
    """Nodes of one tree, leaves included."""
    count = 0
    stack = [root]
    while stack:
        node = stack.pop()
        count += 1
        if not node.is_leaf:
            stack += (node.invalid_child, node.valid_child)
    return count


def model_word_count(trees) -> int:
    """Words needed to store a bagged model: four per node over all its trees."""
    return WORDS_PER_NODE * sum(count_nodes(root) for root in trees)


@dataclass
class CpuClock:
    seconds: float = 0.0


@contextmanager
def cpu_timer():
    """Measure the user+kernel CPU seconds of the enclosed block.

    Backed by ``time.process_time`` (user plus system time of the current
    process), which the interpreter provides on every supported platform;
    time spent sleeping does not count.
    """
    clock = CpuClock()
    start = time.process_time()
    try:
        yield clock
    finally:
        clock.seconds = time.process_time() - start
