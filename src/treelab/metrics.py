"""Cost instrumentation: explored nodes, memory words, CPU time.

Word model: storing one observation index costs one word; storing one tree
node costs four words (attribute, condition parameter, and the two child
addresses).  A node of a tree walk holds the observation indices of its own
subset while its subtree is walked, so the stack words at a node are the sum
of subset sizes along its root-to-node path; ``peak_stack_words`` is the
largest such sum.  The walk computes it from its own frames
(:func:`treelab.eager_tree.walk`); :class:`RunMetrics` only stores counters.
Every node the eager walk explores becomes a node of one of its trees, so
the eager fit's ``model_words`` is ``model_word_count(nodes_explored)``,
four words per explored node.  Every fit's ``cpu_seconds`` is the
``time.process_time`` (user plus system CPU of this process, sleep excluded)
of its bootstrap loop.
"""

from __future__ import annotations

from dataclasses import dataclass

WORDS_PER_NODE = 4


@dataclass
class RunMetrics:
    """Counters for one algorithm run (possibly spanning many bootstraps)."""

    algorithm: str
    nodes_explored: int = 0
    peak_stack_words: int = 0
    model_words: int = 0
    cpu_seconds: float = 0.0

    def merge(self, other: "RunMetrics") -> "RunMetrics":
        """Combine two runs of the same algorithm.

        Node counts, model words and CPU time add up; the stack peak is the
        maximum of the two peaks.
        """
        if self.algorithm != other.algorithm:
            raise ValueError(
                f"cannot merge metrics of {self.algorithm!r} with {other.algorithm!r}"
            )
        return RunMetrics(
            algorithm=self.algorithm,
            nodes_explored=self.nodes_explored + other.nodes_explored,
            peak_stack_words=max(self.peak_stack_words, other.peak_stack_words),
            model_words=self.model_words + other.model_words,
            cpu_seconds=self.cpu_seconds + other.cpu_seconds,
        )


def model_word_count(nodes: int) -> int:
    """Words needed to store a bagged model of ``nodes`` tree nodes in all."""
    return WORDS_PER_NODE * nodes
