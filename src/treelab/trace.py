"""Visit-trace events emitted by the tree algorithms.

Each algorithm can report every node visit to an ``on_visit`` callback.  A
node is identified by its branch path from the root: a tuple of 0 (invalid
side) and 1 (valid side), so traces from different algorithms over the same
bootstrap are directly comparable.  An event carries the node's split
:class:`~treelab.splitcore.Condition`, or ``None`` at a leaf; its depth is
derived from the path.  A fit given an ``event_limit`` raises
:class:`TraceLimitExceeded` once its events pass it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .splitcore import Condition

TRACE_HEADER = "# depth\tpath\ttrain\ttest\trow\taction"


class TraceLimitExceeded(Exception):
    """A fit's events passed the ``event_limit`` its caller gave."""


@dataclass(frozen=True)
class TraceEvent:
    bootstrap: int
    path: tuple[int, ...]
    train_count: int
    test_count: int | None
    condition: Condition | None
    label: int | None
    test_row: int | None

    @property
    def depth(self) -> int:
        return len(self.path)


def path_string(path: tuple[int, ...]) -> str:
    if not path:
        return "-"
    return "".join("iv"[branch] for branch in path)


def format_trace_line(event: TraceEvent) -> str:
    cond = event.condition
    if cond is None:
        action = f"leaf {event.label}"
    else:
        action = f"split {cond.attribute} {cond.op} {cond.value!r}"
    test = "-" if event.test_count is None else str(event.test_count)
    row = "-" if event.test_row is None else str(event.test_row)
    return (
        f"{event.depth}\t{path_string(event.path)}\t{event.train_count}"
        f"\t{test}\t{row}\t{action}"
    )
