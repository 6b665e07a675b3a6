"""The vocabulary a replication task is reported in.

One task is one ``{rule}:{key}:{seq}:{kind}`` lifecycle — lock, plan,
transfer, finalize, unlock — identified by :func:`task_id` everywhere
(lock owner, pool record, trace row) and summarised to whoever built
the engine as a :class:`TaskResult` through a :class:`TaskRecorder`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Protocol

from repro.core.planner import Plan

__all__ = ["task_id", "TaskResult", "TaskRecorder", "NullRecorder"]


def task_id(rule_id: str, key: str, seq: int, kind: str) -> str:
    """The id of one replication task.  Deterministic per object
    version: a platform-retried orchestrator re-enters its own lock and
    resumes its own pool instead of deadlocking against its crashed
    predecessor."""
    return f"{rule_id}:{key}:{seq}:{kind}"


@dataclass(frozen=True, slots=True)
class TaskResult:
    """Summary of one completed replication task."""

    key: str
    etag: str
    seq: int
    event_time: float
    visible_time: float
    plan: Optional[Plan]
    kind: str = "created"          # "created" | "deleted" | "changelog"
    #: When the orchestrator began executing the plan (i.e. after the
    #: notification and planning) — the reference point the performance
    #: model's T_rep prediction is measured from.
    started: float = 0.0

    @property
    def delay(self) -> float:
        return self.visible_time - self.event_time


class TaskRecorder(Protocol):
    """Callbacks the engine uses to report task outcomes."""

    def record_visible(self, result: TaskResult) -> None: ...

    def record_abort(self, key: str, etag: str) -> None: ...


class NullRecorder:
    def record_visible(self, result: TaskResult) -> None:  # pragma: no cover
        pass

    def record_abort(self, key: str, etag: str) -> None:  # pragma: no cover
        pass
