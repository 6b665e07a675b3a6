"""SLO-bounded batching (§5.4, Algorithm 4).

When the SLO is loose relative to an object's replication time, AReplica
delays replication toward the deadline so that multiple updates of a hot
object aggregate into one transfer.  Each arriving version computes its
latest safe trigger instant, ``deadline − T_rep(obj) − ε``, and parks on
a durable workflow timer.  When a timer fires for a version that is
still pending (not superseded by an earlier flush), the **newest**
version of the object is replicated; versions that find themselves (or
a newer version) already flushed simply quit.  Cost therefore scales
with the SLO, not with the update frequency (Fig 22).
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.core.config import ReplicaConfig
from repro.simcloud.objectstore import Bucket, ObjectEvent
from repro.simcloud.sim import Simulator
from repro.simcloud.workflow import WorkflowTimers

__all__ = ["BatchingBuffer"]


class BatchingBuffer:
    """Algorithm 4 over durable workflow timers."""

    def __init__(
        self,
        sim: Simulator,
        timers: WorkflowTimers,
        config: ReplicaConfig,
        src_bucket: Bucket,
        estimate_s: Callable[[int], float],
        flush: Callable[[ObjectEvent], None],
    ):
        """``estimate_s(size)`` is the planner's percentile replication-
        time estimate; ``flush(event)`` hands an event to the engine."""
        self.sim = sim
        self.timers = timers
        self.config = config
        self.src_bucket = src_bucket
        self.estimate_s = estimate_s
        self.flush = flush
        self._pending: dict[str, set[str]] = {}
        self.stats = {"immediate": 0, "delayed": 0, "superseded": 0, "flushes": 0}

    def on_event(self, event: ObjectEvent) -> None:
        """Admit one created/deleted notification (Algorithm 4's BATCH)."""
        if event.kind == "deleted":
            # Deletes are not aggregated; propagate on schedule like any
            # other version so ordering with pending PUTs is preserved.
            self._flush_latest(event)
            return
        deadline = event.event_time + self.config.slo_seconds
        trigger = deadline - self.estimate_s(event.size) - self.config.batching_epsilon
        if trigger <= self.sim.now:
            self.stats["immediate"] += 1
            self._flush_latest(event)
            return
        self.stats["delayed"] += 1
        self._pending.setdefault(event.key, set()).add(event.etag)
        self.timers.schedule_at(trigger, lambda: self._on_deadline(event))

    def _on_deadline(self, event: ObjectEvent) -> None:
        pending = self._pending.get(event.key, set())
        if event.etag not in pending:
            # A flush triggered by an older sibling already covered this
            # version (it replicated the newest object at that time, or
            # a newer event will) — nothing to do.
            self.stats["superseded"] += 1
            return
        self._flush_latest(event)

    def _flush_latest(self, event: ObjectEvent) -> None:
        """Replicate the newest state of the object right now."""
        self._pending.pop(event.key, None)
        self.stats["flushes"] += 1
        self.flush(event)

    def pending_count(self, key: Optional[str] = None) -> int:
        if key is not None:
            return len(self._pending.get(key, ()))
        return sum(len(v) for v in self._pending.values())
