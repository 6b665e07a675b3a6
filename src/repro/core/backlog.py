"""The parked-task backlog: outage-aware degradation's waiting room.

A task whose every route is dark when it arrives is *parked* instead of
burning platform retries against a dead substrate.  The in-memory deque
is the operational queue; each entry is also mirrored (best-effort)
into the rule's durable lock table under ``backlog:`` so an operator
can reconstruct it after a process loss — the anti-entropy scanner
backstops the rest.  Health transitions drive it: a half-open breaker
gets one probe copy of the oldest entry, a closed breaker (or a lifted
cordon) starts a batched FIFO drain.  A control-plane checkpoint makes
the queue survive an engine rebuild (core/lifecycle.py).
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from repro.core.health import BreakerState
from repro.core.task import PARK_KEYS, ROUTE_KEYS
from repro.simcloud.kvstore import Throttled

__all__ = ["ParkedBacklog"]

#: KV key the control-plane checkpoint lives under (in the rule's lock
#: table, beside the locks/done markers it describes).
_CHECKPOINT_KEY = "lifecycle:checkpoint"

#: Trace attribute names, one tuple per record schema.
_CHECKPOINT_KEYS = ("rule", "backlog")
_RESTORE_KEYS = ("rule", "restored", "remirrored")


def _mirror_key(backlog_id: int) -> str:
    return f"backlog:{backlog_id:08d}"


class ParkedBacklog:
    """One engine's parked tasks and everything that moves them.

    Routing, dispatch names, stats, tracer and the catch-up concurrency
    are the engine's and are read through ``self.engine`` at use time:
    a rebuilt engine (rolling restart) adopts the backlog by pointing
    that attribute at itself.
    """

    def __init__(self, engine):
        self.engine = engine
        #: Tasks whose every route was dark when they arrived, FIFO.
        #: Most rules never park one: until the first, the queue and the
        #: drained-id set below are shared empty immutables, not a deque
        #: and a set (0.8 KB) per engine.
        self._entries: deque[tuple[int, dict]] | tuple = ()
        #: Next backlog id — a plain integer (not itertools.count) so a
        #: checkpoint can record it and resume the id space.
        self._next_id = 1
        #: Backlog ids already re-dispatched; a post-restart restore
        #: must not resurrect an entry whose drain raced the teardown
        #: (the trace oracle counts a double drain as a leak).
        self._drained_ids: set[int] | frozenset = frozenset()
        #: High-water mark of the queue (evacuation/outage progress
        #: observability — surfaced by service.summary()).
        self.peak = 0
        #: Simulated time the queue last fully drained (None until the
        #: first drain) — the outage drill's recovery-time statistic.
        self.drained_at: Optional[float] = None
        self._draining = False

    def __len__(self) -> int:
        return len(self._entries)

    def surrender(self) -> None:
        """Drop the in-memory queue: the durable ``backlog:`` mirror
        plus the checkpoint are the hand-off to a replacement engine."""
        self._entries = ()

    # -- park -----------------------------------------------------------------

    def park(self, payload: dict) -> None:
        """Queue a task no route can serve; drained on recovery."""
        engine = self.engine
        engine.stats["parked"] += 1
        backlog_id = self._next_id
        self._next_id += 1
        if engine.tracer is not None:
            engine.tracer.event("park", "engine", payload.get("task"),
                                PARK_KEYS, engine.rule_id, backlog_id,
                                payload.get("key"))
        if not self._entries:
            self._entries = deque()
        self._entries.append((backlog_id, payload))
        self.peak = max(self.peak, len(self._entries))
        self._mirror(lambda: engine._lock_table.put_item(
            _mirror_key(backlog_id), self._mirror_item(payload)))

    def _mirror_item(self, payload: dict) -> dict:
        return {"payload": dict(payload), "at": self.engine.cloud.sim.now}

    def _mirror(self, make_op) -> None:
        """Best-effort write to the durable mirror of one parked task,
        issued from its own process (``make_op`` runs there, not here).

        The write itself races the outage that caused the park (the
        lock table may be the dark substrate) — failures are counted,
        not retried: the in-memory queue keeps operating and the
        anti-entropy scanner is the backstop for a lost process.
        """
        def write():
            try:
                yield make_op()
            except Throttled:
                self.engine.stats["backlog_kv_failed"] += 1

        self.engine.cloud.sim.spawn(write())

    # -- probe and drain, driven by health transitions ------------------------

    def on_health_transition(self, state: str) -> None:
        if state == BreakerState.HALF_OPEN:
            self._probe()
        elif state in (BreakerState.CLOSED, BreakerState.UNCORDONED):
            # A lifted cordon re-opens admission just like a closed
            # breaker: work parked while the region was dark drains.
            self._maybe_drain()

    def _probe(self) -> None:
        """Half-open probe: re-dispatch a *copy* of the oldest parked
        task through the normal route.  The entry stays queued — a
        failed probe must not lose it, and a successful duplicate is
        absorbed by the done marker — so the probe's only side effect
        is the traffic the breaker needs for its verdict."""
        engine = self.engine
        if not self._entries or self._draining:
            return
        route = engine._route()
        if route is None:
            return
        engine.stats["probes"] += 1
        if route != engine.src_bucket.region.key:
            engine.stats["failover"] += 1
        backlog_id, payload = self._entries[0]
        if engine.tracer is not None:
            engine.tracer.event("probe", "engine", payload.get("task"),
                                ROUTE_KEYS, engine.rule_id, backlog_id,
                                route)
        engine.cloud.faas(route).invoke_and_forget(engine._orch_name,
                                                 dict(payload))

    def _maybe_drain(self) -> None:
        if (self._draining or not self._entries
                or self.engine._route() is None):
            return
        self._draining = True
        self.engine.cloud.sim.spawn(self._drain())

    def _drain(self):
        """Process: re-dispatch parked tasks FIFO after recovery.

        Batches of ``outage_catchup_concurrency`` run to completion
        before the next batch starts — the cap that keeps the catch-up
        burst from re-browning-out a freshly recovered region.  If the
        route goes dark again mid-drain, the remainder stays parked for
        the next recovery.
        """
        cap = self.engine.config.outage_catchup_concurrency
        if not self._drained_ids:
            self._drained_ids = set()
        try:
            while self._entries:
                engine = self.engine
                route = engine._route()
                if route is None:
                    return
                batch = [self._entries.popleft()
                         for _ in range(min(cap, len(self._entries)))]
                faas = engine.cloud.faas(route)
                if route != engine.src_bucket.region.key:
                    engine.stats["failover"] += len(batch)
                invocations = [
                    faas.invoke_and_forget(engine._orch_name, payload)
                    for _bid, payload in batch]
                for backlog_id, payload in batch:
                    engine.stats["drained"] += 1
                    self._drained_ids.add(backlog_id)
                    if engine.tracer is not None:
                        engine.tracer.event("drain", "engine",
                                            payload.get("task"),
                                            ROUTE_KEYS, engine.rule_id,
                                            backlog_id, route)
                    self._mirror(
                        lambda bid=backlog_id: engine._lock_table.delete_item(
                            _mirror_key(bid)))
                # Await sequentially with individual guards: a single
                # dead-lettered invocation (fails its Future) must not
                # abandon the rest of the drain — the DLQ redrive owns
                # that task now.
                for invocation in invocations:
                    try:
                        yield invocation
                    except Exception:
                        pass
            self.drained_at = self.engine.cloud.sim.now
        finally:
            self._draining = False
        # Tasks parked while the last batch ran (route flapped) get a
        # fresh drain only on the next close transition; kick once more
        # in case the flap already resolved.
        if self._entries:
            self._maybe_drain()

    # -- control-plane checkpoint / restore (core/lifecycle.py) ---------------

    def checkpoint(self):
        """Process: persist restartable control-plane state to KV.

        The record carries the backlog id high-water mark, the parked
        entries themselves (the KV API has no scan, so the checkpoint
        must be self-contained), and the drained-id set.  Locks, done
        markers, part pools, and the ``backlog:`` mirror are *already*
        durable in the same table — the checkpoint only captures what
        lived purely in process memory.
        """
        engine = self.engine
        record = {
            "at": engine.cloud.sim.now,
            "rule": engine.rule_id,
            "backlog_next": self._next_id,
            "backlog": [[bid, dict(payload)]
                        for bid, payload in self._entries],
            "drained_ids": sorted(self._drained_ids),
        }
        yield engine._lock_table.put_item(_CHECKPOINT_KEY, record)
        engine.stats["checkpoints"] += 1
        if engine.tracer is not None:
            engine.tracer.event("checkpoint", "lifecycle", None,
                                _CHECKPOINT_KEYS, engine.rule_id,
                                len(record["backlog"]))
        return record

    def restore(self):
        """Process: rebuild the in-memory queue from KV.

        Reads the checkpoint, drops entries that were drained between
        checkpoint and teardown, re-verifies each entry's durable
        ``backlog:`` mirror (re-writing any the original best-effort
        mirror lost — the cold-object re-mirror), and merges the
        survivors into the live queue.  The queue is replaced only at
        the end so a mid-restore fault retried by the caller stays
        idempotent.
        """
        table = self.engine._lock_table
        record = yield table.get_item(_CHECKPOINT_KEY)
        if record is None:
            return {"restored": 0, "remirrored": 0}
        self._next_id = max(self._next_id, record.get("backlog_next", 1))
        drained = set(record.get("drained_ids", [])) | self._drained_ids
        restored: list[tuple[int, dict]] = []
        remirrored = 0
        present = {bid for bid, _payload in self._entries}
        for bid, payload in record.get("backlog", []):
            if bid in drained or bid in present:
                continue
            mirror = yield table.get_item(_mirror_key(bid))
            if mirror is None:
                # The original best-effort mirror write failed (it
                # raced the outage that parked the task); restore is
                # the second chance to make the entry durable.
                yield table.put_item(_mirror_key(bid),
                                     self._mirror_item(payload))
                remirrored += 1
            restored.append((bid, dict(payload)))
        if restored:
            self._entries = deque(sorted([*self._entries, *restored]))
            self.peak = max(self.peak, len(self._entries))
        self._drained_ids = drained | self._drained_ids
        engine = self.engine
        if engine.tracer is not None:
            engine.tracer.event("restore", "lifecycle", None,
                                _RESTORE_KEYS, engine.rule_id, len(restored),
                                remirrored)
        self._maybe_drain()
        return {"restored": len(restored), "remirrored": remirrored}
