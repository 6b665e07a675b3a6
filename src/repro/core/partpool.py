"""Decentralized part-granularity scheduling (§5.1, Algorithm 1).

A replication task's data parts live in a shared pool backed by a
serverless cloud database.  Replicator functions autonomously claim
parts as they become available, so fast instances naturally process
more parts than slow ones and the per-instance finish times even out
(Fig 12/17).  The protocol costs exactly **two database accesses per
part**: one atomic counter increment to claim the part, and one to
record its completion; the replicator that records the final
completion learns it is the finisher and concludes the task.

This module alone knows a task's pool-side records and their leases:
``pool:{task}`` (the pool, with the task descriptor the orchestrator
persisted), the leased single-holder roles ``finalize:{task}`` and
``janitor:{task}``, and a recoverer's ``reclaim:{task}:{part}``.  Each
write is one ``update_item`` closure.  They live in the state table of
the region the task's workers run in: :func:`create` writes the plan's,
every other request reads the calling function's own region's.

The module also provides the *fair dispatch* ablation (Fig 17's
baseline): a static, equal pre-assignment of parts computed at
invocation time with no shared state.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.core.locks import claim, expired
from repro.core.task import COMPLETE_KEYS
from repro.simcloud.kvstore import KvTable

__all__ = ["PartPool", "PartCompletion", "PartState", "FairAssignment",
           "pool_for", "create", "orphan", "claim_finalize", "claim_janitor",
           "finalize_held", "RECOVERY_GRACE_S", "FINALIZE_LEASE_S",
           "RECLAIM_LEASE_S"]

#: Trace attribute names, one tuple per record schema.
_PART_KEYS = ("idx",)

#: How long a worker that drained the pool waits before treating
#: still-incomplete parts as orphaned (crashed owner) and recovering
#: them.  In-flight parts recovered early are merely duplicated work;
#: the done-set makes duplicate completions harmless.
RECOVERY_GRACE_S = 10.0
#: A finalizer that crashed mid-finalization loses its claim after this
#: long; a recovering worker then takes over.
FINALIZE_LEASE_S = 60.0
#: How long a recoverer's claim on one orphaned part stays exclusive.
RECLAIM_LEASE_S = 60.0


def _table(engine, ctx) -> KvTable:
    """The state table a function running in ``ctx``'s region reads."""
    return engine._state_table(ctx.region.key)


def pool_for(engine, ctx, task_id: str, num_parts: int) -> "PartPool":
    """The task's part pool, as a worker in ``ctx``'s region sees it."""
    return PartPool(_table(engine, ctx), task_id, num_parts)


def create(engine, plan, task: dict):
    """Process: :meth:`PartPool.create` with ``task`` as the persisted
    descriptor, in the table of the region the workers run in (the
    plan's)."""
    return _create(engine._state_table(plan.loc_key), task["task_id"],
                   task["num_parts"], task)


def _create(table: KvTable, task_id: str, num_parts: int, task):
    key = f"pool:{task_id}"
    record = {"num_parts": num_parts, "claimed": 0, "completed": 0,
              "aborted": False}
    if task is not None:
        record["task"] = dict(task)

    def put(item):
        return (item, False) if item is not None else (record, True)

    if (yield table.update_item(key, put)):
        return None
    return dict((yield table.get_item(key)).get("task", {}))


def _next_part(item):
    """The claim counter's closure: one more claimed part index."""
    item = item or {}
    item["claimed"] = item.get("claimed", 0) + 1
    return item, item["claimed"]


def orphan(engine, ctx, task_id: str):
    """Process: the pool a crashed predecessor left for ``task_id``, in
    ``ctx``'s region, as ``(pool, upload_id)``; None when there is none
    or it is already aborted."""
    record = yield _table(engine, ctx).get_item(f"pool:{task_id}")
    if record is None or record.get("aborted"):
        return None
    return (pool_for(engine, ctx, task_id, record["num_parts"]),
            record.get("task", {}).get("upload_id"))


def claim_finalize(engine, ctx, task_id: str, owner: str):
    """Process: claim ``task_id``'s finalizer role; True for the
    finalizer.  Re-entrant, so a platform-retried finalizer resumes its
    own role; a crashed one is superseded after ``FINALIZE_LEASE_S``."""
    return claim(_table(engine, ctx), f"finalize:{task_id}", owner,
                 FINALIZE_LEASE_S, reentrant=True)


def claim_janitor(engine, ctx, task_id: str, owner: str):
    """Process: claim ``task_id``'s janitor role, held by the one drained
    worker that stays to recover orphaned parts; True for the janitor.
    Re-entrant, and leased for the grace, its polls and a finalize."""
    return claim(_table(engine, ctx), f"janitor:{task_id}", owner,
                 RECOVERY_GRACE_S * 3 + FINALIZE_LEASE_S, reentrant=True)


def finalize_held(engine, ctx, task_id: str, owner: str):
    """Process: None when nobody ever claimed ``task_id``'s finalize
    role; True while a *different* finalizer's lease is live; False when
    the claim is ``owner``'s own (the claim is re-entrant: a retried
    finalizer resumes its crashed finalize, where standing down would
    strand the task) or its lease expired."""
    fin = yield _table(engine, ctx).get_item(f"finalize:{task_id}")
    if fin is None:
        return None
    return (fin.get("owner") != owner
            and not expired(fin["at"], FINALIZE_LEASE_S, ctx.now))


class PartCompletion(NamedTuple):
    """Outcome of one :meth:`PartPool.complete_part` call."""

    #: True for the writer whose completion entered the done map —
    #: the first-writer-wins signal a hedged race settles on.
    first: bool
    #: True for the exactly-one caller that observed the transition to
    #: fully-complete (that caller finalizes the task).
    finished: bool


class PartState(NamedTuple):
    """Snapshot of one part for a clone's stand-down check."""

    exists: bool
    aborted: bool
    done: bool


class PartPool:
    """Shared pool of part indices for one replication task."""

    def __init__(self, table: KvTable, task_id: str, num_parts: int):
        if num_parts < 1:
            raise ValueError("a task needs at least one part")
        self.table = table
        self.task_id = task_id
        self.num_parts = num_parts
        self._key = f"pool:{task_id}"

    def create(self, task=None):
        """Process: create the pool record unless one exists (one
        conditional write); None for the creator.

        Otherwise answers with the persisted task descriptor (``{}``
        when the record holds none), read in a second request: a
        crash-retried orchestrator must resume its predecessor's task,
        whose workers are still uploading against its upload id.
        """
        return (yield from _create(self.table, self.task_id, self.num_parts,
                                   task))

    def claim(self):
        """Process: atomically claim the next part index.

        Returns the zero-based part index, or None when the pool is
        exhausted (the replicator should then stop or enter recovery).
        """
        claimed = yield self.table.update_item(self._key, _next_part)
        if claimed > self.num_parts:
            return None
        if self.table.tracer is not None:
            self.table.tracer.event("part-claim", "pool", self.task_id,
                                    _PART_KEYS, claimed - 1)
        return claimed - 1

    def complete(self, part_index: int):
        """Process: record ``part_index`` done; True for the finisher.

        Completion is recorded in a per-task done map, so duplicated
        work — a recovered part whose original owner was merely slow,
        or a platform-retried function redoing its parts — counts once.
        Exactly one call observes the transition to fully-complete.
        """
        outcome = yield from self.complete_part(part_index)
        return outcome.finished

    def complete_part(self, part_index: int):
        """Process: like :meth:`complete`, but returns the full
        :class:`PartCompletion` — ``first`` tells a hedged contender
        whether *its* bytes entered the done map (first-writer-wins)
        or a rival already completed the part.  Same single KV update.
        """
        def mark(item):
            # One bytearray per record, flipped in place: KV reads are
            # shallow copies, so an in-flight read sees completions
            # admitted before its delivery (docs/operations.md, finding 8).
            done = item.get("done_map")
            if done is None:
                done = item["done_map"] = bytearray(self.num_parts)
            if done[part_index]:
                item["duplicates"] = item.get("duplicates", 0) + 1
                return item, PartCompletion(False, False)
            done[part_index] = 1
            item["completed"] += 1
            return item, PartCompletion(True,
                                        item["completed"] == self.num_parts)

        outcome = yield self.table.update_item(self._key, mark)
        if self.table.tracer is not None:
            self.table.tracer.event("part-complete", "pool", self.task_id,
                                    COMPLETE_KEYS, part_index,
                                    outcome.first, outcome.finished)
        return outcome

    def mark_quarantined(self, part_index: int):
        """Process: record that ``part_index`` was poison-quarantined;
        True only for the first marker of this part.

        The part stays *missing* — a later redrive (after the fault
        clears) re-claims and completes it — but the durable record
        lets operators and the corruption drill see which parts burned
        their retransfer budget, and janitor workers deprioritize them.
        The first-marker return makes quarantine accounting idempotent
        per (task, part): when a hedged clone and its original both
        burn the budget on the same poisoned range, exactly one caller
        counts it (and emits the trace event).
        """
        def mark(item):
            item = item or {}
            quarantined = item.setdefault("quarantined_parts", [])
            if part_index in quarantined:
                return item, False
            quarantined.append(part_index)
            return item, True

        first = yield self.table.update_item(self._key, mark)
        if first and self.table.tracer is not None:
            self.table.tracer.event("part-quarantine", "pool", self.task_id,
                                    _PART_KEYS, part_index)
        return first

    def quarantined_parts(self):
        """Process: part indices recorded as poison-quarantined."""
        item = yield self.table.get_item(self._key)
        return sorted(item.get("quarantined_parts", [])) if item else []

    def missing_parts(self):
        """Process: part indices not yet recorded as done (recovery).
        O(missing): ``find`` skips straight to the next zero byte."""
        item = yield self.table.get_item(self._key)
        done = (item and item.get("done_map")) or bytes(self.num_parts)
        missing = []
        i = done.find(0)
        while i >= 0:
            missing.append(i)
            i = done.find(0, i + 1)
        return missing

    def try_reclaim(self, part_index: int, owner: str,
                    lease_s: float = RECLAIM_LEASE_S):
        """Process: atomically take over an orphaned part.

        A crashed replicator's claimed-but-never-completed part is
        recovered by whichever surviving replicator wins this leased
        conditional write; a recoverer that crashed mid-part is itself
        superseded once its lease expires.  Not re-entrant
        (:func:`~repro.core.locks.claim` says why).
        """
        return (yield from claim(
            self.table, f"reclaim:{self.task_id}:{part_index}", owner,
            lease_s, reentrant=False))

    def part_state(self, part_index: int):
        """Process: one-read (exists, aborted, done) snapshot of a part.

        The hedge clone's stand-down check: a clone invoked for a part
        that has since completed (or a task that aborted, or a pool
        record already cleaned up) must do nothing — one GET instead of
        the two reads ``is_aborted`` + ``missing_parts`` would cost.
        """
        item = yield self.table.get_item(self._key)
        if item is None:
            return PartState(exists=False, aborted=False, done=False)
        done = item.get("done_map")
        return PartState(exists=True,
                         aborted=bool(item.get("aborted")),
                         done=done is not None and done[part_index] == 1)

    def abort(self):
        """Process: mark the task aborted (optimistic-validation failure).

        Returns True for the replicator that flipped the flag — that
        one replicator performs the cleanup/re-trigger, the rest simply
        stop (avoids a thundering herd of retries).
        """
        def flip(item):
            item = item or {}
            item["abort_claims"] = item.get("abort_claims", 0) + 1
            item["aborted"] = True
            return item, item["abort_claims"] == 1

        first = yield self.table.update_item(self._key, flip)
        if first and self.table.tracer is not None:
            self.table.tracer.event("pool-abort", "pool", self.task_id)
        return first

    def is_aborted(self):
        """Process: read the abort flag."""
        item = yield self.table.get_item(self._key)
        return bool(item and item.get("aborted"))

    def peek_progress(self) -> dict:
        """Zero-cost snapshot for tests/metrics."""
        return self.table.peek(self._key) or {}


class FairAssignment:
    """Static equal dispatch — the ablation baseline of Fig 17.

    Part indices are split into contiguous equal ranges at invocation
    time; each replicator receives its fixed range and no coordination
    happens afterwards.  A slow instance therefore drags the task's
    completion time to its own finish time.
    """

    def __init__(self, num_parts: int, num_functions: int):
        if num_functions < 1:
            raise ValueError("need at least one function")
        self.num_parts = num_parts
        self.num_functions = num_functions

    def parts_for(self, worker_index: int) -> list[int]:
        """The fixed part indices assigned to ``worker_index``."""
        if not 0 <= worker_index < self.num_functions:
            raise IndexError(worker_index)
        base, extra = divmod(self.num_parts, self.num_functions)
        start = worker_index * base + min(worker_index, extra)
        count = base + (1 if worker_index < extra else 0)
        return list(range(start, start + count))

    def all_assignments(self) -> list[list[int]]:
        return [self.parts_for(i) for i in range(self.num_functions)]
