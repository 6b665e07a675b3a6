"""Object-granularity replication lock (§5.2, Algorithm 2).

Object storage has no deterministic behaviour for concurrent writes to
the same key, so AReplica serializes replication tasks per object with
a distributed lock in a cloud database (the DynamoDB lock-client
pattern).  While a task holds the lock, later versions of the object
register themselves as *pending* on the lock record (keeping only the
newest, by sequencer).  On release, the unlocker compares the pending
ETag with the ETag it just replicated; a mismatch re-triggers
replication so the newest version is never lost — this is what makes
eventual consistency hold without bucket versioning.

Leases alone are not enough for safety: a holder whose lease expired
(a *zombie* — stalled, not dead) may still be mid-upload when the next
claimant takes over, and without further protection it would finalize
its stale version at the destination *after* the new holder wrote a
newer one.  Each lock record therefore carries a monotonically
increasing **fencing token**, bumped on every change of ownership; a
holder re-validates its token (:meth:`verify`) before any destination
finalize, and :meth:`release` reports whether the caller still owned
the lock so the engine can surface the loss instead of silently
no-oping.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.task import ACQUIRE_KEYS, REFUSED_KEYS, RELEASE_KEYS
from repro.simcloud.kvstore import KvTable

__all__ = ["LockOutcome", "PendingVersion", "UnlockOutcome",
           "ReplicationLockManager", "claim", "expired"]


@dataclass(frozen=True, slots=True)
class LockOutcome:
    """Result of a lock attempt."""

    acquired: bool
    #: When not acquired: True if this version was recorded as pending,
    #: False if a newer version was already pending (we can just quit).
    registered_pending: bool = False
    #: The fencing token of the acquired lock (0 when not acquired).
    #: Stable across a holder's re-entrant re-acquisitions — a
    #: platform-retried function resumes with its original token.
    fence: int = 0
    #: True when the acquisition re-entered a record this owner already
    #: held — the platform-retry signal: a crashed predecessor may have
    #: left state (a part pool, a multipart upload) behind.
    reentrant: bool = False


@dataclass(frozen=True, slots=True)
class PendingVersion:
    """The newest version that arrived while the lock was held."""

    etag: str
    seq: int


@dataclass(frozen=True, slots=True)
class UnlockOutcome:
    """Result of a release attempt."""

    #: False when the caller no longer owned the lock (lease stolen) —
    #: the zombie-writer signal; nothing was released in that case.
    released: bool
    pending: Optional[PendingVersion] = None


def expired(stamp: float, lease_s: float, now: float) -> bool:
    """The one lease rule: a control record stamped at ``stamp`` may be
    taken over once more than ``lease_s`` has passed by ``now``."""
    return now - stamp > lease_s


def claim(table: KvTable, key: str, owner: str, lease_s: float, *,
          reentrant: bool):
    """Process: atomically claim the single-holder role at ``key``;
    True for the claimant.  A holder whose lease expired (it crashed
    mid-role) is superseded.

    Expiry is judged, and ``at`` stamped, on the table's clock at the
    admission instant, as :meth:`ReplicationLockManager.lock` judges and
    stamps ``acquired_at``: the KV store runs the closure at admission,
    which under injected admission delay is later than the call, so a
    clock read before the round trip would judge an expired lease live
    and backdate the new holder's lease, shortening it.

    ``reentrant`` names the record kind.  The finalize and janitor roles
    are re-entrant: a platform-retried function resumes its own role.  A
    part reclaim is not: a same-owner rewin let a *superseded* former
    owner win back a part another recoverer had taken over, racing two
    live writers on it.  A retried recoverer needs no rewin, since its
    record ages past ``lease_s`` before the platform retries it.
    """
    def attempt(item):
        now = table.sim.now
        if (item is None or reentrant and item.get("owner") == owner
                or expired(item["at"], lease_s, now)):
            return {"owner": owner, "at": now}, True
        return item, False

    return (yield table.update_item(key, attempt))


class ReplicationLockManager:
    """Per-object replication locks over a serverless KV table.

    Locks carry a lease (like the DynamoDB lock client): a lock whose
    holder died mid-task (function crash past its auto-retries) is
    stolen by the next claimant once the lease expires, so a single
    failure can never wedge an object's replication forever.
    """

    def __init__(self, table: KvTable, lease_s: float = 300.0):
        self.table = table
        self.lease_s = lease_s
        #: Optional :class:`~repro.core.tracing.Tracer`; acquire/release
        #: events are emitted *inside* the KV admission closures so
        #: their timestamps are the serialization points the fencing
        #: oracle replays (under injected admission delay those are
        #: later than the call).
        self.tracer = None

    @staticmethod
    def _key(obj_key: str) -> str:
        return f"lock:{obj_key}"

    def lock(self, obj_key: str, etag: str, seq: int, owner: str):
        """Process implementing Algorithm 2's LOCK.

        Returns a :class:`LockOutcome`.  On contention, the (etag, seq)
        pair is recorded as pending iff it is newer than any pending
        version already registered.
        """
        def attempt(item):
            # The admission clock, read inside the closure (see claim).
            now = self.table.sim.now
            reentrant = item is not None and item.get("owner") == owner
            if (item is None or reentrant or expired(
                    item.get("acquired_at", now), self.lease_s, now)):
                # Fresh acquisition, lease takeover from a dead holder,
                # or a platform-retried function re-entering its own
                # lock (task ids are deterministic per object version,
                # so a retry resumes rather than deadlocks on itself).
                pending_etag = item.get("pending_etag") if item else None
                pending_seq = item.get("pending_seq") if item else None
                # The fence bumps only on ownership *change*.  A retried
                # holder re-entering its own lock keeps its token —
                # state it persisted before crashing (e.g. a distributed
                # task descriptor) stays valid for the retry.
                fence = (item.get("fence", 0) if reentrant
                         else item.get("fence", 0) + 1 if item is not None
                         else 1)
                if self.tracer is not None:
                    self.tracer.event(
                        "lock-acquire", "lock", owner, ACQUIRE_KEYS,
                        obj_key, owner, fence,
                        ("reentrant" if reentrant
                         else "takeover" if item is not None else "fresh"))
                return ({"owner": owner, "held_etag": etag, "held_seq": seq,
                         "acquired_at": now, "fence": fence,
                         "pending_etag": pending_etag,
                         "pending_seq": pending_seq},
                        LockOutcome(True, False, fence, reentrant))
            pending_seq = item.get("pending_seq")
            if pending_seq is None or pending_seq < seq:
                item["pending_etag"] = etag
                item["pending_seq"] = seq
                return item, LockOutcome(False, registered_pending=True)
            return item, LockOutcome(False)

        return (yield self.table.update_item(self._key(obj_key), attempt))

    def verify(self, obj_key: str, owner: str, fence: int):
        """Process: does ``owner`` still hold the lock with ``fence``?

        The fencing check a holder performs before irreversible
        destination writes: False means the lease was stolen (or the
        record is gone) and the caller must abort instead of finalizing
        a now-stale version.
        """
        item = yield self.table.get_item(self._key(obj_key))
        return (item is not None and item.get("owner") == owner
                and item.get("fence", 0) == fence)

    def release(self, obj_key: str, owner: str):
        """Process implementing Algorithm 2's UNLOCK.

        Returns an :class:`UnlockOutcome`: ``released`` is False when
        the caller no longer owned the lock (its lease was stolen while
        it worked — the engine surfaces this as ``lock_lost`` instead of
        silently ignoring it); ``pending`` carries the newest
        :class:`PendingVersion` registered during the critical section.
        The caller compares the pending ETag with the one it just
        replicated and re-triggers the orchestrator on mismatch.
        """
        def attempt(item):
            if item is None or item.get("owner") != owner:
                # Lost/expired lock: nothing to release; the new owner's
                # record must not be deleted.
                if self.tracer is not None:
                    self.tracer.event("lock-release", "lock", owner,
                                      REFUSED_KEYS, obj_key, owner, False)
                return item, UnlockOutcome(False)
            if self.tracer is not None:
                self.tracer.event("lock-release", "lock", owner,
                                  RELEASE_KEYS, obj_key, owner, True,
                                  item.get("fence", 0))
            etag = item.get("pending_etag")
            pending = (None if etag is None else
                       PendingVersion(str(etag), int(item["pending_seq"])))
            return None, UnlockOutcome(True, pending)  # delete the record

        return (yield self.table.update_item(self._key(obj_key), attempt))

    def stranded(self):
        """Every lock record in the table right now, as ``(obj_key,
        owner, seq, etag, lease_left_s)``: the newest version the record
        knows of (held or pending) and how long until its lease can be
        taken over.  A zero-cost peek meant for quiescence, when any
        surviving record's holder is dead."""
        now = self.table.sim.now
        for kv_key, item in self.table.peek_prefix("lock:"):
            seq = int(item.get("held_seq") or 0)
            etag = item.get("held_etag") or ""
            pending_seq = item.get("pending_seq")
            if pending_seq is not None and int(pending_seq) > seq:
                seq = int(pending_seq)
                etag = item.get("pending_etag") or ""
            lease_left_s = max(0.0, float(item.get("acquired_at", now))
                               + self.lease_s - now)
            yield (kv_key[len("lock:"):], item.get("owner"), seq, etag,
                   lease_left_s)

    def is_locked(self, obj_key: str) -> bool:
        """Zero-cost probe for tests/metrics."""
        return self.table.peek(self._key(obj_key)) is not None
