"""Object-granularity replication lock (§5.2, Algorithm 2).

Object storage has no deterministic behaviour for concurrent writes to
the same key, so AReplica serializes replication tasks per object with
a distributed lock in a cloud database (the DynamoDB lock-client
pattern).  While a task holds the lock, later versions of the object
register themselves as *pending* on the lock record (keeping only the
newest, by sequencer).  UNLOCK hands a newer pending version back to
the unlocker to re-trigger and keeps it on an ownerless record until
the next LOCK, so the newest version is never lost — this is what makes
eventual consistency hold without bucket versioning.  This module alone
knows what a lock record and a key's ``done`` marker hold.

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

from repro.core.task import ACQUIRE_KEYS, DONE_KEYS, REFUSED_KEYS, RELEASE_KEYS
from repro.simcloud.kvstore import KvTable

__all__ = ["LockOutcome", "PendingVersion", "UnlockOutcome",
           "ReplicationLockManager", "claim", "expired"]


@dataclass(frozen=True, slots=True)
class LockOutcome:
    """Result of a lock attempt."""

    acquired: bool
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

    __slots__ = ("table", "lease_s", "rule_id", "tracer")

    def __init__(self, table: KvTable, lease_s: float = 300.0,
                 rule_id: str = ""):
        self.table = table
        self.lease_s = lease_s
        self.rule_id = rule_id  # what a ``done-marker`` event names
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
        version already registered; either way the caller can quit.
        """
        def attempt(item):
            # The admission clock, read inside the closure (see claim).
            now = self.table.sim.now
            holder = None if item is None else item.get("owner")
            reentrant = holder == owner
            if (holder is None or reentrant or expired(
                    item.get("acquired_at", now), self.lease_s, now)):
                # Fresh acquisition, lease takeover from a dead holder,
                # or a platform-retried function re-entering its own
                # lock (task ids are deterministic per object version,
                # so a retry resumes rather than deadlocks on itself).
                # An ownerless record (see release) is taken as if absent,
                # passing its pending version on only if newer than ours.
                kept = item is not None and (holder is not None
                                             or item["pending_seq"] > seq)
                pending_etag = item.get("pending_etag") if kept else None
                pending_seq = item.get("pending_seq") if kept else None
                # The fence bumps only on ownership *change*.  A retried
                # holder re-entering its own lock keeps its token —
                # state it persisted before crashing (e.g. a distributed
                # task descriptor) stays valid for the retry.
                fence = (item.get("fence", 0) if reentrant
                         else item.get("fence", 0) + 1 if holder is not None
                         else 1)
                if self.tracer is not None:
                    self.tracer.event(
                        "lock-acquire", "lock", owner, ACQUIRE_KEYS,
                        obj_key, owner, fence,
                        ("reentrant" if reentrant
                         else "takeover" if holder is not None else "fresh"))
                return ({"owner": owner, "held_etag": etag, "held_seq": seq,
                         "acquired_at": now, "fence": fence,
                         "pending_etag": pending_etag,
                         "pending_seq": pending_seq},
                        LockOutcome(True, fence, reentrant))
            pending_seq = item.get("pending_seq")
            if pending_seq is None or pending_seq < seq:
                item["pending_etag"] = etag
                item["pending_seq"] = seq
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

    def release(self, obj_key: str, owner: str,
                replicated_seq: Optional[int] = None):
        """Process implementing Algorithm 2's UNLOCK.

        Returns an :class:`UnlockOutcome`: ``released`` is False when
        the caller no longer owned the lock (its lease was stolen while
        it worked — the engine surfaces this as ``lock_lost`` instead of
        silently ignoring it); ``pending`` carries the newest
        :class:`PendingVersion` registered during the critical section
        when the caller must re-trigger it (newer than ``replicated_seq``,
        or any when that is None); it stays pending on an ownerless
        record, which the next LOCK takes like an absent one.
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
            etag, seq = item.get("pending_etag"), item.get("pending_seq")
            if etag is None or (replicated_seq is not None
                                and seq <= replicated_seq):
                return None, UnlockOutcome(True)  # delete the record
            # Hand it back, kept pending on an ownerless record until the
            # next LOCK: a caller dying before its re-trigger loses nothing.
            return ({"pending_etag": etag, "pending_seq": seq},
                    UnlockOutcome(True, PendingVersion(str(etag), int(seq))))

        return (yield self.table.update_item(self._key(obj_key), attempt))

    def done(self, obj_key: str):
        """KV request: read the key's done marker (None when unset)."""
        return self.table.get_item(f"done:{obj_key}")

    def mark_done(self, obj_key: str, etag: str, seq: int, time: float,
                  op: str = "put"):
        """KV request: advance the key's done marker, monotonically in
        seq (an unconditional put would let a delayed straggler clobber
        a newer marker with an older version's).

        Answers with the *superseding* marker when the advance did not
        land, else None: how a straggler that just mutated the
        destination learns it may have clobbered a newer finalized
        version.  The fence cannot order two live incarnations of one
        platform-retried task (same owner, same fence); the marker race
        is the witness.
        """
        def advance(item):
            if item is not None and item.get("seq", -1) >= seq:
                return item, item
            if self.tracer is not None:
                # Inside the closure: only a landed advance counts.
                self.tracer.event("done-marker", "engine", None, DONE_KEYS,
                                  self.rule_id, obj_key, seq, etag, op)
            return {"etag": etag, "seq": seq, "time": time, "op": op}, None

        return self.table.update_item(f"done:{obj_key}", advance)

    def stranded(self):
        """Every lock record in the table right now, as ``(obj_key,
        owner, seq, etag, lease_left_s, held_s)``: the newest version
        the record knows of (held or pending), how long until its lease
        can be taken over (none for an ownerless record) and how long it
        has been held.  A zero-cost peek meant for quiescence, when any
        surviving record's holder is dead."""
        now = self.table.sim.now
        for kv_key, item in self.table.peek_prefix("lock:"):
            seq = int(item.get("held_seq") or 0)
            etag = item.get("held_etag") or ""
            pending_seq = item.get("pending_seq")
            if pending_seq is not None and int(pending_seq) > seq:
                seq = int(pending_seq)
                etag = item.get("pending_etag") or ""
            acquired_at = item.get("acquired_at", now)
            lease_left_s = (max(0.0, float(acquired_at) + self.lease_s - now)
                            if "owner" in item else 0.0)
            yield (kv_key[len("lock:"):], item.get("owner"), seq, etag,
                   lease_left_s, now - acquired_at)

    def markers(self):
        """Every done marker in the table right now, as ``(obj_key,
        seq)``: a zero-cost peek."""
        for kv_key, item in self.table.peek_prefix("done:"):
            yield kv_key[len("done:"):], item["seq"]
