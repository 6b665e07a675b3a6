"""The single-function data path and end-to-end transfer integrity.

Everything here mutates or checks the destination on behalf of a
:class:`~repro.core.engine.ReplicationEngine` from inside *one*
function, and owns no state of its own: the snapshot-consistent
single-function replication of §5.1 (inline in the orchestrator or in
one remote replicator), delete propagation, and the integrity
bookkeeping every transfer loop shares — classify a download, count a
detected corruption, spend the in-place retransfer budget, quarantine a
poison transfer, withdraw a finalize nobody can vouch for, and heal a
destination a superseded straggler wrote.  The functions take the
engine as their first argument and are driven with ``yield from`` by
the FaaS handlers defined in ``engine.py``.
"""

from __future__ import annotations

import math
from typing import Optional

from repro.core.task import (CORRUPT_KEYS, DELETE_KEYS, QUARANTINE_KEYS,
                             TaskResult)
from repro.simcloud.objectstore import NoSuchKey

#: How many times a part whose payload fails checksum verification is
#: re-fetched (or re-uploaded) in place before it is quarantined —
#: escalated straight to the dead-letter queue with a ``corrupted``
#: disposition instead of burning platform retries against the same
#: poisoned transfer.
RETRANSFER_BUDGET = 2

__all__ = ["PartQuarantined", "run_single", "propagate_delete",
           "classify_download", "record_corruption", "retransfer",
           "quarantine", "withdraw_unverified", "reconverge_superseded",
           "abort_upload"]


class PartQuarantined(RuntimeError):
    """A transfer failed checksum verification past the retransfer budget.

    Platform retries would re-run the whole attempt against the same
    poisoned transfer, so the failure escalates straight to the
    dead-letter queue: the FaaS layer reads ``dlq_disposition`` off the
    error and skips its auto-retry ladder for this class.
    """

    dlq_disposition = "corrupted"


# -- integrity bookkeeping shared by every transfer loop ----------------------

def classify_download(task, version, blob, offset: int, length: int) -> str:
    """Classify one downloaded range: ``ok``, ``stale``, or the kind of
    silent corruption (``truncated`` | ``payload`` | ``wrong-etag``).

    The checksums reuse the platform's existing identities — on the
    clean path this is two string/tuple equality checks against
    already-cached values, no per-part hashing.  ``stale`` means the
    source genuinely moved on (the §5.2 optimistic-validation abort);
    everything else that mismatches is a flipped transfer, at-rest
    rot, a truncated read, or a store misreporting its ETag.
    """
    expected_etag = task["etag"]
    if version.etag == expected_etag:
        expected = version.blob.slice(offset, length)
        if blob.size == length and blob.segments == expected.segments:
            return "ok"
        return "truncated" if blob.size != length else "payload"
    if version.blob.etag == expected_etag:
        # The content is the version we expect but the reported ETag is
        # not its hash: the store is lying about metadata.
        return "wrong-etag"
    return "stale"


def record_corruption(engine, task, stage: str, kind: str,
                      part: Optional[int] = None) -> None:
    engine.stats["corrupt_detected"] += 1
    if engine.tracer is not None:
        engine.tracer.event("corrupt-detected", "engine", task["task_id"],
                            CORRUPT_KEYS, task["key"], stage, kind, part)


def retransfer(engine, task, stage: str, kind: str, used: int,
               part: Optional[int] = None) -> bool:
    """Account one transfer that failed verification; True when it may
    be re-sent in place (``used`` retransfers so far are within the
    retransfer budget), False when the caller must quarantine."""
    record_corruption(engine, task, stage, kind, part)
    if used >= RETRANSFER_BUDGET:
        return False
    engine.stats["retransfers"] += 1
    return True


def quarantine(engine, task, stage: str, part: Optional[int] = None,
               count: bool = True):
    """Escalate a poison transfer: count, trace, and raise the
    no-platform-retry error that dead-letters this invocation with the
    ``corrupted`` disposition.  A later DLQ redrive — after the fault
    clears — re-runs the task and completes the part.

    ``count=False`` replays an already-counted quarantine — a hedged
    rival burned the retransfer budget on the same part first
    (``PartPool.mark_quarantined`` returned the first-marker signal to
    the other side).  The escalation still raises, but the stat and
    trace event stay idempotent per (task, part) so drill accounting
    remains exact under hedging.
    """
    if count:
        engine.stats["quarantined"] += 1
        if engine.tracer is not None:
            engine.tracer.event("quarantine", "engine", task["task_id"],
                                QUARANTINE_KEYS, task["key"], stage, part)
    raise PartQuarantined(
        f"{task['task_id']}: {stage} checksum mismatch persisted "
        f"past retransfer budget (part={part})")


def withdraw_unverified(engine, ctx, task, own_write: bool):
    """Process: a finalize whose destination ETag is not the content the
    task set out to replicate must not be vouched for by a done marker.

    Our own assembly is poisoned: count it and withdraw it (the
    destination must not serve bytes nobody vouches for); the caller
    then hands the key to a fresh task.  A mismatch on an *adopted*
    object (the crashed-finalizer fallback) is a newer task's write,
    not corruption — stand down without deleting.
    """
    engine.stats["finalize_verify_failed"] += 1
    if own_write:
        record_corruption(engine, task, "finalize", "payload")
        yield ctx.sleep(0.0)
        try:
            engine.dst_bucket.delete_object(task["key"], ctx.now,
                                            notify=False)
        except Exception:
            pass


def reconverge_superseded(engine, ctx, tid: str, key: str,
                          wrote_etag: Optional[str]):
    """Process: heal a destination a superseded straggler just wrote.

    Two live incarnations of one platform-retried task share a task id
    and fencing token (re-entrant lock acquisition keeps the fence, by
    design — persisted distributed-task descriptors must survive the
    retry), so when the retried incarnation adopts a newer source
    version, the fence check cannot stop the original incarnation's
    older write from landing *after* the newer finalize.  The marker
    high-water mark witnesses the inversion (``_mark_done`` returned
    the superseding marker); this path compares the destination against
    the marker and, on genuine divergence, redrives the key as a
    *repair* event (fresh task, fresh lock, fresh fence — and the
    repair flag bypasses the very marker that masks the damage).
    Benign losers — the newer finalize also won the destination race —
    exit after one HEAD.  Terminates: the repair task's own superseded
    mark-done finds destination and marker in agreement and stops.
    """
    done = yield from engine._done_marker(ctx, key)
    if done is None:
        return
    try:
        dst_etag = (yield from ctx.head_object(engine.dst_bucket, key)).etag
    except NoSuchKey:
        dst_etag = None
    if done.get("op") == "delete":
        # The marker's newest state is absence; undo only *our own*
        # re-creation (different bytes belong to a newer in-flight put,
        # which owns its own convergence).
        if wrote_etag is not None and dst_etag == wrote_etag:
            engine._retrigger(tid, key, done.get("seq"), "superseded")
            yield from ctx.delete_object(engine.dst_bucket, key)
        return
    if dst_etag == done.get("etag"):
        return  # benign: the newer finalize won the destination race
    engine._retrigger(tid, key, done.get("seq"), "superseded")
    try:
        current = yield from ctx.head_object(engine.src_bucket, key)
    except NoSuchKey:
        return  # the source delete's own event owns convergence
    engine.redrive_event({
        "kind": "created", "key": key, "etag": current.etag,
        "seq": current.sequencer, "size": current.size,
        "event_time": ctx.now, "repair": True,
    })


def abort_upload(engine, upload_id: str) -> None:
    """Best-effort multipart abort on the destination.

    A failed abort (e.g. the destination store refusing requests)
    leaves a part-billing upload behind — count it so the audit command
    can report the leak instead of the failure vanishing into a bare
    except.  Never raises; never call it with a yield inside the
    guarded region (a swallowed Interrupt would let a crashed function
    keep running).
    """
    try:
        engine.dst_bucket.abort_multipart(upload_id)
    except Exception:
        engine.stats["orphaned_uploads"] += 1


# -- single-function replication ----------------------------------------------

def run_single(engine, ctx, task):
    """Process: single-function replication (orchestrator inline, or
    one remote replicator).

    A whole-object GET is snapshot-consistent — object storage serves
    one version for the entire request — so the single path needs no
    optimistic validation: whatever version the GET returned is
    internally consistent and is the newest at read time.  Objects
    above one part are still *written* part-by-part (multipart upload),
    matching the model's ``T_transfer = S + C·⌈size/c⌉`` workflow.
    This is also why the §5.2 remedy for frequently-updated objects is
    falling back to one function: the atomic read cannot be raced,
    unlike distributed ranged GETs.
    """
    key = task["key"]
    src, dst = engine.src_bucket, engine.dst_bucket
    part = engine.config.part_size
    used = 0
    while True:
        try:
            blob, version = yield from ctx.get_object(src, key)
        except NoSuchKey:
            yield from engine._finish(ctx, task["task_id"], key, None)
            return
        # The single path adopts whatever version its snapshot GET
        # returned, so verification is self-consistency: the payload
        # against the version's own content identity, the reported
        # ETag against its hash (both cached — no extra hashing).
        if (blob.size == version.blob.size
                and blob.segments == version.blob.segments
                and version.etag == version.blob.etag):
            break
        kind = ("truncated" if blob.size != version.blob.size
                else "wrong-etag" if blob.segments == version.blob.segments
                else "payload")
        if not retransfer(engine, task, "single-get", kind, used):
            quarantine(engine, task, "single-get")
        used += 1
    task = dict(task, etag=version.etag, seq=version.sequencer,
                size=version.size)
    if version.size <= part:
        # Fencing (§5.2 hardening): if our lease was stolen during the
        # download, the thief has already (or will) put a newer version
        # — a stale PUT here would clobber it.
        ok = yield from engine._fence_ok(ctx, task)
        if not ok:
            return
        while True:
            dst_version = yield from ctx.put_object(dst, key, blob)
            if dst_version.etag == blob.etag:
                break
            # The store durably recorded some other payload under our
            # key (a miswritten PUT); re-send it in place.
            if not retransfer(engine, task, "put", "payload", used):
                quarantine(engine, task, "put")
            used += 1
        yield from engine._finish_replicated(ctx, task, dst_version)
        return
    upload_id = yield from ctx.initiate_multipart(dst, key)
    try:
        for i in range(math.ceil(version.size / part)):
            offset = i * part
            piece = blob.slice(offset, min(part, version.size - offset))
            used = 0
            while True:
                # Parts after the first stream back-to-back: the request
                # handshake overlaps the preceding part's transfer.
                part_etag = yield from ctx.upload_part(
                    dst, upload_id, i + 1, piece, pipelined=i > 0)
                if part_etag == piece.etag:
                    break
                if not retransfer(engine, task, "part-put", "payload", used,
                                  part=i):
                    quarantine(engine, task, "part-put", part=i)
                used += 1
        # The zombie-writer check: a slow transfer can outlive the
        # lease, and completing the multipart would then publish this
        # stale version over the new holder's newer one.
        ok = yield from engine._fence_ok(ctx, task)
        if not ok:
            abort_upload(engine, upload_id)
            return
        dst_version = yield from ctx.complete_multipart(dst, upload_id)
    except BaseException:
        # A crashed (or platform-killed) single replicator is retried
        # from scratch with a *new* upload id; the one opened here would
        # leak and keep billing its parts.  Abort it on the way out —
        # this is the "function" dying, so no further simulated
        # requests are issued.
        abort_upload(engine, upload_id)
        raise
    yield from engine._finish_replicated(ctx, task, dst_version)


# -- delete propagation -------------------------------------------------------

def propagate_delete(engine, ctx, payload, held):
    """Process: apply a source DELETE at the destination, under the
    lock ``held`` (``task_id`` / ``key`` / ``fence`` / ``lock_at``)."""
    key, tid = payload["key"], held["task_id"]
    # Ordering guards: never let a stale DELETE clobber newer state.
    done = yield from engine._done_marker(ctx, key)
    if done is not None and done["seq"] >= payload["seq"]:
        yield from engine._already_replicated(
            ctx, tid, payload, done, done["seq"], done["seq"], clamp=False)
        return
    try:
        current = yield from ctx.head_object(engine.src_bucket, key)
    except NoSuchKey:
        current = None
    if current is not None and current.sequencer > payload["seq"]:
        # The object was re-created after this delete; the newer PUT's
        # task supersedes us ("or its subsequent versions").
        yield from engine._finish(ctx, tid, key, None)
        return
    ok = yield from engine._fence_ok(ctx, held)
    if not ok:
        # Lease stolen while we deliberated.  Unlike a PUT zombie —
        # whose thief re-reads the source and converges the content — a
        # thief handling an older event sees NoSuchKey at the source
        # and touches nothing, so if no newer PUT superseded this
        # delete, nobody else would ever propagate it.  Hand the event
        # to a fresh task (fresh lock, fresh fence) instead.
        engine._retrigger(tid, key, payload["seq"], "deleted", dict(payload))
        return
    engine.stats["deletes"] += 1
    yield from ctx.delete_object(engine.dst_bucket, key)
    if engine.tracer is not None:
        engine.tracer.event("finalize", "engine", tid, DELETE_KEYS, key,
                            payload["seq"], payload["etag"], held["fence"],
                            "delete", ctx.region.key)
    superseded = yield from engine._mark_done(ctx, key, payload["etag"],
                                              payload["seq"], ctx.now,
                                              op="delete")
    if superseded is not None:
        # Our destination delete landed under a marker a newer finalize
        # had already advanced: the bytes we removed may have been the
        # newer version's.  Heal via the marker comparison (wrote_etag
        # None — a delete writes absence).
        yield from reconverge_superseded(engine, ctx, tid, key, None)
    engine._record_visible(tid, TaskResult(
        key=key, etag=payload["etag"], seq=payload["seq"],
        event_time=payload["event_time"], visible_time=ctx.now, plan=None,
        kind="deleted"))
    yield from engine._finish(ctx, tid, key, payload["seq"])
