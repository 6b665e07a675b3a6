"""Distributed replication over a shared part pool (Algorithm 1, §6).

The orchestrator creates a multipart upload and a pool record, then
invokes ``n`` replicators that claim parts from the pool autonomously;
whichever worker completes the last part finalizes under a leased
claim.  Recovery is lease-based too: a drained worker stays behind as
the task's janitor, re-claims parts a crashed replicator left behind,
and takes over a crashed finalizer's role.  An optimistic-validation
mismatch (§5.2) aborts the task exactly once and re-triggers the
newest version.

These are stateless process functions over a
:class:`~repro.core.engine.ReplicationEngine` — durable state lives in
the task's pool-side KV records, which ``partpool.py`` alone reads and
writes, in-memory state on the engine — driven with ``yield from`` by
the FaaS handlers defined in ``engine.py``.
"""

from __future__ import annotations

import math

from repro.core import partpool, transfer
from repro.core.task import ABORT_KEYS
from repro.simcloud.objectstore import NoSuchKey, NoSuchUpload

__all__ = ["launch", "run_worker", "reap_orphan_pool", "part_attempt",
           "settle_part", "try_finalize"]


def reap_orphan_pool(engine, ctx, task_id: str):
    """Process: abort a crashed predecessor's pool and its upload.

    A platform-retried orchestrator re-enters its own lock and normally
    *resumes* the part pool its predecessor persisted (same task id,
    same upload).  When the retry's fresh plan does not route through
    the pool, that record is unreachable garbage and its multipart
    upload bills parts forever.  Mark the pool aborted — straggling
    workers from the crashed attempt observe the flag and stand down —
    then abort the upload.
    """
    found = yield from engine._kv(
        ctx, lambda: partpool.orphan(engine, ctx, task_id))
    if found is None:
        return
    pool, upload_id = found
    yield from engine._kv(ctx, pool.abort)
    if upload_id is not None:
        # The yield sits outside abort_upload's guard: an Interrupt
        # delivered here must kill the function (see abort_task).
        yield ctx.sleep(0.0)
        transfer.abort_upload(engine, upload_id)


def launch(engine, ctx, task, plan, inline_worker: bool = False):
    """Process: set up the part pool and run the task's workers.

    ``inline_worker`` runs a single worker loop inside the calling
    function instead of invoking remote replicators — the hedged
    flavour of the inline path, where the orchestrator itself drains
    the (often one-part) pool so each range still gets a progress
    deadline and a clone budget without paying an extra invocation on
    the clean path.
    """
    part_size = engine.config.part_size
    num_parts = max(1, math.ceil(task["size"] / part_size))
    n = 1 if inline_worker else min(plan.n, num_parts)
    # §6 resource limitations: account concurrency quotas are static.
    # Invoking beyond the remaining quota would only queue the excess
    # behind other tasks; clamp instead (the pool lets fewer workers
    # finish the same parts, just slower).
    faas = engine.cloud.faas(plan.loc_key)
    available = max(1, faas.profile.max_concurrency - faas.running)
    if n > available:
        engine.stats["quota_clamped"] = (
            engine.stats.get("quota_clamped", 0) + 1)
        n = available
    task = dict(task, mode="distributed", num_parts=num_parts,
                part_size=part_size, plan_n=n)
    upload_id = yield from ctx.initiate_multipart(engine.dst_bucket,
                                                  task["key"])
    task["upload_id"] = upload_id
    if engine.scheduling == "fair":
        task["assignments"] = partpool.FairAssignment(
            num_parts, n).all_assignments()
    # The task descriptor is persisted with the pool record.  A
    # crash-retried orchestrator loses its accepted state but finds the
    # pool already created: it must then resume the *original* task
    # (same upload id) rather than re-initialize — in-flight workers are
    # still uploading parts against it.
    try:
        adopted = yield from engine._kv(
            ctx, lambda: partpool.create(engine, plan, task))
        if adopted is not None:
            # Resuming a predecessor's task: adopt its upload and abort
            # the one we just opened (it would otherwise leak and bill).
            yield ctx.sleep(0.0)
            transfer.abort_upload(engine, upload_id)
            if adopted.get("seq", task["seq"]) < task["seq"]:
                # The pool record replicates an *older* source version
                # than the one we were built from — the source advanced
                # since the record was written.  If that predecessor
                # already finished (its done marker landed), its pool is
                # a fossil: adopting it would claim zero parts, skip
                # finalization, and leak the task's lock — the newer
                # version would then never replicate.  A duplicate event
                # delivery reaching a finished task id after an
                # overwrite hits exactly this.  Replicate the current
                # version through the single-function path instead: its
                # snapshot GET needs no pool, so the fossil record
                # cannot collide, and it finishes (and unlocks) normally.
                done = yield from engine._kv(
                    ctx, lambda: engine.locks.done(task["key"]))
                if done is not None and done["seq"] >= adopted.get("seq", -1):
                    fallback = {k: v for k, v in task.items()
                                if k not in ("mode", "num_parts", "part_size",
                                             "upload_id", "assignments")}
                    fallback["mode"] = "single"
                    yield from transfer.run_single(engine, ctx, fallback)
                    return
            task = adopted
    except BaseException:
        # Crashing before the pool record points at our upload means no
        # retry will ever learn this id existed; abort it so the parts
        # don't bill forever.  Once the record is durable the retried
        # orchestrator adopts the same id instead.
        if task.get("upload_id") == upload_id:
            transfer.abort_upload(engine, upload_id)
        raise
    if inline_worker:
        # The orchestrator drains the pool itself — no extra invocation,
        # but parts (and their hedge clones) still flow through the
        # first-writer-wins pool machinery.
        yield from run_worker(engine, ctx, dict(task, worker_index=0))
        return
    for i in range(n):
        # Sequential invocations: the caller pays I per request,
        # matching T_func = I·n + D + P.
        yield from ctx.invoke(faas, engine._rep_name,
                              dict(task, worker_index=i))


def run_worker(engine, ctx, task):
    """Process: one replicator's claim → replicate → complete loop."""
    pool = partpool.pool_for(engine, ctx, task["task_id"], task["num_parts"])
    worker_key = (task["task_id"], task.get("worker_index", 0))
    start = ctx.now
    engine.worker_parts.setdefault(worker_key, 0)
    engine.worker_spans[worker_key] = (start, start)
    if "assignments" in task:
        # Fair dispatch ablation: a fixed part list, no pool claims.  A
        # platform-retried worker simply redoes its list; the done-set
        # deduplicates completions.
        part_indices = iter(task["assignments"][task["worker_index"]])
    else:
        part_indices = None
    while True:
        if part_indices is not None:
            idx = next(part_indices, None)
        else:
            idx = yield from engine._kv(ctx, pool.claim)
        if idx is None:
            engine.worker_spans[worker_key] = (start, ctx.now)
            if part_indices is None:
                yield from _recover_orphaned_parts(engine, ctx, task, pool,
                                                   worker_key, start)
            return
        done = yield from replicate_part(engine, ctx, task, pool, worker_key,
                                         start, idx)
        if done is None or done:
            return  # task aborted, or this worker finished it


def replicate_part(engine, ctx, task, pool, worker_key, start, idx):
    """Process: move one part; True = task finished, None = aborted.

    With hedging enabled, a part large enough to be worth cloning runs
    through the hedged race (:meth:`Hedger.part`) instead of a bare
    attempt; small parts stay on the plain path but still feed the
    deadline sample window.
    """
    offset = idx * task["part_size"]
    length = min(task["part_size"], task["size"] - offset)
    hedger = engine.hedger
    if hedger is not None and hedger.eligible(length):
        return (yield from hedger.part(ctx, task, pool, worker_key, start,
                                       idx, offset, length))
    t0 = ctx.now
    status = yield from part_attempt(engine, ctx, task, pool, idx, offset,
                                     length)
    if hedger is not None and status == "ok":
        hedger.samples.record(ctx.now, ctx.now - t0)
    return (yield from settle_part(engine, ctx, task, pool, worker_key,
                                   start, idx, status))


def part_attempt(engine, ctx, task, pool, idx, offset, length):
    """Process: download, verify, and upload one part range.

    Every part is verified end to end before it enters the done set:
    the downloaded range against the source version's content (a
    corrupted part must never be uploaded), and the store's part-ETag
    response against the uploaded payload (a miswritten part must never
    be assembled).  Either mismatch re-transfers in place under the
    retransfer budget; a poison part — one that keeps failing — is
    quarantined to the DLQ instead of burning platform retries.

    Returns ``"ok"`` | ``"stale"`` | ``"aborted"`` |
    ``("quarantined", stage, first)`` — never raising
    :class:`PartQuarantined` itself — so a hedged coordinator can race
    two attempts and settle the combined outcome exactly once (platform
    faults still propagate and fail the attempt).
    """
    used = 0
    while True:
        try:
            blob, version = yield from ctx.get_object(
                engine.src_bucket, task["key"], offset, length,
                concurrency=task["plan_n"])
        except (NoSuchKey, ValueError):
            return "stale"
        kind = transfer.classify_download(task, version, blob, offset, length)
        if kind == "stale":
            # Optimistic validation (§5.2): the source changed under
            # us; parts from different versions must never mix.
            return "stale"
        if kind == "ok":
            break
        if not transfer.retransfer(engine, task, "part-get", kind, used,
                                   part=idx):
            first = yield from engine._kv(
                ctx, lambda: pool.mark_quarantined(idx))
            return ("quarantined", "part-get", first)
        used += 1
    while True:
        try:
            part_etag = yield from ctx.upload_part(
                engine.dst_bucket, task["upload_id"], idx + 1, blob,
                concurrency=task["plan_n"])
        except NoSuchUpload:
            # The upload vanished under us: a fencing-loss (or abort)
            # cleanup ran elsewhere while this part was in flight.
            # Confirm and stand down quietly instead of failing the
            # whole attempt into the platform retry path.
            aborted = yield from engine._kv(ctx, pool.is_aborted)
            if aborted:
                return "aborted"
            raise
        if part_etag == blob.etag:
            return "ok"
        # The store durably recorded a payload other than the one we
        # sent (a miswritten part); re-upload it in place.
        if not transfer.retransfer(engine, task, "part-put", "payload", used,
                                   part=idx):
            first = yield from engine._kv(
                ctx, lambda: pool.mark_quarantined(idx))
            return ("quarantined", "part-put", first)
        used += 1


def settle_part(engine, ctx, task, pool, worker_key, start, idx, status):
    """Process: translate one part attempt's outcome into the worker
    protocol — completion and finalization on success, task abort on
    staleness, quarantine escalation on poison.  Split from the attempt
    itself so the hedged race settles whichever contender's outcome
    won, exactly once."""
    if status == "stale":
        yield from _abort_task(engine, ctx, task, pool)
        return None
    if status == "aborted":
        return None
    if status != "ok":
        _, stage, first = status
        transfer.quarantine(engine, task, stage, part=idx, count=first)
    engine.worker_parts[worker_key] += 1
    engine.worker_spans[worker_key] = (start, ctx.now)
    finished = yield from engine._kv(ctx, lambda: pool.complete(idx))
    if finished:
        yield from try_finalize(engine, ctx, task)
        engine.worker_spans[worker_key] = (start, ctx.now)
        return True
    return False


# -- lease-based finalization and recovery (§6) -------------------------------

def _worker_identity(task) -> str:
    return f"w{task.get('worker_index', 0)}"


def try_finalize(engine, ctx, task):
    """Process: complete the multipart upload and finish the task,
    guarded by a leased claim so exactly one live function finalizes,
    and a crashed finalizer can be superseded."""
    won = yield from engine._kv(ctx, lambda: partpool.claim_finalize(
        engine, ctx, task["task_id"], _worker_identity(task)))
    if not won:
        return
    # The zombie-writer check, distributed flavour: all parts may be
    # uploaded, but if the task's lease was stolen meanwhile, the
    # assembled object is stale — completing it would publish it over
    # the thief's newer version.  Abort the upload and mark the pool so
    # janitor workers stop resurrecting it.
    ok = yield from engine._fence_ok(ctx, task)
    if not ok:
        yield from engine._kv(ctx, partpool.pool_for(
            engine, ctx, task["task_id"], task["num_parts"]).abort)
        transfer.abort_upload(engine, task["upload_id"])
        return
    own_write = True
    try:
        version = yield from ctx.complete_multipart(engine.dst_bucket,
                                                    task["upload_id"])
    except NoSuchUpload:
        # A previous finalizer completed the upload, then crashed before
        # recording; the object is already at the destination — pick it
        # up and record it.  Not our write: on an ETag mismatch the
        # object may be a newer task's, so the verify failure must
        # stand down, never delete.
        own_write = False
        try:
            version = yield from ctx.head_object(engine.dst_bucket,
                                                 task["key"])
        except NoSuchKey:
            return
    yield from engine._finish_replicated(ctx, task, version,
                                         own_write=own_write)


def _recover_orphaned_parts(engine, ctx, task, pool, worker_key, start):
    """Fault tolerance (§6): parts claimed by a replicator that died
    mid-execution would otherwise never complete.  After a grace
    period, a surviving replicator that drained the pool re-claims any
    still-missing parts and replicates them itself."""
    aborted = yield from engine._kv(ctx, pool.is_aborted)
    if aborted:
        return
    missing = yield from engine._kv(ctx, pool.missing_parts)
    if not missing:
        yield from _recover_finalization(engine, ctx, task)
        return
    # Exactly one drained worker stays behind as the task's janitor;
    # the rest exit immediately (idle function time is billed, so a
    # task on a slow link must not keep n-1 instances waiting).  The
    # claim is leased: a crashed janitor is superseded by the next
    # worker that comes through (e.g. a platform retry).
    janitor = yield from engine._kv(ctx, lambda: partpool.claim_janitor(
        engine, ctx, task["task_id"], _worker_identity(task)))
    if not janitor:
        return
    # Poll with backoff: in the common case the missing parts are
    # merely in flight on other instances and drain within a poll or
    # two; only a genuinely stuck task waits out the full grace.
    deadline = ctx.now + partpool.RECOVERY_GRACE_S
    backoff = 0.5
    while ctx.now < deadline:
        yield ctx.sleep(min(backoff, max(0.0, deadline - ctx.now)))
        backoff *= 2
        missing = yield from engine._kv(ctx, pool.missing_parts)
        if not missing:
            yield from _recover_finalization(engine, ctx, task)
            return
    while True:
        stalled = False
        for idx in missing:
            won = yield from engine._kv(ctx, lambda i=idx: pool.try_reclaim(
                i, _worker_identity(task)))
            if not won:
                # Another recoverer holds a live reclaim lease on this
                # part — possibly this janitor's own crashed
                # predecessor, now that same-owner rewins require lease
                # expiry too.  Note the stall and retry once the
                # incumbent's lease can have expired, instead of
                # abandoning the task to a dead owner.
                stalled = True
                continue
            engine.stats["recovered_parts"] = (
                engine.stats.get("recovered_parts", 0) + 1)
            done = yield from replicate_part(engine, ctx, task, pool,
                                             worker_key, start, idx)
            if done or done is None:
                return
        if not stalled:
            return
        yield ctx.sleep(partpool.RECLAIM_LEASE_S + 1.0)
        aborted = yield from engine._kv(ctx, pool.is_aborted)
        if aborted:
            return
        missing = yield from engine._kv(ctx, pool.missing_parts)
        if not missing:
            yield from _recover_finalization(engine, ctx, task)
            return


def _recover_finalization(engine, ctx, task):
    """Process: if all parts are done but nobody recorded the task —
    the finalizer crashed — take over finalization after its lease
    expires."""
    done = yield from engine._kv(ctx, lambda: engine.locks.done(task["key"]))
    if done is not None and done["seq"] >= task["seq"]:
        return
    held = yield from engine._kv(ctx, lambda: partpool.finalize_held(
        engine, ctx, task["task_id"], _worker_identity(task)))
    if held:
        return  # a different finalizer's lease is live
    if held is not None:
        engine.stats["recovered_finalize"] = (
            engine.stats.get("recovered_finalize", 0) + 1)
    yield from try_finalize(engine, ctx, task)


def _abort_task(engine, ctx, task, pool):
    first = yield from engine._kv(ctx, pool.abort)
    if not first:
        return
    engine.stats["aborted"] += 1
    if engine.tracer is not None:
        engine.tracer.event("abort", "engine", task["task_id"],
                            ABORT_KEYS, task["key"], task["etag"])
    engine.recorder.record_abort(task["key"], task["etag"])
    # The yield must sit *outside* any exception guard: an Interrupt
    # (chaos crash, watchdog) delivered here must kill this function so
    # the platform retries it — a bare except swallowing it would leave
    # a crashed worker running on as a zombie.  The abort itself is
    # best-effort with failures counted (abort_upload).
    yield ctx.sleep(0.0)
    transfer.abort_upload(engine, task["upload_id"])
    # Release the lock and re-trigger so the newest version is
    # replicated by a fresh task ("we expect a retry will go through",
    # §5.2).
    yield from engine._finish(ctx, task["task_id"], task["key"], None,
                              retrigger_if_unreplicated=True)
