"""The variability-tolerant replication engine (§5.1, §5.2).

Implements the serverless replication workflow of Fig 11: the cloud
notification invokes an **orchestrator** function in the source region;
it acquires the object's replication lock, consults the changelog
store, asks the strategy planner for an SLO-compliant plan, and then
replicates the object **inline** (small objects — ``T_func = 0``),
invokes a single **replicator** at the chosen region, or creates a
shared part pool and invokes ``n`` replicators that claim 8 MB parts
from it autonomously (Algorithm 1).  Consistency (§5.2): per-object
locks serialize concurrent tasks (Algorithm 2), and a ``done`` marker
per key makes re-triggered orchestrations idempotent.

This module is the wiring and the decision path: routing, the hardened
KV / fence plumbing, orchestrate → delete | changelog | plan, and the
completion exits.  ``locks.py`` owns the lock and done records; the
data paths are stateless functions beside it — ``transfer.py`` (single
function, deletes, integrity), ``distributed.py`` (part pool, finalize
lease, recovery), ``changelog.py`` (the hint fast path) — and the two
stateful concerns are composed in: ``backlog.py`` (parked tasks) and
``hedging.py``.
"""

from __future__ import annotations

from functools import partial
from typing import Optional

from repro.core import distributed, retry
from repro.core.backlog import ParkedBacklog
from repro.core.changelog import (ChangelogStore, apply_changelog,
                                  propagate_changelog)
from repro.core.config import LOCAL_THRESHOLD, ReplicaConfig
from repro.core.health import HealthTracker, NoRouteAvailable
from repro.core.hedging import Hedger
from repro.core.locks import ReplicationLockManager, expired
from repro.core.planner import Plan, StrategyPlanner
from repro.core.task import (DISPATCH_KEYS, FINALIZE_KEYS, LOST_KEYS,
                             PLAN_KEYS, VERIFY_KEYS, VERSION_KEYS,
                             TaskRecorder, TaskResult, task_id)
from repro.core.transfer import (propagate_delete, reconverge_superseded,
                                 run_single, withdraw_unverified)
from repro.simcloud.cloud import Cloud
from repro.simcloud.kvstore import Throttled
from repro.simcloud.objectstore import (Bucket, NoSuchKey, ObjectEvent,
                                        ObjectVersion)
from repro.simcloud.sim import DeferredResult, Future

__all__ = ["ReplicationEngine"]

_STATE_TABLE = "areplica-state"

#: Counters every engine starts at zero (four rare ones are created on
#: first use); core/lifecycle.py bumps cordons … switchovers.
_STAT_KEYS = (
    "tasks", "inline", "single", "distributed", "changelog_applied",
    "changelog_fallback", "aborted", "deferred", "skipped_done", "deletes",
    "retriggered", "lock_lost", "orphaned_uploads", "kv_retries",
    "kv_retry_exhausted", "kv_retry_deadline", "parked", "drained", "probes",
    "failover", "backlog_kv_failed", "corrupt_detected", "retransfers",
    "quarantined", "finalize_verify_failed", "hedges", "hedge_wins",
    "hedge_losses", "hedge_cancelled", "cordons", "drained_parts",
    "migrated_tasks", "checkpoints", "switchovers")

#: Trace attribute names, one tuple per record schema.
_RECLAIM_KEYS = ("rule", "key", "owner", "seq")


class ReplicationEngine:
    """One replication rule: ``src_bucket`` → ``dst_bucket``."""

    def __init__(self, cloud: Cloud, config: ReplicaConfig,
                 src_bucket: Bucket, dst_bucket: Bucket,
                 planner: StrategyPlanner, *,
                 changelog: Optional[ChangelogStore],
                 recorder: TaskRecorder, rule_id: str, scheduling: str,
                 health: HealthTracker, scheduler, tenant: Optional[str]):
        if scheduling not in ("pool", "fair"):
            raise ValueError("scheduling must be 'pool' or 'fair'")
        self.cloud = cloud
        #: The autopilot replaces ``config`` at run time: read it at use.
        self.config = config
        self.src_bucket = src_bucket
        self.dst_bucket = dst_bucket
        self.planner = planner
        #: None when ``enable_changelog`` is off.
        self.changelog = changelog
        self.recorder = recorder
        self.rule_id = rule_id
        self.scheduling = scheduling
        #: Multi-tenant wiring — a fair-share scheduler gating dispatch,
        #: the owning tenant's id; both None for a single-tenant rule.
        self.scheduler = scheduler
        self.tenant = tenant
        #: Per-(task, worker) instrumentation for the scheduling ablation
        #: (Fig 17): parts replicated and busy span of each instance.
        self.worker_parts: dict[tuple[str, int], int] = {}
        self.worker_spans: dict[tuple[str, int], tuple[float, float]] = {}
        self.stats = dict.fromkeys(_STAT_KEYS, 0)
        # Backoff jitter draws on a dedicated stream (retry timing must not
        # shift with unrelated sampling), opened at the first rejection.
        self._retry_rng = None
        # Control state lives in serverless databases (§7): locks and
        # done markers beside the orchestrator (source region), part
        # pools beside the replicators (execution region), namespaced
        # per rule — two rules on one source bucket are independent.
        self._lock_table = cloud.kv_table(src_bucket.region.key,
                                          f"{_STATE_TABLE}-{rule_id}")
        self.locks = ReplicationLockManager(self._lock_table, rule_id=rule_id)
        #: Causal tracer; off costs one attribute read per site.
        self.tracer = None
        #: Ablation hook: pin every task to (n, loc_key), no planner.
        self.forced_plan: Optional[tuple[int, str]] = None
        self._orch_name = f"areplica-orch-{rule_id}"
        self._rep_name = f"areplica-rep-{rule_id}"
        self._applier_name = f"areplica-apply-{rule_id}"
        #: Substrate-health ledger: degraded routing reads it.
        self.health = health
        #: Tasks no route could serve, parked until recovery.
        self.backlog = ParkedBacklog(self)
        #: Straggler cloning; None unless ``hedging_enabled``.
        self.hedger = Hedger(self) if config.hedging_enabled else None
        health.subscribe(self._on_health_transition)
        self._deploy()

    # -- deployment and lifecycle ---------------------------------------------

    def _deploy(self) -> None:
        src_faas = self.cloud.faas(self.src_bucket.region.key)
        dst_faas = self.cloud.faas(self.dst_bucket.region.key)
        # The orchestrator deploys at *both* ends: during a source-side
        # FaaS outage events fail over to the destination platform
        # (orchestration moves; the lock table stays at the source).
        for faas in {src_faas, dst_faas}:
            faas.deploy(self._orch_name, self._orchestrator, timeout_s=300.0)
            faas.deploy(self._rep_name, self._replicator)
        dst_faas.deploy(self._applier_name, self._applier, timeout_s=300.0)

    def _state_table(self, loc_key: str):
        return self.cloud.kv_table(loc_key, f"{_STATE_TABLE}-{self.rule_id}")

    def set_tracer(self, tracer) -> None:
        """Install (or clear, with None) the causal tracer."""
        self.tracer = self.locks.tracer = tracer

    def _on_health_transition(self, target, state: str) -> None:
        self.backlog.on_health_transition(state)

    def detach(self) -> None:
        """Step aside for a replacement engine (rolling restart): stop
        receiving health transitions — two engines draining one backlog
        would double-dispatch — and surrender the in-memory backlog.
        In-flight functions keep running: the platform owns them."""
        self.health.unsubscribe(self._on_health_transition)
        self.backlog.surrender()

    def adopt_counters(self, old: "ReplicationEngine") -> None:
        """Carry operational state over from a torn-down engine: stats
        by reference (counters stay monotonic across the restart), the
        backlog and hedger rebound so nothing keeps calling ``old``."""
        self.stats, self.forced_plan = old.stats, old.forced_plan
        self.worker_parts = old.worker_parts
        self.worker_spans = old.worker_spans
        self.backlog, self.hedger = old.backlog, old.hedger
        self.backlog.engine = self
        if self.hedger is not None:
            self.hedger.engine = self

    def reclaim_stranded_locks(self) -> int:
        """Schedule takeover of lock records that survived quiescence.

        A holder that dies before UNLOCK, or after an UNLOCK that handed
        back a pending version it never re-triggered, strands the record
        and the newest version on it.  Re-dispatch one recovery task per
        record (a delete when the source no longer holds the key),
        delayed past lease expiry so the takeover (not a deferral) wins;
        returns how many, and the caller re-runs the simulation.
        """
        sim = self.cloud.sim
        stranded = list(self.locks.stranded())
        for key, owner, seq, etag, lease_left_s, _ in stranded:
            kind = "created" if key in self.src_bucket else "deleted"
            payload = {"kind": kind, "key": key, "etag": etag, "seq": seq,
                       "size": 0, "event_time": sim.now}
            if self.tracer is not None:
                self.tracer.event("lock-reclaim", "engine", None,
                                  _RECLAIM_KEYS, self.rule_id, key, owner, seq)
            sim.call_later(lease_left_s + 1.0,
                           lambda p=payload: self._dispatch_event(p))
        return len(stranded)

    # -- hardened control-plane plumbing --------------------------------------

    def _kv(self, ctx, make):
        """Process: one control-plane KV operation under the retry schedule.

        ``make`` is a zero-argument factory returning a KV request (what
        the kernel waits on) or a single-operation process such as a
        lock or pool primitive — a factory because a :class:`Throttled`
        rejection consumes the attempt.  Rejections precede any
        mutation, so in-place retry with jittered backoff is safe and
        far cheaper than failing the function; past the attempt cap the
        error propagates to the platform's retry/DLQ machinery.
        """
        attempt = 0
        deadline = None
        while True:
            try:
                op = make()
                # Decide by what the kernel can wait on; anything else
                # is a process, whatever its type (generator or proxy).
                if type(op) is DeferredResult or isinstance(op, Future):
                    return (yield op)
                return (yield from op)
            except Throttled:
                if attempt >= retry.MAX_ATTEMPTS:
                    self.stats["kv_retry_exhausted"] += 1
                    raise
                if self._retry_rng is None:
                    self._retry_rng = self.cloud.rngs.stream(
                        f"retry:{self.rule_id}")
                backoff = retry.backoff_s(attempt, self._retry_rng)
                # Total-time cap from the first rejection: an outage must
                # not pin a billed function for the whole backoff sum,
                # nor a retry outlive its lock lease.
                if deadline is None:
                    deadline = ctx.now + self.config.retry_deadline_s
                elif ctx.now + backoff > deadline:
                    self.stats["kv_retry_deadline"] += 1
                    raise
                self.stats["kv_retries"] += 1
                yield ctx.sleep(backoff)
                attempt += 1

    def _fence_ok(self, ctx, task):
        """Process: re-validate ``task``'s fencing token before an
        irreversible destination write.  A zombie writer — its lease
        stolen while it stalled — must abort rather than finalize a
        stale version over the thief's newer one.  No steal is possible
        while the lease is young, so the common case reads nothing."""
        fence, lock_at = task.get("fence"), task.get("lock_at")
        if fence is None:
            return True
        if lock_at is not None and not expired(
                lock_at, self.locks.lease_s * 0.5, ctx.now):
            return True
        ok = yield from self._kv(ctx, lambda: self.locks.verify(
            task["key"], task["task_id"], fence))
        if not ok:
            self.stats["lock_lost"] += 1
        return ok

    def _record_visible(self, tid: Optional[str], result: TaskResult) -> None:
        """Report a visibility outcome, mirrored into the trace."""
        if self.tracer is not None:
            self.tracer.event("visible", "engine", tid, VERSION_KEYS,
                              result.key, result.seq, result.kind)
        self.recorder.record_visible(result)

    # -- routing and dispatch -------------------------------------------------

    def _route(self) -> Optional[str]:
        """Execution region for a new orchestration, or None (no route).
        The source lock table and both object stores are
        location-pinned, so a dark one parks the task outright; the
        orchestrator itself fails over to the destination platform when
        only the source FaaS is dark."""
        health = self.health
        src_key = self.src_bucket.region.key
        if not health.any_open:
            return src_key
        dst_key = self.dst_bucket.region.key
        if not (health.available(("kv", src_key))
                and health.available(("store", src_key))
                and health.available(("store", dst_key))):
            return None
        if health.available(("faas", src_key)):
            return src_key
        if dst_key != src_key and health.available(("faas", dst_key)):
            return dst_key
        return None

    def handle_event(self, event: ObjectEvent) -> None:
        """Notification delivery: trigger the orchestrator function."""
        self._dispatch_event({
            "kind": event.kind, "key": event.key, "etag": event.etag,
            "seq": event.sequencer, "size": event.size,
            "event_time": event.event_time})

    def redrive_event(self, payload: dict) -> None:
        """Inject a synthetic event (anti-entropy repair) down the same
        degraded-routing path as live notifications."""
        self._dispatch_event(dict(payload))

    def _dispatch_event(self, payload: dict) -> None:
        """Route ``payload`` to an orchestrator, or park it."""
        if self.tracer is not None and "task" not in payload:
            # Stamped at dispatch so the FaaS substrate files the
            # orchestrator invocation's own I/D/P/S/C spans under it.
            payload["task"] = task_id(self.rule_id, payload["key"],
                                      payload["seq"], payload["kind"])
        route = self._route()
        if route is None:
            self.backlog.park(payload)
            return
        if route != self.src_bucket.region.key:
            self.stats["failover"] += 1
        if self.tracer is not None:
            # The oracle's witness that no dispatch enters a cordoned FaaS
            # region (invoke_and_forget emits no I-span to serve as one).
            self.tracer.event("dispatch", "engine", payload.get("task"),
                              DISPATCH_KEYS, self.rule_id, route)
        faas = self.cloud.faas(route)
        if self.scheduler is None:
            faas.invoke_and_forget(self._orch_name, payload)
            return
        # Fair-share gate: the scheduler decides *when* the invocation
        # starts; the route was decided above, so degraded-mode failover
        # is identical either way.
        self.scheduler.submit(
            self.tenant or self.rule_id,
            lambda: faas.invoke_and_forget(self._orch_name, payload))

    def _retrigger(self, tid: str, key: str, seq, kind: str,
                   payload: Optional[dict] = None) -> None:
        """Count and trace one re-trigger by task ``tid`` and, given a
        ``payload``, dispatch it as a fresh task (fresh lock and fence)."""
        self.stats["retriggered"] += 1
        if self.tracer is not None:
            self.tracer.event("retrigger", "engine", tid, VERSION_KEYS,
                              key, seq, kind)
        if payload is not None:
            self._dispatch_event(payload)

    # -- the FaaS handlers (an external profiler files whatever they
    # -- ``yield from`` under the module that defines them: this one) ---------

    def _orchestrator(self, ctx, payload):
        self.stats["tasks"] += 1
        key = payload["key"]
        if self.health.any_open and self._route() is None:
            # An outage opened since dispatch (or a platform retry is
            # riding one out): park before burning lock-write retries.
            self.backlog.park(dict(payload))
            return
        tid = task_id(self.rule_id, key, payload["seq"], payload["kind"])
        outcome = yield from self._kv(
            ctx, lambda: self.locks.lock(key, payload["etag"],
                                         payload["seq"], owner=tid))
        if not outcome.acquired:
            # A task is in flight; our version is registered as pending
            # (or an even newer one already is) — Algorithm 2's LOCK.
            self.stats["deferred"] += 1
            return
        # Fencing state, re-validated before every destination finalize.
        fencing = {"fence": outcome.fence, "lock_at": ctx.now}
        if payload["kind"] == "deleted":
            yield from propagate_delete(
                self, ctx, payload, dict(fencing, task_id=tid, key=key))
            return
        # Re-read the source: replicate the *current* version (it covers
        # this event and any newer ones).
        try:
            current = yield from ctx.head_object(self.src_bucket, key)
        except NoSuchKey:
            # Deleted concurrently.  If the DELETE's task already ran,
            # its marker covers this event — close the measurement here,
            # nobody else will; else its own report will subsume ours.
            done = yield from self._kv(ctx, lambda: self.locks.done(key))
            if done is not None and done["seq"] >= payload["seq"]:
                yield from self._already_replicated(
                    ctx, tid, payload, done, done["seq"], None)
            else:
                yield from self._finish(ctx, tid, key, None)
            return
        done = yield from self._kv(ctx, lambda: self.locks.done(key))
        repair = payload.get("repair")
        if (done is not None and not repair
                and (done["seq"] >= current.sequencer
                     or (done["etag"] == current.etag
                         and done.get("op", "put") != "delete"))):
            # A prior task shipped this version or a newer one — or the
            # same *content* under an older sequencer (the reverse rule
            # of a bidirectional pair).  A delete marker's ETag is the
            # deleted version's, so only put markers vouch by ETag;
            # repair events heal *behind* a valid marker, so none does.
            seq = max(done["seq"], current.sequencer)
            yield from self._already_replicated(ctx, tid, payload, done,
                                                seq, seq)
            return
        task = {"task_id": tid, "key": key, "etag": current.etag,
                "seq": current.sequencer, "size": current.size,
                "event_time": payload["event_time"], **fencing}
        # Content short-circuit: the destination already holds these
        # bytes (an earlier run, a pre-seed, the reverse rule of a pair,
        # whose ping-pong this breaks).  The HEAD only pays for itself
        # when the transfer dwarfs a round-trip; repair events skip it —
        # deep scrub re-drives exactly when that ETag cannot be trusted.
        if current.size > LOCAL_THRESHOLD and not repair:
            try:
                dst_etag = (yield from ctx.head_object(self.dst_bucket,
                                                       key)).etag
            except NoSuchKey:
                dst_etag = None
            if dst_etag == current.etag:
                self.stats["content_skipped"] = (
                    self.stats.get("content_skipped", 0) + 1)
                yield from self._kv(ctx, partial(
                    self.locks.mark_done, key, current.etag,
                    current.sequencer, ctx.now))
                self._record_visible(tid, TaskResult(
                    key=key, etag=current.etag, seq=current.sequencer,
                    event_time=payload["event_time"], visible_time=ctx.now,
                    plan=None, kind="content-match", started=ctx.now))
                yield from self._finish(ctx, tid, key, current.sequencer)
                return
        if self.changelog is not None:
            applied = yield from propagate_changelog(self, ctx, task)
            if applied:
                return
        plan_from = ctx.now
        try:
            plan = self._plan(task, ctx.now)
        except NoRouteAvailable:
            # Every execution location is behind an open circuit: park
            # the event and unlock, so the drained task starts clean.
            self.backlog.park(dict(payload))
            yield from self._finish(ctx, tid, key, None)
            return
        if self.tracer is not None:
            self.tracer.span("plan", "engine", tid, plan_from, ctx.now,
                             PLAN_KEYS, plan.n, plan.loc_key, plan.inline,
                             plan.compliant, plan.predicted_s)
        task.update(plan_n=plan.n, loc_key=plan.loc_key,
                    predicted_s=plan.predicted_s,
                    predicted_median_s=plan.predicted_median_s,
                    started=ctx.now)
        # With hedging on, a one-function transfer big enough to clone
        # is a straggler trap: one instance's speed draw, one set of WAN
        # legs, invisible to the deadline monitor.  Route it through the
        # pool — the orchestrator as the only worker for an inline plan
        # (no extra invocation), one replicator at n=1 — so every range
        # gets a deadline and a clone budget.
        pooled = not (plan.inline or plan.n == 1) or (
            self.hedger is not None and self.hedger.eligible(task["size"]))
        if outcome.reentrant and not pooled:
            # This retry bypasses the pool (the source shrank since the
            # crashed attempt planned): a pool record that attempt
            # persisted, and its upload, would leak forever.
            yield from distributed.reap_orphan_pool(self, ctx, tid)
        if plan.inline:
            self.stats["inline"] += 1
            if pooled:
                yield from distributed.launch(self, ctx, task, plan,
                                              inline_worker=True)
            else:
                yield from run_single(self, ctx, task)
        elif pooled:
            self.stats["distributed"] += 1
            yield from distributed.launch(self, ctx, task, plan)
        else:
            self.stats["single"] += 1
            task["mode"] = "single"
            # Fire-and-forget: the replicator finishes the task.
            yield from ctx.invoke(self.cloud.faas(plan.loc_key),
                                  self._rep_name, dict(task))

    def _replicator(self, ctx, payload):
        mode = payload.get("mode")
        if mode == "single":
            yield from run_single(self, ctx, payload)
        elif mode == "hedge-clone":
            return (yield from self.hedger.run_clone(ctx, payload))
        else:
            yield from distributed.run_worker(self, ctx, payload)

    def _applier(self, ctx, payload):
        return (yield from apply_changelog(self, ctx, payload["task"],
                                           payload["entry"]))

    # -- the orchestrator's decision path -------------------------------------

    def _plan(self, task: dict, now: float) -> Plan:
        src_key = self.src_bucket.region.key
        dst_key = self.dst_bucket.region.key
        if self.forced_plan is not None:
            return self.planner.pinned(task["size"], *self.forced_plan,
                                       src_key, dst_key)
        if self.config.slo_enabled:
            remaining = self.config.slo_seconds - (now - task["event_time"])
            return self.planner.generate(task["size"], src_key, dst_key,
                                         slo_remaining=remaining)
        return self.planner.fastest(task["size"], src_key, dst_key)

    # -- completion exits -----------------------------------------------------

    def _already_replicated(self, ctx, tid: str, payload, done, seq: int,
                            replicated_seq: Optional[int], clamp: bool = True):
        """Process: a done marker already covers this event — raise it
        to ``seq`` if the event is newer, report visibility at the
        recorded time so the delay measurement closes, and unlock."""
        self.stats["skipped_done"] += 1
        key = payload["key"]
        if seq > done["seq"]:
            yield from self._kv(ctx, partial(
                self.locks.mark_done, key, done["etag"], seq,
                done.get("time", ctx.now)))
        visible = done.get("time", ctx.now)
        if clamp:
            # Identical content re-written was visible at the
            # destination the moment the PUT landed.
            visible = max(visible, payload["event_time"])
        self._record_visible(tid, TaskResult(
            key=key, etag=done["etag"], seq=seq,
            event_time=payload["event_time"], visible_time=visible,
            plan=None, kind="already-replicated",
            started=payload["event_time"]))
        yield from self._finish(ctx, tid, key, replicated_seq)

    def _finish_replicated(self, ctx, task, version: ObjectVersion,
                           kind: str = "created", own_write: bool = True):
        tid, key = task["task_id"], task["key"]
        # Verify-after-finalize, *before* the done marker vouches for the
        # destination forever (both sides are cached hash strings).
        verified = version.etag == task["etag"]
        if self.tracer is not None:
            self.tracer.span("verify", "engine", tid, ctx.now, ctx.now,
                             VERIFY_KEYS, key, task["etag"], version.etag,
                             verified)
        if not verified:
            yield from withdraw_unverified(self, ctx, task, own_write)
            yield from self._finish(ctx, tid, key, None,
                                    retrigger_if_unreplicated=True)
            return
        # Both stores answered: the successes that walk a half-open
        # ("store", region) breaker closed.
        self.health.record(("store", self.src_bucket.region.key), True)
        self.health.record(("store", self.dst_bucket.region.key), True)
        if self.tracer is not None:
            self.tracer.event("finalize", "engine", tid, FINALIZE_KEYS, key,
                              task["seq"], task["etag"], task.get("fence"),
                              "put", ctx.region.key, True)
        superseded = yield from self._kv(ctx, partial(
            self.locks.mark_done, key, task["etag"], task["seq"], ctx.now))
        if superseded is not None:
            yield from reconverge_superseded(
                self, ctx, tid, key, task["etag"] if own_write else None)
        plan = None
        if "plan_n" in task:
            loc_key = task.get("loc_key", ctx.region.key)
            plan = Plan(
                n=task["plan_n"], loc_key=loc_key,
                path=(loc_key, self.src_bucket.region.key,
                      self.dst_bucket.region.key),
                predicted_s=task.get("predicted_s", 0.0),
                percentile=self.config.percentile,
                compliant=True, inline=task.get("mode") is None,
                predicted_median_s=task.get("predicted_median_s", 0.0))
        self._record_visible(tid, TaskResult(
            key=key, etag=task["etag"], seq=task["seq"],
            event_time=task["event_time"], visible_time=ctx.now, plan=plan,
            kind=kind, started=task.get("started", task["event_time"])))
        yield from self._finish(ctx, tid, key, task["seq"])

    def _finish(self, ctx, tid: str, key: str, replicated_seq: Optional[int],
                retrigger_if_unreplicated: bool = False):
        """Algorithm 2's UNLOCK, re-triggering a newer pending version."""
        outcome = yield from self._kv(
            ctx, lambda: self.locks.release(key, tid, replicated_seq))
        if not outcome.released:
            # Lease stolen while we worked: the record and any pending
            # registration on it are the thief's, who now owns this
            # key's convergence.  Surface the loss; never no-op it.
            self.stats["lock_lost"] += 1
            if self.tracer is not None:
                self.tracer.event("lock-lost", "engine", tid, LOST_KEYS, key)
            return
        pending = outcome.pending
        if pending is None and not (retrigger_if_unreplicated
                                    and key in self.src_bucket):
            # Nothing newer pends.  An abort re-checks the source anyway
            # (its own notification may be in flight) to bound the delay.
            return
        try:
            current = yield from ctx.head_object(self.src_bucket, key)
        except NoSuchKey:
            if pending is not None:
                # Registered while we held the lock, deleted since; the
                # pending writer quit when it registered, so nobody else
                # will propagate the deletion (idempotent with its own).
                self._retrigger(tid, key, pending.seq, "deleted", {
                    "kind": "deleted", "key": key, "etag": pending.etag,
                    "seq": pending.seq, "size": 0, "event_time": ctx.now})
            return
        if replicated_seq is not None and current.sequencer <= replicated_seq:
            return
        self._retrigger(tid, key, current.sequencer, "created", {
            "kind": "created", "key": key, "etag": current.etag,
            "seq": current.sequencer, "size": current.size,
            "event_time": current.put_time})
