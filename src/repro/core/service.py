"""The AReplica service facade (§4 overview).

Wires all components end to end for one or more replication rules:

    bucket notification → [SLO-bounded batching] → orchestrator
    → lock / changelog / planner → replication engine → destination

and keeps the user-facing measurement records: for every source PUT or
DELETE, the **replication delay** from the completion of the request to
the successful visibility of that version (or a subsequent one) in the
destination bucket — the paper's §8 metric.
"""

from __future__ import annotations

import itertools
from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np

from repro.core.batching import BatchingBuffer
from repro.core.changelog import ChangelogStore
from repro.core.config import ReplicaConfig, TenantConfig
from repro.core.engine import ReplicationEngine
from repro.core.health import HealthTracker
from repro.core.logger import RuntimeLogger
from repro.core.model import PerformanceModel
from repro.core.planner import StrategyPlanner
from repro.core.profiler import PerformanceProfiler
from repro.core.scheduler import FairShareScheduler
from repro.core.sharding import ShardRouter
from repro.core.task import TaskResult, task_id
from repro.core.tracing import Tracer
from repro.simcloud.cloud import Cloud
from repro.simcloud.cost import TenantLedger, estimate_task_cost
from repro.simcloud.objectstore import Bucket, ObjectEvent

__all__ = ["AReplicaService", "ConvergenceReport", "ReplicationRecord",
           "ReplicationRule", "TenantState"]

_CHANGELOG_TABLE = "areplica-changelog"

#: Trace attribute names, one tuple per record schema.
_REJECT_KEYS = ("tenant", "key", "window")
_DEFER_KEYS = ("tenant", "key", "window", "lane_depth")
_ROLL_KEYS = ("tenant", "window", "lane_depth")
_DELIVERY_KEYS = ("key", "seq", "kind")

#: The per-tenant operational counters (the tenant analogue of the
#: engine stats dict); ``tests/core/test_stats_contract.py`` pins this
#: exact key set, so additions must extend the contract there too.
TENANT_STAT_KEYS = ("admitted", "deferred", "rejected", "fairshare_waits",
                    "shard_migrations")


@dataclass(frozen=True, slots=True)
class ReplicationRecord:
    """Delay measurement for one source-bucket write."""

    rule_id: str
    key: str
    seq: int
    kind: str                 # "created" | "deleted"
    event_time: float         # completion of the source PUT/DELETE
    visible_time: float       # this or a newer version visible at dst
    plan_n: Optional[int]
    loc_key: Optional[str]
    task_kind: str            # how it was satisfied (created/changelog/deleted)
    #: When the satisfying task began executing its plan (after the
    #: notification); ``visible_time - started`` is the pure T_rep.
    started: float = 0.0

    @property
    def delay(self) -> float:
        return self.visible_time - self.event_time

    @property
    def replication_seconds(self) -> float:
        return self.visible_time - self.started


@dataclass(frozen=True)
class ConvergenceReport:
    """Outcome of one :meth:`AReplicaService.run_to_convergence` call.

    ``converged`` means every dead-letter queue drained and no task
    remains parked in an outage backlog — the destination holds (or
    will trivially hold) every source version.  A False report carries
    the residuals so the operator sees *what* is still owed instead of
    an opaque exception.
    """

    converged: bool
    #: Dead-letter redrive rounds used.
    rounds: int
    #: Total dead-lettered events re-enqueued across those rounds.
    redriven: int
    #: Dead letters still queued when the loop gave up (0 on success).
    residual_dead_letters: int
    #: Tasks still parked in engine backlogs (0 unless a route is dark).
    parked_backlog: int
    #: High-water mark of the parked backlog across every rule — how
    #: deep the outage (or evacuation) got at its worst.
    backlog_peak: int = 0
    #: Parked tasks re-dispatched over the run (drain progress).
    drained: int = 0
    #: Lock records stranded by a holder that died between finalize and
    #: UNLOCK, reclaimed (lease takeover) by the convergence loop.
    reclaimed_locks: int = 0
    #: Tasks still sitting in tenant budget-deferral lanes when the loop
    #: gave up (0 on success, and always 0 for single-tenant services).
    deferred_tenant_tasks: int = 0

    def to_dict(self) -> dict:
        return asdict(self)

    def render(self) -> str:
        if self.converged:
            extra = (f", {self.reclaimed_locks} lock(s) reclaimed"
                     if self.reclaimed_locks else "")
            return (f"converged after {self.rounds} redrive round(s), "
                    f"{self.redriven} event(s) redriven, backlog peak "
                    f"{self.backlog_peak}, {self.drained} drained{extra}")
        return (f"NOT converged: {self.residual_dead_letters} dead "
                f"letter(s), {self.parked_backlog} parked task(s), "
                f"{self.deferred_tenant_tasks} budget-deferred task(s) "
                f"after {self.rounds} round(s)")


@dataclass
class ReplicationRule:
    """One configured src → dst replication pair."""

    rule_id: str
    src_bucket: Bucket
    dst_bucket: Bucket
    engine: ReplicationEngine
    changelog: ChangelogStore
    batcher: Optional[BatchingBuffer] = None
    outstanding: dict[str, list[tuple[int, float, str]]] = field(default_factory=dict)
    #: Per-key high-water mark of closed measurements: seq -> (seq,
    #: visible_time) of the newest version ever reported visible.  Guards
    #: the measurement ledger against at-least-once delivery: a duplicate
    #: (or reordered straggler) arriving *after* the closing report must
    #: not re-open an entry nobody will ever close again.
    closed: dict[str, tuple[int, float]] = field(default_factory=dict)
    #: Owning tenant for multi-tenant shard rules (None for classic rules).
    tenant: Optional[str] = None


@dataclass
class TenantState:
    """Runtime state for one registered tenant."""

    config: TenantConfig
    src_bucket: Bucket
    dst_bucket: Bucket
    ledger: TenantLedger
    #: Operational counters (TENANT_STAT_KEYS).
    stats: dict = field(default_factory=lambda: {k: 0 for k in TENANT_STAT_KEYS})
    #: Budget-deferred notifications parked until the spend window rolls.
    deferred: list = field(default_factory=list)
    #: shard index -> rule_id of the lazily created engine worker.
    shard_rules: dict[int, str] = field(default_factory=dict)
    #: True while a window-roll timer is armed for this tenant.
    roll_armed: bool = False


class _Recorder:
    """Engine → service callback adapter for one rule."""

    __slots__ = ("service", "rule_id")

    def __init__(self, service: "AReplicaService", rule_id: str):
        self.service = service
        self.rule_id = rule_id

    def record_visible(self, result: TaskResult) -> None:
        self.service._on_visible(self.rule_id, result)

    def record_abort(self, key: str, etag: str) -> None:
        self.service.aborts.append((self.rule_id, key, etag))


class AReplicaService:
    """Top-level entry point: build once per Cloud, add rules, run."""

    def __init__(self, cloud: Cloud, config: Optional[ReplicaConfig] = None):
        self.cloud = cloud
        self.config = config or ReplicaConfig()
        self.model = PerformanceModel(
            chunk_size=self.config.part_size,
            mc_samples=self.config.mc_samples,
            gumbel_threshold=self.config.gumbel_threshold,
            seed=cloud.rngs.seed,
        )
        self.profiler = PerformanceProfiler(cloud, self.model,
                                            samples=self.config.profile_samples)
        self.health = HealthTracker(clock=lambda: cloud.sim.now,
                                    schedule=cloud.sim.call_later)
        cloud.set_health(self.health)
        #: Optional causal tracer (ReplicaConfig.tracing_enabled); wired
        #: into every substrate via the cloud, mirroring set_health.
        self.tracer: Optional[Tracer] = None
        if self.config.tracing_enabled:
            self.tracer = Tracer(cloud.sim)
            cloud.set_tracer(self.tracer)
        self.planner = StrategyPlanner(self.model, self.config,
                                       health=self.health)
        self.planner.tracer = self.tracer
        self.logger = RuntimeLogger(self.model)
        self.rules: dict[str, ReplicationRule] = {}
        self.records: list[ReplicationRecord] = []
        self.aborts: list[tuple[str, str, str]] = []
        self._rule_seq = itertools.count(1)
        # -- multi-tenancy (all None/empty until enable_multitenancy();
        # the single-tenant paths never consult them beyond `is None` /
        # truthiness checks, keeping the default build byte-identical).
        self.tenants: dict[str, TenantState] = {}
        self.scheduler: Optional[FairShareScheduler] = None
        self.shard_router: Optional[ShardRouter] = None
        #: Closed-loop SLO controller (ReplicaConfig.enable_autopilot).
        #: Construction is side-effect free; nothing runs until
        #: ``service.autopilot.start(duration_s)`` arms the tick loop,
        #: so the disabled default stays byte-invisible.
        self.autopilot = None
        if self.config.enable_autopilot:
            from repro.core.autopilot import Autopilot
            self.autopilot = Autopilot(self)

    # -- rule management ---------------------------------------------------------

    def add_rule(self, src_bucket: Bucket, dst_bucket: Bucket,
                 scheduling: str = "pool",
                 profile: bool = True,
                 rule_id: Optional[str] = None,
                 connect: bool = True,
                 tenant: Optional[str] = None) -> ReplicationRule:
        """Configure replication from ``src_bucket`` to ``dst_bucket``.

        ``profile=True`` (the default) runs the offline profiler for
        both candidate execution locations before the rule goes live —
        the paper's onboarding step.  Pass False when the model has
        already been fitted (e.g. shared across rules on one path).

        The remaining keywords exist for the multi-tenant shard layer
        (``_tenant_rule``): an explicit ``rule_id`` names the per-shard
        lock domain, ``connect=False`` skips the notification hookup
        (the tenant router delivers admitted events directly), and
        ``tenant`` tags the engine (scoped tracer + fair-share lane).
        """
        if rule_id is None:
            rule_id = f"rule{next(self._rule_seq)}"
        if profile:
            self._ensure_profiled(src_bucket, dst_bucket)
        # Tenant rules get a tenant-suffixed changelog table: the shared
        # table is keyed by object key, and two tenants may legitimately
        # reuse key names without sharing deltas.
        changelog_table = (_CHANGELOG_TABLE if tenant is None
                           else f"{_CHANGELOG_TABLE}-{tenant}")
        changelog = ChangelogStore(
            self.cloud.kv_table(src_bucket.region.key, changelog_table)
        )
        engine = self._build_engine(rule_id, self.config, src_bucket,
                                    dst_bucket, changelog, scheduling, tenant)
        rule = ReplicationRule(rule_id, src_bucket, dst_bucket, engine,
                               changelog, tenant=tenant)
        if self.config.slo_enabled and self.config.enable_batching:
            rule.batcher = BatchingBuffer(
                self.cloud.sim,
                self.cloud.timers(src_bucket.region.key),
                self.config,
                src_bucket,
                estimate_s=self._estimate_replication_time(rule),
                flush=engine.handle_event,
            )
        self.rules[rule_id] = rule
        if connect:
            self.cloud.notifications.connect(
                src_bucket, lambda event, r=rule: self._on_event(r, event)
            )
        return rule

    def _ensure_profiled(self, src_bucket: Bucket, dst_bucket: Bucket) -> None:
        """Onboarding: fit both candidate execution locations of the
        path (a no-op for a location already fitted)."""
        src_key, dst_key = src_bucket.region.key, dst_bucket.region.key
        self.profiler.ensure_path(src_key, src_bucket, dst_bucket)
        if dst_key != src_key:
            self.profiler.ensure_path(dst_key, src_bucket, dst_bucket)

    def _build_engine(self, rule_id: str, cfg: ReplicaConfig,
                      src_bucket: Bucket, dst_bucket: Bucket,
                      changelog: ChangelogStore, scheduling: str,
                      tenant: Optional[str]) -> ReplicationEngine:
        """One rule's engine with the service's shared wiring (planner,
        health, recorder, fair-share lane and scoped tracer for tenant
        rules) — for a new rule or a rolling-restart replacement."""
        engine = ReplicationEngine(
            self.cloud, cfg, src_bucket, dst_bucket, self.planner,
            changelog=changelog if cfg.enable_changelog else None,
            recorder=_Recorder(self, rule_id), rule_id=rule_id,
            scheduling=scheduling, health=self.health,
            scheduler=self.scheduler if tenant is not None else None,
            tenant=tenant,
        )
        if self.tracer is not None:
            engine.set_tracer(self.tracer if tenant is None
                              else self.tracer.scoped(tenant))
        return engine

    def rebuild_engine(self, rule_id: str) -> ReplicationEngine:
        """Tear down a rule's engine and rebuild it in place (rolling
        restart / upgrade, core/lifecycle.py).

        The old engine is detached (health subscription dropped, its
        in-memory backlog surrendered to the durable mirror) and a new
        engine is constructed with identical wiring: ``kv_table`` is
        cached per (region, name) so the replacement re-attaches to the
        same lock table, done markers, and ``backlog:`` mirror, and
        FaaS ``deploy`` overwrites by name so in-flight platform
        retries and DLQ redrives hit the *new* deployment.  Monotonic
        counters carry over via :meth:`ReplicationEngine.adopt_counters`.
        The replacement is built from the service's live ``config``,
        which the autopilot replaces when it actuates, so a restart
        keeps every knob the controller moved.
        The caller restores control-plane state afterwards by driving
        ``new_engine.backlog.restore()``.
        """
        rule = self.rules[rule_id]
        old = rule.engine
        old.detach()
        engine = self._build_engine(
            rule_id, self.config, rule.src_bucket, rule.dst_bucket,
            rule.changelog, old.scheduling, rule.tenant)
        engine.adopt_counters(old)
        rule.engine = engine
        if rule.batcher is not None:
            rule.batcher.flush = engine.handle_event
        return engine

    def _estimate_replication_time(self, rule: ReplicationRule):
        src = rule.src_bucket.region.key
        dst = rule.dst_bucket.region.key
        planner = self.planner

        def estimate(size: int) -> float:
            # Power-of-two size bucketing keeps the batcher's estimate
            # queries coarse; the planner's PlanCache (which also sees
            # drift invalidations, unlike a local dict) does the rest.
            bucket = max(1, 1 << (max(0, size - 1)).bit_length())
            return planner.fastest(bucket, src, dst).predicted_s

        return estimate

    # -- multi-tenancy -----------------------------------------------------------

    def enable_multitenancy(self, shards: int = 1,
                            max_concurrent: int = 64) -> None:
        """Switch the service into multi-tenant mode.

        Builds the fair-share dispatch scheduler and the consistent-hash
        shard router; must run before the first :meth:`add_tenant`.
        Classic :meth:`add_rule` rules are unaffected (they never pass
        through the scheduler or the router).
        """
        if self.tenants:
            raise RuntimeError("enable_multitenancy must precede add_tenant")
        self.scheduler = FairShareScheduler(max_concurrent=max_concurrent)
        self.shard_router = ShardRouter(shards)

    def add_tenant(self, config: TenantConfig, src_bucket: Bucket,
                   dst_bucket: Bucket) -> TenantState:
        """Register a tenant: budget ledger, fair-share lane, buckets.

        Engine workers are created lazily, one per (tenant, shard) on
        the first admitted event routed there — a thousand mostly idle
        tenants cost a dict entry each, not a thousand engines.  The
        region pair is profiled here when no earlier rule or tenant
        fitted it: the lazily built shard rules skip profiling, and a
        planner without a path model fails every task it is handed.
        """
        if self.shard_router is None:
            self.enable_multitenancy()
        tid = config.tenant_id
        if tid in self.tenants:
            raise ValueError(f"duplicate tenant {tid!r}")
        self._ensure_profiled(src_bucket, dst_bucket)
        state = TenantState(
            config=config, src_bucket=src_bucket, dst_bucket=dst_bucket,
            ledger=TenantLedger(tid, budget_usd=config.budget_usd,
                                window_s=config.budget_window_s),
        )
        self.tenants[tid] = state
        self.scheduler.add_tenant(tid, weight=config.weight,
                                  stats=state.stats)
        self.cloud.notifications.connect(
            src_bucket, lambda event, s=state: self._on_tenant_event(s, event)
        )
        return state

    def _tenant_rule(self, state: TenantState, shard: int) -> ReplicationRule:
        rule_id = state.shard_rules.get(shard)
        if rule_id is not None:
            return self.rules[rule_id]
        tid = state.config.tenant_id
        rule = self.add_rule(
            state.src_bucket, state.dst_bucket,
            profile=False, rule_id=f"{tid}-s{shard}", connect=False,
            tenant=tid,
        )
        state.shard_rules[shard] = rule.rule_id
        return rule

    def _on_tenant_event(self, state: TenantState, event: ObjectEvent) -> None:
        """Admission control at the front door (first delivery of a
        notification — retriggers and redrives inside the engine re-use
        the already-charged task, so the charge happens exactly here)."""
        tid = state.config.tenant_id
        now = self.cloud.sim.now
        ledger = state.ledger
        ledger.sync(now)
        if ledger.exhausted:
            task = task_id(tid, event.key, event.sequencer, event.kind)
            if state.config.exhausted_policy == "reject":
                state.stats["rejected"] += 1
                if self.tracer is not None:
                    self.tracer.event("admission-reject", "tenant", task,
                                      _REJECT_KEYS, tid, event.key,
                                      ledger.window_index)
                return
            state.stats["deferred"] += 1
            state.deferred.append(event)
            if self.tracer is not None:
                self.tracer.event("admission-defer", "tenant", task,
                                  _DEFER_KEYS, tid, event.key,
                                  ledger.window_index, len(state.deferred))
            self._arm_window_roll(state)
            return
        # Admission charges the planner-independent cost floor for the
        # task (egress + request fees + one orchestrator invocation);
        # the metered CostLedger remains the billing ground truth.
        estimate = estimate_task_cost(
            self.cloud.prices, state.src_bucket.region,
            state.dst_bucket.region, event.size)
        ledger.charge(now, estimate)
        state.stats["admitted"] += 1
        shard = self.shard_router.route(tid, event.key)
        self._on_event(self._tenant_rule(state, shard), event)

    def _arm_window_roll(self, state: TenantState) -> None:
        """Arm a timer at the next budget-window boundary (only while
        deferred work exists — idle tenants leave no timer chains)."""
        if state.roll_armed:
            return
        state.roll_armed = True
        ledger = state.ledger
        target = ledger.window_of(self.cloud.sim.now) + 1
        self.cloud.sim.call_at(
            target * ledger.window_s,
            lambda: self._roll_tenant_window(state, target))

    def _roll_tenant_window(self, state: TenantState, target: int) -> None:
        state.roll_armed = False
        ledger = state.ledger
        ledger.sync(self.cloud.sim.now)
        if ledger.window_index < target:
            # Float boundary rounding left us a hair before the window;
            # the timer fired for `target`, so roll to it explicitly.
            ledger.roll(target)
        if self.tracer is not None:
            self.tracer.event("budget-window-roll", "tenant",
                              f"{state.config.tenant_id}:window:{target}",
                              _ROLL_KEYS, state.config.tenant_id,
                              ledger.window_index, len(state.deferred))
        pending = list(state.deferred)
        state.deferred.clear()
        # Re-run admission in arrival order: a fresh window always admits
        # at least one task (spend 0 < budget), so the lane drains even
        # when the budget is below a single task's estimate; whatever
        # re-defers re-arms the next boundary.
        for event in pending:
            self._on_tenant_event(state, event)

    def set_shard_count(self, shards: int) -> int:
        """Rebalance the key-space onto ``shards`` engine workers.

        Live assignments that move shards are counted into each tenant's
        ``shard_migrations``; replication idempotency (locks + done
        markers per object) makes a mid-run move safe — at worst the new
        shard's engine re-checks a done marker.  Returns total moves.
        """
        if self.shard_router is None:
            raise RuntimeError("multitenancy is not enabled")
        moved = self.shard_router.rebalance(shards)
        total = 0
        for tid, count in moved.items():
            total += count
            if tid in self.tenants:
                self.tenants[tid].stats["shard_migrations"] += count
        return total

    def deferred_count(self) -> int:
        """Tasks parked in tenant budget-deferral lanes."""
        return sum(len(s.deferred) for s in self.tenants.values())

    def tenant_rules(self, tenant_id: str) -> list[ReplicationRule]:
        state = self.tenants[tenant_id]
        return [self.rules[rid] for rid in sorted(state.shard_rules.values())]

    def tenant_summary(self) -> dict:
        """Per-tenant verdict block: counters, spend, SLO, convergence."""
        out = {}
        delays_by_rule: dict[str, list[float]] = {}
        for record in self.records:
            delays_by_rule.setdefault(record.rule_id, []).append(record.delay)
        for tid in sorted(self.tenants):
            state = self.tenants[tid]
            rules = self.tenant_rules(tid)
            delays = [d for r in rules
                      for d in delays_by_rule.get(r.rule_id, ())]
            pending = sum(len(v) for r in rules for v in r.outstanding.values())
            parked = sum(len(r.engine.backlog) for r in rules)
            slo = state.config.slo_target_s
            p99 = float(np.quantile(np.asarray(delays), 0.99)) if delays \
                else 0.0
            out[tid] = {
                **state.stats,
                "shards": len(rules),
                "events": len(delays),
                "pending": pending,
                "parked": parked,
                "deferred_lane": len(state.deferred),
                "window_spent_usd": state.ledger.window_spent,
                "lifetime_spent_usd": state.ledger.lifetime_spent,
                "budget_usd": state.config.budget_usd,
                "over_admissions": state.ledger.over_admissions(),
                "converged": (pending == 0 and parked == 0
                              and not state.deferred),
                "delay_p99_s": p99,
                "slo_target_s": slo,
                "slo_ok": slo <= 0 or p99 <= slo,
            }
        return out

    # -- event & measurement flow ----------------------------------------------------

    def _on_event(self, rule: ReplicationRule, event: ObjectEvent) -> None:
        if self.tracer is not None:
            # The paper's N phase: source write completion → delivery of
            # the notification at the service (Fig 18-19's first bar).
            task = task_id(rule.rule_id, event.key, event.sequencer,
                           event.kind)
            self.tracer.span("N", "phase", task, event.event_time,
                             self.cloud.sim.now, _DELIVERY_KEYS, event.key,
                             event.sequencer, event.kind)
        closed = rule.closed.get(event.key)
        if closed is not None and event.sequencer <= closed[0]:
            # A newer (or this very) version is already visible at the
            # destination: this delivery is a duplicate or a reordered
            # straggler.  Its measurement closed the moment that version
            # landed — record it as satisfied rather than re-opening it.
            if self.tracer is not None:
                self.tracer.event(
                    "duplicate-delivery", "engine",
                    task_id(rule.rule_id, event.key, event.sequencer,
                            event.kind),
                    _DELIVERY_KEYS, event.key, event.sequencer, event.kind)
            self.records.append(ReplicationRecord(
                rule_id=rule.rule_id, key=event.key, seq=event.sequencer,
                kind=event.kind, event_time=event.event_time,
                visible_time=max(closed[1], event.event_time),
                plan_n=None, loc_key=None, task_kind="duplicate-delivery",
                started=event.event_time,
            ))
        else:
            rule.outstanding.setdefault(event.key, []).append(
                (event.sequencer, event.event_time, event.kind)
            )
        if rule.batcher is not None:
            rule.batcher.on_event(event)
        else:
            rule.engine.handle_event(event)

    def _on_visible(self, rule_id: str, result: TaskResult) -> None:
        rule = self.rules[rule_id]
        prev = rule.closed.get(result.key)
        if prev is None or result.seq > prev[0]:
            rule.closed[result.key] = (result.seq, result.visible_time)
        waiting = rule.outstanding.get(result.key, [])
        satisfied = [w for w in waiting if w[0] <= result.seq]
        remaining = [w for w in waiting if w[0] > result.seq]
        if remaining:
            rule.outstanding[result.key] = remaining
        else:
            # Drop drained keys: pending_count() and the monitor's
            # backlog probe iterate this dict, and empty lists would
            # accumulate one per key ever written.
            rule.outstanding.pop(result.key, None)
        for seq, event_time, kind in satisfied:
            self.records.append(ReplicationRecord(
                rule_id=rule_id, key=result.key, seq=seq, kind=kind,
                event_time=event_time, visible_time=result.visible_time,
                plan_n=result.plan.n if result.plan else None,
                loc_key=result.plan.loc_key if result.plan else None,
                task_kind=result.kind,
                started=result.started,
            ))
        if result.plan is not None and result.plan.predicted_median_s > 0:
            self.logger.record(
                result.plan.path,
                predicted_s=result.plan.predicted_median_s,
                actual_s=max(1e-9, result.visible_time - result.started),
            )

    # -- inspection helpers ---------------------------------------------------------

    def delays(self, rule_id: Optional[str] = None) -> list[float]:
        return [r.delay for r in self.records
                if rule_id is None or r.rule_id == rule_id]

    def pending_count(self) -> int:
        """Source writes not yet visible at their destination."""
        return sum(len(v) for rule in self.rules.values()
                   for v in rule.outstanding.values())

    def backlog_count(self) -> int:
        """Tasks parked across every rule's outage backlog."""
        return sum(len(rule.engine.backlog) for rule in self.rules.values())

    def backlog_peak(self) -> int:
        """High-water mark of the parked backlog across every rule."""
        return sum(rule.engine.backlog.peak for rule in self.rules.values())

    def drained_count(self) -> int:
        """Parked tasks re-dispatched (drained) across every rule."""
        return sum(rule.engine.stats.get("drained", 0)
                   for rule in self.rules.values())

    def integrity_snapshot(self) -> dict:
        """End-to-end integrity counters across every rule and platform.

        ``injected`` is the chaos layer's ground truth; the remaining
        counters are the defense's response — a corruption drill
        asserts the two sides reconcile (nothing injected goes both
        undetected and visible).
        """
        snap = {"injected": self.cloud.corruption_injected(),
                "corrupt_detected": 0, "retransfers": 0, "quarantined": 0,
                "finalize_verify_failed": 0, "quarantined_dead_letters": 0}
        for rule in self.rules.values():
            stats = rule.engine.stats
            for key in ("corrupt_detected", "retransfers", "quarantined",
                        "finalize_verify_failed"):
                snap[key] += stats.get(key, 0)
        snap["quarantined_dead_letters"] = sum(
            faas.quarantined_dead_letters for faas in self._faas_regions())
        return snap

    def summary(self) -> dict:
        """Operational snapshot: replication counts, delay percentiles,
        and the metered cost so far."""
        delays = np.asarray(self.delays()) if self.records else np.array([])
        quantile = (lambda q: float(np.quantile(delays, q))) if delays.size \
            else (lambda q: float("nan"))
        if self.tenants:
            # Tenant keys appear only in multi-tenant mode, keeping the
            # single-tenant summary (and its golden hashes) untouched.
            agg = {k: 0 for k in TENANT_STAT_KEYS}
            for state in self.tenants.values():
                for k in TENANT_STAT_KEYS:
                    agg[k] += state.stats[k]
            return {
                "tenants": len(self.tenants),
                "shards": self.shard_router.shards,
                "deferred_lane": self.deferred_count(),
                "scheduler_in_flight": self.scheduler.in_flight,
                "scheduler_pending": self.scheduler.pending(),
                "scheduler_dispatched": self.scheduler.total_dispatched,
                **agg,
                **self._base_summary(delays, quantile),
            }
        return self._base_summary(delays, quantile)

    def _base_summary(self, delays, quantile) -> dict:
        return {
            "rules": len(self.rules),
            "replicated_events": len(self.records),
            "pending_events": self.pending_count(),
            "aborts": len(self.aborts),
            "delay_p50_s": quantile(0.5),
            "delay_p99_s": quantile(0.99),
            "delay_p9999_s": quantile(0.9999),
            "delay_max_s": float(delays.max()) if delays.size else float("nan"),
            "total_cost_usd": self.cloud.ledger.total(),
            "cost_breakdown": self.cloud.ledger.breakdown(),
            "plans_generated": self.planner.plans_generated,
            "degraded_plans": self.planner.degraded_plans,
            "parked_backlog": self.backlog_count(),
            "parked_backlog_peak": self.backlog_peak(),
            "drained_tasks": self.drained_count(),
            "plan_cache_hits": self.planner.cache.hits,
            "plan_cache_misses": self.planner.cache.misses,
            "model_corrections": sum(
                self.logger.corrections(p) for p in self.model.path_params),
            "integrity": self.integrity_snapshot(),
        }

    def redrive_dead_letters(self) -> int:
        """Re-enqueue dead-lettered function events on every platform a
        rule touches — the recovery step after an outage that outlasted
        the platforms' automatic retries (§6)."""
        return sum(faas.redrive_dead_letters()
                   for faas in self._faas_regions())

    def _dead_letter_count(self) -> int:
        return sum(len(faas.dead_letters) for faas in self._faas_regions())

    def _faas_regions(self) -> list:
        """The FaaS platform of every region a rule touches, by region
        key (a fixed order: redrives schedule events)."""
        regions = set()
        for rule in self.rules.values():
            regions.add(rule.src_bucket.region.key)
            regions.add(rule.dst_bucket.region.key)
        return [self.cloud.faas(r) for r in sorted(regions)]

    def run_to_convergence(self, max_redrives: int = 10) -> ConvergenceReport:
        """Drain the simulation, redriving dead letters until none remain.

        Tasks that exhausted their platform retries during a fault storm
        land in per-region DLQs; an operator (here: this loop) redrives
        them once the storm passes and the retried task — re-entering
        its own lock reentrantly — converges the object.  Returns a
        :class:`ConvergenceReport`; a run whose DLQs refuse to drain
        within ``max_redrives`` rounds (or whose backlog stays parked
        behind a still-open circuit) reports ``converged=False`` with
        the residuals rather than raising — the caller decides whether
        a degraded-but-intact state is an error.
        """
        self.cloud.run()
        rounds = 0
        redriven = 0
        reclaimed = 0
        while rounds < max_redrives:
            n = self.redrive_dead_letters()
            if n > 0:
                redriven += n
            else:
                # DLQs are empty but a lock record may have survived
                # quiescence: its holder died between finalize and
                # UNLOCK, stranding any pending version registered on
                # it.  Reclaim (lease takeover) and keep draining.
                n = sum(rule.engine.reclaim_stranded_locks()
                        for rule in self.rules.values())
                reclaimed += n
            if n == 0:
                break
            rounds += 1
            self.cloud.run()
        residual = self._dead_letter_count()
        parked = self.backlog_count()
        deferred = self.deferred_count()
        return ConvergenceReport(
            converged=residual == 0 and parked == 0 and deferred == 0,
            rounds=rounds, redriven=redriven,
            residual_dead_letters=residual, parked_backlog=parked,
            backlog_peak=self.backlog_peak(), drained=self.drained_count(),
            reclaimed_locks=reclaimed, deferred_tenant_tasks=deferred,
        )
