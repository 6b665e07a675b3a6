"""The drill roster as data: nine fault scenarios, one runner.

A drill shows that the lock / part-pool / done-marker protocol survives
one kind of disturbance.  Each is a frozen :class:`Drill` — service
shape, disturbance, gate depth, the named predicates that prove the
machinery engaged and held, and what the report adds — and
:func:`run_drill` executes any of them the same way: build, disturb,
:func:`repro.core.verify.verify`, evaluate the predicates, report.

The CLI exposes only the switches its callers use; every other knob is
a spec field frozen at the value the roster is proven at.  Vary one
from Python (docs/api.md has more)::

    storm = replace(DRILLS["chaos-soak"], chaos=ChaosConfig(crash_prob=0.2))
    assert run_drill(storm, seed=7).report["pass"]
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Mapping, Optional

from repro.core.autopilot import SETTLE_S
from repro.core.config import ReplicaConfig, TenantConfig
from repro.core.lifecycle import OperationsRunner
from repro.core.service import AReplicaService, ReplicationRule
from repro.core.verify import Verdict, verify
from repro.simcloud.chaos import ChaosConfig
from repro.simcloud.cloud import build_default_cloud
from repro.simcloud.cost import estimate_task_cost
from repro.simcloud.objectstore import Blob
from repro.traces.ibm_cos import IbmCosTraceGenerator
from repro.traces.replay import TraceReplayer

__all__ = ["Drill", "Tenancy", "Run", "DRILLS", "GATES", "STORM",
           "run_drill", "machine_report"]

#: The mild storm ``--chaos`` layers over a drill's own disturbance.
STORM = dict(crash_prob=0.02, notif_drop_prob=0.02, notif_dup_prob=0.02,
             kv_reject_prob=0.02, kv_delay_prob=0.02, wan_stall_prob=0.01)


@dataclass(frozen=True)
class Tenancy:
    """Multi-tenant service shape: every tenant gets its own bucket
    pair, the first ``budgeted_tenants`` also a hard per-window spend
    budget of ``budget_tasks`` admitted tasks."""

    tenants: int
    shards: int
    #: Fair-share dispatch gate (the autopilot's main actuator).
    max_concurrent: int
    horizon_s: float
    #: ``Run -> [(seconds into the run, tenant state, key)]``.
    workload: Callable[["Run"], list]
    tenant_slo_s: float
    budgeted_tenants: int
    budget_tasks: float
    budget_window_s: float
    #: A budgeted tenant trades latency for spend, so its SLO may have
    #: to cover the drain of its deferral lane.
    budgeted_slo_s: float
    #: Fair-share weights, cycled over the tenants.
    weights: tuple[float, ...] = (1.0,)
    id_format: str = "t{:05d}"
    #: Small keeps the inline path hot.
    object_size: int = 64 * 1024
    #: ``(start, duration, extra PUTs)`` of a burst far above the
    #: dispatch gate's drain rate.
    surge: Optional[tuple[float, float, int]] = None


@dataclass(frozen=True)
class Drill:
    """One scenario of the roster, as data."""

    name: str
    help: str
    requests: int
    #: Service shape: None is one src→dst rule replaying a seeded IBM
    #: COS busy hour; a :class:`Tenancy` is the multi-tenant shape.
    tenancy: Optional[Tenancy] = None
    #: ``ReplicaConfig`` overrides (tracing is always on).
    config: Mapping[str, Any] = field(default_factory=dict)

    # -- disturbance ------------------------------------------------------
    chaos: ChaosConfig = ChaosConfig()
    #: ``(start, duration)``: every substrate of the source region dark.
    blackout: Optional[tuple[float, float]] = None
    #: ``(start, duration)``: WAN legs touching the destination stall;
    #: unlike a FaaS outage there is no degraded route around it.
    brownout: Optional[tuple[float, float]] = None
    #: Planned operation run mid-trace by ``OperationsRunner``.
    operation: Optional[str] = None
    operation_at: float = 600.0
    #: Replicated objects durably rotted after convergence — decay
    #: behind a truthful-looking HEAD that only a deep scrub can see.
    rot_keys: int = 0
    #: Optional ride-along switches the subcommand accepts.
    rides: tuple[str, ...] = ("hedging",)

    # -- gate (see repro.core.verify) and predicates (see GATES) ----------
    repair: bool = True
    scrub: bool = True
    reap_uploads: bool = True
    #: The drill must exercise its machinery, not vacuously pass.
    engaged: tuple[str, ...] = ()
    holds: tuple[str, ...] = ()

    # -- report -----------------------------------------------------------
    extras: tuple[Callable[["Run"], dict], ...] = ()
    stats_title: str = "engine recovery"
    stat_keys: tuple[str, ...] = ()
    results: tuple[str, str] = ("PASS", "FAIL")


@dataclass
class Run:
    """One execution of a :class:`Drill`: what hooks and extras read."""

    spec: Drill
    src: str
    dst: str
    storm: bool
    service: AReplicaService
    requests: int
    rule: Optional[ReplicationRule] = None
    tenants: list = field(default_factory=list)
    #: When the workload clock starts: tenant onboarding profiles
    #: offline first, the busy-hour trace is absolute.
    base: float = 0.0
    runner: Optional[OperationsRunner] = None
    rotted: list[str] = field(default_factory=list)
    verdict: Optional[Verdict] = None
    extras: dict = field(default_factory=dict)
    report: dict = field(default_factory=dict)

    def render(self) -> str:
        """The text form of :attr:`report`, one layout for every drill."""
        r, spec = self.report, self.spec
        lines = [f"{r['scenario']} seed {r['seed']}: {r['requests']} requests",
                 "injected faults:"]
        lines += [f"  {k:<26} {v}" for k, v in r["chaos_stats"].items() if v]
        lines.append(f"{spec.stats_title}:")
        lines += [f"  {k:<26} {r['stats'][k]}" for k in spec.stat_keys]
        for key, value in self.extras.items():
            text = json.dumps(value, sort_keys=True, default=str)
            if len(text) > 400:
                text = f"({len(value)} entries; see --json)"
            lines.append(f"  {key:<26} {text}")
        lines.append(self.verdict.render())
        lines += [f"gate {name}: {'ok' if ok else 'FAILED'}"
                  for name, ok in r["gates"].items()]
        lines.append("RESULT: " + r["result"])
        return "\n".join(lines)


# -- multi-tenant shape ---------------------------------------------------


def _register_tenants(run: Run) -> None:
    t, service, cloud = run.spec.tenancy, run.service, run.service.cloud
    service.enable_multitenancy(shards=t.shards,
                                max_concurrent=t.max_concurrent)
    # One offline profiling pass covers every tenant: the performance
    # model is keyed by region path, and all tenants ride one pair.
    probe_src = cloud.bucket(run.src, "profile-probe-src")
    probe_dst = cloud.bucket(run.dst, "profile-probe-dst")
    service.profiler.ensure_path(run.src, probe_src, probe_dst)
    if run.dst != run.src:
        service.profiler.ensure_path(run.dst, probe_src, probe_dst)
    budget = t.budget_tasks * estimate_task_cost(
        cloud.prices, probe_src.region, probe_dst.region, t.object_size)
    for i in range(t.tenants):
        tid = t.id_format.format(i)
        src = cloud.bucket(run.src, f"{tid}-src")
        dst = cloud.bucket(run.dst, f"{tid}-dst")
        budgeted = i < t.budgeted_tenants
        run.tenants.append(service.add_tenant(TenantConfig(
            tenant_id=tid, buckets=(src.name, dst.name),
            slo_target_s=t.budgeted_slo_s if budgeted else t.tenant_slo_s,
            budget_usd=budget if budgeted else None,
            budget_window_s=t.budget_window_s,
            weight=t.weights[i % len(t.weights)]), src, dst))
    run.base = cloud.sim.now


def _skewed_puts(run: Run) -> list:
    """A warm-up burst of one PUT per tenant — so every tenant has work
    to converge, and the burst outruns the dispatch gate, which is what
    makes the fair-share ring queue — then Zipf-ranked traffic pointed
    at the head: the hot tenants that hold the tight budgets, whose
    per-window arrival rate exceeds them."""
    t, tenants = run.spec.tenancy, run.tenants
    rng = run.service.cloud.rngs.stream(run.spec.name)
    puts = [(i / len(tenants) * min(10.0, t.horizon_s / 16), state,
             f"obj-{i % 8}") for i, state in enumerate(tenants)]
    for rank in rng.zipf(1.3, size=max(0, run.requests - len(tenants))):
        when = float(rng.random()) * t.horizon_s
        puts.append((when, tenants[int(rank - 1) % len(tenants)],
                     f"obj-{int(rng.integers(8))}"))
    return puts


def _surging_puts(run: Run) -> list:
    """A steady round-robin baseline that keeps every tenant's p99
    window warm for the whole run, plus the surge burst that queues
    work and blows the windowed p99 through the target."""
    t, tenants = run.spec.tenancy, run.tenants
    rng = run.service.cloud.rngs.stream(run.spec.name)
    puts = [(float(rng.random()) * t.horizon_s, tenants[j % len(tenants)],
             f"obj-{j % 8}") for j in range(run.requests)]
    start, duration, extra = t.surge
    for j in range(extra):
        state = tenants[int(rng.integers(len(tenants)))]
        puts.append((start + float(rng.random()) * duration, state,
                     f"surge-{j % 8}"))
    return puts


def _schedule_puts(run: Run) -> None:
    t, sim = run.spec.tenancy, run.service.cloud.sim
    puts = t.workload(run)
    for when, state, key in puts:
        sim.call_at(run.base + when,
                    lambda b=state.src_bucket, k=key: b.put_object(
                        k, Blob.fresh(t.object_size), sim.now))
    run.requests = len(puts)
    if run.service.autopilot is not None:
        # Armed past the horizon so the post-brownout episode can close
        # (the p99 window must age the inflated samples out).
        run.service.autopilot.start(
            t.horizon_s + 2 * SETTLE_S)


# -- the runner -----------------------------------------------------------


def _disturbance(run: Run) -> ChaosConfig:
    spec = run.spec
    fields = dict(STORM) if run.storm else {}
    if spec.blackout is not None:
        # Functions fast-fail, the KV store throttles unconditionally,
        # and WAN legs touching the region stall until the window closes.
        start, duration = spec.blackout
        window = ((run.src, run.base + start, duration),)
        fields.update(faas_outages=window, kv_outages=window,
                      wan_outages=window)
    if spec.brownout is not None:
        start, duration = spec.brownout
        fields["wan_outages"] = ((run.dst, run.base + start, duration),)
    return replace(spec.chaos, **fields)


def _settle(run: Run) -> None:
    """Between the first drain and the audit: end what is still live
    (re-clearing chaos is harmless), then rot what has settled."""
    run.service.cloud.apply_chaos(None)
    if run.service.autopilot is not None:
        run.service.autopilot.stop()
    if run.spec.rot_keys:
        dst = run.rule.dst_bucket
        run.rotted = [k for k in dst.keys()
                      if dst.head(k).size > 0][:run.spec.rot_keys]
        for key in run.rotted:
            dst.rot_object(key)


def run_drill(spec: Drill, *, seed: int = 0, requests: Optional[int] = None,
              src: str = "aws:us-east-1", dst: str = "azure:eastus",
              slo: float = 0.0, percentile: float = 0.99,
              profile_samples: int = 8, chaos: bool = False,
              hedging: bool = False) -> Run:
    """Execute one drill in a freshly seeded simulation."""
    cloud = build_default_cloud(seed=seed)
    overrides = dict(spec.config, **({"hedging_enabled": True}
                                     if hedging else {}))
    service = AReplicaService(cloud, ReplicaConfig(
        slo_seconds=slo, percentile=percentile,
        profile_samples=profile_samples, tracing_enabled=True, **overrides))
    run = Run(spec, src, dst, chaos, service,
              spec.requests if requests is None else requests)
    if spec.tenancy is None:
        run.rule = service.add_rule(cloud.bucket(src, "src"),
                                    cloud.bucket(dst, "dst"))
    else:
        _register_tenants(run)
    # Chaos goes live only after onboarding: faults are injected into
    # the running service, not into the offline profiling step.
    cloud.apply_chaos(_disturbance(run))
    if spec.operation is not None:
        run.runner = OperationsRunner(service, run.rule.rule_id)
        run.runner.schedule(spec.operation, spec.operation_at)
    if spec.tenancy is None:
        trace = IbmCosTraceGenerator(seed=seed).busy_hour(
            total_requests=run.requests)
        run.requests = TraceReplayer(
            cloud, run.rule.src_bucket).replay_all(trace).requests
        # The storm passes; whatever it broke must now self-heal.
        cloud.apply_chaos(None)
    else:
        # The PUTs are timers: the gate's first drain *is* the run, so
        # the disturbance and the controller stay live through it.
        _schedule_puts(run)
    run.verdict = verify(service, repair=spec.repair, scrub=spec.scrub,
                         reap_uploads=spec.reap_uploads,
                         after_convergence=lambda: _settle(run))
    for extra in spec.extras:
        run.extras.update(extra(run))
    r = run.report = {"scenario": spec.name, "seed": seed,
                      "requests": run.requests, **machine_report(service),
                      **run.verdict.to_dict(), **run.extras}
    r["stats"] = dict(r["engine_stats"])
    r["gates"] = {name: bool(GATES[name](r))
                  for name in spec.engaged + spec.holds}
    r["engaged"] = all(r["gates"][name] for name in spec.engaged)
    r["pass"] = run.verdict.clean and all(r["gates"].values())
    r["result"] = spec.results[0 if r["pass"] else 1]
    return run


def machine_report(service: AReplicaService) -> dict:
    """The block every ``--json`` command shares (stats summed over rules)."""
    engine_stats: dict = {}
    for rule in service.rules.values():
        for k, v in rule.engine.stats.items():
            engine_stats[k] = engine_stats.get(k, 0) + v
    return {
        "summary": service.summary(),
        "chaos_stats": service.cloud.chaos_stats(),
        "health": service.health.snapshot(),
        "engine_stats": engine_stats,
        "parked_backlog": service.backlog_count(),
    }


# -- report extras --------------------------------------------------------


def _outage_extras(run: Run) -> dict:
    engine, health = run.rule.engine, run.service.health
    start, duration = run.spec.blackout
    return {
        "outage": {"region": run.src, "start_s": start,
                   "duration_s": duration},
        "degradation_engaged": engine.stats["parked"] > 0,
        "backlog_drained_at_s": engine.backlog.drained_at,
        "health_transitions": len(health.transitions),
    }


def _integrity_extras(run: Run) -> dict:
    """Reconcile offense and defense: every fault the chaos layer
    injected (including the deterministic rot) must have been caught by
    a verifying reader — the engine per part, the scrub per object.  A
    shortfall means a corruption slipped through unseen."""
    integrity = run.service.integrity_snapshot()
    scrub = run.verdict.first_scan
    detected = (integrity["corrupt_detected"]
                + len(scrub.by_kind("corrupt")) + scrub.transient_anomalies)
    return {
        "injected_corruptions": integrity["injected"],
        "detected_corruptions": detected,
        "accounted": detected >= integrity["injected"],
        "integrity": integrity,
        "trace_integrity": run.service.tracer.integrity_summary(),
        "rotted_keys": run.rotted,
        "scrub": scrub.to_dict(),
        "rescrub_clean": run.verdict.repair.clean,
    }


def _hedging_extras(run: Run) -> dict:
    stats, config = run.rule.engine.stats, run.service.config
    block = {k: stats[k] for k in ("hedges", "hedge_wins", "hedge_losses",
                                   "hedge_cancelled")}
    block.update(
        resolved=block["hedge_wins"] + block["hedge_losses"]
        + block["hedge_cancelled"],
        clone_cost_usd=run.service.tracer.category_cost("hedge_clones")[1],
        deadline_quantile=config.hedge_deadline_quantile,
        max_clones_per_part=config.max_clones_per_part)
    return {"hedging": block}


def _lifecycle_extras(run: Run) -> dict:
    return {"lifecycle": [r.to_dict() for r in run.runner.reports],
            "chaos": run.storm}


def _tenant_extras(run: Run) -> dict:
    rows = run.service.tenant_summary()

    def where(test) -> list:
        return sorted(tid for tid, row in rows.items() if test(row))
    return {
        "tenants": len(rows),
        "shards": run.spec.tenancy.shards,
        "isolation_findings":
            len(run.verdict.trace.by_kind("tenant-isolation")),
        "unconverged_tenants": where(lambda row: not row["converged"]),
        "slo_miss_tenants": where(lambda row: not row["slo_ok"]),
        "over_admitted_tenants":
            where(lambda row: row["over_admissions"] > 0),
        "over_budget_tenants": where(
            lambda row: row["budget_usd"] is not None
            and row["window_spent_usd"] > row["budget_usd"]),
        "total_deferred": sum(row["deferred"] for row in rows.values()),
        "total_fairshare_waits":
            sum(row["fairshare_waits"] for row in rows.values()),
        "tenant_verdicts": rows,
    }


def _autopilot_extras(run: Run) -> dict:
    autopilot = run.service.autopilot

    def actuations(start: float) -> int:
        # A disturbance's accounting window is [start, start + SETTLE_S].
        lo = run.base + start
        return sum(1 for a in autopilot.controller.changelog
                   if lo <= a.time <= lo + SETTLE_S)
    return {
        "chaos": run.storm,
        "autopilot": autopilot.snapshot(),
        "surge_actuations": actuations(run.spec.tenancy.surge[0]),
        "brownout_actuations": actuations(run.spec.brownout[0]),
        "episodes": len(autopilot.episodes),
        "open_episodes": sum(1 for _, end in autopilot.episodes
                             if end is None),
        "settle_times_s": list(autopilot.stats["settle_time_s"]),
        "settle_bound_s": SETTLE_S,
    }


# -- named predicates over the published report ---------------------------


def _procedure(r: dict) -> dict:
    """The one executed lifecycle procedure ({} unless exactly one ran)."""
    return r["lifecycle"][0] if len(r["lifecycle"]) == 1 else {}


GATES: dict[str, Callable[[dict], bool]] = {
    "degraded": lambda r: r["degradation_engaged"],
    "corruption-accounted": lambda r: r["accounted"],
    "rot-detected":
        lambda r: r["scrub"]["corrupt"] == len(r["rotted_keys"]),
    "hedged": lambda r: r["stats"]["hedges"] > 0,
    "hedges-resolved":
        lambda r: r["hedging"]["resolved"] == r["stats"]["hedges"],
    "evacuated": lambda r: (
        r["stats"]["cordons"] >= 3 and _procedure(r).get("deadline_met")
        and (_procedure(r)["migrated"] > 0 or r["stats"]["parked"] > 0)),
    "checkpointed": lambda r: (
        bool(_procedure(r)) and r["stats"]["checkpoints"] >= 1),
    "switched-over": lambda r: (
        r["stats"]["switchovers"] >= 1 and _procedure(r).get("deadline_met")
        and _procedure(r)["migrated"] > 0),
    "budgets-deferred": lambda r: r["total_deferred"] > 0,
    "fair-share-queued": lambda r: r["total_fairshare_waits"] > 0,
    "tenants-converged": lambda r: not r["unconverged_tenants"],
    "tenant-slos-met": lambda r: not r["slo_miss_tenants"],
    "no-over-admission": lambda r: not r["over_admitted_tenants"],
    "within-budget": lambda r: not r["over_budget_tenants"],
    # At least one actuation inside each disturbance's window, and each
    # disturbance opened an episode.
    "autopilot-engaged": lambda r: (
        r["surge_actuations"] > 0 and r["brownout_actuations"] > 0
        and r["episodes"] >= 2),
    # Every episode closed — windowed p99 back under target — in time.
    "autopilot-settled": lambda r: (
        not r["open_episodes"]
        and all(s <= r["settle_bound_s"] for s in r["settle_times_s"])),
}


# -- the roster -----------------------------------------------------------


def _lifecycle(operation: str, gate: str) -> Drill:
    return Drill(
        name=f"lifecycle-{operation}", requests=400, operation=operation,
        help="run one planned operation (region evacuation, rolling engine "
             "restart, orchestration switchover) against a live loaded "
             "engine; prove zero loss, duplication or divergence",
        rides=("chaos", "hedging"), engaged=(gate,),
        extras=(_lifecycle_extras,), stats_title="lifecycle",
        stat_keys=("cordons", "drained_parts", "migrated_tasks",
                   "checkpoints", "switchovers", "parked", "drained"))


DRILLS: dict[str, Drill] = {d.name: d for d in (
    Drill(
        name="chaos-soak", requests=1000,
        help="replay a busy hour under crashes, notification drop/dup/"
             "reorder, KV throttling and WAN stalls; audit convergence",
        chaos=ChaosConfig(
            crash_prob=0.05, notif_drop_prob=0.05, notif_dup_prob=0.05,
            notif_reorder_prob=0.05, kv_reject_prob=0.05,
            kv_delay_prob=0.05, wan_stall_prob=0.02),
        repair=False, results=("CONVERGED", "DIVERGED"),
        stat_keys=("lock_lost", "orphaned_uploads", "kv_retries",
                   "kv_retry_exhausted", "kv_retry_deadline", "aborted",
                   "retriggered", "parked", "drained")),
    Drill(
        name="outage-drill", requests=400,
        help="black out the source region mid-trace; the service must "
             "park (not drop) work, drain after recovery, and repair",
        blackout=(600.0, 600.0), scrub=False, reap_uploads=False,
        engaged=("degraded",), extras=(_outage_extras,),
        stats_title="degraded operation",
        stat_keys=("parked", "drained", "probes", "failover",
                   "backlog_kv_failed", "kv_retry_deadline")),
    Drill(
        name="corruption-drill", requests=400,
        help="corrupt transfers and reads, then durably rot replicas; all "
             "of it must be detected and the deep scrub must heal the rot",
        chaos=ChaosConfig(
            corrupt_get_prob=0.15, corrupt_put_prob=0.10,
            corrupt_at_rest_prob=0.05, corrupt_truncate_prob=0.05,
            corrupt_wrong_etag_prob=0.05),
        rot_keys=3, reap_uploads=False, engaged=("rot-detected",),
        holds=("corruption-accounted",), extras=(_integrity_extras,),
        stats_title="defense response",
        stat_keys=("corrupt_detected", "retransfers", "quarantined",
                   "finalize_verify_failed")),
    Drill(
        name="hedge-drill", requests=600,
        help="replay a busy hour with speculative cloning on under "
             "crashes and WAN stalls; every hedge resolves exactly once",
        config={"hedging_enabled": True},
        chaos=ChaosConfig(crash_prob=0.02, wan_stall_prob=0.05),
        rides=(), repair=False, engaged=("hedged",),
        holds=("hedges-resolved",), extras=(_hedging_extras,),
        stats_title="hedging",
        stat_keys=("hedges", "hedge_wins", "hedge_losses",
                   "hedge_cancelled")),
    _lifecycle("evacuate", "evacuated"),
    _lifecycle("rolling", "checkpointed"),
    _lifecycle("switchover", "switched-over"),
    Drill(
        name="tenant-drill", requests=3000,
        help="replay a Zipf-skewed workload over 1000 tenants on 4 shards; "
             "verify convergence, SLOs, budgets, fair share and isolation",
        tenancy=Tenancy(
            tenants=1000, shards=4, max_concurrent=32, horizon_s=3600.0,
            workload=_skewed_puts, tenant_slo_s=120.0,
            budgeted_tenants=10, budget_tasks=25.0, budget_window_s=300.0,
            # The budget still clears the steady-state drain, so the
            # lane empties within a few windows after the horizon.
            budgeted_slo_s=3600.0 + 12 * 300.0,
            weights=(1.0, 2.0, 3.0, 4.0)),
        rides=(), engaged=("budgets-deferred", "fair-share-queued"),
        holds=("tenants-converged", "tenant-slos-met",
               "no-over-admission"),
        extras=(_tenant_extras,), stats_title="control plane",
        stat_keys=("tasks", "inline", "deferred")),
    Drill(
        name="autopilot-drill", requests=240,
        help="surge, then brown out the destination WAN, under the SLO "
             "autopilot; it must engage on both, settle p99, keep budgets",
        # Budgets are generous — this drill tests latency control, not
        # admission control — but real: the burn-rate signal stays live.
        tenancy=Tenancy(
            tenants=4, shards=2, max_concurrent=4, horizon_s=1500.0,
            workload=_surging_puts, tenant_slo_s=60.0, budgeted_tenants=4,
            budget_tasks=400.0, budget_window_s=600.0, budgeted_slo_s=60.0,
            id_format="ap{:03d}", surge=(180.0, 120.0, 2400)),
        config={"enable_autopilot": True},
        brownout=(900.0, 120.0), rides=("chaos", "hedging"),
        engaged=("autopilot-engaged",),
        holds=("autopilot-settled", "tenants-converged",
               "no-over-admission", "within-budget"),
        extras=(_tenant_extras, _autopilot_extras),
        stats_title="control plane",
        stat_keys=("tasks", "inline", "deferred", "parked", "drained")),
)}
