"""Planned-operations lifecycle layer: evacuation, restart, switchover.

The chaos machinery (``simcloud/chaos.py``) models *unplanned* failure;
this module models the disruption a replicator actually spends most of
its wall-clock in — **planned** operations an operator schedules on
purpose:

* **Region evacuation** — administratively cordon a region's
  substrates, let in-flight functions finish within a bounded drain
  deadline, migrate new work to the surviving platform through the
  degraded-routing failover path, park whatever has no route at all,
  and re-admit everything when the cordon lifts.
* **Rolling engine restart/upgrade** — checkpoint the engine's
  control-plane state to the serverless KV store, tear the engine
  object down mid-flight, rebuild it against the same durable tables,
  and restore: the serverless analogue of replacing an operator pod.
* **Planned orchestration switchover** — proactively move
  orchestration from the source FaaS platform to the destination one
  under load, reusing the outage-failover path; the fencing tokens in
  the (source-pinned) lock table order the handoff, and the trace
  oracle's switchover-discipline invariant proves exactly one
  orchestrator location finalizes each task epoch.

Cordons are *administrative*: the substrate stays healthy (KV writes
during an evacuation still land; that is what lets the backlog mirror
and part pools keep operating), only **admission** of new work stops.
That is the intent-vs-failure distinction the ``cordoned`` breaker
state in ``core/health.py`` encodes, and why the planner reports
cordoned candidate drops separately from breaker drops.

Every procedure is a plain simulation process scheduled at a seeded
instant, so lifecycle drills compose deterministically with chaos
storms, hedging, and corruption injection on one seed.  A constructed
but never-scheduled :class:`OperationsRunner` performs **zero** RNG
draws, KV operations, or event emissions — lifecycle-off runs stay
byte-identical to builds without this module.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.core.task import CORDON_KEYS
from repro.simcloud.chaos import validate_outage_windows
from repro.simcloud.kvstore import Throttled
from repro.simcloud.sim import SleepRequest

__all__ = ["OperationsRunner", "LifecycleReport", "SCENARIOS"]

#: The planned-disruption procedures an operator can schedule.
SCENARIOS = ("evacuate", "rolling", "switchover")

#: Trace attribute names, one tuple per record schema.
_REBUILD_KEYS = ("rule", "backlog")
_SWITCHOVER_KEYS = ("rule", "src", "dst")

#: Substrates an evacuation cordons at the target region, in order.
#: FaaS first (new orchestrations fail over while the consistency
#: substrates still answer), then the location-pinned substrates
#: (remaining admissions park).  Uncordon runs in reverse.
_EVACUATION_SUBSTRATES = ("faas", "kv", "store")


@dataclass
class LifecycleReport:
    """Outcome of one executed lifecycle procedure."""

    scenario: str
    rule_id: str
    region: str
    started_at: float
    finished_at: float = 0.0
    #: In-flight functions at the cordoned region when the drain began.
    inflight_before: int = 0
    #: Of those, how many finished inside the drain deadline.
    drained: int = 0
    #: New tasks routed to the surviving platform while cordoned.
    migrated: int = 0
    #: True when the graceful drain emptied the region in time (always
    #: True for scenarios without a drain phase).
    deadline_met: bool = True
    #: Rolling restart: backlog entries restored / mirrors re-written.
    restored: int = 0
    remirrored: int = 0
    extra: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario, "rule": self.rule_id,
            "region": self.region, "started_at": self.started_at,
            "finished_at": self.finished_at,
            "inflight_before": self.inflight_before,
            "drained": self.drained, "migrated": self.migrated,
            "deadline_met": self.deadline_met,
            "restored": self.restored, "remirrored": self.remirrored,
            **self.extra,
        }


class OperationsRunner:
    """Schedules and executes planned-disruption procedures for one rule.

    One runner per :class:`~repro.core.service.AReplicaService` rule;
    procedures run as ordinary simulation processes so they interleave
    with live traffic, chaos storms, and hedging exactly as a real
    operator action would.  Completed procedures append a
    :class:`LifecycleReport` to :attr:`reports`.
    """

    #: Base interval between drain-progress polls; each poll adds up to
    #: one second of seeded jitter so two runners never phase-lock.
    poll_interval_s = 5.0
    #: How long a cordon holds after the drain completes before being
    #: lifted — the maintenance window body (upgrade, rebalance, ...).
    #: Long enough that live traffic actually arrives *during* the
    #: window, so the failover/park paths are exercised, not skipped.
    hold_s = 120.0
    #: Bounded-backoff attempts for control-plane KV writes that race a
    #: KV chaos window (the checkpoint must land *despite* the storm).
    kv_attempts = 8
    #: Graceful-drain bound: how long an evacuation or switchover waits
    #: for in-flight functions at the cordoned region to finish before
    #: moving on (the remainder is parked and migrated through the
    #: backlog, never dropped).
    drain_deadline_s = 180.0

    def __init__(self, service, rule_id: str):
        rule = service.rules[rule_id]  # KeyError for unknown rules
        self.service = service
        self.cloud = service.cloud
        self.rule_id = rule_id
        self.src_region = rule.src_bucket.region.key
        self.dst_region = rule.dst_bucket.region.key
        self.reports: list[LifecycleReport] = []
        #: Created lazily on first schedule(): an idle runner must not
        #: perturb the RNG stream registry (byte-determinism guard).
        self._rng = None

    # -- scheduling ------------------------------------------------------------

    def schedule(self, scenario: str, at_s: float, **kwargs) -> None:
        """Arrange for ``scenario`` to start at simulated time ``at_s``.

        The (region, start, duration) triple is validated through the
        same rules as the chaos outage schedules — lifecycle
        maintenance windows and chaos storms are the same shape and
        deliberately composable on one seed.
        """
        if scenario not in SCENARIOS:
            raise ValueError(
                f"unknown scenario {scenario!r}; expected one of {SCENARIOS}")
        region = kwargs.get("region", self.src_region)
        validate_outage_windows(
            "lifecycle", ((region, at_s, self.drain_deadline_s),))
        if self._rng is None:
            self._rng = self.cloud.rngs.stream(f"lifecycle:{self.rule_id}")
        proc = getattr(self, f"_{scenario}")

        def runner():
            delay = at_s - self.cloud.sim.now
            if delay > 0:
                yield SleepRequest(delay)
            yield from proc(**kwargs)

        self.cloud.sim.spawn(runner(), name=f"lifecycle-{scenario}")

    # -- shared plumbing -------------------------------------------------------

    @property
    def _engine(self):
        # Resolved per access: a rolling restart swaps rule.engine.
        return self.service.rules[self.rule_id].engine

    def _event(self, name: str, keys: tuple, *values) -> None:
        """Trace a lifecycle fact; ``keys`` starts with ``"rule"``."""
        tracer = self.service.tracer
        if tracer is not None:
            tracer.event(name, "lifecycle", None, keys, self.rule_id,
                         *values)

    def _cordon(self, substrate: str, region: str) -> None:
        if self.service.health.cordon((substrate, region)):
            self._engine.stats["cordons"] += 1
            self._event("cordon", CORDON_KEYS, substrate, region)

    def _uncordon(self, substrate: str, region: str) -> None:
        if self.service.health.uncordon((substrate, region)):
            self._event("uncordon", CORDON_KEYS, substrate, region)

    def _kv_retry(self, gen_factory):
        """Process: run ``gen_factory()`` to completion, retrying
        ``Throttled`` with seeded bounded backoff.

        Control-plane writes made *by the operator* (checkpoint,
        restore) may land inside a KV chaos window; unlike the
        engine's best-effort mirror they must eventually succeed, so
        they get their own retry ladder on the lifecycle RNG stream.
        """
        for attempt in range(self.kv_attempts):
            try:
                result = yield from gen_factory()
                return result
            except Throttled:
                backoff = min(30.0, 2.0 ** attempt)
                yield SleepRequest(backoff * (0.5 + self._rng.random()))
        raise Throttled(
            f"lifecycle control-plane write failed {self.kv_attempts} times")

    def _cordon_drain_hold(self, report: LifecycleReport, hold):
        """Process: cordon FaaS at ``report.region``, drain it, run the
        ``hold`` process (which lifts the cordons), then file ``report``
        with the tasks that failed over meanwhile as migrated.

        The drain polls the platform's running-instance gauge until it
        reaches zero or the drain deadline passes.  The undrained
        remainder is *not* killed — the platform still owns those
        executions, they simply finish after the window (their
        retries/DLQ path recovers any that the disruption broke).
        """
        engine = self._engine
        failover_before = engine.stats["failover"]
        self._cordon("faas", report.region)
        faas = self.cloud.faas(report.region)
        report.inflight_before = faas.running
        deadline = self.cloud.sim.now + self.drain_deadline_s
        while faas.running > 0 and self.cloud.sim.now < deadline:
            remaining = deadline - self.cloud.sim.now
            step = min(remaining,
                       self.poll_interval_s + self._rng.random())
            yield SleepRequest(max(step, 1e-9))
        report.drained = max(0, report.inflight_before - faas.running)
        report.deadline_met = faas.running == 0
        engine.stats["drained_parts"] += report.drained
        yield from hold
        report.migrated = engine.stats["failover"] - failover_before
        engine.stats["migrated_tasks"] += report.migrated
        report.finished_at = self.cloud.sim.now
        self.reports.append(report)
        return report

    # -- procedures ------------------------------------------------------------

    def _evacuate(self, region: Optional[str] = None):
        """Process: evacuate ``region`` (default: the rule's source).

        Phases: cordon FaaS (new work fails over to the surviving
        platform = migration), gracefully drain in-flight functions
        within the deadline, cordon the location-pinned substrates
        (remaining admissions park into the durable backlog), hold the
        maintenance window, then uncordon everything — the lifted
        cordon notifies the engine, which re-admits the parked backlog.
        """
        region = region or self.src_region
        report = LifecycleReport("evacuate", self.rule_id, region,
                                 started_at=self.cloud.sim.now)
        return (yield from self._cordon_drain_hold(
            report, self._evacuation_hold(region)))

    def _evacuation_hold(self, region: str):
        # First half of the window: only FaaS is cordoned, so arriving
        # work *migrates* (fails over to the surviving platform); then
        # the location-pinned substrates close too and the remainder
        # *parks*.  Both evacuation paths get exercised every run.
        yield SleepRequest(self.hold_s / 2)
        for substrate in _EVACUATION_SUBSTRATES[1:]:
            self._cordon(substrate, region)
        yield SleepRequest(self.hold_s / 2)
        for substrate in reversed(_EVACUATION_SUBSTRATES):
            self._uncordon(substrate, region)

    def _rolling(self):
        """Process: rolling engine restart/upgrade.

        Checkpoints control-plane state to KV, rebuilds the engine
        object from the same durable tables (the serverless pod
        replacement), and restores — exercising backlog re-mirror on
        cold entries, while platform retries and DLQ redrives of the
        old engine's in-flight functions land on the new deployment
        and walk the finalization-recovery and lease-reclaim paths.
        """
        engine = self._engine
        report = LifecycleReport("rolling", self.rule_id, self.src_region,
                                 started_at=self.cloud.sim.now)
        yield from self._kv_retry(engine.backlog.checkpoint)
        new_engine = self.service.rebuild_engine(self.rule_id)
        self._event("rebuild", _REBUILD_KEYS, len(new_engine.backlog))
        outcome = yield from self._kv_retry(new_engine.backlog.restore)
        report.restored = outcome["restored"]
        report.remirrored = outcome["remirrored"]
        report.finished_at = self.cloud.sim.now
        self.reports.append(report)
        return report

    def _switchover(self):
        """Process: planned orchestration switchover to the destination.

        Cordons the source FaaS platform so every new orchestration
        takes the outage-failover path to the destination platform,
        gracefully drains the source's in-flight functions, holds, and
        uncordons.  The lock table stays pinned at the source region;
        destination-side orchestrators acquire leases through it with
        fencing-token takeover, and the trace oracle's
        switchover-discipline invariant proves no task epoch was
        finalized from two orchestrator locations.
        """
        if self.dst_region == self.src_region:
            raise ValueError("switchover needs distinct src/dst regions")
        report = LifecycleReport("switchover", self.rule_id,
                                 self.src_region,
                                 started_at=self.cloud.sim.now)
        self._engine.stats["switchovers"] += 1
        self._event("switchover", _SWITCHOVER_KEYS, self.src_region,
                    self.dst_region)
        return (yield from self._cordon_drain_hold(
            report, self._switchover_hold(self.src_region)))

    def _switchover_hold(self, region: str):
        yield SleepRequest(self.hold_s)
        self._uncordon("faas", region)
