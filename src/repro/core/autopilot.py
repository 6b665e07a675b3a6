"""SLO autopilot — closed-loop online retuning of engine knobs.

Every resilience mechanism this repo accumulated — breakers, hedging,
parked backlogs, deep scrub, fair-share dispatch, per-tenant budgets —
is governed by *static* config.  The system cannot trade cost for
latency as load shifts: a surge queues work behind a fixed dispatch
gate, a brownout inflates the tail while hedging keeps cloning into a
saturated platform, and the ROADMAP's "self-driving operations" item
stays open.  This module closes the loop.

The :class:`Autopilot` is a feedback controller driven entirely by the
sim clock.  Every :data:`INTERVAL_S` it *observes* — the queue depth of
the FaaS platforms the service runs on, the per-tenant budget ledgers,
and a windowed p99 of replication delays per tenant — then *decides*
per-signal errors:

* **SLO error** per tenant: ``(windowed_p99 - slo_target_s) /
  slo_target_s``, through the same fail-closed
  :meth:`~repro.simcloud.monitoring.TimeSeries.window_percentile`
  accessor the hedge deadline uses (a cold window yields ``None`` —
  never a NaN leaking into a comparison);
* **budget burn error** per tenant: window spend ahead of the budget's
  pro-rata pace (TCDRM's burn-rate economics);
* **saturation**: FaaS queue depth beyond a threshold — the regime
  where request-cloning hurts (processor-sharing: clones of work you
  cannot serve only add load), so hedging must be throttled *back*;

and finally *actuates* a bounded knob registry through AIMD-style
steps: additive moves in the stress direction, multiplicative decay
back to the configured baseline once the signal is healthy.  Guarded
rollouts are structural, not advisory:

* every knob declares hard ``[lo, hi]`` guardrails — proposals are
  clamped (and the clamp counted) before they ever touch the system;
* a hysteresis dead-band holds all knobs while a signal sits within
  ±deadband of target, so the controller cannot oscillate around a
  satisfied SLO;
* a post-actuation cooldown per knob bounds the actuation rate;
* while any administrative cordon is open (a planned operation owns
  the system) the autopilot holds entirely — operators win over
  controllers.

Every actuation is a traced zero-width ``autopilot`` span plus a
:class:`Actuation` changelog entry, which is what lets the
:class:`~repro.core.invariants.TraceChecker` prove the discipline
offline: bounds never left, cooldowns respected, no actuation inside a
cordon window.  A disabled autopilot (``enable_autopilot=False``, the
default) is byte-invisible: nothing is constructed, no timer armed, no
RNG stream opened — the determinism-golden suite pins this.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional

from repro.core.task import ACTUATE_KEYS
from repro.simcloud.monitoring import TimeSeries

__all__ = ["AUTOPILOT_STAT_KEYS", "Actuation", "KnobSpec",
           "KnobController", "Autopilot"]

#: The autopilot's operational counters — a closed set pinned by
#: ``tests/core/test_stats_contract.py`` (additions must extend the
#: contract there too).  ``settle_time_s`` is a list with one entry per
#: closed disturbance episode; the rest are plain counters.
AUTOPILOT_STAT_KEYS = ("actuations", "clamps", "cooldown_skips",
                       "cordon_holds", "settle_time_s")

#: Trace attribute names, one tuple per record schema.
_HOLD_KEYS = ("reason", "cordons")
_DISTURBANCE_KEYS = ("error",)
_SETTLE_KEYS = ("settle_s", "within_bound")

#: Hysteresis dead-band on every controller error signal: no knob moves
#: while the signal sits within ±DEADBAND of its target, so the
#: controller cannot oscillate around a satisfied SLO.
DEADBAND = 0.15

#: FaaS queue depth (summed across watched regions) beyond which the
#: platform counts as saturated and hedging is throttled back.
_SATURATION_QUEUE = 64.0

#: Controller cadence: one observe → decide → actuate tick per interval
#: while the autopilot is started.
INTERVAL_S = 30.0
#: Trailing window over per-tenant delay samples feeding the windowed
#: p99 the SLO error is computed from.
WINDOW_S = 300.0
#: Post-actuation cooldown per knob: once a knob moves, it holds for at
#: least this long before the controller may move it again.
COOLDOWN_S = 90.0
#: Settle bound: a disturbance episode (SLO error leaving the dead-band)
#: must recover (windowed p99 back under target) within this many
#: seconds for the autopilot drill to pass.
SETTLE_S = 600.0


@dataclass(frozen=True)
class Actuation:
    """One knob change the controller applied (the changelog entry)."""

    time: float
    knob: str
    old: float
    new: float
    #: The error signal that drove the move (positive = stress).
    error: float
    #: True when the raw AIMD proposal had to be clamped to [lo, hi].
    clamped: bool
    reason: str

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (f"t={self.time:.1f} {self.knob}: {self.old:g} -> "
                f"{self.new:g} ({self.reason})")


@dataclass(frozen=True)
class KnobSpec:
    """One actuatable knob: bounds, AIMD steps, and its writer.

    ``stress_direction`` is +1 for knobs that *grow* under stress
    (dispatch concurrency, batching epsilon) and -1 for knobs that
    *shrink* (clone budget, retry deadline).  Under stress the value
    moves additively by ``step`` in that direction; once the signal is
    healthy it decays multiplicatively back toward ``baseline`` (the
    configured steady-state value), snapping exactly onto it when
    close — so a removed disturbance always converges the knob to a
    fixed point instead of orbiting it.  The controller holds the
    knob's value itself, starting at ``baseline``.
    """

    name: str
    lo: float
    hi: float
    baseline: float
    step: float
    write: Callable[[float], None]
    stress_direction: int = 1
    #: Multiplicative return-to-baseline factor per healthy tick.
    decay: float = 0.5
    integer: bool = False

    def __post_init__(self) -> None:
        if not self.lo <= self.baseline <= self.hi:
            raise ValueError(
                f"{self.name}: baseline {self.baseline} outside "
                f"[{self.lo}, {self.hi}]")
        if self.step <= 0:
            raise ValueError(f"{self.name}: step must be positive")
        if self.stress_direction not in (1, -1):
            raise ValueError(f"{self.name}: stress_direction must be ±1")
        if not 0.0 < self.decay <= 1.0:
            raise ValueError(f"{self.name}: decay must be in (0, 1]")


class _KnobState:
    """Mutable controller-side state for one registered knob."""

    __slots__ = ("spec", "value", "last_actuated_at")

    def __init__(self, spec: KnobSpec):
        self.spec = spec
        self.value = float(spec.baseline)
        self.last_actuated_at = float("-inf")


class KnobController:
    """The AIMD core: hysteresis, guardrails, cooldowns, changelog.

    Deliberately service-free — it sees knobs only through their write
    closures and time only through the ``now`` its caller passes — so
    the Hypothesis stability suite can drive it with synthetic error
    sequences and prove the control-law properties (bounds,
    no-oscillation-in-band, convergence) without a simulator.
    """

    def __init__(self, deadband: float = DEADBAND,
                 cooldown_s: float = COOLDOWN_S, tracer=None,
                 stats: Optional[dict] = None):
        if not 0.0 < deadband < 1.0:
            raise ValueError("deadband must be in (0, 1)")
        if cooldown_s < 0:
            raise ValueError("cooldown_s must be >= 0")
        self.deadband = deadband
        self.cooldown_s = cooldown_s
        self.tracer = tracer
        self.stats = stats if stats is not None else {
            k: ([] if k == "settle_time_s" else 0)
            for k in AUTOPILOT_STAT_KEYS}
        self._knobs: dict[str, _KnobState] = {}
        self.changelog: list[Actuation] = []

    # -- registry ----------------------------------------------------------

    def register(self, spec: KnobSpec) -> None:
        if spec.name in self._knobs:
            raise ValueError(f"duplicate knob {spec.name!r}")
        self._knobs[spec.name] = _KnobState(spec)

    def knows(self, name: str) -> bool:
        return name in self._knobs

    def value(self, name: str) -> float:
        return self._knobs[name].value

    def specs(self) -> list[KnobSpec]:
        return [s.spec for s in self._knobs.values()]

    # -- the control law ---------------------------------------------------

    def drive(self, name: str, error: Optional[float], now: float,
              reason: str = "") -> Optional[Actuation]:
        """Apply one controller step to ``name`` for ``error``.

        ``error`` is the normalized signal (positive = stress, negative
        = healthy, ``None`` = cold/no data).  Returns the
        :class:`Actuation` applied, or None when the knob held — by
        hysteresis (|error| within the dead-band), cooldown, an unknown
        knob, a cold signal, or a proposal that lands on the current
        value (already at a guardrail or at baseline).
        """
        state = self._knobs.get(name)
        if state is None or error is None:
            return None
        if abs(error) <= self.deadband:
            return None            # hysteresis hold: no move in-band
        spec = state.spec
        old = state.value
        if error > 0:
            proposal = old + spec.stress_direction * spec.step
        else:
            proposal = old + (spec.baseline - old) * spec.decay
            if abs(proposal - spec.baseline) <= 1e-3 * (spec.hi - spec.lo):
                proposal = spec.baseline
        new = min(spec.hi, max(spec.lo, proposal))
        clamped = new != proposal
        if spec.integer:
            new = float(int(round(new)))
        if new == old:
            if clamped:
                # Saturated at a guardrail under sustained stress: the
                # clamp is the observable fact that the controller
                # wanted more authority than the bounds grant.
                self.stats["clamps"] += 1
            return None
        if now - state.last_actuated_at < self.cooldown_s:
            self.stats["cooldown_skips"] += 1
            return None
        spec.write(int(new) if spec.integer else new)
        state.value = new
        state.last_actuated_at = now
        if clamped:
            self.stats["clamps"] += 1
        self.stats["actuations"] += 1
        act = Actuation(time=now, knob=name, old=old, new=new,
                        error=error, clamped=clamped, reason=reason)
        self.changelog.append(act)
        if self.tracer is not None:
            self.tracer.span("actuate", "autopilot", None, now, now,
                             ACTUATE_KEYS, name, old, new, spec.lo, spec.hi,
                             self.cooldown_s, round(error, 6), clamped,
                             reason)
        return act


def _nmax(*values: Optional[float]) -> Optional[float]:
    """max() over the non-None values; None when every input is cold."""
    present = [v for v in values if v is not None]
    return max(present) if present else None


class Autopilot:
    """The service-facing controller: observe, decide, actuate.

    Construction is side-effect free (no timers, platforms, or RNG
    streams — the byte-invisibility guarantee); the first :meth:`start`
    picks the FaaS platforms to watch and builds the knob registry, and
    every start arms the tick loop for a bounded duration on the sim
    clock.
    """

    def __init__(self, service):
        self.service = service
        self.cloud = service.cloud
        self.stats: dict = {k: ([] if k == "settle_time_s" else 0)
                            for k in AUTOPILOT_STAT_KEYS}
        self.controller = KnobController(
            cooldown_s=COOLDOWN_S, tracer=service.tracer, stats=self.stats)
        #: The FaaS platform of every region the service touched at the
        #: first :meth:`start`, by region key; their summed queue depth
        #: is the saturation signal.
        self._platforms: Optional[list] = None
        #: Disturbance episodes as ``[start, end-or-None]`` pairs; an
        #: episode opens when the worst per-tenant SLO error leaves the
        #: dead-band and closes when the windowed p99 is back under
        #: target.  ``stats["settle_time_s"]`` gains one entry per close.
        self.episodes: list[list] = []
        self._records_seen = 0
        self._delay_series: dict[str, TimeSeries] = {}
        self._running = False
        self._timer = None

    # -- lifecycle ---------------------------------------------------------

    def start(self, duration_s: float) -> None:
        """Tick every :data:`INTERVAL_S` for the next ``duration_s`` of
        simulated time (bounded, so a drained simulation terminates)."""
        if duration_s <= 0:
            raise ValueError("duration_s must be positive")
        if self._running:
            raise RuntimeError("autopilot already started")
        self._running = True
        if self._platforms is None:
            self._platforms = [self.cloud.faas(r) for r in self._regions()]
            self._register_knobs()
        deadline = self.cloud.sim.now + duration_s

        def tick() -> None:
            if not self._running:
                return
            self._tick()
            if self.cloud.sim.now >= deadline:
                self._running = False
                return
            self._timer = self.cloud.sim.call_later(INTERVAL_S, tick)

        self._tick()
        self._timer = self.cloud.sim.call_later(INTERVAL_S, tick)

    def stop(self) -> None:
        self._running = False
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    # -- wiring ------------------------------------------------------------

    def _regions(self) -> list[str]:
        regions = set()
        for rule in self.service.rules.values():
            regions.add(rule.src_bucket.region.key)
            regions.add(rule.dst_bucket.region.key)
        for state in self.service.tenants.values():
            regions.add(state.src_bucket.region.key)
            regions.add(state.dst_bucket.region.key)
        return sorted(regions)

    def _register_knobs(self) -> None:
        cfg = self.service.config
        C = self.controller
        sched = self.service.scheduler
        if sched is not None:
            base = sched.max_concurrent
            C.register(KnobSpec(
                "dispatch_concurrency", lo=base, hi=4.0 * base,
                baseline=base, step=max(1.0, base / 2.0), integer=True,
                write=self._set_dispatch_concurrency))
        catchup = cfg.outage_catchup_concurrency
        C.register(KnobSpec(
            "outage_catchup_concurrency", lo=catchup, hi=4.0 * catchup,
            baseline=catchup, step=max(1.0, catchup / 2.0), integer=True,
            write=self._config_writer("outage_catchup_concurrency",
                                      integer=True)))
        eps = cfg.batching_epsilon
        C.register(KnobSpec(
            "batching_epsilon", lo=eps, hi=max(30.0, 10.0 * eps),
            baseline=eps, step=max(1.0, eps),
            write=self._config_writer("batching_epsilon")))
        deadline = cfg.retry_deadline_s
        C.register(KnobSpec(
            "retry_deadline_s", lo=deadline / 4.0, hi=deadline,
            baseline=deadline, step=deadline / 8.0, stress_direction=-1,
            write=self._config_writer("retry_deadline_s")))
        q = cfg.hedge_deadline_quantile
        C.register(KnobSpec(
            "hedge_deadline_quantile", lo=q, hi=0.995, baseline=q,
            step=0.01,
            write=self._config_writer("hedge_deadline_quantile")))
        clones = cfg.max_clones_per_part
        C.register(KnobSpec(
            "max_clones_per_part", lo=0.0, hi=float(clones),
            baseline=float(clones), step=1.0, stress_direction=-1,
            integer=True,
            write=self._config_writer("max_clones_per_part", integer=True)))

    def _weight_knob(self, tenant_id: str) -> str:
        """Lazily register the fair-share boost knob for one tenant."""
        name = f"fairshare_boost:{tenant_id}"
        if not self.controller.knows(name):
            self.controller.register(KnobSpec(
                name, lo=1.0, hi=4.0, baseline=1.0, step=0.5,
                write=lambda mult, tid=tenant_id: self._set_weight(tid,
                                                                   mult)))
        return name

    # -- actuators ---------------------------------------------------------

    def _set_dispatch_concurrency(self, value: int) -> None:
        sched = self.service.scheduler
        sched.max_concurrent = int(value)
        # A raised gate admits queued work immediately; a lowered one
        # simply stops granting slots until in-flight work settles.
        sched._pump()

    def _config_writer(self, field_name: str, integer: bool = False):
        def write(value) -> None:
            self._set_config(**{field_name: int(value) if integer else value})
        return write

    def _set_config(self, **changes) -> None:
        """Replace the service's config — the one live config — and
        point every engine and batcher at it; a rule built later (a new
        tenant shard, a rolling restart) starts from it too."""
        service = self.service
        service.config = config = replace(service.config, **changes)
        for rule in service.rules.values():
            rule.engine.config = config
            if rule.batcher is not None:
                rule.batcher.config = config

    def _set_weight(self, tenant_id: str, mult: float) -> None:
        state = self.service.tenants[tenant_id]
        self.service.scheduler.add_tenant(
            tenant_id, weight=state.config.weight * mult)

    # -- signals -----------------------------------------------------------

    def _ingest_records(self, now: float) -> None:
        """Fold new replication records into per-tenant delay series.

        Samples are stamped with observation time (this tick), keeping
        each series monotone even when duplicate-delivery records close
        with an older visible time.
        """
        records = self.service.records
        rules = self.service.rules
        for r in records[self._records_seen:]:
            rule = rules.get(r.rule_id)
            tenant = rule.tenant if rule is not None else None
            if tenant is None:
                continue
            series = self._delay_series.get(tenant)
            if series is None:
                series = self._delay_series[tenant] = TimeSeries(
                    f"autopilot-delay:{tenant}")
            series.record(now, r.delay)
        self._records_seen = len(records)

    def tenant_p99(self, tenant_id: str, now: Optional[float] = None):
        """Windowed p99 replication delay for ``tenant_id`` (None=cold)."""
        series = self._delay_series.get(tenant_id)
        if series is None:
            return None
        at = self.cloud.sim.now if now is None else now
        return series.window_percentile(0.99, WINDOW_S, at)

    def _slo_error(self, tenant_id: str, now: float) -> Optional[float]:
        state = self.service.tenants[tenant_id]
        target = state.config.slo_target_s
        if target <= 0:
            return None
        p99 = self.tenant_p99(tenant_id, now)
        if p99 is None:
            return None
        return (p99 - target) / target

    def _budget_error(self, tenant_id: str, now: float) -> Optional[float]:
        state = self.service.tenants[tenant_id]
        budget = state.config.budget_usd
        if not budget:
            return None
        ledger = state.ledger
        ledger.sync(now)
        elapsed = (now - ledger.window_index * ledger.window_s) \
            / ledger.window_s
        # Spend ahead of the window's pro-rata pace is stress; the 0.25
        # floor keeps the first sliver of a fresh window from reading
        # one admitted task as a runaway burn.
        return ledger.window_spent / budget - max(elapsed, 0.25)

    def _saturation_error(self) -> Optional[float]:
        if not self._platforms:
            return None
        queued = sum(len(faas._queue) for faas in self._platforms)
        return queued / _SATURATION_QUEUE - 1.0

    # -- the tick ----------------------------------------------------------

    def _tick(self) -> None:
        now = self.cloud.sim.now
        self._ingest_records(now)
        tracer = self.service.tracer
        health = self.service.health
        if health.cordoned_targets():
            # A planned operation owns the system: hold every knob.
            self.stats["cordon_holds"] += 1
            if tracer is not None:
                tracer.event("autopilot-hold", "autopilot", None,
                             _HOLD_KEYS, "cordon",
                             len(health.cordoned_targets()))
            return
        slo_errors = {tid: self._slo_error(tid, now)
                      for tid in sorted(self.service.tenants)}
        slo_e = _nmax(*slo_errors.values()) if slo_errors else None
        cost_e = _nmax(*(self._budget_error(tid, now)
                         for tid in sorted(self.service.tenants)))
        sat_e = self._saturation_error()
        self._track_episode(slo_e, now, tracer)
        C = self.controller
        C.drive("dispatch_concurrency", slo_e, now, reason="slo")
        C.drive("outage_catchup_concurrency", slo_e, now, reason="slo")
        C.drive("batching_epsilon", slo_e, now, reason="slo")
        C.drive("retry_deadline_s", cost_e, now, reason="budget")
        throttle = _nmax(cost_e, sat_e)
        C.drive("hedge_deadline_quantile", throttle, now,
                reason="saturation")
        C.drive("max_clones_per_part", throttle, now, reason="saturation")
        if self.service.scheduler is not None:
            for tid, err in slo_errors.items():
                if err is None:
                    continue
                C.drive(self._weight_knob(tid), err, now,
                        reason=f"slo:{tid}")

    def _track_episode(self, slo_e: Optional[float], now: float,
                       tracer) -> None:
        if slo_e is None:
            return
        open_ep = self.episodes and self.episodes[-1][1] is None
        if not open_ep and slo_e > self.controller.deadband:
            self.episodes.append([now, None])
            if tracer is not None:
                tracer.event("autopilot-disturbance", "autopilot", None,
                             _DISTURBANCE_KEYS, round(slo_e, 6))
        elif open_ep and slo_e <= 0.0:
            start = self.episodes[-1][0]
            self.episodes[-1][1] = now
            settle = now - start
            self.stats["settle_time_s"].append(round(settle, 3))
            if tracer is not None:
                tracer.event("autopilot-settle", "autopilot", None,
                             _SETTLE_KEYS, round(settle, 3),
                             settle <= SETTLE_S)

    # -- reporting ---------------------------------------------------------

    def snapshot(self) -> dict:
        """JSON-friendly controller state for drill reports."""
        return {
            "stats": {k: (list(v) if isinstance(v, list) else v)
                      for k, v in self.stats.items()},
            "episodes": [[s, e] for s, e in self.episodes],
            "knobs": {
                spec.name: {
                    "value": self.controller.value(spec.name),
                    "baseline": spec.baseline,
                    "lo": spec.lo, "hi": spec.hi,
                } for spec in self.controller.specs()},
            "actuations": [str(a) for a in self.controller.changelog],
        }
