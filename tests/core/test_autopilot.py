"""SLO autopilot: control-law properties, discipline oracle, wiring.

Three layers, matching the module's structure:

* ``KnobController`` in isolation — the AIMD core is service-free, so
  both the example-based tests and the Hypothesis stability suite can
  drive it with synthetic error sequences and prove the guarded-rollout
  properties directly: values never leave [lo, hi], nothing moves
  inside the hysteresis dead-band, cooldowns bound the actuation rate,
  and removing the disturbance converges every knob back to baseline;
* the ``TraceChecker`` autopilot-discipline invariants against
  synthetic traces — every new finding kind provably fires, and a
  clean trace provably passes;
* ``Autopilot`` wired into a live service — it engages on real SLO
  pressure, holds during administrative cordons, and its disabled /
  idle forms are byte-invisible (the golden guard lives in
  test_determinism_golden.py).
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.autopilot as autopilot_mod
from repro.core.autopilot import (AUTOPILOT_STAT_KEYS, Autopilot,
                                  KnobController, KnobSpec)
from repro.core.config import ReplicaConfig, TenantConfig
from repro.core.invariants import TraceChecker
from repro.core.service import AReplicaService
from repro.core.task import ACTUATE_KEYS, CORDON_KEYS
from repro.core.tracing import Tracer
from repro.simcloud.cloud import build_default_cloud
from repro.simcloud.objectstore import Blob

pytestmark = pytest.mark.autopilot


class _Store:
    """A knob target that just remembers what was written to it."""

    def __init__(self, value):
        self.value = float(value)

    def write(self, value):
        self.value = float(value)


def make_knob(name="k", lo=1.0, hi=16.0, baseline=4.0, step=2.0, **kw):
    store = _Store(baseline)
    spec = KnobSpec(name=name, lo=lo, hi=hi, baseline=baseline, step=step,
                    write=store.write, **kw)
    return store, spec


# ---------------------------------------------------------------------------
# KnobController: registry and validation
# ---------------------------------------------------------------------------

class TestKnobRegistry:
    def test_spec_validation(self):
        _, ok = make_knob()
        assert ok.baseline == 4.0
        with pytest.raises(ValueError):
            make_knob(baseline=99.0)          # outside [lo, hi]
        with pytest.raises(ValueError):
            make_knob(step=0.0)
        with pytest.raises(ValueError):
            make_knob(stress_direction=0)
        with pytest.raises(ValueError):
            make_knob(decay=0.0)

    def test_controller_validation(self):
        with pytest.raises(ValueError):
            KnobController(deadband=0.0)
        with pytest.raises(ValueError):
            KnobController(deadband=1.5)
        with pytest.raises(ValueError):
            KnobController(cooldown_s=-1.0)

    def test_duplicate_knob_raises(self):
        ctrl = KnobController(cooldown_s=0.0)
        _, spec = make_knob()
        ctrl.register(spec)
        with pytest.raises(ValueError):
            ctrl.register(spec)

    def test_stats_dict_covers_the_contract_keys(self):
        ctrl = KnobController()
        assert set(ctrl.stats) == set(AUTOPILOT_STAT_KEYS)


# ---------------------------------------------------------------------------
# KnobController: the control law
# ---------------------------------------------------------------------------

class TestControlLaw:
    def test_in_band_error_holds(self):
        ctrl = KnobController(deadband=0.15, cooldown_s=0.0)
        store, spec = make_knob()
        ctrl.register(spec)
        for err in (0.0, 0.15, -0.15, 0.1, -0.1):
            assert ctrl.drive("k", err, now=0.0) is None
        assert store.value == 4.0
        assert ctrl.stats["actuations"] == 0

    def test_cold_signal_and_unknown_knob_hold(self):
        ctrl = KnobController(cooldown_s=0.0)
        _, spec = make_knob()
        ctrl.register(spec)
        assert ctrl.drive("k", None, now=0.0) is None
        assert ctrl.drive("nope", 2.0, now=0.0) is None
        assert not ctrl.changelog

    def test_stress_steps_additively_and_clamps_at_hi(self):
        ctrl = KnobController(cooldown_s=0.0)
        store, spec = make_knob(lo=1.0, hi=7.0, baseline=4.0, step=2.0)
        ctrl.register(spec)
        act = ctrl.drive("k", 1.0, now=0.0)
        assert (act.old, act.new) == (4.0, 6.0) and store.value == 6.0
        act = ctrl.drive("k", 1.0, now=1.0)
        assert act.new == 7.0 and act.clamped       # 8 clamped to hi
        assert ctrl.stats["clamps"] == 1
        # Saturated at the guardrail: no actuation, but the clamp is
        # still the observable "wanted more authority" signal.
        assert ctrl.drive("k", 1.0, now=2.0) is None
        assert ctrl.stats["clamps"] == 2
        assert store.value == 7.0

    def test_negative_stress_direction_shrinks(self):
        ctrl = KnobController(cooldown_s=0.0)
        store, spec = make_knob(lo=0.0, hi=4.0, baseline=4.0, step=1.0,
                                stress_direction=-1)
        ctrl.register(spec)
        ctrl.drive("k", 1.0, now=0.0)
        assert store.value == 3.0

    def test_healthy_decays_to_baseline_and_snaps(self):
        ctrl = KnobController(cooldown_s=0.0)
        store, spec = make_knob(lo=1.0, hi=16.0, baseline=4.0, step=2.0)
        ctrl.register(spec)
        for t in range(4):
            ctrl.drive("k", 1.0, now=float(t))
        assert store.value == 12.0
        for t in range(4, 30):
            ctrl.drive("k", -1.0, now=float(t))
        assert store.value == 4.0               # exactly baseline (snap)
        # Fixed point: further healthy error is a no-op, not an orbit.
        assert ctrl.drive("k", -1.0, now=99.0) is None

    def test_integer_knob_moves_in_whole_steps(self):
        ctrl = KnobController(cooldown_s=0.0)
        store, spec = make_knob(lo=1.0, hi=32.0, baseline=4.0, step=2.0,
                                integer=True)
        ctrl.register(spec)
        ctrl.drive("k", 1.0, now=0.0)
        assert store.value == 6.0 and store.value == int(store.value)
        for t in range(1, 30):
            ctrl.drive("k", -1.0, now=float(t))
        assert store.value == 4.0

    def test_cooldown_skips_are_counted(self):
        ctrl = KnobController(cooldown_s=10.0)
        store, spec = make_knob()
        ctrl.register(spec)
        assert ctrl.drive("k", 1.0, now=0.0) is not None
        assert ctrl.drive("k", 1.0, now=5.0) is None     # inside cooldown
        assert ctrl.stats["cooldown_skips"] == 1
        assert ctrl.drive("k", 1.0, now=10.0) is not None
        assert ctrl.stats["actuations"] == 2

    def test_actuation_emits_zero_width_span_with_guardrails(self):
        class _Sim:
            now = 0.0
        tracer = Tracer(_Sim())
        tracer.keep_records()
        ctrl = KnobController(cooldown_s=7.5, tracer=tracer)
        _, spec = make_knob(lo=1.0, hi=16.0, baseline=4.0, step=2.0)
        ctrl.register(spec)
        ctrl.drive("k", 0.5, now=3.0, reason="slo")
        (span,) = tracer.spans
        assert span.cat == "autopilot" and span.start == span.end == 3.0
        assert span.attrs["knob"] == "k"
        assert (span.attrs["old"], span.attrs["new"]) == (4.0, 6.0)
        assert (span.attrs["lo"], span.attrs["hi"]) == (1.0, 16.0)
        assert span.attrs["cooldown_s"] == 7.5
        assert span.attrs["reason"] == "slo"

    def test_hold_emits_no_span(self):
        class _Sim:
            now = 0.0
        tracer = Tracer(_Sim())
        tracer.keep_records()
        ctrl = KnobController(cooldown_s=0.0, tracer=tracer)
        ctrl.register(make_knob()[1])
        ctrl.drive("k", 0.05, now=0.0)
        assert not tracer.spans and not tracer.events


# ---------------------------------------------------------------------------
# Hypothesis: stability properties over random load mixes
# ---------------------------------------------------------------------------

_ERRORS = st.lists(
    st.one_of(st.none(),
              st.floats(min_value=-5.0, max_value=5.0,
                        allow_nan=False, allow_infinity=False)),
    min_size=1, max_size=60)


class TestControllerStability:
    @settings(max_examples=60, deadline=None)
    @given(errors=_ERRORS)
    def test_value_never_leaves_declared_bounds(self, errors):
        ctrl = KnobController(deadband=0.15, cooldown_s=0.0)
        store, spec = make_knob(lo=1.0, hi=10.0, baseline=4.0, step=3.0)
        ctrl.register(spec)
        for t, err in enumerate(errors):
            ctrl.drive("k", err, now=float(t))
            assert spec.lo <= store.value <= spec.hi
        for act in ctrl.changelog:
            assert spec.lo <= act.new <= spec.hi

    @settings(max_examples=60, deadline=None)
    @given(errors=st.lists(
        st.floats(min_value=-0.15, max_value=0.15,
                  allow_nan=False, allow_infinity=False),
        min_size=1, max_size=60))
    def test_never_oscillates_inside_the_hysteresis_band(self, errors):
        """Errors within ±deadband must produce zero actuations — the
        dead-band is what stops the controller hunting around a
        satisfied SLO."""
        ctrl = KnobController(deadband=0.15, cooldown_s=0.0)
        store, spec = make_knob()
        ctrl.register(spec)
        for t, err in enumerate(errors):
            ctrl.drive("k", err, now=float(t))
        assert not ctrl.changelog and store.value == spec.baseline

    @settings(max_examples=60, deadline=None)
    @given(errors=_ERRORS,
           direction=st.sampled_from([1, -1]),
           integer=st.booleans())
    def test_converges_to_baseline_when_disturbance_removed(
            self, errors, direction, integer):
        """After any disturbance history, sustained healthy error drives
        the knob exactly back to its configured baseline — a fixed
        point, not an orbit."""
        ctrl = KnobController(deadband=0.15, cooldown_s=0.0)
        store, spec = make_knob(lo=1.0, hi=10.0, baseline=4.0, step=3.0,
                                stress_direction=direction, integer=integer)
        ctrl.register(spec)
        for t, err in enumerate(errors):
            ctrl.drive("k", err, now=float(t))
        for t in range(len(errors), len(errors) + 40):
            ctrl.drive("k", -1.0, now=float(t))
        assert store.value == spec.baseline
        assert ctrl.drive("k", -1.0, now=1e6) is None

    @settings(max_examples=60, deadline=None)
    @given(errors=_ERRORS,
           gaps=st.lists(st.floats(min_value=0.1, max_value=30.0,
                                   allow_nan=False),
                         min_size=60, max_size=60))
    def test_cooldown_bounds_the_actuation_rate(self, errors, gaps):
        ctrl = KnobController(deadband=0.15, cooldown_s=12.0)
        _, spec = make_knob(lo=1.0, hi=10.0, baseline=4.0, step=3.0)
        ctrl.register(spec)
        now = 0.0
        for err, gap in zip(errors, gaps):
            now += gap
            ctrl.drive("k", err, now=now)
        times = [a.time for a in ctrl.changelog]
        assert all(b - a >= 12.0 for a, b in zip(times, times[1:]))


# ---------------------------------------------------------------------------
# TraceChecker autopilot-discipline invariants (synthetic traces)
# ---------------------------------------------------------------------------

class _FakeSim:
    def __init__(self):
        self.now = 0.0


class _Svc:
    def __init__(self, tracer):
        self.tracer = tracer
        self.rules = {}


def _bare():
    tr = Tracer(_FakeSim())
    return tr, _Svc(tr)


def _actuate(tr, t, knob="k", old=2.0, new=3.0, lo=1.0, hi=4.0,
             cooldown=10.0):
    tr.span("actuate", "autopilot", None, t, t, ACTUATE_KEYS, knob, old, new,
            lo, hi, cooldown, 1.0, False, "slo")


def _cordon(tr, t, region="aws:us-east-1", substrate="faas"):
    tr.sim.now = t
    tr.event("cordon", "lifecycle", None, CORDON_KEYS, "r", substrate, region)


def _uncordon(tr, t, region="aws:us-east-1", substrate="faas"):
    tr.sim.now = t
    tr.event("uncordon", "lifecycle", None, CORDON_KEYS, "r", substrate,
             region)


def _kinds(report):
    return {f.kind for f in report.findings}


class TestAutopilotDisciplineOracle:
    def test_clean_actuations_pass_and_are_counted(self):
        tr, svc = _bare()
        _actuate(tr, 0.0, old=2.0, new=3.0)
        _actuate(tr, 10.0, old=3.0, new=4.0)
        report = TraceChecker(svc).check()
        assert report.clean
        assert report.checked["autopilot_actuations"] == 2

    def test_value_outside_declared_bounds_is_flagged(self):
        tr, svc = _bare()
        _actuate(tr, 0.0, old=2.0, new=9.0, lo=1.0, hi=4.0)
        assert "autopilot-bounds" in _kinds(TraceChecker(svc).check())

    def test_cooldown_violation_is_flagged(self):
        tr, svc = _bare()
        _actuate(tr, 0.0, cooldown=10.0)
        _actuate(tr, 4.0, old=3.0, new=4.0, cooldown=10.0)
        assert "autopilot-cooldown" in _kinds(TraceChecker(svc).check())

    def test_cooldown_applies_per_knob_not_globally(self):
        tr, svc = _bare()
        _actuate(tr, 0.0, knob="a")
        _actuate(tr, 1.0, knob="b")     # different knob: legal
        assert TraceChecker(svc).check().clean

    def test_actuation_inside_cordon_window_is_flagged(self):
        tr, svc = _bare()
        _cordon(tr, 5.0)
        _uncordon(tr, 15.0)
        _actuate(tr, 10.0)
        assert "autopilot-cordon" in _kinds(TraceChecker(svc).check())

    def test_actuation_at_cordon_edges_is_legal(self):
        tr, svc = _bare()
        _cordon(tr, 5.0)
        _uncordon(tr, 15.0)
        _actuate(tr, 5.0)
        _actuate(tr, 15.0, old=3.0, new=4.0)
        assert TraceChecker(svc).check().clean

    def test_cordon_hold_covers_every_substrate(self):
        """The autopilot must hold during *any* planned operation, not
        just FaaS cordons — a KV cordon window traps it too."""
        tr, svc = _bare()
        _cordon(tr, 5.0, substrate="kv")
        _uncordon(tr, 15.0, substrate="kv")
        _actuate(tr, 10.0)
        assert "autopilot-cordon" in _kinds(TraceChecker(svc).check())


# ---------------------------------------------------------------------------
# Autopilot wired into a live service
# ---------------------------------------------------------------------------

def _live_service(autopilot=True, **cfg_kw):
    cloud = build_default_cloud(seed=0)
    config = ReplicaConfig(profile_samples=4, mc_samples=300,
                           tracing_enabled=True,
                           enable_autopilot=autopilot,
                           **cfg_kw)
    svc = AReplicaService(cloud, config)
    svc.tracer.keep_records()
    svc.enable_multitenancy(shards=1, max_concurrent=2)
    src = cloud.bucket("aws:us-east-1", "probe-src")
    dst = cloud.bucket("azure:eastus", "probe-dst")
    svc.profiler.ensure_path("aws:us-east-1", src, dst)
    svc.profiler.ensure_path("azure:eastus", src, dst)
    return cloud, svc


def _add_tenant(cloud, svc, tid="t0", slo=0.5):
    src = cloud.bucket("aws:us-east-1", f"{tid}-src")
    dst = cloud.bucket("azure:eastus", f"{tid}-dst")
    tc = TenantConfig(tenant_id=tid, buckets=(src.name, dst.name),
                      slo_target_s=slo)
    return svc.add_tenant(tc, src, dst)


class TestAutopilotService:
    @pytest.fixture(autouse=True)
    def _fast_loop(self, monkeypatch):
        """``_live_service`` runs at a 10 s tick, a 120 s p99 window and
        no cooldown, so these short runs see several actuations."""
        monkeypatch.setattr(autopilot_mod, "INTERVAL_S", 10.0)
        monkeypatch.setattr(autopilot_mod, "WINDOW_S", 120.0)
        monkeypatch.setattr(autopilot_mod, "COOLDOWN_S", 0.0)

    def test_rolling_restart_keeps_actuated_knobs(self):
        """Regression: ``rebuild_engine`` built the replacement from the
        service config, so a rolling restart silently reverted every
        knob the controller had moved while it still believed it held
        the moved value."""
        cloud, svc = _live_service()
        rule = svc.add_rule(cloud.bucket("aws:us-east-1", "probe-src"),
                            cloud.bucket("azure:eastus", "probe-dst"),
                            profile=False)
        ap = svc.autopilot
        ap._config_writer("outage_catchup_concurrency", integer=True)(16)
        ap._config_writer("retry_deadline_s")(40.0)
        engine = svc.rebuild_engine(rule.rule_id)
        assert engine is rule.engine
        assert engine.config.outage_catchup_concurrency == 16
        assert engine.config.retry_deadline_s == 40.0
        assert svc.config.outage_catchup_concurrency == 16

    def test_disabled_config_constructs_nothing(self):
        cloud = build_default_cloud(seed=0)
        svc = AReplicaService(cloud, ReplicaConfig(profile_samples=4))
        assert svc.autopilot is None

    def test_engages_on_slo_pressure_and_trace_stays_clean(self):
        """An impossible SLO (0.5 s cross-cloud) turns every completion
        into pressure: the controller must actuate, every actuation must
        be a traced autopilot span, and the discipline oracle must hold
        over the real run."""
        cloud, svc = _live_service()
        state = _add_tenant(cloud, svc, slo=0.5)
        base = cloud.sim.now
        for i in range(12):
            cloud.sim.call_at(base + 1.0 + 4.0 * i,
                              lambda i=i, b=state.src_bucket: b.put_object(
                                  f"k{i}", Blob.fresh(64 * 1024),
                                  cloud.sim.now))
        svc.autopilot.start(120.0)
        cloud.run()
        ap = svc.autopilot
        assert ap.stats["actuations"] > 0
        spans = [s for s in svc.tracer.spans if s.cat == "autopilot"]
        assert len(spans) == ap.stats["actuations"] == \
            len(ap.controller.changelog)
        report = TraceChecker(svc).check()
        assert report.clean, [str(f) for f in report.findings]
        assert report.checked["autopilot_actuations"] == len(spans)
        # The episode opened (pressure) — it may or may not settle
        # within this short run, but it must exist, and every *closed*
        # episode must have contributed one settle-time sample.
        assert ap.episodes
        closed = [e for e in ap.episodes if e[1] is not None]
        assert len(ap.stats["settle_time_s"]) == len(closed)
        assert all(s >= 0 for s in ap.stats["settle_time_s"])

    def test_holds_while_cordoned(self):
        """An open administrative cordon freezes the controller: ticks
        count cordon holds, no knob moves, no span is emitted."""
        cloud, svc = _live_service()
        state = _add_tenant(cloud, svc, slo=0.5)
        base = cloud.sim.now
        for i in range(6):
            cloud.sim.call_at(base + 1.0 + 4.0 * i,
                              lambda i=i, b=state.src_bucket: b.put_object(
                                  f"k{i}", Blob.fresh(64 * 1024),
                                  cloud.sim.now))
        svc.health.cordon(("faas", "azure:eastus"))
        svc.autopilot.start(100.0)
        cloud.run()
        ap = svc.autopilot
        assert ap.stats["cordon_holds"] > 0
        assert ap.stats["actuations"] == 0
        assert not [s for s in svc.tracer.spans if s.cat == "autopilot"]
        assert TraceChecker(svc).check().clean

    def test_start_is_bounded_and_restartable(self):
        cloud, svc = _live_service()
        _add_tenant(cloud, svc)
        svc.autopilot.start(50.0)
        with pytest.raises(RuntimeError):
            svc.autopilot.start(50.0)
        cloud.run()
        assert cloud.sim.now >= 50.0
        svc.autopilot.start(25.0)     # bounded loop ended; restart legal
        cloud.run()

    def test_snapshot_is_json_friendly(self):
        import json
        cloud, svc = _live_service()
        _add_tenant(cloud, svc)
        svc.autopilot.start(30.0)
        cloud.run()
        snap = svc.autopilot.snapshot()
        json.dumps(snap)
        assert set(snap["stats"]) == set(AUTOPILOT_STAT_KEYS)
        assert "dispatch_concurrency" in snap["knobs"]

    def test_dispatch_concurrency_actuation_reaches_the_scheduler(self):
        cloud, svc = _live_service()
        _add_tenant(cloud, svc)
        svc.autopilot.start(10.0)
        ctrl = svc.autopilot.controller
        before = svc.scheduler.max_concurrent
        act = ctrl.drive("dispatch_concurrency", 1.0,
                         now=cloud.sim.now, reason="test")
        assert act is not None
        assert svc.scheduler.max_concurrent > before

    def test_config_knob_actuation_swaps_engine_configs(self):
        cloud, svc = _live_service()
        _add_tenant(cloud, svc)
        # Shard engines are lazy: force one into existence.
        state = svc.tenants["t0"]
        state.src_bucket.put_object("warm", Blob.fresh(1024), cloud.sim.now)
        cloud.run()
        svc.autopilot.start(10.0)
        ctrl = svc.autopilot.controller
        act = ctrl.drive("batching_epsilon", 1.0, now=cloud.sim.now,
                         reason="test")
        assert act is not None
        for rule in svc.rules.values():
            assert rule.engine.config.batching_epsilon == act.new

    def test_retry_deadline_actuation_swaps_retry_policies(self):
        cloud, svc = _live_service()
        _add_tenant(cloud, svc)
        state = svc.tenants["t0"]
        state.src_bucket.put_object("warm", Blob.fresh(1024), cloud.sim.now)
        cloud.run()
        svc.autopilot.start(10.0)
        ctrl = svc.autopilot.controller
        act = ctrl.drive("retry_deadline_s", 1.0, now=cloud.sim.now,
                         reason="test")
        assert act is not None and act.new < act.old
        for rule in svc.rules.values():
            assert rule.engine.config.retry_deadline_s == act.new

    def test_saturation_error_is_the_queue_behind_a_capped_platform(self):
        """The signal that shrinks hedging under saturation: the
        invocations queued on the watched FaaS platforms, summed, over
        the 64-deep threshold, read at the tick ``start()`` runs."""
        cloud, svc = _live_service()
        _add_tenant(cloud, svc)
        faas = cloud.faas("aws:us-east-1")
        faas.profile = dataclasses.replace(faas.profile, max_concurrency=1)

        def busy(ctx, payload):
            yield ctx.sleep(60.0)
        faas.deploy("busy", busy)
        queued = 96
        for i in range(1 + queued):     # one runs, the rest queue
            faas.invoke_and_forget("busy", i)
        assert len(faas._queue) == queued
        svc.autopilot.start(10.0)
        assert svc.autopilot._saturation_error() == queued / 64 - 1

    def test_rule_built_after_an_actuation_starts_from_the_moved_knobs(self):
        """Regression: the writers moved each existing engine's config
        while ``add_rule`` built new engines from the unchanged service
        config, so a tenant onboarded after an actuation ran at the
        baseline knobs the controller believed it had moved away from."""
        cloud, svc = _live_service()
        state = _add_tenant(cloud, svc)
        state.src_bucket.put_object("warm", Blob.fresh(1024), cloud.sim.now)
        cloud.run()
        svc.autopilot.start(10.0)
        ctrl = svc.autopilot.controller
        for knob in ("batching_epsilon", "retry_deadline_s"):
            assert ctrl.drive(knob, 1.0, now=cloud.sim.now, reason="test")
        svc.autopilot.stop()            # no tick may rewrite the configs
        late = _add_tenant(cloud, svc, tid="t1")
        late.src_bucket.put_object("k", Blob.fresh(1024), cloud.sim.now)
        cloud.run()
        config = svc.rules["t1-s0"].engine.config
        assert config.batching_epsilon == ctrl.value("batching_epsilon")
        assert config.retry_deadline_s == ctrl.value("retry_deadline_s")
