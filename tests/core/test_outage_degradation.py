"""Sustained-outage degradation drills: park → probe → drain → repair.

Where ``test_outages.py`` covers the legacy retry → DLQ → redrive
ladder, these tests exercise the outage-aware path on top of it: the
health tracker opening circuits mid-trace, the engine parking no-route
tasks instead of burning retries, the half-open probe re-admitting
traffic deterministically, FIFO catch-up drains, and the anti-entropy
scanner healing divergence that slipped past everything else.
"""

import pytest

from repro.core import health, retry
from repro.core.config import ReplicaConfig
from repro.core.health import BreakerState, NoRouteAvailable
from repro.core.repair import AntiEntropyScanner
from repro.core.service import AReplicaService
from repro.simcloud.chaos import ChaosConfig
from repro.simcloud.cloud import build_default_cloud
from repro.simcloud.objectstore import Blob

pytestmark = pytest.mark.outage

MB = 1024 * 1024
SRC = "aws:us-east-1"
DST = "azure:eastus"


def build(seed, **cfg):
    cloud = build_default_cloud(seed=seed)
    config = ReplicaConfig(profile_samples=5, mc_samples=300, **cfg)
    svc = AReplicaService(cloud, config)
    src = cloud.bucket(SRC, "src")
    dst = cloud.bucket(DST, "dst")
    rule = svc.add_rule(src, dst)
    return cloud, svc, src, dst, rule


def put_spaced(cloud, src, n, gap_s=5.0, size=MB):
    """One PUT every ``gap_s`` simulated seconds, via a driver process."""
    blobs = {}

    def driver():
        for i in range(n):
            key = f"k{i}"
            blobs[key] = Blob.fresh(size)
            src.put_object(key, blobs[key], cloud.now)
            yield cloud.sim.sleep(gap_s)

    cloud.sim.run_process(driver())
    return blobs


class TestParkAndDrain:
    def test_kv_outage_parks_then_drains_to_convergence(self):
        cloud, svc, src, dst, rule = build(seed=801)
        # The source region's KV substrate goes dark for 10 minutes
        # while writes keep arriving.
        cloud.apply_chaos(ChaosConfig(kv_outages=((SRC, 0.0, 600.0),)))
        blobs = put_spaced(cloud, src, 12, gap_s=30.0)
        report = svc.run_to_convergence()
        engine = rule.engine
        # Degradation engaged: the breaker opened and later work parked
        # instead of burning platform retries into the DLQ.
        assert engine.stats["parked"] > 0
        assert engine.stats["drained"] == engine.stats["parked"]
        assert len(engine.backlog) == 0
        assert engine.backlog.drained_at is not None
        assert engine.backlog.drained_at > 600.0
        assert report.converged
        for key, blob in blobs.items():
            assert dst.head(key).etag == blob.etag
        assert svc.pending_count() == 0
        # The breaker walked the full loop and ended healthy.
        states = [s for _, t, s in svc.health.transitions
                  if t == ("kv", SRC)]
        assert states[0] == BreakerState.OPEN
        assert states[-1] == BreakerState.CLOSED
        assert BreakerState.HALF_OPEN in states

    def test_drain_preserves_park_order(self):
        cloud, svc, src, dst, rule = build(seed=802)
        engine = rule.engine
        cloud.apply_chaos(ChaosConfig(kv_outages=((SRC, 0.0, 600.0),)))
        # Record the order tasks enter the backlog and the order the
        # orchestrator sees them again.  Park order is *not* seq order
        # (a platform-retried early event re-parks behind later ones),
        # so FIFO is asserted against what was actually enqueued.
        parked_order, dispatched = [], []
        orig_park = engine.backlog.park

        def park_spy(payload):
            parked_order.append((payload["key"], payload["seq"]))
            return orig_park(payload)

        engine.backlog.park = park_spy
        faas = cloud.faas(SRC)
        orig_invoke = faas.invoke_and_forget

        def invoke_spy(name, payload):
            if name == engine._orch_name and "seq" in payload:
                dispatched.append((payload["key"], payload["seq"]))
            return orig_invoke(name, payload)

        faas.invoke_and_forget = invoke_spy
        put_spaced(cloud, src, 12, gap_s=30.0)
        report = svc.run_to_convergence()
        assert report.converged and len(parked_order) > 1
        # All 12 events arrive during the outage and every probe peeks
        # without popping, so the catch-up drain re-dispatches the full
        # backlog — its tail must be the park order, verbatim.
        assert dispatched[-len(parked_order):] == parked_order

    def test_faas_outage_fails_over_to_destination(self):
        cloud, svc, src, dst, rule = build(seed=803)
        # Only the FaaS control plane at the source dies; KV and the
        # buckets stay up, so the orchestrator can run from the far end.
        cloud.apply_chaos(ChaosConfig(faas_outages=((SRC, 0.0, 600.0),)))
        blobs = put_spaced(cloud, src, 12, gap_s=30.0)
        report = svc.run_to_convergence()
        assert rule.engine.stats["failover"] > 0
        assert report.converged
        for key, blob in blobs.items():
            assert dst.head(key).etag == blob.etag

    def test_seeded_outage_run_is_deterministic(self):
        def run():
            cloud, svc, src, dst, rule = build(seed=804)
            cloud.apply_chaos(ChaosConfig(kv_outages=((SRC, 0.0, 400.0),),
                                          faas_outages=((SRC, 100.0, 300.0),)))
            put_spaced(cloud, src, 10, gap_s=25.0)
            svc.run_to_convergence()
            return (svc.health.transitions, dict(rule.engine.stats),
                    rule.engine.backlog.drained_at)
        first, second = run(), run()
        # Breaker transitions (times included), engine counters, and the
        # drain completion instant replay bit-for-bit under one seed.
        assert first == second


class TestPlannerDegradation:
    def test_open_circuit_filters_candidates(self):
        cloud, svc, src, dst, rule = build(seed=805)
        tracker = svc.health
        for _ in range(health.FAILURE_THRESHOLD):
            tracker.record(("faas", SRC), False)
        plan = svc.planner.fastest(4 * MB, SRC, DST)
        assert plan.loc_key == DST
        assert svc.planner.degraded_plans > 0

    def test_all_locations_dark_raises_no_route(self):
        cloud, svc, src, dst, rule = build(seed=806)
        tracker = svc.health
        for target in (("faas", SRC), ("faas", DST)):
            for _ in range(health.FAILURE_THRESHOLD):
                tracker.record(target, False)
        with pytest.raises(NoRouteAvailable):
            svc.planner.fastest(4 * MB, SRC, DST)


class TestRetryDeadline:
    def test_deadline_escalates_before_backoff_sum(self, monkeypatch):
        # A huge backoff with a tight total deadline: the third
        # rejection would sleep past the budget, so it escalates to the
        # platform ladder and the stat records why.
        for name, value in (("BASE_S", 10.0), ("CAP_S", 120.0),
                            ("MAX_ATTEMPTS", 50), ("JITTER", 0.0)):
            monkeypatch.setattr(retry, name, value)
        cloud, svc, src, dst, rule = build(seed=807, retry_deadline_s=30.0)
        cloud.apply_chaos(ChaosConfig(kv_outages=((SRC, 0.0, 300.0),)))
        src.put_object("k", Blob.fresh(MB), cloud.now)
        report = svc.run_to_convergence()
        assert rule.engine.stats["kv_retry_deadline"] >= 1
        assert rule.engine.stats["kv_retry_exhausted"] == 0
        assert report.converged
        assert dst.head("k").etag == src.head("k").etag

    def test_deadline_validation(self):
        with pytest.raises(ValueError):
            ReplicaConfig(retry_deadline_s=0.0)
        with pytest.raises(ValueError):
            ReplicaConfig(retry_deadline_s=-5.0)
        # The default config caps retries at half the 300s lock lease.
        assert ReplicaConfig().retry_deadline_s == pytest.approx(150.0)


class TestAntiEntropyRepair:
    def _replicated(self, seed=808):
        cloud, svc, src, dst, rule = build(seed=seed)
        for i in range(6):
            src.put_object(f"k{i}", Blob.fresh(MB), cloud.now)
        cloud.run()
        assert svc.pending_count() == 0
        return cloud, svc, src, dst, rule

    def test_clean_pair_scans_clean(self):
        cloud, svc, src, dst, rule = self._replicated(seed=809)
        report = AntiEntropyScanner(svc).scan(rule, redrive=False)
        assert report.clean and report.scanned == 6
        assert report.redriven == 0

    def test_detects_and_heals_all_three_divergence_kinds(self):
        cloud, svc, src, dst, rule = self._replicated(seed=810)
        # Corrupt the destination behind the engine's back, the way a
        # lost event (or an operator) would.
        dst.delete_object("k0", cloud.now, notify=False)        # missing
        dst.put_object("k1", Blob.fresh(MB), cloud.now,
                       notify=False)                            # stale
        dst.put_object("ghost", Blob.fresh(MB), cloud.now,
                       notify=False)                            # lingering
        scanner = AntiEntropyScanner(svc)
        detected = scanner.scan(rule, redrive=False)
        assert {f.kind for f in detected.findings} == {"missing", "stale",
                                                       "lingering"}
        assert detected.redriven == 0
        healed = scanner.scan(rule, redrive=True)
        assert healed.redriven == len(healed.findings) == 3
        cloud.run()
        assert dst.head("k0").etag == src.head("k0").etag
        assert dst.head("k1").etag == src.head("k1").etag
        assert "ghost" not in dst
        assert scanner.scan(rule, redrive=False).clean

    def test_repair_does_not_break_the_audit(self):
        from repro.core.audit import ReplicationAuditor

        cloud, svc, src, dst, rule = self._replicated(seed=811)
        dst.delete_object("k2", cloud.now, notify=False)
        AntiEntropyScanner(svc).scan(rule, redrive=True)
        cloud.run()
        # Repaired deletes are stamped with the source's top sequencer,
        # so the auditor's done-drift invariant survives the repair.
        assert ReplicationAuditor(svc).audit(quiescent=True).clean
