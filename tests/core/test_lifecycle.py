"""Planned-operations lifecycle drills: evacuation, restart, switchover.

Each procedure runs against a *live* loaded service and must leave the
system provably intact: convergence, quiescent audit, and the trace
oracle (including the switchover-discipline and cordon-discipline
invariants) all clean.  The quiescent-recovery tests cover the two
crash-residue reapers that back the drills: stranded-lock reclaim in
``run_to_convergence`` and abandoned-upload reaping in the
anti-entropy scanner.
"""

import pytest

from repro.core.audit import ReplicationAuditor
from repro.core.config import ReplicaConfig
from repro.core.invariants import TraceChecker
from repro.core.lifecycle import SCENARIOS, OperationsRunner
from repro.core.repair import AntiEntropyScanner
from repro.core.service import AReplicaService
from repro.simcloud.cloud import build_default_cloud
from repro.simcloud.objectstore import Blob

pytestmark = pytest.mark.lifecycle

KB = 1024
MB = 1024 * 1024
SRC = "aws:us-east-1"
DST = "azure:eastus"


def build(seed, **cfg):
    cloud = build_default_cloud(seed=seed)
    config = ReplicaConfig(profile_samples=4, mc_samples=300,
                           tracing_enabled=True, **cfg)
    svc = AReplicaService(cloud, config)
    src = cloud.bucket(SRC, "src")
    dst = cloud.bucket(DST, "dst")
    rule = svc.add_rule(src, dst)
    return cloud, svc, src, dst, rule


def spawn_workload(cloud, src, n=120, mean_gap_s=7.5):
    """Seeded put stream spread over ~n*mean_gap_s simulated seconds, so
    live traffic keeps arriving before, during, and after a maintenance
    window scheduled a few minutes in."""
    rng = cloud.rngs.stream("lifecycle-test-workload")

    def gen():
        for i in range(n):
            yield cloud.sim.sleep(mean_gap_s * (0.5 + rng.random()))
            size = int(64 * KB + rng.random() * 2 * MB)
            src.put_object(f"obj{i % 12}", Blob.fresh(size), cloud.now)

    cloud.sim.spawn(gen(), name="lifecycle-test-workload")


def assert_system_intact(svc, rule):
    report = svc.run_to_convergence()
    assert report.converged, report.render()
    audit = ReplicationAuditor(svc).audit(quiescent=True)
    assert audit.clean, [str(f) for f in audit.findings]
    trace = TraceChecker(svc).check()
    assert trace.clean, [str(f) for f in trace.findings]
    return report, trace


class TestEvacuation:
    def test_evacuation_drains_migrates_and_readmits(self):
        cloud, svc, src, dst, rule = build(seed=810)
        spawn_workload(cloud, src)
        runner = OperationsRunner(svc, rule.rule_id)
        runner.schedule("evacuate", 300.0)
        cloud.run()
        report, trace = assert_system_intact(svc, rule)

        assert len(runner.reports) == 1
        proc = runner.reports[0]
        assert proc.scenario == "evacuate"
        assert proc.deadline_met, "drain missed its deadline"
        stats = rule.engine.stats
        # FaaS + KV + store cordons were all applied.
        assert stats["cordons"] >= 3
        # Both evacuation paths ran: work either failed over to the
        # surviving platform or parked into the durable backlog, and
        # everything re-admitted once the cordon lifted.
        assert proc.migrated + stats["parked"] > 0
        assert stats["migrated_tasks"] == proc.migrated
        assert svc.backlog_count() == 0
        # The cordon-discipline invariant saw the window.
        assert trace.checked.get("cordon_windows", 0) >= 1

    def test_evacuation_exposes_backlog_peak_and_drain_counts(self):
        cloud, svc, src, dst, rule = build(seed=811)
        spawn_workload(cloud, src)
        runner = OperationsRunner(svc, rule.rule_id)
        runner.schedule("evacuate", 300.0)
        cloud.run()
        report = svc.run_to_convergence()
        assert report.converged, report.render()
        stats = rule.engine.stats
        if stats["parked"] > 0:
            assert report.backlog_peak > 0
            assert report.drained == stats["drained"]
        summary = svc.summary()
        assert summary["parked_backlog_peak"] == report.backlog_peak
        assert summary["drained_tasks"] == report.drained
        assert stats["drained_parts"] >= 0


class TestRollingRestart:
    def test_rolling_restart_checkpoints_and_restores(self):
        cloud, svc, src, dst, rule = build(seed=820)
        spawn_workload(cloud, src)
        old_engine = rule.engine
        runner = OperationsRunner(svc, rule.rule_id)
        runner.schedule("rolling", 300.0)
        cloud.run()
        assert_system_intact(svc, rule)

        assert rule.engine is not old_engine, "engine was not rebuilt"
        proc = runner.reports[0]
        assert proc.scenario == "rolling"
        stats = rule.engine.stats
        # Counters survived the restart by adoption, not by reset.
        assert stats["checkpoints"] >= 1
        assert stats["tasks"] > 0
        assert proc.restored >= 0 and proc.remirrored >= 0

    def test_rebuilt_engine_still_replicates(self):
        cloud, svc, src, dst, rule = build(seed=821)
        spawn_workload(cloud, src, n=60)
        runner = OperationsRunner(svc, rule.rule_id)
        runner.schedule("rolling", 200.0)
        cloud.run()
        # Traffic that arrived after the rebuild landed on the new
        # engine and reached the destination.
        src.put_object("after-restart", Blob.fresh(256 * KB), cloud.now)
        cloud.run()
        assert_system_intact(svc, rule)
        assert dst.head("after-restart").etag == src.head("after-restart").etag


class TestSwitchover:
    def test_switchover_moves_orchestration_under_load(self):
        cloud, svc, src, dst, rule = build(seed=830)
        spawn_workload(cloud, src)
        runner = OperationsRunner(svc, rule.rule_id)
        runner.schedule("switchover", 300.0)
        cloud.run()
        report, trace = assert_system_intact(svc, rule)

        proc = runner.reports[0]
        assert proc.scenario == "switchover"
        assert proc.deadline_met
        stats = rule.engine.stats
        assert stats["switchovers"] == 1
        # Orchestrations really moved to the destination platform...
        assert proc.migrated > 0
        # ...and the switchover-discipline invariant audited the epochs.
        assert trace.checked.get("finalize_epochs", 0) > 0


class TestRunnerContract:
    def test_unknown_scenario_rejected(self):
        cloud, svc, src, dst, rule = build(seed=840)
        runner = OperationsRunner(svc, rule.rule_id)
        with pytest.raises(ValueError, match="unknown scenario"):
            runner.schedule("explode", 10.0)
        assert set(SCENARIOS) == {"evacuate", "rolling", "switchover"}

    def test_idle_runner_is_invisible(self):
        """A constructed-but-unscheduled runner draws nothing: no RNG
        stream, no events, no KV traffic (the byte-determinism
        guarantee for lifecycle-off runs)."""
        cloud, svc, src, dst, rule = build(seed=843)
        runner = OperationsRunner(svc, rule.rule_id)
        assert runner._rng is None
        src.put_object("k", Blob.fresh(1 * MB), cloud.now)
        cloud.run()
        assert runner.reports == []
        assert runner._rng is None
        assert rule.engine.stats["cordons"] == 0


class TestQuiescentRecovery:
    def test_stranded_lock_is_reclaimed_at_convergence(self):
        """A holder that dies between finalize and UNLOCK strands the
        lock record and any pending version registered on it; the
        convergence loop must steal the lease and converge the key."""
        cloud, svc, src, dst, rule = build(seed=850)
        src.put_object("k", Blob.fresh(512 * KB), cloud.now)
        cloud.run()
        svc.run_to_convergence()
        # Overwrite the source, then forge the crash residue: a lock
        # record owned by a dead task with the new version pending.
        src.put_object("k", Blob.fresh(768 * KB), cloud.now, notify=False)
        current = src.head("k")
        engine = rule.engine
        engine._lock_table._items["lock:k"] = {
            "owner": f"{rule.rule_id}:k:1:created", "held_etag": "dead",
            "held_seq": 1, "acquired_at": cloud.now, "fence": 7,
            "pending_etag": current.etag, "pending_seq": current.sequencer,
        }
        report = svc.run_to_convergence()
        assert report.converged, report.render()
        assert report.reclaimed_locks == 1
        assert engine._lock_table.peek("lock:k") is None
        assert dst.head("k").etag == current.etag

    def test_scanner_reaps_abandoned_uploads(self):
        cloud, svc, src, dst, rule = build(seed=851)
        src.put_object("k", Blob.fresh(256 * KB), cloud.now)
        cloud.run()
        svc.run_to_convergence()
        dst.initiate_multipart("orphan")
        assert dst.pending_uploads()
        scanner = AntiEntropyScanner(svc)
        detect_only = scanner.scan(rule, redrive=False)
        assert detect_only.aborted_uploads == 0, "reap must be opt-in"
        assert dst.pending_uploads()
        report = scanner.scan(rule, redrive=False, reap_uploads=True)
        assert report.aborted_uploads == 1
        assert not dst.pending_uploads()
        audit = ReplicationAuditor(svc).audit(quiescent=True)
        assert audit.clean, [str(f) for f in audit.findings]
