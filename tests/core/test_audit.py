"""Tests for the replication consistency auditor."""

import random

import pytest

from repro.core.audit import ReplicationAuditor
from repro.core.config import ReplicaConfig
from repro.core.repair import AntiEntropyScanner
from repro.core.service import AReplicaService
from repro.simcloud.chaos import ChaosConfig
from repro.simcloud.cloud import build_default_cloud
from repro.simcloud.objectstore import Blob

MB = 1024 * 1024


def build(seed):
    cloud = build_default_cloud(seed=seed)
    svc = AReplicaService(cloud, ReplicaConfig(profile_samples=5,
                                               mc_samples=300))
    src = cloud.bucket("aws:us-east-1", "src")
    dst = cloud.bucket("aws:us-east-2", "dst")
    rule = svc.add_rule(src, dst)
    return cloud, svc, src, dst, rule


class TestCleanAudits:
    def test_quiescent_rule_audits_clean(self):
        cloud, svc, src, dst, rule = build(1301)
        for i in range(5):
            src.put_object(f"k{i}", Blob.fresh((i + 1) * MB), cloud.now)
        src.delete_object("k0", cloud.now)
        cloud.run()
        report = ReplicationAuditor(svc).audit()
        assert report.clean, report.render()
        assert "clean" in report.render()

    def test_clean_after_distributed_and_aborted_tasks(self):
        cloud, svc, src, dst, rule = build(1302)
        src.put_object("big", Blob.fresh(512 * MB), cloud.now)

        def overwriter():
            yield cloud.sim.sleep(1.5)
            src.put_object("big", Blob.fresh(512 * MB), cloud.now)

        cloud.sim.spawn(overwriter())
        cloud.run()
        report = ReplicationAuditor(svc).audit()
        # In particular: the aborted task's multipart upload was cleaned.
        assert report.by_kind("upload-leak") == []
        assert report.clean, report.render()

    def test_clean_after_chaos_with_recovery(self):
        cloud, svc, src, dst, rule = build(1303)
        cloud.faas("aws:us-east-1").set_chaos(
            ChaosConfig(crash_prob=0.2, crash_mean_delay_s=0.5))
        for i in range(10):
            src.put_object(f"k{i}", Blob.fresh(4 * MB), cloud.now)
        cloud.run()
        for _ in range(3):
            if svc.redrive_dead_letters() == 0:
                break
            cloud.sim.run(until=cloud.now + 301.0)
            cloud.run()
        report = ReplicationAuditor(svc).audit()
        # Stale locks from dead tasks may remain *observable* but only
        # within their lease; past that the audit must be clean.
        cloud.sim.run(until=cloud.now + 1.0)
        assert report.by_kind("divergence") == [], report.render()
        assert report.by_kind("gap") == [], report.render()


class TestFindings:
    def test_divergence_detected(self):
        cloud, svc, src, dst, rule = build(1304)
        src.put_object("k", Blob.fresh(MB), cloud.now)
        cloud.run()
        dst.delete_object("k", cloud.now, notify=False)  # sabotage
        report = ReplicationAuditor(svc).audit(rule)
        [finding] = report.by_kind("divergence")
        assert finding.key == "k"
        assert "missing" in finding.detail

    def test_lingering_destination_object_detected(self):
        cloud, svc, src, dst, rule = build(1305)
        dst.put_object("ghost", Blob.fresh(MB), cloud.now, notify=False)
        report = ReplicationAuditor(svc).audit(rule)
        assert report.by_kind("divergence")

    def test_upload_leak_detected(self):
        cloud, svc, src, dst, rule = build(1306)
        dst.initiate_multipart("leaky")
        report = ReplicationAuditor(svc).audit(rule)
        [finding] = report.by_kind("upload-leak")
        assert "never completed" in finding.detail

    def test_stale_lock_detected(self):
        cloud, svc, src, dst, rule = build(1307)

        def grab_and_abandon():
            yield from rule.engine.locks.lock("k", "e", 1, owner="dead-task")

        cloud.sim.run_process(grab_and_abandon())
        cloud.sim.run(until=cloud.now + rule.engine.locks.lease_s + 5)
        report = ReplicationAuditor(svc).audit(rule)
        [finding] = report.by_kind("stale-lock")
        assert finding.key == "k"

    def test_measurement_gap_detected(self):
        cloud, svc, src, dst, rule = build(1308)
        src.put_object("k", Blob.fresh(MB), cloud.now)
        # Audit before the simulation runs: the write is still in flight.
        report = ReplicationAuditor(svc).audit(rule)
        assert report.by_kind("gap") or report.by_kind("divergence")

    def test_render_lists_findings(self):
        cloud, svc, src, dst, rule = build(1309)
        dst.initiate_multipart("leaky")
        text = ReplicationAuditor(svc).audit(rule).render()
        assert "finding" in text and "upload-leak" in text


@pytest.mark.parametrize("seed", [1310, 1311, 1312])
def test_auditor_and_scanner_agree_on_one_diff(seed):
    """Both oracles read one end-state diff, so on a destination
    sabotaged behind the engine's back they name the same keys: the
    auditor's divergences are the scanner's missing, stale and lingering
    keys, and its silent divergences are a deep scrub's corrupt ones."""
    cloud, svc, src, dst, rule = build(seed)
    keys = [f"k{i}" for i in range(8)]
    for i, key in enumerate(keys):
        src.put_object(key, Blob.fresh((i + 1) * 64 * 1024), cloud.now)
    cloud.run()
    gone, overwritten, rotted = random.Random(seed).sample(keys, 3)
    dst.delete_object(gone, cloud.now, notify=False)
    dst.put_object(overwritten, Blob.fresh(MB), cloud.now, notify=False)
    dst.put_object("ghost", Blob.fresh(MB), cloud.now, notify=False)
    dst.rot_object(rotted)

    audit = ReplicationAuditor(svc).audit(rule, quiescent=True)
    scanner = AntiEntropyScanner(svc)
    shallow = scanner.scan(rule, redrive=False)
    deep = scanner.scan(rule, redrive=False, scrub=True)

    divergent = {f.key for f in audit.by_kind("divergence")}
    assert divergent == {gone, overwritten, "ghost"}, audit.render()
    assert divergent == {f.key for f in shallow.findings}
    assert {(f.kind, f.key) for f in shallow.findings} == {
        ("missing", gone), ("stale", overwritten), ("lingering", "ghost")}
    silent = {f.key for f in audit.by_kind("silent-divergence")}
    assert silent == {rotted}, audit.render()
    assert silent == {f.key for f in deep.by_kind("corrupt")}
