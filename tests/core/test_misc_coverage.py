"""Remaining behaviour corners: same-region rules, batching internals,
logger counters, planner percentile overrides, and network overrides."""

import pytest

from repro.core.config import ReplicaConfig
from repro.core.logger import RuntimeLogger
from repro.core.model import PerformanceModel
from repro.core.service import AReplicaService
from repro.simcloud.cloud import Cloud, CloudProfiles, build_default_cloud
from repro.simcloud.network import DEFAULT_PROFILE, NetworkProfile
from repro.simcloud.objectstore import Blob

MB = 1024 * 1024


class TestSameRegionRule:
    def test_intra_region_replication_works_and_is_free(self):
        """src and dst buckets in the same region: valid (backup into a
        second bucket), fast, and egress-free."""
        cloud = build_default_cloud(seed=1001)
        svc = AReplicaService(cloud, ReplicaConfig(profile_samples=5,
                                                   mc_samples=300))
        src = cloud.bucket("aws:us-east-1", "src")
        dst = cloud.bucket("aws:us-east-1", "backup")
        svc.add_rule(src, dst)
        before = cloud.ledger.snapshot()
        blob = Blob.fresh(16 * MB)
        src.put_object("k", blob, cloud.now)
        cloud.run()
        assert dst.head("k").etag == blob.etag
        delta = before.delta(cloud.ledger.snapshot())
        assert delta.totals.get("egress", 0.0) == 0.0
        [rec] = svc.records
        assert rec.delay < 5.0


class TestBatchingInternals:
    def test_superseded_timer_does_not_flush_twice(self):
        cloud = build_default_cloud(seed=1002)
        svc = AReplicaService(cloud, ReplicaConfig(slo_seconds=30.0,
                                                   profile_samples=5,
                                                   mc_samples=300))
        src = cloud.bucket("aws:us-east-1", "src")
        dst = cloud.bucket("aws:us-east-2", "dst")
        rule = svc.add_rule(src, dst)

        def producer():
            for _ in range(4):
                src.put_object("hot", Blob.fresh(MB), cloud.now)
                yield cloud.sim.sleep(3.0)

        cloud.sim.run_process(producer())
        cloud.run()
        stats = rule.batcher.stats
        assert stats["delayed"] == 4
        assert stats["flushes"] + stats["superseded"] == 4
        assert stats["flushes"] <= 2

    def test_pending_count_per_key(self):
        cloud = build_default_cloud(seed=1003)
        svc = AReplicaService(cloud, ReplicaConfig(slo_seconds=60.0,
                                                   profile_samples=5,
                                                   mc_samples=300))
        src = cloud.bucket("aws:us-east-1", "src")
        rule = svc.add_rule(src, cloud.bucket("aws:us-east-2", "dst"))
        src.put_object("a", Blob.fresh(MB), cloud.now)
        src.put_object("b", Blob.fresh(MB), cloud.now)
        cloud.run(until=cloud.now + 3.0)  # notifications in, timers parked
        assert rule.batcher.pending_count("a") == 1
        assert rule.batcher.pending_count() == 2
        cloud.run()
        assert rule.batcher.pending_count() == 0


class TestLoggerOptions:
    def test_unknown_path_counters_zero(self):
        model = PerformanceModel(chunk_size=8 * MB)
        logger = RuntimeLogger(model)
        assert logger.corrections(("x", "y", "z")) == 0
        assert logger.observations(("x", "y", "z")) == 0


class TestPlannerPercentileOverride:
    def test_stricter_percentile_never_cheaper(self):
        cloud = build_default_cloud(seed=1004)
        svc = AReplicaService(cloud, ReplicaConfig(profile_samples=8,
                                                   mc_samples=500))
        src = cloud.bucket("aws:us-east-1", "src")
        dst = cloud.bucket("azure:eastus", "dst")
        svc.add_rule(src, dst)
        relaxed = svc.planner.generate(512 * MB, "aws:us-east-1",
                                       "azure:eastus", slo_remaining=30.0,
                                       percentile=0.5)
        strict = svc.planner.generate(512 * MB, "aws:us-east-1",
                                      "azure:eastus", slo_remaining=30.0,
                                      percentile=0.999)
        assert strict.n >= relaxed.n


class TestNetworkOverrides:
    def test_pair_override_applies_per_direction(self):
        profile = NetworkProfile(pair_overrides={
            ("aws", "aws:us-east-1", "aws:us-east-2"): 100.0,
        })
        cloud = Cloud(seed=0, profiles=CloudProfiles(network=profile))
        from repro.simcloud.network import BEST_CONFIGS

        use1 = cloud.region("aws:us-east-1")
        use2 = cloud.region("aws:us-east-2")
        cfg = BEST_CONFIGS["aws"]
        # Download us-east-2 -> function at us-east-1 is NOT overridden
        # (the override names the us-east-1 -> us-east-2 direction).
        down = cloud.fabric.path_mbps(use1, use2, cfg, upload=False)
        up = cloud.fabric.path_mbps(use1, use2, cfg, upload=True)
        assert up == pytest.approx(100.0 * profile.upload_factor
                                   * profile.config_scale("aws", cfg))
        assert down != pytest.approx(up)

    def test_custom_profiles_flow_through_cloud(self):
        profile = NetworkProfile(nic_cap_mbps={
            "aws": 100.0, "azure": 100.0, "gcp": 100.0})
        cloud = Cloud(seed=0, profiles=CloudProfiles(network=profile))
        assert cloud.fabric.profile.nic_cap_mbps["aws"] == 100.0
        # Default profile untouched (frozen dataclass defaults).
        assert DEFAULT_PROFILE.nic_cap_mbps["aws"] != 100.0
