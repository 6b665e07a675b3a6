"""Tests for the user-side client library with automatic changelog
hints, plus the versioning lifecycle machinery it motivates."""

import pytest

from repro.core.client import ReplicatedBucketClient
from repro.core.config import ReplicaConfig
from repro.core.service import AReplicaService
from repro.simcloud.chaos import injected_ledger
from repro.simcloud.cloud import build_default_cloud
from repro.simcloud.cost import CostCategory
from repro.simcloud.objectstore import Blob, Bucket

MB = 1024 * 1024


@pytest.fixture
def env():
    cloud = build_default_cloud(seed=401)
    config = ReplicaConfig(profile_samples=5, mc_samples=300)
    svc = AReplicaService(cloud, config)
    src = cloud.bucket("aws:us-east-1", "src")
    dst = cloud.bucket("aws:us-east-2", "dst")
    rule = svc.add_rule(src, dst)
    client = ReplicatedBucketClient(cloud, src, rule.changelog)
    return cloud, svc, src, dst, rule, client


class TestClientOperations:
    def test_put_and_get(self, env):
        cloud, svc, src, dst, rule, client = env
        blob = Blob.fresh(MB)
        client.run(client.put("k", blob))
        assert client.get("k").etag == blob.etag
        cloud.run()
        assert dst.head("k").etag == blob.etag

    def test_copy_replicates_via_changelog(self, env):
        cloud, svc, src, dst, rule, client = env
        client.run(client.put("orig", Blob.fresh(50 * MB)))
        cloud.run()
        egress_before = cloud.ledger.total(CostCategory.EGRESS)
        client.run(client.copy("orig", "copy"))
        cloud.run()
        assert dst.head("copy").etag == src.head("copy").etag
        assert rule.engine.stats["changelog_applied"] == 1
        assert cloud.ledger.total(CostCategory.EGRESS) == egress_before

    def test_concat_replicates_via_changelog(self, env):
        cloud, svc, src, dst, rule, client = env
        client.run(client.put("a", Blob.fresh(30 * MB)))
        client.run(client.put("b", Blob.fresh(20 * MB)))
        cloud.run()
        client.run(client.concat(["a", "b"], "ab"))
        cloud.run()
        assert dst.head("ab").etag == src.head("ab").etag
        assert rule.engine.stats["changelog_applied"] == 1

    def test_concat_empty_sources_rejected(self, env):
        _, _, _, _, _, client = env
        with pytest.raises(ValueError):
            client.run(client.concat([], "x"))

    def test_append_moves_only_tail_bytes(self, env):
        cloud, svc, src, dst, rule, client = env
        client.run(client.put("log", Blob.fresh(100 * MB)))
        cloud.run()
        before = cloud.ledger.snapshot()
        client.run(client.append("log", Blob.fresh(2 * MB)))
        cloud.run()
        assert dst.head("log").etag == src.head("log").etag
        delta = before.delta(cloud.ledger.snapshot())
        # Tail-only egress: ~2 MB at $0.02/GB, far below the full 102 MB.
        assert delta.totals.get(CostCategory.EGRESS, 0.0) < \
            0.02 * 10 * MB / 1e9

    def test_patch_rewrites_range(self, env):
        cloud, svc, src, dst, rule, client = env
        client.run(client.put("dev", Blob.fresh(64 * MB)))
        cloud.run()
        client.run(client.patch("dev", 8 * MB, Blob.fresh(1 * MB)))
        cloud.run()
        assert dst.head("dev").etag == src.head("dev").etag
        assert rule.engine.stats["changelog_applied"] == 1

    def test_patch_bounds_checked(self, env):
        cloud, svc, src, dst, rule, client = env
        client.run(client.put("dev", Blob.fresh(MB)))
        with pytest.raises(ValueError):
            client.run(client.patch("dev", MB - 10, Blob.fresh(100)))

    def test_delete_propagates(self, env):
        cloud, svc, src, dst, rule, client = env
        client.run(client.put("k", Blob.fresh(MB)))
        cloud.run()
        client.run(client.delete("k"))
        cloud.run()
        assert "k" not in dst

    def test_stats_track_operations(self, env):
        cloud, svc, src, dst, rule, client = env
        client.run(client.put("a", Blob.fresh(MB)))
        client.run(client.copy("a", "b"))
        client.run(client.append("a", Blob.fresh(1024)))
        assert client.stats["puts"] == 1
        assert client.stats["copies"] == 1
        assert client.stats["appends"] == 1


class TestVersioningLifecycle:
    def make_bucket(self):
        from repro.simcloud.regions import get_region

        return Bucket("b", get_region("aws:us-east-1"), injected_ledger(),
                      versioning=True)

    def test_expire_noncurrent_respects_age(self):
        b = self.make_bucket()
        b.put_object("k", Blob.fresh(100), time=0.0)
        b.put_object("k", Blob.fresh(100), time=10.0)   # v1 superseded @10
        b.put_object("k", Blob.fresh(100), time=500.0)  # v2 superseded @500
        reclaimed = b.expire_noncurrent(now=600.0, older_than_s=200.0)
        assert reclaimed == 100                          # only v1 expired
        assert len(b.noncurrent_versions("k")) == 1

    def test_current_version_never_expired(self):
        b = self.make_bucket()
        b.put_object("k", Blob.fresh(100), time=0.0)
        b.expire_noncurrent(now=10_000.0, older_than_s=1.0)
        assert "k" in b

    def test_noncurrent_bytes(self):
        b = self.make_bucket()
        b.put_object("k", Blob.fresh(100), time=0.0)
        b.put_object("k", Blob.fresh(50), time=1.0)
        assert b.noncurrent_bytes() == 100

    def test_deleted_key_versions_expirable(self):
        b = self.make_bucket()
        b.put_object("k", Blob.fresh(100), time=0.0)
        b.delete_object("k", time=1.0)
        reclaimed = b.expire_noncurrent(now=1_000.0, older_than_s=10.0)
        assert reclaimed == 100
        assert b.noncurrent_bytes() == 0

    def test_daily_update_with_day_lifecycle_doubles_storage(self):
        """§5.2's claim: with day-granularity lifecycle rules, an object
        updated once a day at least doubles its storage footprint."""
        b = self.make_bucket()
        day = 86_400.0
        size = 100
        samples = []
        for d in range(30):
            b.put_object("k", Blob.fresh(size), time=d * day)
            b.expire_noncurrent(now=d * day, older_than_s=day)
            samples.append(b.total_bytes(include_noncurrent=True))
        steady = samples[5:]
        assert min(steady) >= 2 * size
