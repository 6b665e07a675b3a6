"""End-to-end tests for the replication engine and service facade."""

import pytest

from repro.core.config import ReplicaConfig
from repro.core.service import AReplicaService
from repro.simcloud.cloud import build_default_cloud
from repro.simcloud.objectstore import Blob

MB = 1024 * 1024


def build(seed=7, slo=0.0, **cfg):
    cloud = build_default_cloud(seed=seed)
    config = ReplicaConfig(slo_seconds=slo, profile_samples=6, mc_samples=500,
                           **cfg)
    svc = AReplicaService(cloud, config)
    src = cloud.bucket("aws:us-east-1", "src")
    dst = cloud.bucket("azure:eastus", "dst")
    rule = svc.add_rule(src, dst)
    return cloud, svc, src, dst, rule


@pytest.fixture(scope="module")
def env():
    """Shared environment for independent-key tests (profiling is the
    expensive part; each test uses its own object keys)."""
    return build()


class TestBasicReplication:
    def test_small_object_replicated_inline(self, env):
        cloud, svc, src, dst, rule = env
        blob = Blob.fresh(1 * MB)
        src.put_object("small", blob, cloud.now)
        cloud.run()
        assert dst.head("small").etag == blob.etag
        assert rule.engine.stats["inline"] >= 1

    def test_large_object_replicated_distributed(self, env):
        cloud, svc, src, dst, rule = env
        blob = Blob.fresh(512 * MB)
        src.put_object("large", blob, cloud.now)
        cloud.run()
        assert dst.head("large").etag == blob.etag
        assert rule.engine.stats["distributed"] >= 1

    def test_delay_recorded_and_subminute(self, env):
        cloud, svc, src, dst, rule = env
        src.put_object("timed", Blob.fresh(8 * MB), cloud.now)
        cloud.run()
        rec = [r for r in svc.records if r.key == "timed"]
        assert len(rec) == 1
        assert 0 < rec[0].delay < 60.0

    def test_delete_propagates(self, env):
        cloud, svc, src, dst, rule = env
        src.put_object("victim", Blob.fresh(MB), cloud.now)
        cloud.run()
        assert "victim" in dst
        src.delete_object("victim", cloud.now)
        cloud.run()
        assert "victim" not in dst
        kinds = [r.kind for r in svc.records if r.key == "victim"]
        assert "deleted" in kinds

    def test_overwrite_converges_to_newest(self, env):
        cloud, svc, src, dst, rule = env
        src.put_object("hot", Blob.fresh(MB), cloud.now)
        cloud.run()
        newest = src.put_object("hot", Blob.fresh(MB), cloud.now)
        cloud.run()
        assert dst.head("hot").etag == newest.etag

    def test_no_pending_after_drain(self, env):
        cloud, svc, src, dst, rule = env
        src.put_object("drained", Blob.fresh(MB), cloud.now)
        cloud.run()
        assert svc.pending_count() == 0

    def test_plan_metadata_in_records(self, env):
        cloud, svc, src, dst, rule = env
        src.put_object("meta", Blob.fresh(256 * MB), cloud.now)
        cloud.run()
        rec = [r for r in svc.records if r.key == "meta"][0]
        assert rec.plan_n >= 1
        assert rec.loc_key in ("aws:us-east-1", "azure:eastus")


class TestConcurrencyAndConsistency:
    def test_rapid_overwrites_eventually_consistent(self):
        """Many rapid PUTs to one key: the destination must converge to
        the final version with no interleaved corruption."""
        cloud, svc, src, dst, rule = build(seed=11)
        final = None
        for i in range(6):
            final = src.put_object("contested", Blob.fresh(MB), cloud.now)
        cloud.run()
        assert dst.head("contested").etag == final.etag
        assert svc.pending_count() == 0

    def test_update_during_distributed_replication_aborts_and_retries(self):
        """The Figure 14 race: a PUT mid-flight must abort the multipart
        task and converge on the new version — never a mixed object."""
        cloud, svc, src, dst, rule = build(seed=13)
        src.put_object("racy", Blob.fresh(1024 * MB), cloud.now)

        # Overwrite while the distributed task is in flight.
        def overwriter():
            yield cloud.sim.sleep(2.0)
            src.put_object("racy", Blob.fresh(1024 * MB), cloud.now)

        cloud.sim.spawn(overwriter())
        cloud.run()
        assert dst.head("racy").etag == src.head("racy").etag
        assert rule.engine.stats["aborted"] >= 1
        assert svc.pending_count() == 0

    def test_interleaved_keys_all_replicated(self):
        cloud, svc, src, dst, rule = build(seed=17)
        blobs = {}
        for i in range(20):
            key = f"k{i % 5}"
            blobs[key] = src.put_object(key, Blob.fresh(MB), cloud.now)
        cloud.run()
        for key, version in blobs.items():
            assert dst.head(key).etag == version.etag

    def test_put_then_delete_ends_deleted(self):
        cloud, svc, src, dst, rule = build(seed=19)
        src.put_object("ghost", Blob.fresh(64 * MB), cloud.now)
        src.delete_object("ghost", cloud.now)
        cloud.run()
        assert "ghost" not in dst
        assert svc.pending_count() == 0


class TestSchedulingModes:
    def test_fair_mode_replicates_correctly(self):
        cloud = build_default_cloud(seed=23)
        config = ReplicaConfig(profile_samples=6, mc_samples=500)
        svc = AReplicaService(cloud, config)
        src = cloud.bucket("aws:us-east-1", "src")
        dst = cloud.bucket("azure:eastus", "dst")
        rule = svc.add_rule(src, dst, scheduling="fair")
        blob = Blob.fresh(512 * MB)
        src.put_object("obj", blob, cloud.now)
        cloud.run()
        assert dst.head("obj").etag == blob.etag

    def test_pool_mode_worker_part_counts_vary(self):
        """Decentralized scheduling gives unequal per-worker part counts
        (the fast instances do more) — Fig 17b."""
        cloud, svc, src, dst, rule = build(seed=29)
        src.put_object("spread", Blob.fresh(1024 * MB), cloud.now)
        cloud.run()
        counts = [v for (task, w), v in rule.engine.worker_parts.items()]
        assert sum(counts) >= 128  # all 128 parts claimed (>= due to retries)
        assert max(counts) > min(counts)

    def test_invalid_scheduling_rejected(self):
        cloud = build_default_cloud(seed=1)
        config = ReplicaConfig(profile_samples=6)
        svc = AReplicaService(cloud, config)
        src = cloud.bucket("aws:us-east-1", "s")
        dst = cloud.bucket("aws:us-east-2", "d")
        with pytest.raises(ValueError):
            svc.add_rule(src, dst, scheduling="random")


class TestCostAccounting:
    def test_cross_cloud_replication_cost_dominated_by_egress(self):
        cloud, svc, src, dst, rule = build(seed=31)
        before = cloud.ledger.snapshot()
        src.put_object("bill", Blob.fresh(1024 * MB), cloud.now)
        cloud.run()
        delta = before.delta(cloud.ledger.snapshot())
        egress = delta.totals.get("egress", 0.0)
        # 1 GiB over AWS->Azure internet egress at $0.09/GB.
        assert egress == pytest.approx(0.09 * 1024 * MB / 1e9, rel=0.01)
        assert egress / delta.total > 0.8

    def test_small_object_cost_order_of_magnitude(self):
        """Paper Table 1: ~1e-4 $ for 1 MB cross-cloud replication."""
        cloud, svc, src, dst, rule = build(seed=37)
        before = cloud.ledger.snapshot()
        src.put_object("small", Blob.fresh(MB), cloud.now)
        cloud.run()
        total = before.delta(cloud.ledger.snapshot()).total
        assert 1e-5 < total < 1e-3


def bare_service(seed):
    cloud = build_default_cloud(seed=seed)
    return cloud, AReplicaService(cloud, ReplicaConfig(profile_samples=5,
                                                       mc_samples=300))


def mirrored(svc, rules):
    """Every rule's destination holds exactly its source's versions."""
    return svc.pending_count() == 0 and all(
        {k: r.src_bucket.head(k).etag for k in r.src_bucket.keys()}
        == {k: r.dst_bucket.head(k).etag for k in r.dst_bucket.keys()}
        for r in rules)


class TestMultiRuleShapes:
    """Several rules on one service: fan-out, cascade, two-way."""

    def test_one_source_fans_out_to_two_clouds(self):
        cloud, svc = bare_service(1101)
        primary = cloud.bucket("aws:us-east-1", "primary")
        replicas = [cloud.bucket("azure:eastus", "r1"),
                    cloud.bucket("gcp:us-east1", "r2")]
        rules = [svc.add_rule(primary, r) for r in replicas]
        blob = Blob.fresh(8 * MB)
        primary.put_object("k", blob, cloud.now)
        cloud.run()
        assert mirrored(svc, rules)
        for replica in replicas:
            assert replica.head("k").etag == blob.etag

    def test_cascade_carries_put_and_delete_to_the_end(self):
        cloud, svc = bare_service(1106)
        a, b, c = (cloud.bucket("aws:us-east-1", "a"),
                   cloud.bucket("aws:us-east-2", "b"),
                   cloud.bucket("aws:us-west-2", "c"))
        rules = [svc.add_rule(a, b), svc.add_rule(b, c)]
        blob = Blob.fresh(MB)
        a.put_object("k", blob, cloud.now)
        cloud.run()
        assert c.head("k").etag == blob.etag
        a.delete_object("k", cloud.now)
        cloud.run()
        assert mirrored(svc, rules)
        assert "k" not in c

    def test_two_way_pair_quenches_echoes_and_converges(self):
        cloud, svc = bare_service(1108)
        a = cloud.bucket("aws:us-east-1", "a")
        b = cloud.bucket("aws:us-east-2", "b")
        rules = [svc.add_rule(a, b), svc.add_rule(b, a)]
        blob_a, blob_b = Blob.fresh(2 * MB), Blob.fresh(2 * MB)
        a.put_object("from-a", blob_a, cloud.now)
        b.put_object("from-b", blob_b, cloud.now)
        assert not mirrored(svc, rules)
        cloud.run()  # terminates only because echoes are short-circuited
        assert mirrored(svc, rules)
        for site in (a, b):
            assert site.head("from-a").etag == blob_a.etag
            assert site.head("from-b").etag == blob_b.etag
