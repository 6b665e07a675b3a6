"""Randomized eventual-consistency tests.

The system's core guarantee (§5.2): after the dust settles, every
destination bucket holds exactly the source's final state — regardless
of update rates, interleavings, deletes, object sizes, notification
reordering, lock contention, or injected crashes.  These tests generate
randomized workloads (including hypothesis-driven operation sequences)
and assert full convergence after the simulation drains.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import ReplicaConfig
from repro.core.service import AReplicaService
from repro.simcloud.chaos import ChaosConfig
from repro.simcloud.cloud import build_default_cloud
from repro.simcloud.objectstore import Blob

MB = 1024 * 1024


def build(seed, slo=0.0, dst_key="aws:us-east-2", **cfg):
    cloud = build_default_cloud(seed=seed)
    config = ReplicaConfig(slo_seconds=slo, profile_samples=5, mc_samples=300,
                           **cfg)
    svc = AReplicaService(cloud, config)
    src = cloud.bucket("aws:us-east-1", "src")
    dst = cloud.bucket(dst_key, "dst")
    rule = svc.add_rule(src, dst)
    return cloud, svc, src, dst, rule


def assert_converged(svc, src, dst):
    """Destination mirrors the source exactly; no event unaccounted; the
    full consistency audit (divergence, upload leaks, measurement gaps,
    stale control state) comes back clean."""
    from repro.core.audit import ReplicationAuditor

    assert svc.pending_count() == 0
    for key in src.keys():
        assert key in dst, f"{key} missing at destination"
        assert dst.head(key).etag == src.head(key).etag, f"{key} differs"
    for key in dst.keys():
        assert key in src, f"{key} lingers at destination after delete"
    report = ReplicationAuditor(svc).audit()
    assert report.clean, report.render()


def drain_with_operator_recovery(cloud, svc):
    """Drain the sim; if any event dead-lettered (every auto-retry of
    some function crashed), perform the operational recovery: wait out
    the replication-lock lease, redrive the DLQ, drain again."""
    cloud.run()
    for _ in range(3):
        has_dlq = any(cloud.faas(r).dead_letters
                      for rule in svc.rules.values()
                      for r in (rule.src_bucket.region.key,
                                rule.dst_bucket.region.key))
        if not has_dlq and svc.pending_count() == 0:
            return
        cloud.sim.run(until=cloud.now + 301.0)  # lock lease expiry
        svc.redrive_dead_letters()
        cloud.run()


# Operation encoding for hypothesis: (key_id, action, size_exponent).
_ops = st.lists(
    st.tuples(st.integers(0, 5), st.sampled_from(["put", "put", "put", "delete"]),
              st.integers(0, 8)),
    min_size=1, max_size=25,
)


class TestRandomizedConvergence:
    @given(ops=_ops)
    @settings(max_examples=15, deadline=None)
    def test_instantaneous_op_burst_converges(self, ops):
        """All operations issued at a single instant (maximal notification
        reordering and lock contention)."""
        cloud, svc, src, dst, rule = build(seed=201)
        for key_id, action, size_exp in ops:
            key = f"k{key_id}"
            if action == "delete":
                src.delete_object(key, cloud.now)
            else:
                src.put_object(key, Blob.fresh(2 ** size_exp * 1024), cloud.now)
        cloud.run()
        assert_converged(svc, src, dst)

    @given(ops=_ops, spacing=st.floats(0.05, 5.0))
    @settings(max_examples=15, deadline=None)
    def test_spaced_op_sequence_converges(self, ops, spacing):
        cloud, svc, src, dst, rule = build(seed=202)

        def driver():
            for key_id, action, size_exp in ops:
                key = f"k{key_id}"
                if action == "delete":
                    src.delete_object(key, cloud.now)
                else:
                    src.put_object(key, Blob.fresh(2 ** size_exp * 1024),
                                   cloud.now)
                yield cloud.sim.sleep(spacing)

        cloud.sim.run_process(driver())
        cloud.run()
        assert_converged(svc, src, dst)

    @given(ops=_ops)
    @settings(max_examples=10, deadline=None)
    def test_convergence_under_batching(self, ops):
        cloud, svc, src, dst, rule = build(seed=203, slo=20.0)

        def driver():
            for key_id, action, size_exp in ops:
                key = f"k{key_id}"
                if action == "delete":
                    src.delete_object(key, cloud.now)
                else:
                    src.put_object(key, Blob.fresh(2 ** size_exp * 1024),
                                   cloud.now)
                yield cloud.sim.sleep(0.5)

        cloud.sim.run_process(driver())
        cloud.run()
        assert_converged(svc, src, dst)


class TestAdversarialPatterns:
    def test_put_delete_put_same_instant(self):
        cloud, svc, src, dst, rule = build(seed=204)
        src.put_object("k", Blob.fresh(MB), cloud.now)
        src.delete_object("k", cloud.now)
        final = src.put_object("k", Blob.fresh(MB), cloud.now)
        cloud.run()
        assert dst.head("k").etag == final.etag
        assert svc.pending_count() == 0

    def test_delete_put_delete_same_instant(self):
        cloud, svc, src, dst, rule = build(seed=205)
        src.put_object("k", Blob.fresh(MB), cloud.now)
        cloud.run()
        src.delete_object("k", cloud.now)
        src.put_object("k", Blob.fresh(MB), cloud.now)
        src.delete_object("k", cloud.now)
        cloud.run()
        assert "k" not in dst
        assert svc.pending_count() == 0

    def test_many_versions_single_instant_converges_to_last(self):
        cloud, svc, src, dst, rule = build(seed=206)
        final = None
        for _ in range(12):
            final = src.put_object("hot", Blob.fresh(MB), cloud.now)
        cloud.run()
        assert dst.head("hot").etag == final.etag

    def test_large_object_overwritten_by_small_converges(self):
        cloud, svc, src, dst, rule = build(seed=207, dst_key="azure:eastus")
        src.put_object("k", Blob.fresh(512 * MB), cloud.now)

        def overwriter():
            yield cloud.sim.sleep(1.5)
            src.put_object("k", Blob.fresh(1 * MB), cloud.now)

        cloud.sim.spawn(overwriter())
        cloud.run()
        assert dst.head("k").etag == src.head("k").etag
        assert svc.pending_count() == 0

    def test_interleaved_sizes_across_modes(self):
        """Keys alternate between inline, single-remote, and distributed
        replication modes across versions."""
        cloud, svc, src, dst, rule = build(seed=208, dst_key="azure:eastus")
        sizes = [1 * MB, 256 * MB, 4 * MB, 96 * MB, 512 * MB, 2 * MB]

        def driver():
            for size in sizes:
                src.put_object("shape-shifter", Blob.fresh(size), cloud.now)
                yield cloud.sim.sleep(2.0)

        cloud.sim.run_process(driver())
        cloud.run()
        assert dst.head("shape-shifter").etag == src.head("shape-shifter").etag
        assert svc.pending_count() == 0

    def test_convergence_with_chaos_and_random_ops(self):
        cloud, svc, src, dst, rule = build(seed=209, dst_key="azure:eastus")
        for region in ("aws:us-east-1", "azure:eastus"):
            cloud.faas(region).set_chaos(
                ChaosConfig(crash_prob=0.2, crash_mean_delay_s=0.4))
        rng = np.random.default_rng(3)

        def driver():
            for _ in range(30):
                key = f"k{int(rng.integers(0, 8))}"
                if rng.random() < 0.2 and key in src:
                    src.delete_object(key, cloud.now)
                else:
                    src.put_object(key, Blob.fresh(int(rng.integers(1, 24)) * MB),
                                   cloud.now)
                yield cloud.sim.sleep(float(rng.exponential(1.0)))

        cloud.sim.run_process(driver())
        drain_with_operator_recovery(cloud, svc)
        assert_converged(svc, src, dst)

    def test_two_rules_same_source_remain_independent(self):
        cloud = build_default_cloud(seed=210)
        config = ReplicaConfig(profile_samples=5, mc_samples=300)
        svc = AReplicaService(cloud, config)
        src = cloud.bucket("aws:us-east-1", "src")
        dst_a = cloud.bucket("azure:eastus", "a")
        dst_b = cloud.bucket("gcp:us-east1", "b")
        svc.add_rule(src, dst_a)
        svc.add_rule(src, dst_b)
        rng = np.random.default_rng(4)
        for i in range(25):
            key = f"k{int(rng.integers(0, 6))}"
            if rng.random() < 0.2 and key in src:
                src.delete_object(key, cloud.now)
            else:
                src.put_object(key, Blob.fresh(int(rng.integers(1, 8)) * MB),
                               cloud.now)
        cloud.run()
        for dst in (dst_a, dst_b):
            for key in src.keys():
                assert dst.head(key).etag == src.head(key).etag
            for key in dst.keys():
                assert key in src
        assert svc.pending_count() == 0

    def test_content_match_short_circuits_replication(self):
        """When the destination already holds identical content (e.g. a
        pre-seeded replica), no bytes move."""
        from repro.simcloud.cost import CostCategory

        cloud, svc, src, dst, rule = build(seed=212, dst_key="azure:eastus")
        blob = Blob.fresh(64 * MB)
        dst.put_object("k", blob, cloud.now, notify=False)  # pre-seeded
        egress_before = cloud.ledger.total(CostCategory.EGRESS)
        src.put_object("k", blob, cloud.now)
        cloud.run()
        assert rule.engine.stats.get("content_skipped", 0) == 1
        assert cloud.ledger.total(CostCategory.EGRESS) == egress_before
        assert svc.pending_count() == 0

    def test_bidirectional_rules_do_not_ping_pong(self):
        """A ↔ B mutual replication: a write converges to both sides and
        the system quiesces instead of bouncing the object forever.

        Small objects are damped by the done-marker ETag check (one
        redundant bounce, then quiescence); large objects additionally
        short-circuit on a destination HEAD before moving any bytes.
        """
        cloud = build_default_cloud(seed=213)
        config = ReplicaConfig(profile_samples=5, mc_samples=300)
        svc = AReplicaService(cloud, config)
        a = cloud.bucket("aws:us-east-1", "a")
        b = cloud.bucket("azure:eastus", "b")
        rule_ab = svc.add_rule(a, b)
        rule_ba = svc.add_rule(b, a)
        small = Blob.fresh(4 * MB)
        a.put_object("small", small, cloud.now)
        cloud.run()  # would never terminate if the pair ping-ponged
        assert b.head("small").etag == small.etag
        assert a.head("small").etag == small.etag
        total_tasks = rule_ab.engine.stats["tasks"] + rule_ba.engine.stats["tasks"]
        assert total_tasks <= 4

        big = Blob.fresh(128 * MB)
        a.put_object("big", big, cloud.now)
        cloud.run()
        assert b.head("big").etag == big.etag
        # The reverse rule recognized the content was already home
        # without transferring anything.
        assert rule_ba.engine.stats.get("content_skipped", 0) >= 1

    def test_chained_replication_propagates_transitively(self):
        """A→B and B→C rules: writes to A eventually reach C (the B
        bucket's replicated PUTs emit their own notifications)."""
        cloud = build_default_cloud(seed=211)
        config = ReplicaConfig(profile_samples=5, mc_samples=300)
        svc = AReplicaService(cloud, config)
        a = cloud.bucket("aws:us-east-1", "a")
        b = cloud.bucket("azure:eastus", "b")
        c = cloud.bucket("gcp:us-east1", "c")
        svc.add_rule(a, b)
        svc.add_rule(b, c)
        blob = Blob.fresh(16 * MB)
        a.put_object("k", blob, cloud.now)
        cloud.run()
        assert b.head("k").etag == blob.etag
        assert c.head("k").etag == blob.etag
