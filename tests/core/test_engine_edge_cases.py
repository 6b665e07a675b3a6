"""Edge-case tests for the replication engine's ordering, measurement,
and recovery plumbing."""

import pytest

from repro.core import distributed, partpool
from repro.core.config import ReplicaConfig
from repro.core.locks import ReplicationLockManager
from repro.core.service import AReplicaService
from repro.simcloud.cloud import build_default_cloud
from repro.simcloud.objectstore import Blob, ObjectEvent

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


class TestOutOfOrderEvents:
    def test_stale_delete_event_cannot_clobber_newer_put(self):
        """A DELETE whose notification is delayed past a newer PUT's
        replication must not remove the newer object at the destination."""
        cloud, svc, src, dst, rule = build(seed=301)
        src.put_object("k", Blob.fresh(MB), cloud.now)
        cloud.run()
        # Hand-deliver a stale delete event (sequencer below current).
        current = src.head("k")
        stale = ObjectEvent("deleted", src.name, src.region, "k", MB,
                            "old-etag", current.sequencer - 1, cloud.now)
        rule.engine.handle_event(stale)
        cloud.run()
        assert dst.head("k").etag == current.etag

    def test_delete_superseded_by_later_recreation(self):
        """DELETE then PUT at the source; even if the delete's task runs
        after the put's, the destination ends with the object."""
        cloud, svc, src, dst, rule = build(seed=302)
        src.put_object("k", Blob.fresh(MB), cloud.now)
        cloud.run()
        src.delete_object("k", cloud.now)
        final = src.put_object("k", Blob.fresh(MB), cloud.now)
        cloud.run()
        assert dst.head("k").etag == final.etag
        assert svc.pending_count() == 0

    def test_late_notification_for_already_replicated_version(self):
        """An event whose version was already shipped (by a task that
        re-read the source) must still be measured — via the done
        marker's recorded time, not a bogus later timestamp."""
        cloud, svc, src, dst, rule = build(seed=303)
        src.put_object("k", Blob.fresh(MB), cloud.now)
        v2 = src.put_object("k", Blob.fresh(MB), cloud.now)
        cloud.run()
        assert dst.head("k").etag == v2.etag
        assert svc.pending_count() == 0
        for record in svc.records:
            assert record.delay >= 0
        assert rule.engine.stats["skipped_done"] + \
            rule.engine.stats["deferred"] >= 1


class TestForcedPlans:
    def test_forced_single_at_destination(self):
        cloud, svc, src, dst, rule = build(seed=304, dst_key="azure:eastus")
        rule.engine.forced_plan = (1, "azure:eastus")
        blob = Blob.fresh(64 * MB)
        src.put_object("k", blob, cloud.now)
        cloud.run()
        assert dst.head("k").etag == blob.etag
        [rec] = [r for r in svc.records if r.key == "k"]
        assert rec.plan_n == 1
        assert rec.loc_key == "azure:eastus"

    def test_forced_parallelism_capped_by_parts(self):
        cloud, svc, src, dst, rule = build(seed=305)
        rule.engine.forced_plan = (64, "aws:us-east-1")
        blob = Blob.fresh(16 * MB)  # only 2 parts
        src.put_object("k", blob, cloud.now)
        cloud.run()
        assert dst.head("k").etag == blob.etag
        workers = {w for (task, w) in rule.engine.worker_parts}
        assert len(workers) <= 2

    def test_forced_inline_for_small_objects(self):
        cloud, svc, src, dst, rule = build(seed=306)
        rule.engine.forced_plan = (1, "aws:us-east-1")
        src.put_object("k", Blob.fresh(MB), cloud.now)
        cloud.run()
        assert rule.engine.stats["inline"] == 1


class TestMeasurement:
    def test_replication_seconds_excludes_notification(self):
        cloud, svc, src, dst, rule = build(seed=307)
        src.put_object("k", Blob.fresh(8 * MB), cloud.now)
        cloud.run()
        [rec] = svc.records
        assert rec.replication_seconds < rec.delay
        assert rec.replication_seconds > 0

    def test_one_record_per_event_even_when_shared_task(self):
        """Three rapid versions satisfied by fewer tasks still produce
        exactly three measurement records."""
        cloud, svc, src, dst, rule = build(seed=308)
        for _ in range(3):
            src.put_object("k", Blob.fresh(MB), cloud.now)
        cloud.run()
        assert len([r for r in svc.records if r.key == "k"]) == 3

    def test_record_fields_populated(self):
        cloud, svc, src, dst, rule = build(seed=309)
        src.put_object("k", Blob.fresh(200 * MB), cloud.now)
        cloud.run()
        [rec] = svc.records
        assert rec.rule_id == rule.rule_id
        assert rec.kind == "created"
        assert rec.plan_n >= 1
        assert rec.loc_key in ("aws:us-east-1", "aws:us-east-2")
        assert rec.visible_time > rec.event_time

    def test_delays_filter_by_rule(self):
        cloud = build_default_cloud(seed=310)
        config = ReplicaConfig(profile_samples=5, mc_samples=300)
        svc = AReplicaService(cloud, config)
        src_a = cloud.bucket("aws:us-east-1", "a")
        src_b = cloud.bucket("aws:us-east-1", "b")
        dst = cloud.bucket("aws:us-east-2", "dst")
        rule_a = svc.add_rule(src_a, dst)
        rule_b = svc.add_rule(src_b, cloud.bucket("aws:us-east-2", "dst2"))
        src_a.put_object("x", Blob.fresh(MB), cloud.now)
        src_b.put_object("y", Blob.fresh(MB), cloud.now)
        src_b.put_object("z", Blob.fresh(MB), cloud.now)
        cloud.run()
        assert len(svc.delays(rule_a.rule_id)) == 1
        assert len(svc.delays(rule_b.rule_id)) == 2
        assert len(svc.delays()) == 3


class TestRecoveryPlumbing:
    def test_finalizer_crash_recovered(self, monkeypatch):
        """Kill only finalization: parts complete, but the completing
        worker dies before recording — the janitor must finalize."""
        cloud, svc, src, dst, rule = build(seed=311, dst_key="azure:eastus")
        original = distributed.try_finalize
        crashes = {"left": 1}

        def flaky_finalize(engine, ctx, task):
            if crashes["left"] > 0:
                crashes["left"] -= 1
                raise RuntimeError("finalizer crash")
            return original(engine, ctx, task)

        monkeypatch.setattr(distributed, "try_finalize", flaky_finalize)
        monkeypatch.setattr(partpool, "RECOVERY_GRACE_S", 2.0)
        monkeypatch.setattr(partpool, "FINALIZE_LEASE_S", 5.0)
        blob = Blob.fresh(256 * MB)
        src.put_object("k", blob, cloud.now)
        cloud.run()
        assert dst.head("k").etag == blob.etag
        assert svc.pending_count() == 0

    def test_stats_counters_consistent(self):
        cloud, svc, src, dst, rule = build(seed=312)
        for i in range(5):
            src.put_object(f"k{i}", Blob.fresh(MB), cloud.now)
        src.delete_object("k0", cloud.now)
        cloud.run()
        stats = rule.engine.stats
        assert stats["tasks"] >= 6
        assert stats["deletes"] >= 1
        assert stats["aborted"] == 0

    def test_worker_spans_cover_execution(self):
        cloud, svc, src, dst, rule = build(seed=313, dst_key="azure:eastus")
        src.put_object("big", Blob.fresh(512 * MB), cloud.now)
        cloud.run()
        for (task, worker), (start, end) in rule.engine.worker_spans.items():
            assert end >= start


class _IteratorProxy:
    """A process that is not a generator: a hand-written iterator that
    forwards the generator protocol to one, the way an instrumentation
    wrapper around a lock or pool primitive does."""

    def __init__(self, gen):
        self._gen = gen

    def __iter__(self):
        return self

    def __next__(self):
        return next(self._gen)

    def send(self, value):
        return self._gen.send(value)

    def throw(self, *exc):
        return self._gen.throw(*exc)

    def close(self):
        return self._gen.close()


class TestKvDispatch:
    def test_a_proxied_primitive_is_delegated_to_not_yielded(
            self, monkeypatch):
        """Regression: ``_kv`` told requests from processes by exact
        generator type, so a proxied ``locks.lock`` was yielded to the
        kernel whole, failed every attempt with ``SimulationError`` and
        the PUT never became visible."""
        cloud, svc, src, dst, rule = build(seed=314)
        lock = ReplicationLockManager.lock     # slotted: patch the class
        monkeypatch.setattr(
            ReplicationLockManager, "lock",
            lambda self, *a, **kw: _IteratorProxy(lock(self, *a, **kw)))
        blob = Blob.fresh(MB)
        src.put_object("k", blob, cloud.now)
        svc.run_to_convergence()
        assert dst.head("k").etag == blob.etag
        assert svc.pending_count() == 0
