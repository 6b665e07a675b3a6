"""Region-outage tests: the §1 motivation exercised end to end.

A region-wide storage outage makes every bucket operation fail with
ServiceUnavailable.  Short outages ride through the platforms' retry
backoff; long outages exhaust retries into the dead-letter queue, and
an operator redrive converges the system afterwards — exactly §6's
fault-tolerance story plus the operational step real deployments need.
"""

import pytest

from repro.core import health
from repro.core.config import ReplicaConfig
from repro.core.service import AReplicaService
from repro.simcloud.cloud import build_default_cloud
from repro.simcloud.objectstore import Blob, ServiceUnavailable

MB = 1024 * 1024


def build(seed, **cfg):
    cloud = build_default_cloud(seed=seed)
    config = ReplicaConfig(profile_samples=5, mc_samples=300, **cfg)
    svc = AReplicaService(cloud, config)
    src = cloud.bucket("aws:us-east-1", "src")
    dst = cloud.bucket("azure:eastus", "dst")
    rule = svc.add_rule(src, dst)
    return cloud, svc, src, dst, rule


class TestOutageMechanics:
    def test_operations_fail_during_outage(self):
        cloud = build_default_cloud(seed=701)
        bucket = cloud.bucket("aws:us-east-1", "b")
        bucket.put_object("k", Blob.fresh(10), cloud.now)
        cloud.inject_outage("aws:us-east-1", 60.0)
        with pytest.raises(ServiceUnavailable):
            bucket.head("k")
        with pytest.raises(ServiceUnavailable):
            bucket.put_object("k2", Blob.fresh(10), cloud.now)

    def test_outage_ends_on_schedule(self):
        cloud = build_default_cloud(seed=702)
        bucket = cloud.bucket("aws:us-east-1", "b")
        bucket.put_object("k", Blob.fresh(10), cloud.now)
        cloud.inject_outage("aws:us-east-1", 60.0)
        cloud.run(until=61.0)
        assert bucket.head("k").size == 10

    def test_other_regions_unaffected(self):
        cloud = build_default_cloud(seed=703)
        a = cloud.bucket("aws:us-east-1", "a")
        b = cloud.bucket("azure:eastus", "b")
        cloud.inject_outage("aws:us-east-1", 60.0)
        b.put_object("k", Blob.fresh(10), cloud.now)  # must not raise
        assert a.in_outage and not b.in_outage


class TestReplicationThroughOutages:
    def test_short_destination_blip_rides_on_retries(self):
        """An outage shorter than the retry backoff window is invisible
        except for added delay."""
        cloud, svc, src, dst, rule = build(seed=704)
        src.put_object("k", Blob.fresh(4 * MB), cloud.now)

        def blip():
            yield cloud.sim.sleep(0.6)  # mid-replication
            cloud.inject_outage("azure:eastus", 1.5)

        cloud.sim.spawn(blip())
        cloud.run()
        assert dst.head("k").etag == src.head("k").etag
        assert svc.pending_count() == 0

    def test_long_outage_dead_letters_then_redrive_converges(
            self, monkeypatch):
        # Health-tracked routing would park these tasks instead (see
        # test_outage_degradation.py); breakers that cannot open keep
        # the legacy retry -> DLQ -> redrive ladder covered.
        monkeypatch.setattr(health, "FAILURE_THRESHOLD", 10**9)
        monkeypatch.setattr(health, "EWMA_MIN_SAMPLES", 10**9)
        cloud, svc, src, dst, rule = build(seed=705)
        blobs = {}
        for i in range(5):
            blobs[f"k{i}"] = Blob.fresh((i + 1) * MB)
            src.put_object(f"k{i}", blobs[f"k{i}"], cloud.now)
        cloud.inject_outage("azure:eastus", 120.0)
        cloud.run()
        # The outage outlasted every retry: events parked in the DLQ.
        dlq = sum(len(cloud.faas(r).dead_letters)
                  for r in ("aws:us-east-1", "azure:eastus"))
        assert dlq >= 1
        assert cloud.now > 120.0  # outage over
        redriven = svc.redrive_dead_letters()
        assert redriven == dlq
        cloud.run()
        for key, blob in blobs.items():
            assert dst.head(key).etag == blob.etag
        assert svc.pending_count() == 0

    def test_source_outage_after_put_recovers(self):
        """The source region fails right after accepting writes; the
        notification already escaped, so replication retries until the
        region returns (or redrives)."""
        cloud, svc, src, dst, rule = build(seed=706)
        blob = Blob.fresh(8 * MB)
        src.put_object("k", blob, cloud.now)
        cloud.inject_outage("aws:us-east-1", 90.0)
        cloud.run()
        svc.redrive_dead_letters()
        cloud.run()
        assert dst.head("k").etag == blob.etag
        assert svc.pending_count() == 0

    def test_redrive_with_empty_dlq_is_noop(self):
        cloud, svc, src, dst, rule = build(seed=707)
        assert svc.redrive_dead_letters() == 0

    def test_disaster_recovery_reads_served_from_replica(self):
        """The end-to-end §1 story: after the source region dies, the
        replica still serves every object."""
        cloud, svc, src, dst, rule = build(seed=708)
        blobs = {}
        for i in range(8):
            blobs[f"doc/{i}"] = Blob.fresh(2 * MB)
            src.put_object(f"doc/{i}", blobs[f"doc/{i}"], cloud.now)
        cloud.run()  # fully replicated
        cloud.inject_outage("aws:us-east-1", 3600.0)
        with pytest.raises(ServiceUnavailable):
            src.head("doc/0")
        for key, blob in blobs.items():
            assert dst.head(key).etag == blob.etag
