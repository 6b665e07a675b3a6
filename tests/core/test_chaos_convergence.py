"""Randomized fault-injection soaks: convergence under any seeded storm.

Property: for ANY seeded schedule of function crashes, notification
drops/duplicates/reorders, KV throttling/admission delays and WAN
stalls, once the storm passes and retries drain, the destination
converges to the source — zero leaked locks, zero orphaned uploads,
zero pending measurements (the convergence auditor runs green).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.audit import ReplicationAuditor
from repro.core.config import ReplicaConfig
from repro.core.service import AReplicaService
from repro.simcloud.chaos import ChaosConfig
from repro.simcloud.cloud import build_default_cloud
from repro.simcloud.objectstore import Blob

pytestmark = pytest.mark.chaos

KB = 1024
MB = 1024 * 1024

STORM = ChaosConfig(
    crash_prob=0.08,
    notif_drop_prob=0.08, notif_dup_prob=0.08, notif_reorder_prob=0.08,
    notif_redelivery_s=20.0,
    kv_reject_prob=0.08, kv_delay_prob=0.08,
    wan_stall_prob=0.03,
)


def soak(seed: int, chaos: ChaosConfig = STORM, **cfg):
    cloud = build_default_cloud(seed=seed)
    config = ReplicaConfig(profile_samples=4, mc_samples=300, **cfg)
    svc = AReplicaService(cloud, config)
    src = cloud.bucket("aws:us-east-1", "src")
    dst = cloud.bucket("azure:eastus", "dst")
    rule = svc.add_rule(src, dst)
    # The storm starts after onboarding, then rages for the whole
    # workload: every notification, KV op, transfer and invocation below
    # runs under fault injection.
    cloud.apply_chaos(chaos)

    rng = cloud.rngs.stream("chaos-workload")
    keys = [f"obj{i}" for i in range(6)]
    t = 1.0
    for _ in range(25):
        t += float(rng.exponential(2.0))
        key = keys[int(rng.integers(len(keys)))]
        if rng.random() < 0.2:
            cloud.sim.call_later(t, lambda k=key: (
                k in src and src.delete_object(k, cloud.sim.now)))
        else:
            size = int(rng.integers(1, 64)) * KB
            cloud.sim.call_later(t, lambda k=key, s=size: src.put_object(
                k, Blob.fresh(s), cloud.sim.now))
    # One large multipart transfer so the part pool, finalize fencing
    # and upload-abort paths also run under the storm.
    cloud.sim.call_later(t / 2, lambda: src.put_object(
        "obj-big", Blob.fresh(48 * MB), cloud.sim.now))
    cloud.run()

    # The storm passes; what it broke must now self-heal.
    cloud.apply_chaos(None)
    svc.run_to_convergence()
    return cloud, svc, src, dst, rule


@given(seed=st.integers(0, 10_000))
@settings(max_examples=8, deadline=None)
def test_any_seeded_storm_converges(seed):
    cloud, svc, src, dst, rule = soak(seed)
    report = ReplicationAuditor(svc).audit(quiescent=True)
    assert report.clean, f"seed {seed}:\n{report.render()}"
    assert svc.pending_count() == 0
    for key in src.keys():
        assert dst.head(key).etag == src.head(key).etag


def test_fixed_seed_storm_smoke():
    """Deterministic tier-1 smoke: a fixed seed that demonstrably
    exercises every injected fault class and still converges."""
    cloud, svc, src, dst, rule = soak(1234)
    report = ReplicationAuditor(svc).audit(quiescent=True)
    assert report.clean, report.render()
    assert svc.pending_count() == 0
    injected = cloud.chaos_stats()
    assert injected["notifications_dropped"] > 0
    assert injected["notifications_duplicated"] > 0
    assert injected["kv_rejected"] > 0
    assert injected["kv_delayed"] > 0
    # The engine absorbed the throttling through its retry policy.
    assert rule.engine.stats["kv_retries"] > 0


def test_storm_of_pure_crashes_converges():
    """Crash-only storm (the pre-existing fault class, now under the
    unified config): platform retries plus DLQ redrive recover all."""
    # A short mean delay makes the crash land while the function body is
    # still running (a timer outliving the body is a no-op).
    cloud, svc, src, dst, rule = soak(
        77, ChaosConfig(crash_prob=0.3, crash_mean_delay_s=0.1))
    report = ReplicationAuditor(svc).audit(quiescent=True)
    assert report.clean, report.render()
    assert cloud.chaos_stats()["faas_crashes"] > 0
