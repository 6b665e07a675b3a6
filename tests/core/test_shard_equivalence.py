"""Shard-count equivalence: outcomes are placement-independent.

Sharding the key-space across engine workers changes *interleaving* —
which lock domain a key lives in, which engine's stats tick, the order
invocations hit the platform — but must never change *outcomes*: the
same seeded workload run on 1 shard and on 4 shards has to end with
identical destination objects, identical done markers, and identical
tenant-ledger spend (admission happens at the tenant front door, before
the shard router, and the cost estimate is a pure function of the
event — so not even the reservation stream may differ).

The two runs share one process, so blob content ids are re-seeded the
way the determinism-golden suite does it: resetting the process-global
fresh counter lets both runs mint identical payloads and therefore
identical etags.
"""

from __future__ import annotations

import itertools

import pytest

from repro.core.config import ReplicaConfig, TenantConfig
from repro.core.service import AReplicaService
from repro.simcloud import objectstore
from repro.simcloud.cloud import build_default_cloud
from repro.simcloud.objectstore import Blob

pytestmark = pytest.mark.tenant

KB = 1024
TENANTS = ("red", "green", "blue")


def run_workload(seed: int, shards: int):
    """One seeded 3-tenant workload; returns an outcome fingerprint."""
    objectstore._fresh_counter = itertools.count()
    cloud = build_default_cloud(seed=seed)
    config = ReplicaConfig(profile_samples=4, mc_samples=300)
    svc = AReplicaService(cloud, config)
    svc.enable_multitenancy(shards=shards, max_concurrent=8)
    probe_src = cloud.bucket("aws:us-east-1", "profile-probe-src")
    probe_dst = cloud.bucket("azure:eastus", "profile-probe-dst")
    svc.profiler.ensure_path("aws:us-east-1", probe_src, probe_dst)
    buckets = {}
    for tid in TENANTS:
        src = cloud.bucket("aws:us-east-1", f"{tid}-src")
        dst = cloud.bucket("azure:eastus", f"{tid}-dst")
        svc.add_tenant(TenantConfig(tid), src, dst)
        buckets[tid] = (src, dst)

    # Deterministic skewed workload: overwrites and deletes included,
    # schedule computed up front so both runs issue identical puts.
    rng = cloud.rngs.stream("shard-equivalence-workload")
    base = cloud.sim.now
    t = 1.0
    for _ in range(30):
        t += float(rng.exponential(1.5))
        tid = TENANTS[int(rng.integers(len(TENANTS)))]
        key = f"k{int(rng.integers(8))}"
        src = buckets[tid][0]
        if rng.random() < 0.15:
            cloud.sim.call_at(base + t, lambda s=src, k=key: (
                k in s and s.delete_object(k, cloud.sim.now)))
        else:
            size = int(rng.integers(1, 48)) * KB
            cloud.sim.call_at(base + t, lambda s=src, k=key, z=size:
                              s.put_object(k, Blob.fresh(z), cloud.sim.now))
    cloud.run()
    report = svc.run_to_convergence()
    assert report.converged, f"seed {seed} shards {shards}: {report.render()}"

    fingerprint = {}
    for tid in TENANTS:
        src, dst = buckets[tid]
        state = svc.tenants[tid]
        markers = {}
        for rule in svc.tenant_rules(tid):
            table = rule.engine._lock_table
            for item_key, item in table._items.items():
                if item_key.startswith("done:"):
                    # Drop the completion timestamp: interleaving moves
                    # it; etag/seq/op are the outcome.
                    markers[item_key] = (item.get("etag"), item.get("seq"),
                                         item.get("op"))
        fingerprint[tid] = {
            "objects": sorted((k, dst.head(k).etag, dst.head(k).size)
                              for k in dst.keys()),
            "source": sorted((k, src.head(k).etag) for k in src.keys()),
            "done_markers": dict(sorted(markers.items())),
            "admitted": state.stats["admitted"],
            "ledger_spend": round(state.ledger.lifetime_spent, 12),
            "ledger_admissions": state.ledger.admissions,
        }
    return fingerprint


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_one_and_four_shards_reach_identical_outcomes(seed):
    single = run_workload(seed, shards=1)
    sharded = run_workload(seed, shards=4)
    for tid in TENANTS:
        assert single[tid] == sharded[tid], (
            f"seed {seed} tenant {tid}: shard layout changed outcomes\n"
            f"1 shard: {single[tid]}\n4 shards: {sharded[tid]}")
    # Destination mirrors source exactly in both layouts.
    for tid in TENANTS:
        src_keys = [k for k, _ in single[tid]["source"]]
        dst_keys = [k for k, _, _ in single[tid]["objects"]]
        assert src_keys == dst_keys


def test_four_shards_actually_spread_the_keyspace():
    """Sanity for the equivalence above: with 4 shards the workload
    really does land on multiple engine workers (otherwise the test
    would be comparing 1 shard with itself)."""
    objectstore._fresh_counter = itertools.count()
    cloud = build_default_cloud(seed=0)
    svc = AReplicaService(cloud, ReplicaConfig(profile_samples=4,
                                               mc_samples=300))
    svc.enable_multitenancy(shards=4, max_concurrent=8)
    probe_src = cloud.bucket("aws:us-east-1", "probe-src")
    probe_dst = cloud.bucket("azure:eastus", "probe-dst")
    svc.profiler.ensure_path("aws:us-east-1", probe_src, probe_dst)
    src = cloud.bucket("aws:us-east-1", "t-src")
    dst = cloud.bucket("azure:eastus", "t-dst")
    svc.add_tenant(TenantConfig("spread"), src, dst)
    base = cloud.sim.now
    for i in range(12):
        cloud.sim.call_at(base + 1.0 + 0.5 * i,
                          lambda i=i: src.put_object(f"k{i}", Blob.fresh(KB),
                                                     cloud.sim.now))
    cloud.run()
    assert svc.run_to_convergence().converged
    assert len(svc.tenant_rules("spread")) >= 2, "all keys on one shard"
    shards_used = {svc.shard_router.route("spread", f"k{i}")
                   for i in range(12)}
    assert len(shards_used) >= 2


def test_midrun_rebalance_counts_migrations_and_stays_correct():
    """Growing the ring mid-run: moved live assignments are folded into
    each tenant's ``shard_migrations`` counter, and replication after
    the rebalance still converges (locks and done markers make a key's
    move to a new shard's engine idempotent)."""
    objectstore._fresh_counter = itertools.count()
    cloud = build_default_cloud(seed=3)
    svc = AReplicaService(cloud, ReplicaConfig(profile_samples=4,
                                               mc_samples=300))
    svc.enable_multitenancy(shards=2, max_concurrent=8)
    probe_src = cloud.bucket("aws:us-east-1", "probe-src")
    probe_dst = cloud.bucket("azure:eastus", "probe-dst")
    svc.profiler.ensure_path("aws:us-east-1", probe_src, probe_dst)
    src = cloud.bucket("aws:us-east-1", "m-src")
    dst = cloud.bucket("azure:eastus", "m-dst")
    svc.add_tenant(TenantConfig("mover"), src, dst)
    base = cloud.sim.now
    for i in range(16):
        cloud.sim.call_at(base + 1.0 + 0.25 * i,
                          lambda i=i: src.put_object(f"k{i}", Blob.fresh(KB),
                                                     cloud.sim.now))
    cloud.run()
    assert svc.run_to_convergence().converged

    moved = svc.set_shard_count(6)
    state = svc.tenants["mover"]
    assert moved > 0, "a 2 -> 6 ring growth moved nothing"
    assert state.stats["shard_migrations"] == moved
    # Consistent hashing: growth remaps a minority of the key-space.
    assert moved < 16
    # Overwrite every key post-rebalance: the moved keys now land on
    # fresh shard engines and must still converge to the source.
    for i in range(16):
        cloud.sim.call_at(cloud.sim.now + 1.0 + 0.25 * i,
                          lambda i=i: src.put_object(f"k{i}",
                                                     Blob.fresh(2 * KB),
                                                     cloud.sim.now))
    cloud.run()
    assert svc.run_to_convergence().converged
    for i in range(16):
        assert dst.head(f"k{i}").etag == src.head(f"k{i}").etag
