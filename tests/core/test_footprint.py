"""Per-tenant memory footprint: what one mostly idle tenant retains.

A multi-tenant deployment is thousands of rules that each saw a few
objects, so what an engine, its tables, deployments and function
instances *hold* must follow what they *used*.  These checks keep the
marginal bytes per tenant under a budget (this test read 66.3 KiB after
one PUT and 80.4 after eight before sampler blocks were demand-sized
and per-rule state was created at first use; 21.3 and 34.9 after) and
name the owners when the budget is exceeded.  ``make footprint`` prints
the numbers.
"""

from __future__ import annotations

import gc
import tracemalloc

import pytest

from repro.core.config import ReplicaConfig, TenantConfig
from repro.core.service import AReplicaService
from repro.simcloud.cloud import build_default_cloud
from repro.simcloud.objectstore import Blob

pytestmark = pytest.mark.tenant

KIB = 1024
TENANTS = 400
SRC, DST = "aws:us-east-1", "azure:eastus"


def _put_round(cloud, buckets, round_no: int) -> None:
    """One 4 KiB PUT per bucket, 50 ms apart, then run to quiescence."""
    base = cloud.sim.now
    for i, src in enumerate(buckets):
        cloud.sim.call_at(
            base + 1.0 + 0.05 * i,
            lambda src=src: src.put_object(f"obj-{round_no}",
                                           Blob.fresh(4 * KIB), cloud.sim.now))
    cloud.run()


def _traced_kib(since: int, tenants: int, label: str, budget: float,
                show: bool) -> float:
    """KiB traced per tenant since ``since``; names the ten largest
    owners when over ``budget`` (or when asked to show)."""
    gc.collect()
    per_tenant = (tracemalloc.get_traced_memory()[0] - since) / tenants / KIB
    if show or per_tenant > budget:
        print(f"\n{label}: {per_tenant:.1f} KiB per tenant "
              f"(budget {budget:.0f}); largest owners, whole process:")
        for stat in tracemalloc.take_snapshot().statistics("lineno")[:10]:
            frame = stat.traceback[0]
            print(f"  {stat.size / KIB:8.0f} KiB {stat.count:7d} blocks  "
                  f"{frame.filename}:{frame.lineno}")
    return per_tenant


def test_marginal_bytes_per_tenant_stay_in_budget(request):
    show = request.config.getoption("capture") == "no"      # make footprint
    cloud = build_default_cloud(seed=0)
    svc = AReplicaService(cloud, ReplicaConfig(profile_samples=4,
                                               mc_samples=300))
    svc.enable_multitenancy(shards=1, max_concurrent=32)
    # One tenant outside the measurement profiles the pair and warms
    # every shared structure (planner cache, platform samplers).
    warm_up = cloud.bucket(SRC, "warm-up-src")
    svc.add_tenant(TenantConfig("warm-up"), warm_up,
                   cloud.bucket(DST, "warm-up-dst"))
    _put_round(cloud, [warm_up], 0)
    gc.collect()
    tracemalloc.start()
    try:
        empty = tracemalloc.get_traced_memory()[0]
        buckets = []
        for i in range(TENANTS):
            src = cloud.bucket(SRC, f"t{i:03d}-src")
            svc.add_tenant(TenantConfig(f"t{i:03d}"), src,
                           cloud.bucket(DST, f"t{i:03d}-dst"))
            buckets.append(src)
        _put_round(cloud, buckets, 1)
        after_one = _traced_kib(empty, TENANTS, "one PUT each", 32.0, show)
        # Seven more PUTs, on a quarter of the tenants (tracing every
        # allocation is slow): growth per busy tenant on top of the above.
        busy = buckets[:TENANTS // 4]
        one_each = tracemalloc.get_traced_memory()[0]
        for round_no in range(2, 9):
            _put_round(cloud, busy, round_no)
        after_eight = after_one + _traced_kib(
            one_each, len(busy), "seven more PUTs each", 48.0 - after_one,
            show)
    finally:
        tracemalloc.stop()
    assert len(svc.records) == 1 + TENANTS + 7 * len(busy)
    assert svc.pending_count() == 0
    assert after_one <= 32.0
    assert after_eight <= 48.0


def test_never_invoked_deployment_holds_no_pool_and_no_stats():
    cloud = build_default_cloud(seed=0)
    svc = AReplicaService(cloud, ReplicaConfig(profile_samples=4))
    rule = svc.add_rule(cloud.bucket(SRC, "src"), cloud.bucket(DST, "dst"),
                        profile=False)
    faas = cloud.faas(DST)
    name = f"areplica-apply-{rule.rule_id}"
    dep = faas._deployments[name]
    assert dep.warm_pool is None and dep.stats is None
    assert not hasattr(dep, "__dict__")
    stats = faas.deployment_stats(name)
    assert stats and set(stats.values()) == {0}
    assert dep.stats is None        # reading the zeros created nothing
