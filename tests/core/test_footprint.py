"""Memory footprint: what an idle tenant and a replicated PUT retain.

A multi-tenant deployment is thousands of rules that each saw a few
objects, so what an engine, its tables, deployments and function
instances *hold* must follow what they *used*.  These checks keep the
marginal bytes per tenant under a budget (this test read 66.3 KiB after
one PUT and 80.4 after eight before sampler blocks were demand-sized
and per-rule state was created at first use; 21.3 and 34.9 after; 20.32
and 29.98 before samplers that own their stream held it as a PCG64
checkpoint between refills, 18.30 and 27.96 after; 15.30 and 23.47
once the cost and tenant ledgers kept totals instead of per-charge
detail and entries, a deployment's counters became slots and its warm
pool and a tenant's deferral lane lists; 11.41 and 19.57 once a
shared-stream sampler held its block's undrawn rest as a checkpoint,
a fair-share lane became a list and a KV table kept two int counters
and its provider's one price pair) and name the owners when the
budget is exceeded.

A busy hour is a million small PUTs through one rule, so what each
replicated object leaves behind is the other budget: 2 083 B per PUT
before the records kept per object and request were slotted and the
write-only per-task log and version ids went, 1 483 B after.  With the
tracer on, each PUT's spans and events stayed for the life of the run:
7.81 KiB per traced PUT while every record carried an attribute dict
and every ledger charge was kept as a record, 4.25 KiB with one flat
tuple per record and the charges kept as totals.  Since the checker's
index is fed as records are emitted, and records are kept only for a
reader that asks, a traced PUT retains 2.51 KiB, and 4.64 with its
records kept (2.42 and 4.54 with owned sampler streams checkpointed;
1.93 and 4.58 once the index kept one id object and one compact row
per task instead of whole records; an untraced PUT 1.35).  The trace
checker's transient memory is budgeted the same way, per traced PUT,
and so are the bytes the model keeps per Monte-Carlo key.  ``make
footprint`` prints the numbers.
"""

from __future__ import annotations

import gc
import tracemalloc

import pytest

from repro.core.config import ReplicaConfig, TenantConfig
from repro.core.invariants import TraceChecker
from repro.core.locks import LockOutcome, PendingVersion, UnlockOutcome
from repro.core.planner import Plan
from repro.core.service import AReplicaService
from repro.core.task import TaskResult
from repro.simcloud import cost
from repro.simcloud.cloud import build_default_cloud
from repro.simcloud.cost import TenantLedger
from repro.simcloud.objectstore import Blob, ObjectEvent

pytestmark = pytest.mark.tenant

KIB = 1024
TENANTS = 400
PUTS = 2000
SRC, DST = "aws:us-east-1", "azure:eastus"


def _put_all(cloud, writes, spacing: float) -> None:
    """One 4 KiB PUT per ``(bucket, key)``, ``spacing`` seconds apart,
    then run to quiescence."""
    base = cloud.sim.now
    for i, (bucket, key) in enumerate(writes):
        cloud.sim.call_at(
            base + 1.0 + spacing * i,
            lambda bucket=bucket, key=key: bucket.put_object(
                key, Blob.fresh(4 * KIB), cloud.sim.now))
    cloud.run()


def _put_round(cloud, buckets, round_no: int) -> None:
    """One PUT per bucket, 50 ms apart."""
    _put_all(cloud, [(src, f"obj-{round_no}") for src in buckets], 0.05)


def _traced_kib(since: int, count: int, label: str, budget: float,
                show: bool) -> float:
    """KiB traced per one of ``count`` units since ``since``; names the
    ten largest owners when over ``budget`` (or when asked to show)."""
    gc.collect()
    per_unit = (tracemalloc.get_traced_memory()[0] - since) / count / KIB
    if show or per_unit > budget:
        print(f"\n{label}: {per_unit:.2f} KiB (budget {budget:.2f}); "
              f"largest owners, whole process:")
        for stat in tracemalloc.take_snapshot().statistics("lineno")[:10]:
            frame = stat.traceback[0]
            print(f"  {stat.size / KIB:8.0f} KiB {stat.count:7d} blocks  "
                  f"{frame.filename}:{frame.lineno}")
    return per_unit


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
        after_one = _traced_kib(empty, TENANTS, "per tenant, one PUT each",
                                14.5, show)
        # Seven more PUTs, on a quarter of the tenants (tracing every
        # allocation is slow): growth per busy tenant on top of the above.
        busy = buckets[:TENANTS // 4]
        one_each = tracemalloc.get_traced_memory()[0]
        for round_no in range(2, 9):
            _put_round(cloud, busy, round_no)
        after_eight = after_one + _traced_kib(
            one_each, len(busy), "per busy tenant, seven more PUTs",
            24.5 - after_one, show)
    finally:
        tracemalloc.stop()
    assert len(svc.records) == 1 + TENANTS + 7 * len(busy)
    assert svc.pending_count() == 0
    assert after_one <= 14.5
    assert after_eight <= 24.5


def _retained_per_put(label: str, budget: float, show: bool,
                      tracing: bool = False, keep_records: bool = False):
    """KiB retained per replicated 4 KiB PUT through one warmed rule;
    returns it with the service and the rule's buckets."""
    cloud = build_default_cloud(seed=0)
    svc = AReplicaService(cloud, ReplicaConfig(profile_samples=4,
                                               mc_samples=300,
                                               tracing_enabled=tracing))
    if keep_records:
        svc.tracer.keep_records()
    src, dst = cloud.bucket(SRC, "src"), cloud.bucket(DST, "dst")
    svc.add_rule(src, dst)
    # The warm-up profiles the pair and fills the plan cache, warm
    # pools and sampler blocks, none of which grows per object.
    _put_all(cloud, [(src, f"warm-{i}") for i in range(50)], 0.01)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        _put_all(cloud, [(src, f"obj-{i}") for i in range(PUTS)], 0.01)
        per_put = _traced_kib(before, PUTS, label, budget, show)
    finally:
        tracemalloc.stop()
    assert len(svc.records) == 50 + PUTS
    assert svc.pending_count() == 0
    return per_put, svc, src, dst


def test_bytes_retained_per_replicated_put_stay_in_budget(request):
    show = request.config.getoption("capture") == "no"      # make footprint
    per_put, svc, src, dst = _retained_per_put(
        "per replicated 4 KiB PUT", 1.6, show)
    version = dst.head(f"obj-{PUTS - 1}")
    assert version.etag == src.current_etag(f"obj-{PUTS - 1}")
    assert per_put <= 1.6
    # What is kept per object or request, and what a task builds, holds
    # no instance dict: a field added later must not bring one back.
    etag = version.etag
    plan = Plan(1, SRC, (SRC, SRC, DST), 1.0, 0.99, True, True)
    pending = PendingVersion(etag, 2)
    for record in (
        version.blob,
        version,
        ObjectEvent("created", "src", src.region, "k", 1, etag, 1, 0.0),
        svc.records[-1],
        TaskResult("k", etag, 1, 0.0, 1.0, plan),
        plan,
        LockOutcome(True),
        UnlockOutcome(True, pending),
        pending,
    ):
        assert not hasattr(record, "__dict__"), type(record).__name__


@pytest.fixture(scope="module")
def traced_puts(request):
    """The traced scenario: KiB retained per PUT, and the service."""
    show = request.config.getoption("capture") == "no"      # make footprint
    return _retained_per_put("per traced replicated 4 KiB PUT", 2.4, show,
                             tracing=True)[:2]


def test_bytes_retained_per_traced_replicated_put_stay_in_budget(traced_puts):
    per_put, svc = traced_puts
    assert per_put <= 2.4
    assert svc.tracer.spans == [] and svc.tracer.events == []


def test_bytes_retained_per_traced_put_with_kept_records_stay_in_budget(
        request):
    show = request.config.getoption("capture") == "no"      # make footprint
    per_put = _retained_per_put(
        "per traced replicated 4 KiB PUT, records kept", 5.0, show,
        tracing=True, keep_records=True)[0]
    assert per_put <= 5.0


def test_a_kept_trace_record_is_one_dict_free_tuple():
    cloud = build_default_cloud(seed=0)
    svc = AReplicaService(cloud, ReplicaConfig(profile_samples=4,
                                               mc_samples=300,
                                               tracing_enabled=True))
    svc.tracer.keep_records()
    src = cloud.bucket(SRC, "src")
    svc.add_rule(src, cloud.bucket(DST, "dst"))
    _put_all(cloud, [(src, "obj")], 0.0)
    assert len(svc.records) == 1
    # A trace record is one tuple: no instance dict, no attribute dict.
    for record in (svc.tracer.spans[-1], svc.tracer.events[-1]):
        assert isinstance(record, tuple) and not hasattr(record, "__dict__")


def test_trace_checker_transient_bytes_per_traced_put_stay_in_budget(
        request, traced_puts):
    """The checker's peak allocation while it checks the traced
    scenario, per traced PUT: 0.60 KiB with one pass over the trace per
    invariant, 0.46 with one index built in one pass, 0.04 with the
    index fed as records are emitted."""
    show = request.config.getoption("capture") == "no"      # make footprint
    svc = traced_puts[1]
    gc.collect()
    tracemalloc.start()
    try:
        report = TraceChecker(svc).check()
        peak = tracemalloc.get_traced_memory()[1] / len(svc.records) / KIB
    finally:
        tracemalloc.stop()
    if show:
        print(f"\ntrace checker peak per traced PUT: {peak:.3f} KiB "
              f"(budget 0.60)")
    assert report.clean, report.render()
    assert peak <= 0.60


def test_bytes_the_model_keeps_per_key_looked_up_once_stay_in_budget(
        request):
    """A bulk-like sweep of chunk counts (32 to 4 096 parts, 256 MiB to
    32 GiB at the default part size) through the planner's Monte-Carlo
    candidates, each ``(path, n, m)`` key asked for once, as most keys
    of a lognormal-sized replay are: 16.02 KiB a key while every miss
    kept its 2 000-sample row, 0.29 with a checkpoint kept until the
    first hit."""
    show = request.config.getoption("capture") == "no"      # make footprint
    cloud = build_default_cloud(seed=0)
    svc = AReplicaService(cloud, ReplicaConfig(profile_samples=4))
    svc.add_rule(cloud.bucket(SRC, "src"), cloud.bucket(DST, "dst"))
    model, path = svc.model, (SRC, SRC, DST)
    candidates = [(n, False) for n in (2, 4, 8, 16, 32)]
    keys = len(model._mc_cache)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for parts in range(32, 4097, 32):
            model.predict_percentiles(path, parts * model.chunk_size,
                                      candidates, (0.99, 0.5))
        added = len(model._mc_cache) - keys
        per_key = _traced_kib(before, added, "model, per key looked up once",
                              1.0, show)
    finally:
        tracemalloc.stop()
    assert added == 128 * len(candidates) and model.mc_runs >= added
    assert per_key <= 1.0


def test_never_invoked_deployment_holds_no_pool_and_no_stats():
    cloud = build_default_cloud(seed=0)
    svc = AReplicaService(cloud, ReplicaConfig(profile_samples=4))
    rule = svc.add_rule(cloud.bucket(SRC, "src"), cloud.bucket(DST, "dst"),
                        profile=False)
    faas = cloud.faas(DST)
    name = f"areplica-apply-{rule.rule_id}"
    dep = faas._deployments[name]
    assert dep.warm_pool is None
    assert not hasattr(dep, "__dict__")
    stats = faas.deployment_stats(name)
    assert stats and set(stats.values()) == {0}
    assert all(getattr(dep, key) == 0 for key in stats)
    assert dep.warm_pool is None    # reading the zeros created nothing


def test_a_tenant_ledger_keeps_nothing_per_admission():
    """The budget ledger keeps totals and counters: 10 000 admissions
    over 100 windows retain under 1 KiB (one record and detail string
    per admission, about 200 B each, before).  Only blocks the ledger's
    module allocated count: the rest of the process is not quiet."""
    ledger = TenantLedger("t", budget_usd=1.0, window_s=60.0)
    gc.collect()
    tracemalloc.start()
    try:
        for i in range(10_000):
            ledger.charge(i * 0.6, 0.001)
        gc.collect()
        retained = sum(stat.size for stat in tracemalloc.take_snapshot()
                       .filter_traces([tracemalloc.Filter(True, cost.__file__)])
                       .statistics("filename"))
    finally:
        tracemalloc.stop()
    assert ledger.admissions == 10_000 and ledger.windows == 100
    assert ledger.over_admissions() == 0
    assert retained < KIB, retained
