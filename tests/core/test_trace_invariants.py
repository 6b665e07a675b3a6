"""The trace-invariant oracle, as a property over chaos/outage runs.

Two layers:

* **Soaks** — any seeded storm or outage schedule, run with tracing
  enabled, must converge with a *checker-clean* trace: the oracle (not
  per-scenario asserts) is the property.
* **Synthetic traces** — every finding kind the checker can emit is
  proven to actually fire by feeding hand-built event sequences into a
  bare tracer, plus positive cases proving legal lifecycles (including
  the fence-generation restart) stay clean.
"""

import math
from contextlib import contextmanager, nullcontext
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.config import ReplicaConfig
from repro.core.invariants import _EPS, TraceChecker, _Index, _lock_domain
from repro.core.service import AReplicaService
from repro.core.task import (ACQUIRE_KEYS, DELETE_KEYS, DONE_KEYS,
                             FINALIZE_KEYS, LIFECYCLE, PLAN_KEYS,
                             REFUSED_KEYS, RELEASE_KEYS, SCHEMAS, VERIFY_KEYS,
                             VERSION_KEYS, WRITING_KINDS)
from repro.core.tracing import PHASES, Tracer, _tenanted
from repro.drills import DRILLS, run_drill
from repro.simcloud.chaos import ChaosConfig
from repro.simcloud.cloud import build_default_cloud
from repro.simcloud.cost import CostCategory, CostLedger
from repro.simcloud.faas import _task_ref as task_ref
from repro.simcloud.objectstore import Blob
from tests.core import test_hedging
from tests.core import test_tenant_isolation as iso

pytestmark = pytest.mark.trace

KB = 1024
MB = 1024 * 1024
SRC = "aws:us-east-1"
DST = "azure:eastus"

STORM = ChaosConfig(
    crash_prob=0.08,
    notif_drop_prob=0.08, notif_dup_prob=0.08, notif_reorder_prob=0.08,
    notif_redelivery_s=20.0,
    kv_reject_prob=0.08, kv_delay_prob=0.08,
    wan_stall_prob=0.03,
)


@contextmanager
def keeping_records():
    """Every tracer built in the block keeps its records from its first
    one, for a reader of a scenario's whole trace."""
    init = Tracer.__init__

    def init_and_keep(self, sim):
        init(self, sim)
        self.keep_records()

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Tracer, "__init__", init_and_keep)
        yield


def traced_soak(seed: int, chaos: ChaosConfig = STORM):
    """The chaos-convergence soak workload, with the tracer recording."""
    cloud = build_default_cloud(seed=seed)
    config = ReplicaConfig(profile_samples=4, mc_samples=300,
                           tracing_enabled=True)
    svc = AReplicaService(cloud, config)
    src = cloud.bucket(SRC, "src")
    dst = cloud.bucket(DST, "dst")
    rule = svc.add_rule(src, dst)
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
    cloud.sim.call_later(t / 2, lambda: src.put_object(
        "obj-big", Blob.fresh(48 * MB), cloud.sim.now))
    cloud.run()

    cloud.apply_chaos(None)
    svc.run_to_convergence()
    return cloud, svc, src, dst, rule


# ---------------------------------------------------------------------------
# soaks: the oracle is the property
# ---------------------------------------------------------------------------

@given(seed=st.integers(0, 10_000))
@settings(max_examples=6, deadline=None)
def test_any_seeded_storm_leaves_a_clean_trace(seed):
    cloud, svc, src, dst, rule = traced_soak(seed)
    report = TraceChecker(svc).check()
    assert report.clean, f"seed {seed}:\n{report.render()}"
    # The pass actually looked at work, not an empty trace.
    assert report.checked["visibles"] > 0
    assert report.checked["lock_acquires"] > 0
    assert report.checked["done_markers"] > 0
    assert report.checked["cost_records"] > 0


@given(seed=st.integers(0, 10_000))
@settings(max_examples=3, deadline=None)
def test_randomized_chaos_mix_leaves_a_clean_trace(seed):
    """Chaos *parameters* are drawn from the seed too — including an
    optional sustained KV outage window over the workload."""
    rng = np.random.default_rng(seed)
    windows = ()
    if rng.random() < 0.5:
        start = float(rng.uniform(0.0, 20.0))
        windows = ((SRC, start, float(rng.uniform(30.0, 120.0))),)
    chaos = ChaosConfig(
        crash_prob=float(rng.uniform(0.0, 0.1)),
        notif_drop_prob=float(rng.uniform(0.0, 0.1)),
        notif_dup_prob=float(rng.uniform(0.0, 0.1)),
        notif_reorder_prob=float(rng.uniform(0.0, 0.1)),
        notif_redelivery_s=20.0,
        kv_reject_prob=float(rng.uniform(0.0, 0.1)),
        kv_delay_prob=float(rng.uniform(0.0, 0.1)),
        wan_stall_prob=float(rng.uniform(0.0, 0.04)),
        kv_outages=windows,
    )
    cloud, svc, src, dst, rule = traced_soak(seed, chaos)
    report = TraceChecker(svc).check()
    assert report.clean, f"seed {seed} chaos {chaos}:\n{report.render()}"
    for key in src.keys():
        assert dst.head(key).etag == src.head(key).etag


def test_fixed_seed_storm_trace_and_stats_well_formed():
    cloud, svc, src, dst, rule = traced_soak(1234)
    report = TraceChecker(svc).check()
    assert report.clean, report.render()
    stats = rule.engine.stats
    assert stats["kv_retries"] > 0
    # Counters this storm may or may not trip must still be well-formed
    # non-negative integers (the stats-contract test pins the key set).
    for key in ("retriggered", "backlog_kv_failed", "recovered_parts",
                "recovered_finalize", "probes", "failover"):
        value = stats.get(key, 0)
        assert isinstance(value, int) and value >= 0, key


def test_sustained_kv_outage_parks_probes_and_drains_clean():
    cloud = build_default_cloud(seed=901)
    config = ReplicaConfig(profile_samples=5, mc_samples=300,
                           tracing_enabled=True)
    svc = AReplicaService(cloud, config)
    svc.tracer.keep_records()
    src = cloud.bucket(SRC, "src")
    dst = cloud.bucket(DST, "dst")
    rule = svc.add_rule(src, dst)
    cloud.apply_chaos(ChaosConfig(kv_outages=((SRC, 0.0, 600.0),)))

    def driver():
        for i in range(12):
            src.put_object(f"k{i}", Blob.fresh(MB), cloud.now)
            yield cloud.sim.sleep(30.0)

    cloud.sim.run_process(driver())
    convergence = svc.run_to_convergence()
    assert convergence.converged
    report = TraceChecker(svc).check()
    assert report.clean, report.render()
    # Degradation ran: the park-leak invariant was checked over real
    # parked entries, and the backlog probe loop actually probed.
    assert report.checked["parked"] > 0
    assert rule.engine.stats["parked"] > 0
    assert rule.engine.stats["drained"] == rule.engine.stats["parked"]
    assert rule.engine.stats["probes"] > 0
    parks = [e for e in svc.tracer.events if e.name == "park"]
    drains = [e for e in svc.tracer.events if e.name == "drain"]
    assert len(drains) == len(parks) > 0


# ---------------------------------------------------------------------------
# online index: the report the offline pass gave, from records as emitted
# ---------------------------------------------------------------------------

def offline_report(svc):
    """The report on a fresh index fed the kept spans, then the kept
    events: the order the checker read a finished trace in."""
    tr = svc.tracer
    offline = _Index()
    for span in tr.spans:
        offline.span(span)
    for event in tr.events:
        offline.event(event)
    online, tr.index = tr.index, offline
    try:
        return TraceChecker(svc).check()
    finally:
        tr.index = online


def _hedged_chaos(keep: bool):
    """A traced hedged replay under WAN stalls, crashes, KV rejections
    and duplicate notifications."""
    with test_hedging.hedge_every_part():
        cloud = build_default_cloud(seed=3)
        svc = AReplicaService(cloud, ReplicaConfig(
            profile_samples=5, mc_samples=300, tracing_enabled=True,
            **test_hedging.HEDGE_KNOBS))
        if keep:
            svc.tracer.keep_records()
        src = cloud.bucket(SRC, "src")
        rule = svc.add_rule(src, cloud.bucket(DST, "dst"))
        test_hedging._stalled_replay(cloud, svc, src, seed=3, requests=150,
                                     crash_prob=0.05, kv_reject_prob=0.05,
                                     notif_dup_prob=0.05)
    return svc, rule


def _tenant_storm(keep: bool):
    """Two tenants, a crash storm scoped to one of them."""
    with keeping_records() if keep else nullcontext():
        cloud, svc, (a_src, _), (b_src, _) = iso.build_pair(seed=9003)
    iso.put_workload(cloud, a_src, 5, prefix="a")
    iso.put_workload(cloud, b_src, 5, prefix="b")
    cloud.apply_chaos(ChaosConfig(crash_prob=0.3, crash_mean_delay_s=0.1,
                                  crash_scope="t-a-"))
    cloud.run()
    cloud.apply_chaos(None)
    svc.run_to_convergence()
    return svc


def test_online_report_equals_the_offline_pass_under_chaos_and_hedging():
    svc, rule = _hedged_chaos(keep=True)
    report = TraceChecker(svc).check()
    assert rule.engine.stats["hedges"] > 0
    assert report.checked["hedges"] > 0 and report.checked["visibles"] > 0
    assert report == offline_report(svc)
    # Records the tracer does not build still reach the index.
    assert TraceChecker(_hedged_chaos(keep=False)[0]).check() == report


def test_online_report_equals_the_offline_pass_with_tenant_tags():
    svc = _tenant_storm(keep=True)
    report = TraceChecker(svc).check()
    assert report.checked["tenant_records"] > 0
    assert report == offline_report(svc)
    assert TraceChecker(_tenant_storm(keep=False)).check() == report


def test_clock_and_tenant_findings_list_spans_before_events():
    """Emitted interleaved, reported as the offline pass listed them:
    within each check the span-fed findings come first."""
    tr = Tracer(_FakeSim())
    svc = SimpleNamespace(tracer=tr, rules={
        "r1": SimpleNamespace(tenant="tA", dst_bucket=_Bucket())})
    task = "r1:k:1:created"
    emit(tr, 5.0, "park", "engine", None, rule="r", backlog_id=1, key="k")
    emit(tr, 1.0, "drain", "engine", None, rule="r", backlog_id=1)
    tr.sim.now = 5.0
    tr.scoped("tB").event("probe", "engine", task)
    tr.span("plan", "engine", "s1", 3.0, 2.0)
    tr.scoped("tC").span("N", "phase", task, 2.0, 2.5)
    report = TraceChecker(svc).check()
    assert [(f.kind, f.key) for f in report.findings] == [
        ("clock", "s1"), ("clock", "drain"),
        ("tenant-isolation", task), ("tenant-isolation", task),
        ("tenant-isolation", task)]
    assert "closes before it opens" in report.findings[0].detail
    assert [f.detail for f in report.findings[2:]] == [
        "record 'N' tagged tenant 'tC' but the registry owns the task's "
        "rule under 'tA'",
        "record 'probe' tagged tenant 'tB' but the registry owns the "
        "task's rule under 'tA'",
        "task claimed by two tenants: 'tC' and 'tB'"]


def test_check_is_pure_and_sees_records_emitted_since():
    tr, svc = bare()
    visible(tr, 1.0, "t1", "k")
    checker = TraceChecker(svc)
    first = checker.check()
    assert checker.check() == first
    assert kinds(first) == {"unfenced-visible"}
    visible(tr, 2.0, "t2", "k")
    second = checker.check()
    assert len(second.findings) == 2 and len(first.findings) == 1
    assert second.checked["visibles"] == 2


def test_a_traced_run_keeps_no_records_unless_asked():
    cloud, svc, src, dst, rule = traced_soak(7)
    assert svc.tracer.spans == [] and svc.tracer.events == []
    report = TraceChecker(svc).check()
    assert report.clean, report.render()
    assert report.checked["spans"] > 0 and report.checked["events"] > 0
    assert set(svc.tracer.index.tasks) - {None}


# ---------------------------------------------------------------------------
# differential: one workload, single-function vs distributed plans
# ---------------------------------------------------------------------------

def _run_forced(seed: int, plan):
    cloud = build_default_cloud(seed=seed)
    config = ReplicaConfig(profile_samples=4, mc_samples=300,
                           tracing_enabled=True)
    svc = AReplicaService(cloud, config)
    svc.tracer.keep_records()
    src = cloud.bucket(SRC, "src")
    dst = cloud.bucket(DST, "dst")
    rule = svc.add_rule(src, dst)
    rule.engine.forced_plan = plan
    for i in range(6):
        size = (i % 3 + 1) * 12 * MB
        cloud.sim.call_later(1.0 + 2.0 * i, lambda k=f"d{i}", s=size:
                             src.put_object(k, Blob.fresh(s), cloud.sim.now))
    cloud.sim.call_later(16.0, lambda: (
        "d1" in src and src.delete_object("d1", cloud.sim.now)))
    cloud.run()
    svc.run_to_convergence()
    report = TraceChecker(svc).check()
    visible = sorted({e.task for e in svc.tracer.events
                      if e.name == "visible" and e.task})
    dst_state = {k: dst.head(k).etag for k in dst.keys()}
    src_state = {k: src.head(k).etag for k in src.keys()}
    return dst_state, src_state, visible, report, rule.engine.stats


def test_single_vs_distributed_modes_converge_identically():
    """Differential: the same workload pushed through forced 1-function
    plans and forced 8-way distributed plans must reach the same final
    bucket state, see the same task lifecycle, and both trace clean."""
    s_dst, s_src, s_visible, s_report, s_stats = _run_forced(4242, (1, SRC))
    d_dst, d_src, d_visible, d_report, d_stats = _run_forced(4242, (8, SRC))
    assert s_dst == s_src and d_dst == d_src
    assert set(s_dst) == set(d_dst)
    assert s_visible == d_visible and s_visible
    assert s_report.clean, s_report.render()
    assert d_report.clean, d_report.render()
    assert s_stats["single"] + s_stats["inline"] > 0
    assert s_stats["distributed"] == 0
    assert d_stats["distributed"] > 0


# ---------------------------------------------------------------------------
# tracer surface: breakdown, export, attribution helpers
# ---------------------------------------------------------------------------

def _traced_healthy(seed: int = 7):
    cloud = build_default_cloud(seed=seed)
    config = ReplicaConfig(profile_samples=4, mc_samples=300,
                           tracing_enabled=True)
    svc = AReplicaService(cloud, config)
    svc.tracer.keep_records()
    src = cloud.bucket(SRC, "src")
    dst = cloud.bucket(DST, "dst")
    rule = svc.add_rule(src, dst)
    src.put_object("a", Blob.fresh(256 * KB), cloud.now)
    src.put_object("b", Blob.fresh(24 * MB), cloud.now + 0.5)
    cloud.run()
    svc.run_to_convergence()
    return cloud, svc, rule


def test_healthy_run_populates_the_delay_phases():
    cloud, svc, rule = _traced_healthy()
    breakdown = svc.tracer.delay_breakdown()
    assert set(breakdown) == set(PHASES)
    for phase in ("N", "I", "D", "S", "C"):
        assert breakdown[phase]["count"] > 0, phase
    for row in breakdown.values():
        if row["count"]:
            assert row["mean_s"] * row["count"] == pytest.approx(row["total_s"])
            assert row["p50_s"] <= row["p99_s"] <= row["max_s"]
    table = svc.tracer.render_breakdown()
    assert table.splitlines()[0].startswith("phase")
    assert len(table.splitlines()) == 1 + len(PHASES)


def test_breakdown_quantiles_are_nearest_rank():
    """p50/p99 of n samples is the ceil(q·n)-th smallest, for every n up
    to 400 (rounding q·n instead reads p99 one rank low at n = 51..99)."""
    for n in range(1, 401):
        tr = Tracer(_FakeSim())
        tr.keep_records()
        for i in range(n, 0, -1):           # duration i: the rank-i value
            tr.span("C", "phase", None, 0.0, float(i))
        row = tr.delay_breakdown()["C"]
        for col, q in (("p50_s", "0.5"), ("p99_s", "0.99")):
            assert row[col] == math.ceil(Fraction(q) * n), (n, q)


#: Attribute names a caller may pass to span()/event().
_ATTR_NAMES = st.text(alphabet="abcdefghijklmnopqrstuvwxyz_", min_size=1,
                      max_size=8).filter(
    lambda k: k not in {"name", "cat", "task", "start", "end", "self"})
_ATTR_VALUES = st.one_of(st.none(), st.booleans(), st.integers(),
                         st.floats(allow_nan=False), st.text(max_size=6))


@given(attrs=st.dictionaries(_ATTR_NAMES, _ATTR_VALUES, max_size=8),
       tenant=st.one_of(st.none(), st.sampled_from(["t0", "t1"])),
       task=st.one_of(st.none(), st.text(max_size=6)),
       start=st.floats(0.0, 1e6), dur=st.floats(0.0, 1e3),
       now=st.floats(0.0, 1e6))
@settings(max_examples=200, deadline=None)
def test_records_round_trip_their_arguments(attrs, tenant, task, start,
                                            dur, now):
    """What a span or event was given is what its fields, ``attrs`` and
    ``get`` read back — in ``keys`` order, with or without a tenant
    scope, for no attributes up to eight."""
    tr = Tracer(_FakeSim())
    tr.keep_records()
    tr.sim.now = now
    sink = tr if tenant is None else tr.scoped(tenant)
    keys = tuple(attrs)
    sink.span("plan", "engine", task, start, start + dur, keys,
              *attrs.values())
    sink.event("finalize", "engine", task, keys, *attrs.values())
    expected = dict(attrs)
    if tenant is not None:
        expected.setdefault("tenant", tenant)
    span, event = tr.spans[-1], tr.events[-1]
    assert (span.name, span.cat, span.task, span.start, span.end) == \
        ("plan", "engine", task, start, start + dur)
    assert (event.name, event.cat, event.task, event.time) == \
        ("finalize", "engine", task, now)
    assert span.keys is event.keys          # one keys tuple per schema
    for rec in (span, event):
        assert list(rec.attrs.items()) == list(expected.items())
        assert rec.keys == tuple(expected)
        for key in (*expected, "ABSENT"):    # never a generated name
            assert rec.get(key) == rec.attrs.get(key)
        assert rec.get("ABSENT", 7) == 7


def test_chrome_trace_structure_and_queries():
    cloud, svc, rule = _traced_healthy()
    tr = svc.tracer
    doc = tr.chrome_trace()
    events = doc["traceEvents"]
    assert events[0] == {"name": "process_name", "ph": "M", "pid": 1,
                         "tid": 0, "args": {"name": "areplica"}}
    assert {e["ph"] for e in events} <= {"M", "X", "i"}
    for e in events:
        if "ts" in e:
            assert isinstance(e["ts"], int)
    some = next(task for task in tr.index.tasks if task is not None)
    assert any(s.task == some for s in tr.spans)
    assert any(e.task == some for e in tr.events)
    attributed = tr.attributed_cost()
    assert any(task is not None for task in attributed)
    assert sum(attributed.values()) == pytest.approx(tr.recorded_cost())


def test_task_ref_handles_every_payload_shape():
    assert task_ref({"task": "t1"}) == "t1"
    assert task_ref({"task_id": "t2"}) == "t2"
    assert task_ref({"task": {"task_id": "t3"}}) == "t3"
    assert task_ref({"task": {"key": "k"}}) is None
    assert task_ref({"other": 1}) is None
    assert task_ref(None) is None


def test_checker_requires_a_tracer():
    class _NoTracer:
        tracer = None
        rules = {}

    with pytest.raises(ValueError):
        TraceChecker(_NoTracer())


# ---------------------------------------------------------------------------
# synthetic traces: every finding kind provably fires
# ---------------------------------------------------------------------------

class _FakeSim:
    def __init__(self):
        self.now = 0.0


class _Obj:
    def __init__(self, etag):
        self.etag = etag


class _Bucket:
    def __init__(self, objs=None):
        self._objs = dict(objs or {})

    def __contains__(self, key):
        return key in self._objs

    def head(self, key):
        return self._objs[key]


class _Rule:
    def __init__(self, dst):
        self.dst_bucket = dst


class _Svc:
    def __init__(self, tracer, rules=None):
        self.tracer = tracer
        self.rules = rules or {}


def bare():
    tr = Tracer(_FakeSim())
    return tr, _Svc(tr)


def emit(tr, t, name, cat, task, **attrs):
    tr.sim.now = t
    tr.event(name, cat, task, tuple(attrs), *attrs.values())


def acquire(tr, t, key, owner, fence, mode):
    emit(tr, t, "lock-acquire", "lock", owner,
         key=key, owner=owner, fence=fence, mode=mode)


def release(tr, t, key, owner, released, fence=0):
    emit(tr, t, "lock-release", "lock", owner,
         key=key, owner=owner, released=released, fence=fence)


def finalize(tr, t, task, key, fence, op="put", etag="e1", seq=1,
             verified=True):
    emit(tr, t, "finalize", "engine", task,
         key=key, seq=seq, etag=etag, fence=fence, op=op,
         verified=verified)


def visible(tr, t, task, key, kind="created", seq=1):
    emit(tr, t, "visible", "engine", task, key=key, seq=seq, kind=kind)


def kinds(report):
    return {f.kind for f in report.findings}


class TestSyntheticViolations:
    def test_span_closing_before_it_opens(self):
        tr, svc = bare()
        tr.span("plan", "engine", "t1", 5.0, 4.0)
        assert kinds(TraceChecker(svc).check()) == {"clock"}

    def test_records_out_of_clock_order(self):
        tr, svc = bare()
        tr.span("plan", "engine", "t1", 0.0, 5.0)
        tr.span("plan", "engine", "t2", 1.0, 2.0)
        emit(tr, 5.0, "park", "engine", None, rule="r", backlog_id=1, key="k")
        emit(tr, 1.0, "drain", "engine", None, rule="r", backlog_id=1)
        report = TraceChecker(svc).check()
        assert len(report.by_kind("clock")) == 2

    def test_fresh_acquire_while_held(self):
        tr, svc = bare()
        acquire(tr, 0.0, "k", "tA", 1, "fresh")
        acquire(tr, 1.0, "k", "tB", 1, "fresh")
        assert kinds(TraceChecker(svc).check()) == {"lock-order"}

    def test_fresh_acquire_with_wrong_fence(self):
        tr, svc = bare()
        acquire(tr, 0.0, "k", "tA", 3, "fresh")
        assert kinds(TraceChecker(svc).check()) == {"lock-order"}

    def test_takeover_of_unheld_lock(self):
        tr, svc = bare()
        acquire(tr, 0.0, "k", "tA", 2, "takeover")
        assert kinds(TraceChecker(svc).check()) == {"lock-order"}

    def test_takeover_that_does_not_supersede(self):
        tr, svc = bare()
        acquire(tr, 0.0, "k", "tA", 1, "fresh")
        acquire(tr, 1.0, "k", "tB", 3, "takeover")
        assert kinds(TraceChecker(svc).check()) == {"lock-order"}

    def test_reentrant_acquire_by_non_holder(self):
        tr, svc = bare()
        acquire(tr, 0.0, "k", "tA", 1, "fresh")
        acquire(tr, 1.0, "k", "tB", 1, "reentrant")
        assert kinds(TraceChecker(svc).check()) == {"lock-order"}

    def test_release_by_non_holder(self):
        tr, svc = bare()
        acquire(tr, 0.0, "k", "tA", 1, "fresh")
        release(tr, 1.0, "k", "tB", released=True)
        assert kinds(TraceChecker(svc).check()) == {"lock-order"}

    def test_holder_failing_to_release_its_own_lock(self):
        tr, svc = bare()
        acquire(tr, 0.0, "k", "tA", 1, "fresh")
        release(tr, 1.0, "k", "tA", released=False)
        assert kinds(TraceChecker(svc).check()) == {"lock-order"}

    def test_visible_without_any_finalize(self):
        tr, svc = bare()
        visible(tr, 1.0, "t1", "k")
        assert kinds(TraceChecker(svc).check()) == {"unfenced-visible"}

    def test_finalize_with_invalid_fence(self):
        tr, svc = bare()
        finalize(tr, 1.0, "t1", "k", fence=0)
        visible(tr, 2.0, "t1", "k")
        assert kinds(TraceChecker(svc).check()) == {"unfenced-visible"}

    def test_zombie_writer_superseded_fence(self):
        tr, svc = bare()
        acquire(tr, 0.0, "k", "tA", 1, "fresh")
        acquire(tr, 1.0, "k", "tB", 2, "takeover")
        finalize(tr, 2.0, "tA", "k", fence=1)
        visible(tr, 3.0, "tA", "k")
        assert "superseded-fence" in kinds(TraceChecker(svc).check())

    def test_finalize_before_first_acquire(self):
        tr, svc = bare()
        finalize(tr, 2.0, "tA", "k", fence=1)
        acquire(tr, 5.0, "k", "tA", 1, "fresh")
        visible(tr, 6.0, "tA", "k")
        assert "lifecycle" in kinds(TraceChecker(svc).check())

    def test_finalize_before_plan_selection(self):
        tr, svc = bare()
        acquire(tr, 1.0, "k", "tA", 1, "fresh")
        finalize(tr, 2.0, "tA", "k", fence=1)
        tr.span("plan", "engine", "tA", 3.0, 4.0)
        visible(tr, 5.0, "tA", "k")
        assert "lifecycle" in kinds(TraceChecker(svc).check())

    def test_parked_entry_never_drained(self):
        tr, svc = bare()
        emit(tr, 0.0, "park", "engine", None, rule="r", backlog_id=9, key="k")
        report = TraceChecker(svc).check()
        assert kinds(report) == {"park-leak"}
        assert report.checked["parked"] == 1

    def test_drain_of_an_entry_never_parked(self):
        tr, svc = bare()
        emit(tr, 0.0, "drain", "engine", None, rule="r", backlog_id=9)
        assert kinds(TraceChecker(svc).check()) == {"park-leak"}

    def test_double_drain(self):
        tr, svc = bare()
        emit(tr, 0.0, "park", "engine", None, rule="r", backlog_id=9, key="k")
        emit(tr, 1.0, "drain", "engine", None, rule="r", backlog_id=9)
        emit(tr, 2.0, "drain", "engine", None, rule="r", backlog_id=9)
        assert kinds(TraceChecker(svc).check()) == {"park-leak"}

    def test_done_marker_for_a_missing_destination_key(self):
        tr, _ = bare()
        svc = _Svc(tr, {"r": _Rule(_Bucket())})
        emit(tr, 0.0, "done-marker", "engine", "t1",
             rule="r", key="k", seq=1, etag="e1", op="put")
        assert kinds(TraceChecker(svc).check()) == {"done-mismatch"}

    def test_done_marker_etag_disagreement(self):
        tr, _ = bare()
        svc = _Svc(tr, {"r": _Rule(_Bucket({"k": _Obj("other")}))})
        emit(tr, 0.0, "done-marker", "engine", "t1",
             rule="r", key="k", seq=1, etag="e1", op="put")
        assert kinds(TraceChecker(svc).check()) == {"done-mismatch"}

    def test_delete_marker_but_key_survives(self):
        tr, _ = bare()
        svc = _Svc(tr, {"r": _Rule(_Bucket({"k": _Obj("e1")}))})
        emit(tr, 0.0, "done-marker", "engine", "t1",
             rule="r", key="k", seq=2, etag="e1", op="delete")
        assert kinds(TraceChecker(svc).check()) == {"done-mismatch"}

    def test_put_finalize_without_verification_verdict(self):
        tr, svc = bare()
        acquire(tr, 0.0, "k", "tA", 1, "fresh")
        finalize(tr, 1.0, "tA", "k", fence=1, verified=False)
        visible(tr, 2.0, "tA", "k")
        release(tr, 3.0, "k", "tA", released=True, fence=1)
        assert "unverified-finalize" in kinds(TraceChecker(svc).check())

    def test_detected_corruption_never_resolved(self):
        tr, svc = bare()
        emit(tr, 1.0, "corrupt-detected", "engine", "tA",
             key="k", stage="part-get", kind="payload", part=0)
        assert "silent-corruption" in kinds(TraceChecker(svc).check())

    def test_corruption_resolved_by_later_verified_finalize(self):
        tr, svc = bare()
        acquire(tr, 0.0, "k", "tA", 1, "fresh")
        emit(tr, 1.0, "corrupt-detected", "engine", "tA",
             key="k", stage="part-get", kind="payload", part=0)
        finalize(tr, 2.0, "tA", "k", fence=1)
        visible(tr, 3.0, "tA", "k")
        release(tr, 4.0, "k", "tA", released=True, fence=1)
        report = TraceChecker(svc).check()
        assert report.clean, report.render()
        assert report.checked["corruption_detections"] == 1

    def test_corruption_surfaced_by_quarantine_is_not_silent(self):
        tr, svc = bare()
        emit(tr, 1.0, "corrupt-detected", "engine", "tA",
             key="k", stage="part-get", kind="payload", part=0)
        emit(tr, 2.0, "quarantine", "engine", "tA",
             key="k", stage="part-get", part=0)
        report = TraceChecker(svc).check()
        assert report.clean, report.render()

    def test_ledger_charge_missing_from_the_trace(self):
        tr, svc = bare()
        ledger = CostLedger()
        tr.install_cost_sink(ledger)
        ledger.charge(CostCategory.EGRESS, 1.0)
        ledger.sink = None  # a charge slips past the sink
        ledger.charge(CostCategory.EGRESS, 0.5)
        assert kinds(TraceChecker(svc).check()) == {"cost-gap"}

    def test_charge_attributed_to_an_unknown_task(self):
        tr, svc = bare()
        tr._on_cost(CostCategory.EGRESS, 0.0, "ghost-task")
        assert kinds(TraceChecker(svc).check()) == {"cost-orphan"}


class TestSyntheticLegalTraces:
    def test_full_legal_lifecycle_is_clean(self):
        tr, _ = bare()
        svc = _Svc(tr, {"r": _Rule(_Bucket({"k": _Obj("e1")}))})
        ledger = CostLedger()
        tr.install_cost_sink(ledger)
        acquire(tr, 0.0, "k", "tA", 1, "fresh")
        tr.sim.now = 0.5
        tr.span("plan", "engine", "tA", 0.2, 0.5)
        ledger.charge(CostCategory.EGRESS, 0.25, task="tA")
        finalize(tr, 1.0, "tA", "k", fence=1)
        emit(tr, 1.1, "done-marker", "engine", "tA",
             rule="r", key="k", seq=1, etag="e1", op="put")
        visible(tr, 1.2, "tA", "k")
        release(tr, 1.3, "k", "tA", released=True, fence=1)
        report = TraceChecker(svc).check()
        assert report.clean, report.render()
        assert report.checked["visibles"] == 1
        assert "clean" in report.render()

    def test_reentrant_and_takeover_sequences_are_legal(self):
        tr, svc = bare()
        acquire(tr, 0.0, "k", "tA", 1, "fresh")
        acquire(tr, 1.0, "k", "tA", 1, "reentrant")
        acquire(tr, 2.0, "k", "tB", 2, "takeover")
        finalize(tr, 3.0, "tB", "k", fence=2)
        visible(tr, 4.0, "tB", "k")
        release(tr, 5.0, "k", "tB", released=True, fence=2)
        report = TraceChecker(svc).check()
        assert report.clean, report.render()

    def test_fence_generation_restart_is_not_a_zombie(self):
        """Release deletes the lock record, so fences restart at 1 for
        the next generation: an old generation's takeover token must not
        flag a later generation's fence-1 finalize (regression for the
        checker's bounded superseded-fence scan)."""
        tr, svc = bare()
        acquire(tr, 0.0, "k", "tA", 1, "fresh")
        acquire(tr, 1.0, "k", "tB", 2, "takeover")
        finalize(tr, 2.0, "tB", "k", fence=2)
        visible(tr, 3.0, "tB", "k")
        release(tr, 4.0, "k", "tB", released=True, fence=2)
        acquire(tr, 5.0, "k", "tC", 1, "fresh")
        finalize(tr, 6.0, "tC", "k", fence=1, seq=2, etag="e2")
        visible(tr, 7.0, "tC", "k", seq=2)
        release(tr, 8.0, "k", "tC", released=True, fence=1)
        report = TraceChecker(svc).check()
        assert report.clean, report.render()

    def test_another_rules_takeover_does_not_supersede_a_fence(self):
        """Lock tables are per rule, so a lease takeover in one rule's
        lock domain says nothing about another rule's fence on the same
        key (a fan-out of one source bucket to two destinations)."""
        tr, svc = bare()
        acquire(tr, 0.0, "k", "r1:k:1:created", 1, "fresh")
        acquire(tr, 0.5, "k", "r2:k:1:created", 1, "fresh")
        acquire(tr, 1.0, "k", "r2:k:2:created", 2, "takeover")
        finalize(tr, 2.0, "r1:k:1:created", "k", fence=1)
        visible(tr, 3.0, "r1:k:1:created", "k")
        report = TraceChecker(svc).check()
        assert report.clean, report.render()

    def test_non_writing_visibility_needs_no_finalize(self):
        tr, svc = bare()
        visible(tr, 1.0, "t1", "k", kind="already-replicated")
        report = TraceChecker(svc).check()
        assert report.clean, report.render()


# ---------------------------------------------------------------------------
# compact index: the answers the list-of-records index gave
# ---------------------------------------------------------------------------

class _RecordIndex(_Index):
    """The reference: per-task facts kept as the index kept them before
    they were compact rows — every acquire time in a list, and every
    finalize, destination-writing visible and newest done marker per key
    as its whole record.  It also holds the compact forms, which
    :class:`_RecordChecker` never reads."""

    def __init__(self):
        super().__init__()
        self.acquire_lists, self.finalize_records = {}, {}
        self.write_records, self.done_records = [], {}

    def event(self, e) -> None:
        super().event(e)
        name, task = e.name, e.task
        if e.cat == "lock" and name == "lock-acquire":
            self.acquire_lists.setdefault(e.get("owner"), []).append(e.time)
        elif e.cat != "engine":
            return
        elif name == "finalize" and task is not None:
            self.finalize_records.setdefault(task, []).append(e)
        elif name == "visible" and task is not None and \
                e.get("kind") in WRITING_KINDS:
            self.write_records.append(e)
        elif name == "done-marker":
            ref = (e.get("rule"), e.get("key"))
            cur = self.done_records.get(ref)
            if cur is None or e.get("seq") >= cur.get("seq"):
                self.done_records[ref] = e


class _RecordChecker(TraceChecker):
    """The four checks that read per-task facts, as they read records."""

    def _lifecycle(self, ix, checked, flag) -> None:
        checked["visibles"] = ix.visibles
        for e in ix.write_records:
            task, kind = e.task, e.get("kind")
            fin = next((f for f in reversed(ix.finalize_records.get(task, ()))
                        if f.time <= e.time + _EPS), None)
            if fin is None:
                flag("lifecycle", "unfenced-visible", task,
                     f"{kind} visible at t={e.time:.3f} with no prior "
                     f"finalize")
                continue
            fence = fin.get("fence")
            if not isinstance(fence, int) or fence < 1:
                flag("lifecycle", "unfenced-visible", task,
                     f"finalize carries invalid fence {fence!r}")
                continue
            acquired = ix.acquire_lists.get(task)
            first = acquired[0] if acquired else -math.inf
            for at, f2 in ix.high_fences.get(
                    (_lock_domain(task), fin.get("key")), ()):
                if f2 > fence and first - _EPS <= at < fin.time - _EPS:
                    flag("lifecycle", "superseded-fence", task,
                         f"finalize with fence {fence} at "
                         f"t={fin.time:.3f} after fence {f2} was issued "
                         f"at t={at:.3f}")
                    break
            for fact, at in zip(LIFECYCLE, (
                    first, ix.plan_end.get(task, -math.inf))):
                if at > fin.time + _EPS:
                    flag("lifecycle", "lifecycle", task,
                         f"finalize precedes the task's "
                         f"{LIFECYCLE[fact]}")

    def _done_markers(self, ix, checked, flag) -> None:
        checked["done_markers"] = len(ix.done_records)
        for (rule_id, key), e in ix.done_records.items():
            rule = self.service.rules.get(rule_id)
            if rule is None:
                continue
            dst, seq, etag = rule.dst_bucket, e.get("seq"), e.get("etag")
            if e.get("op") == "delete":
                if key in dst:
                    flag("done", "done-mismatch", key,
                         f"marker records deletion (seq {seq}) but key "
                         f"survives at destination")
            elif key not in dst:
                flag("done", "done-mismatch", key,
                     f"marker seq {seq} but key missing at destination")
            elif dst.head(key).etag != etag:
                flag("done", "done-mismatch", key,
                     f"marker etag {etag} != destination etag "
                     f"{dst.head(key).etag}")

    def _integrity(self, ix, checked, flag) -> None:
        checked["verified_finalizes"] = ix.verified
        checked["corruption_detections"] = ix.detections
        for task in sorted(ix.last_corrupt):
            t_corrupt = ix.last_corrupt[task]
            t_fin = next((f.time for f in reversed(
                ix.finalize_records.get(task, ()))
                if f.get("op") != "put" or f.get("verified")), -math.inf)
            if t_fin < t_corrupt - _EPS and task not in ix.surfaced:
                flag("integrity", "silent-corruption", task,
                     f"corruption detected at t={t_corrupt:.3f} was "
                     f"neither re-verified by a later finalize nor "
                     f"surfaced")

    def _switchover(self, ix, checked, flag) -> None:
        epochs, split = 0, []
        for task, fins in ix.finalize_records.items():
            acquired = ix.acquire_lists.get(task, ())
            locs: dict[tuple, set] = {}
            for f in fins:
                if f.get("loc") is not None:
                    gen = max((at for at in acquired if at <= f.time + _EPS),
                              default=-math.inf)
                    locs.setdefault((task, gen, f.get("fence")),
                                    set()).add(f.get("loc"))
            epochs += len(locs)
            split += [kv for kv in locs.items() if len(kv[1]) > 1]
        checked["finalize_epochs"] = epochs
        for (task, gen, fence), locs in sorted(split,
                                               key=lambda kv: str(kv[0])):
            flag("switchover", "switchover-discipline", str(task),
                 f"epoch (acquire t={gen:.3f}, fence {fence}) was "
                 f"finalized from {len(locs)} locations: {sorted(locs)}")


_TASK_IDS = ("r1:k:1:created", "r1:k:2:created", "r2:j:1:deleted", "tA")
_OPS = ("acquire", "release", "plan", "finalize", "visible", "done-marker",
        "verify", "corrupt-detected")


def step(op, task=_TASK_IDS[0], key="k", dt=1.0, fence=1, mode="fresh",
         seq=1, etag="e1", write="put", ok=True, loc=SRC, kind="created",
         form="schema"):
    """One record of a synthetic stream, ``dt`` after the one before."""
    return dict(locals())


_STEPS = st.lists(st.builds(
    step, op=st.sampled_from(_OPS), task=st.sampled_from(_TASK_IDS),
    key=st.sampled_from(("k", "j")), dt=st.sampled_from((0.0, 0.0, 0.5, 1.0)),
    fence=st.sampled_from((1, 2, 3, 0, None, 1.0, "1")),
    mode=st.sampled_from(("fresh", "reentrant", "takeover")),
    seq=st.integers(1, 3), etag=st.sampled_from(("e1", "e2")),
    write=st.sampled_from(("put", "delete")), ok=st.booleans(),
    loc=st.sampled_from((None, SRC, DST)),
    kind=st.sampled_from(("created", "deleted", "already-replicated")),
    form=st.sampled_from(("schema", "schema", "keywords"))),
    max_size=30)


def feed(tr, steps) -> None:
    """Emit ``steps``, each record naming its task by a fresh but equal
    string, as separate emission sites do.  A record carries its name's
    declared schema tuple (``task.SCHEMAS``), as the emitters pass it;
    one of ``form="keywords"`` is built the way :func:`emit` builds one
    from keywords, with its names sorted, and a keyword-built put
    finalize is the one :func:`finalize` emits, with no ``loc``."""
    for s in steps:
        tr.sim.now += s["dt"]
        t, key, task, op = tr.sim.now, s["key"], s["task"], s["op"]
        tid, owner = task[:1] + task[1:], task[:1] + task[1:]
        fence, seq, etag = s["fence"], s["seq"], s["etag"]
        name, cat = {"acquire": ("lock-acquire", "lock"),
                     "release": ("lock-release", "lock"),
                     "plan": ("plan", "engine")}.get(op, (op, "engine"))
        if op == "acquire":
            keys, values = ACQUIRE_KEYS, (key, owner, fence, s["mode"])
        elif op == "release" and s["ok"]:
            keys, values = RELEASE_KEYS, (key, owner, True, fence)
        elif op == "release":
            keys, values = REFUSED_KEYS, (key, owner, False)
        elif op == "plan":
            keys, values = PLAN_KEYS, (1, s["loc"], True, True, 0.5)
        elif op == "verify":
            keys, values = VERIFY_KEYS, (key, etag, "e1", etag == "e1")
        elif op == "finalize" and s["write"] == "delete":
            keys, values = DELETE_KEYS, (key, seq, etag, fence, "delete",
                                         s["loc"])
        elif op == "finalize" and s["form"] == "keywords":
            finalize(tr, t, tid, key, fence, etag=etag, seq=seq,
                     verified=s["ok"])
            continue
        elif op == "finalize":
            keys, values = FINALIZE_KEYS, (key, seq, etag, fence, "put",
                                           s["loc"], s["ok"])
        elif op == "visible":
            keys, values = VERSION_KEYS, (key, seq, s["kind"])
        elif op == "done-marker":
            tid, keys, values = None, DONE_KEYS, (task.split(":")[0], key,
                                                  seq, etag, s["write"])
        else:
            keys, values = ("key", "stage", "kind", "part"), (
                key, "part-get", "payload", 0)
        if s["form"] == "keywords":
            attrs = dict(sorted(zip(keys, values)))
            keys, values = tuple(attrs), tuple(attrs.values())
        if op in ("plan", "verify"):
            tr.span(name, cat, tid, t - 0.25, t, keys, *values)
        else:
            tr.event(name, cat, tid, keys, *values)


class _WholeCounted(_Index):
    """The compact index, counting the records fed to it whole."""

    def __init__(self):
        super().__init__()
        self.whole = 0

    def span(self, s) -> None:
        self.whole += 1
        super().span(s)

    def event(self, e) -> None:
        self.whole += 1
        super().event(e)


@given(steps=_STEPS)
# A finalize recorded after its visible at the same instant.
@example(steps=[step("acquire"), step("plan"), step("visible"),
                step("finalize", dt=0.0)])
# A second acquire and a second finalize of one task.
@example(steps=[step("acquire"), step("finalize"),
                step("acquire", mode="reentrant"), step("finalize"),
                step("visible")])
# Two locations finalize one epoch.
@example(steps=[step("acquire"), step("finalize", loc=SRC),
                step("finalize", loc=DST), step("visible")])
# Zero and non-int fences.
@example(steps=[step("acquire"), step("finalize", fence=0), step("visible"),
                step("acquire", task=_TASK_IDS[1]),
                step("finalize", task=_TASK_IDS[1], fence=1.0),
                step("visible", task=_TASK_IDS[1])])
# A detection, then an unverified put.
@example(steps=[step("acquire"), step("corrupt-detected"),
                step("finalize", ok=False), step("visible")])
# An acquire with no int fence, then another acquire of that lock: the
# second is a lock-order finding, not a TypeError.
@example(steps=[step("acquire", fence=None),
                step("acquire", mode="reentrant", fence=None),
                step("acquire", task=_TASK_IDS[1], mode="takeover",
                     fence=1.0),
                step("acquire", task=_TASK_IDS[1], mode="reentrant",
                     fence=1.0)])
# A put finalize built from keywords, whose keys are not the schema's.
@example(steps=[step("acquire"), step("verify"),
                step("finalize", form="keywords"), step("visible"),
                step("release", form="keywords")])
@settings(max_examples=300, deadline=None)
def test_the_compact_index_reports_what_the_record_index_did(steps):
    """The reference index fed whole records, the compact index fed whole
    records (records kept) and the compact index fed as the tracer feeds
    it by default (records with a declared schema by position, the rest
    whole) give one report and one integrity summary."""
    reports, fed = [], _WholeCounted()
    for index, checker, keep in ((_RecordIndex(), _RecordChecker, True),
                                 (_Index(), TraceChecker, True),
                                 (fed, TraceChecker, False)):
        tr, _ = bare()
        tr.index = index
        if keep:
            tr.keep_records()
        feed(tr, steps)
        report = checker(_Svc(tr, {
            "r1": _Rule(_Bucket({"k": _Obj("e1")})),
            "r2": _Rule(_Bucket())})).check()
        reports.append((report.findings, report.checked,
                        tr.integrity_summary()))
    assert reports[1] == reports[0]
    assert reports[2] == reports[0]
    assert fed.whole == sum(s["form"] == "keywords" or
                            s["op"] == "corrupt-detected" for s in steps)


def test_every_lifecycle_record_carries_a_declared_schema():
    """Each record named in ``task.SCHEMAS`` is emitted with one of its
    name's schema tuples itself, or that tuple's tenant-scoped twin, so
    the checker reads it by position.  An emitter with a schema of its
    own would instead make every such record take the whole-record path.
    The chaos soak drill emits every declared schema."""
    with keeping_records():
        tr = run_drill(DRILLS["chaos-soak"], seed=0).service.tracer
    declared = {name: {id(keys) for schema in schemas
                       for keys in (schema, _tenanted(schema))}
                for name, schemas in SCHEMAS.items()}
    seen = {id(r.keys) for r in tr.spans + tr.events if r.name in SCHEMAS}
    odd = sorted({(r.name, r.keys) for r in tr.spans + tr.events
                  if r.name in SCHEMAS and id(r.keys) not in declared[r.name]})
    assert odd == []
    assert seen >= {id(schema) for schemas in SCHEMAS.values()
                    for schema in schemas}


def test_every_per_task_fact_is_keyed_by_the_index_s_one_id_object():
    """Each per-task map, and the cost mirror, keys a task by the object
    the index saw first, not by an equal copy an emission site built."""
    cloud, svc, src, dst, rule = traced_soak(7)
    tr = svc.tracer
    ix = tr.index
    for facts in (ix.acquires, ix.plan_end, ix.finalizes,
                  tr.attributed_cost()):
        assert set(facts) - {None}
        for task in facts:
            assert ix.tasks[task] is task, task
