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

from repro.core import tracing
from repro.core.config import ReplicaConfig
from repro.core.invariants import _EPS, TraceChecker, _Index, _lock_domain
from repro.core.service import AReplicaService
from repro.core.task import (ABORT_KEYS, ACQUIRE_KEYS, ACTUATE_KEYS,
                             COMPLETE_KEYS, CORDON_KEYS, CORDONED_ADMISSIONS,
                             CORRUPT_KEYS, DELETE_KEYS, DISPATCH_KEYS,
                             DONE_KEYS, FINALIZE_KEYS, HEDGE_RESOLVED_KEYS,
                             HEDGE_START_KEYS, LIFECYCLE, LOST_KEYS,
                             PARK_KEYS, PLAN_KEYS, QUARANTINE_KEYS,
                             RECOVERY_FACTS, REFUSED_KEYS, RELEASE_KEYS,
                             ROUTE_KEYS, SCHEMAS, VERIFY_KEYS, VERSION_KEYS,
                             WRITING_KINDS)
from repro.core.tracing import PHASES, Event, Span, Tracer, _tenanted
from repro.drills import DRILLS, run_drill
from repro.simcloud.chaos import ChaosConfig
from repro.simcloud.cloud import build_default_cloud
from repro.simcloud.cost import CostCategory, CostLedger
from repro.simcloud.faas import CHAOS_CORRUPT_KEYS, DEAD_LETTER_KEYS
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
    """The report on a fresh tracer fed the kept spans, then the kept
    events: the order the checker read a finished trace in."""
    tr, offline = svc.tracer, Tracer(_FakeSim())
    for span in tr.spans:
        offline.span(*span)
    for event in tr.events:
        offline.sim.now = event.time
        offline.event(*event[:3], *event[4:])
    online, tr.index = tr.index, offline.index
    try:
        return TraceChecker(svc).check()
    finally:
        tr.index = online


@contextmanager
def counting_records():
    """Count the spans and events the tracer builds in the block."""
    built = {"Span": 0, "Event": 0}

    def counted(cls):
        def build(fields):
            built[cls.__name__] += 1
            return cls(fields)
        return build

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tracing, "Span", counted(Span))
        mp.setattr(tracing, "Event", counted(Event))
        yield built


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
    emit(tr, 5.0, "park", "engine", None, PARK_KEYS, "r", 1, "k")
    emit(tr, 1.0, "drain", "engine", None, ROUTE_KEYS, "r", 1, SRC)
    tr.sim.now = 5.0
    tr.scoped("tB").event("probe", "engine", task, ROUTE_KEYS, "r1", 2, SRC)
    plan_span(tr, "s1", 3.0, 2.0)
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
    scope, for no attributes up to eight.  The names are ones the index
    does not read, so any attributes are legal."""
    tr = Tracer(_FakeSim())
    tr.keep_records()
    tr.sim.now = now
    sink = tr if tenant is None else tr.scoped(tenant)
    keys = tuple(attrs)
    sink.span("attempt", "faas", task, start, start + dur, keys,
              *attrs.values())
    sink.event("part-claim", "pool", task, keys, *attrs.values())
    expected = dict(attrs)
    if tenant is not None:
        expected.setdefault("tenant", tenant)
    span, event = tr.spans[-1], tr.events[-1]
    assert (span.name, span.cat, span.task, span.start, span.end) == \
        ("attempt", "faas", task, start, start + dur)
    assert (event.name, event.cat, event.task, event.time) == \
        ("part-claim", "pool", task, now)
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
    def __init__(self, dst, tenant=None):
        self.dst_bucket = dst
        self.tenant = tenant


class _Svc:
    def __init__(self, tracer, rules=None):
        self.tracer = tracer
        self.rules = rules or {}


def bare():
    tr = Tracer(_FakeSim())
    return tr, _Svc(tr)


def emit(tr, t, name, cat, task, keys=(), *values):
    tr.sim.now = t
    tr.event(name, cat, task, keys, *values)


def acquire(tr, t, key, owner, fence, mode):
    emit(tr, t, "lock-acquire", "lock", owner, ACQUIRE_KEYS,
         key, owner, fence, mode)


def release(tr, t, key, owner, released, fence=0):
    if released:
        emit(tr, t, "lock-release", "lock", owner, RELEASE_KEYS,
             key, owner, True, fence)
    else:
        emit(tr, t, "lock-release", "lock", owner, REFUSED_KEYS,
             key, owner, False)


def finalize(tr, t, task, key, fence, op="put", etag="e1", seq=1,
             verified=True, loc=None):
    if op == "put":
        emit(tr, t, "finalize", "engine", task, FINALIZE_KEYS,
             key, seq, etag, fence, op, loc, verified)
    else:
        emit(tr, t, "finalize", "engine", task, DELETE_KEYS,
             key, seq, etag, fence, op, loc)


def visible(tr, t, task, key, kind="created", seq=1):
    emit(tr, t, "visible", "engine", task, VERSION_KEYS, key, seq, kind)


def plan_span(tr, task, start, end):
    tr.span("plan", "engine", task, start, end, PLAN_KEYS,
            1, SRC, True, True, 0.5)


def kinds(report):
    return {f.kind for f in report.findings}


class TestSyntheticViolations:
    def test_span_closing_before_it_opens(self):
        tr, svc = bare()
        plan_span(tr, "t1", 5.0, 4.0)
        assert kinds(TraceChecker(svc).check()) == {"clock"}

    def test_records_out_of_clock_order(self):
        tr, svc = bare()
        plan_span(tr, "t1", 0.0, 5.0)
        plan_span(tr, "t2", 1.0, 2.0)
        emit(tr, 5.0, "park", "engine", None, PARK_KEYS, "r", 1, "k")
        emit(tr, 1.0, "drain", "engine", None, ROUTE_KEYS, "r", 1, SRC)
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
        plan_span(tr, "tA", 3.0, 4.0)
        visible(tr, 5.0, "tA", "k")
        assert "lifecycle" in kinds(TraceChecker(svc).check())

    def test_parked_entry_never_drained(self):
        tr, svc = bare()
        emit(tr, 0.0, "park", "engine", None, PARK_KEYS, "r", 9, "k")
        report = TraceChecker(svc).check()
        assert kinds(report) == {"park-leak"}
        assert report.checked["parked"] == 1

    def test_drain_of_an_entry_never_parked(self):
        tr, svc = bare()
        emit(tr, 0.0, "drain", "engine", None, ROUTE_KEYS, "r", 9, SRC)
        assert kinds(TraceChecker(svc).check()) == {"park-leak"}

    def test_double_drain(self):
        tr, svc = bare()
        emit(tr, 0.0, "park", "engine", None, PARK_KEYS, "r", 9, "k")
        emit(tr, 1.0, "drain", "engine", None, ROUTE_KEYS, "r", 9, SRC)
        emit(tr, 2.0, "drain", "engine", None, ROUTE_KEYS, "r", 9, SRC)
        assert kinds(TraceChecker(svc).check()) == {"park-leak"}

    def test_done_marker_for_a_missing_destination_key(self):
        tr, _ = bare()
        svc = _Svc(tr, {"r": _Rule(_Bucket())})
        emit(tr, 0.0, "done-marker", "engine", "t1", DONE_KEYS,
             "r", "k", 1, "e1", "put")
        assert kinds(TraceChecker(svc).check()) == {"done-mismatch"}

    def test_done_marker_etag_disagreement(self):
        tr, _ = bare()
        svc = _Svc(tr, {"r": _Rule(_Bucket({"k": _Obj("other")}))})
        emit(tr, 0.0, "done-marker", "engine", "t1", DONE_KEYS,
             "r", "k", 1, "e1", "put")
        assert kinds(TraceChecker(svc).check()) == {"done-mismatch"}

    def test_delete_marker_but_key_survives(self):
        tr, _ = bare()
        svc = _Svc(tr, {"r": _Rule(_Bucket({"k": _Obj("e1")}))})
        emit(tr, 0.0, "done-marker", "engine", "t1", DONE_KEYS,
             "r", "k", 2, "e1", "delete")
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
        emit(tr, 1.0, "corrupt-detected", "engine", "tA", CORRUPT_KEYS,
             "k", "part-get", "payload", 0)
        assert "silent-corruption" in kinds(TraceChecker(svc).check())

    def test_corruption_resolved_by_later_verified_finalize(self):
        tr, svc = bare()
        acquire(tr, 0.0, "k", "tA", 1, "fresh")
        emit(tr, 1.0, "corrupt-detected", "engine", "tA", CORRUPT_KEYS,
             "k", "part-get", "payload", 0)
        finalize(tr, 2.0, "tA", "k", fence=1)
        visible(tr, 3.0, "tA", "k")
        release(tr, 4.0, "k", "tA", released=True, fence=1)
        report = TraceChecker(svc).check()
        assert report.clean, report.render()
        assert report.checked["corruption_detections"] == 1

    def test_corruption_surfaced_by_quarantine_is_not_silent(self):
        tr, svc = bare()
        emit(tr, 1.0, "corrupt-detected", "engine", "tA", CORRUPT_KEYS,
             "k", "part-get", "payload", 0)
        emit(tr, 2.0, "quarantine", "engine", "tA", QUARANTINE_KEYS,
             "k", "part-get", 0)
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
        plan_span(tr, "tA", 0.2, 0.5)
        ledger.charge(CostCategory.EGRESS, 0.25, task="tA")
        finalize(tr, 1.0, "tA", "k", fence=1)
        emit(tr, 1.1, "done-marker", "engine", "tA", DONE_KEYS,
             "r", "k", 1, "e1", "put")
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
# one feed: the answers the whole-record index gave
# ---------------------------------------------------------------------------

#: The names the whole-record index read through the compact handlers.
_BY_HANDLER = frozenset({"plan", "verify", "lock-acquire", "lock-release",
                         "finalize", "visible", "done-marker"})
#: ``Tracer.integrity_summary()``'s counter per event name.
_TALLIED = {"chaos-corrupt": "injected", "corrupt-detected": "detected",
            "quarantine": "quarantined"}


def _in_order(rec, schema: tuple) -> tuple:
    """``rec``'s values, read by name, in ``schema``'s order."""
    return tuple(map(rec.get, schema))


class _RecordIndex(_Index):
    """The reference: the index fed whole records and reading them by
    name, as it was before every record went by position.  It keeps
    the per-task facts as whole records too — every acquire time in a
    list; every finalize, destination-writing visible, newest done
    marker per key, admission inside a cordon and actuation as its
    record — which :class:`_RecordChecker` reads.  The compact forms it
    also holds are read only where the two agree by construction."""

    def __init__(self):
        super().__init__()
        self.acquire_lists, self.finalize_records = {}, {}
        self.write_records, self.done_records = [], {}
        self.admission_records, self.actuation_records = [], []

    def feed(self, tr: Tracer) -> "_RecordIndex":
        """Read ``tr``'s kept spans, then its kept events."""
        for span in tr.spans:
            self.span(span)
        for event in tr.events:
            self.event(event)
        return self

    def span(self, s) -> None:
        name, cat, task, start, end, keys = s[:6]
        self.n_spans += 1
        task = self.tasks.setdefault(task, task)
        if end < start - _EPS:
            self.flag("clock", "clock", task or name,
                      f"span {name} closes before it opens "
                      f"({start:.6f} -> {end:.6f})")
        if end < self.last_span - _EPS:
            self.flag("clock", "clock", task or name,
                      f"span {name} recorded out of clock order")
        if end > self.last_span:
            self.last_span = end
        if name in _BY_HANDLER:
            self.readers[name](task, end, _in_order(s, SCHEMAS[name][0]))
        elif cat == "autopilot":
            self.actuation_records.append(s)
        if "tenant" in keys:
            self.record_claim(s, self.span_claims)

    def event(self, e) -> None:
        name, cat, task, t, keys = e[:5]
        self.n_events += 1
        task = self.tasks.setdefault(task, task)
        if t < self.last_event - _EPS:
            self.flag("event-clock", "clock", task or name,
                      f"event {name} recorded out of clock order")
        elif t > self.last_event:
            self.last_event = t
        if name in _BY_HANDLER:
            self.readers[name](task, t, _in_order(e, SCHEMAS[name][0]))
        elif name in ("cordon", "uncordon"):
            ref, windows = (e.get("substrate"), e.get("region")), self.windows
            if name == "cordon":
                windows.setdefault(ref, []).append([t, math.inf])
            elif windows.get(ref) and windows[ref][-1][1] == math.inf:
                windows[ref][-1][1] = t
        elif name == "part-complete" and e.get("first") and task is not None:
            ref = (task, e.get("idx"))
            self.first_writers[ref] = self.first_writers.get(ref, 0) + 1
        elif name == "corrupt-detected" and task is not None:
            self.detections += 1
            self.last_corrupt[task] = max(
                self.last_corrupt.get(task, -math.inf), t)
        elif name == "park":
            self.parked[(e.get("rule"), e.get("backlog_id"))] = \
                e.get("key", "?")
        elif name == "drain":
            ref = (e.get("rule"), e.get("backlog_id"))
            if ref in self.drained:
                self.flag("backlog", "park-leak", str(ref[1]),
                          "backlog entry drained twice")
            if ref not in self.parked:
                self.flag("backlog", "park-leak", str(ref[1]),
                          "drain of a backlog entry never parked")
            self.drained.add(ref)
        elif name == "hedge-start":
            self.hedges[(task, e.get("part"), e.get("seq"))] = t
        elif name == "hedge-resolved":
            ref = (task, e.get("part"), e.get("seq"))
            self.resolved[ref] = self.resolved.get(ref, 0) + 1
            outcome = e.get("outcome")
            if outcome not in ("won", "lost", "cancelled"):
                self.flag("hedges", "hedge-outcome", str(task),
                          f"hedge of part {ref[1]} seq {ref[2]} resolved "
                          f"with invalid outcome {outcome!r}")
            if ref not in self.hedges:
                self.flag("hedges", "hedge-unresolved", str(task),
                          f"hedge of part {ref[1]} seq {ref[2]} resolved "
                          f"but never started")
        if name in _TALLIED:
            self.integrity[_TALLIED[name]] += 1
        if name in RECOVERY_FACTS and task is not None:
            self.surfaced.add(task)
        if name in CORDONED_ADMISSIONS and self.windows and any(
                start + _EPS < t < end - _EPS for start, end in
                self.windows.get(("faas", e.get("region")), ())):
            self.admission_records.append(e)
        if "tenant" in keys:
            self.record_claim(e, self.event_claims)
        if cat == "lock" and name == "lock-acquire":
            self.acquire_lists.setdefault(e.get("owner"), []).append(t)
        elif cat != "engine":
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

    def record_claim(self, rec, claims: list) -> None:
        tenant = rec.get("tenant")
        if tenant is None:
            return
        subjects = (rec.task,) if rec.task is not None else ()
        owner = rec.get("owner")
        if isinstance(owner, str) and ":" in owner:
            subjects += (owner,)
        claims.append((rec.name, subjects, tenant))


class _RecordChecker(TraceChecker):
    """The checks that read per-task facts, admissions and actuations,
    as they read records."""

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



    def _cordons(self, ix, checked, flag) -> None:
        faas = {region: w for (substrate, region), w in ix.windows.items()
                if substrate == "faas"}
        checked["cordon_windows"] = sum(len(w) for w in faas.values())
        for e in ix.admission_records:
            region = e.get("region")
            for start, end in faas.get(region, ()):
                if start + _EPS < e.time < end - _EPS:
                    flag("cordons", "cordon-violation", e.task or "?",
                         f"{e.name} admitted into cordoned faas region "
                         f"{region!r} at t={e.time:.3f} (window "
                         f"[{start:.3f}, {end:.3f}))")
                    break

    def _autopilot(self, ix, checked, flag) -> None:
        acts = ix.actuation_records
        checked["autopilot_actuations"] = len(acts)
        last_by_knob: dict[str, float] = {}
        for s in acts:
            knob, lo, hi = s.get("knob", "?"), s.get("lo"), s.get("hi")
            for label in ("old", "new"):
                value = s.get(label)
                if value is None or lo is None or hi is None or \
                        lo - _EPS <= value <= hi + _EPS:
                    continue
                flag("autopilot", "autopilot-bounds", knob,
                     f"actuation at t={s.start:.3f} has {label} value "
                     f"{value!r} outside declared [{lo}, {hi}]")
            cooldown = s.get("cooldown_s", 0.0)
            prev = last_by_knob.get(knob)
            if prev is not None and s.start - prev < cooldown - _EPS:
                flag("autopilot", "autopilot-cooldown", knob,
                     f"actuations at t={prev:.3f} and t={s.start:.3f} "
                     f"violate the {cooldown:g}s cooldown")
            last_by_knob[knob] = s.start
        for s in acts:
            for ref, windows in ix.windows.items():
                hit = next((w for w in windows
                            if w[0] + _EPS < s.start < w[1] - _EPS), None)
                if hit is not None:
                    flag("autopilot", "autopilot-cordon",
                         s.get("knob", "?"),
                         f"actuation at t={s.start:.3f} inside cordon "
                         f"window [{hit[0]:.3f}, {hit[1]:.3f}) on "
                         f"{ref[1]!r}")
                    break


_TASK_IDS = ("r1:k:1:created", "r1:k:2:created", "r2:j:1:deleted", "tA")
#: The records every task emits, and the rest the index reads.
_LIFECYCLE_OPS = ("acquire", "release", "plan", "finalize", "visible",
                  "done-marker", "verify", "corrupt-detected")
_OTHER_OPS = ("actuate", "cordon", "uncordon", "dispatch", "probe", "park",
              "drain", "part-complete", "hedge-start", "hedge-resolved",
              "chaos-corrupt", "quarantine", "abort", "retrigger",
              "lock-lost", "dead-letter")


def step(op, task=_TASK_IDS[0], key="k", dt=1.0, fence=1, mode="fresh",
         seq=1, etag="e1", write="put", ok=True, loc=SRC, kind="created",
         tenant=None, substrate="faas", outcome="won"):
    """One record of a synthetic stream, ``dt`` after the one before."""
    return dict(locals())


_STEPS = st.lists(st.builds(
    step, op=st.one_of(st.sampled_from(_LIFECYCLE_OPS),
                       st.sampled_from(_OTHER_OPS)),
    task=st.sampled_from(_TASK_IDS),
    key=st.sampled_from(("k", "j")), dt=st.sampled_from((0.0, 0.0, 0.5, 1.0)),
    fence=st.sampled_from((1, 2, 3, 0, None, 1.0, "1")),
    mode=st.sampled_from(("fresh", "reentrant", "takeover")),
    seq=st.integers(1, 3), etag=st.sampled_from(("e1", "e2")),
    write=st.sampled_from(("put", "delete")), ok=st.booleans(),
    loc=st.sampled_from((None, SRC, DST)),
    kind=st.sampled_from(("created", "deleted", "already-replicated")),
    tenant=st.sampled_from((None, None, "tA", "tB")),
    substrate=st.sampled_from(("faas", "faas", "kv")),
    outcome=st.sampled_from(("won", "lost", "cancelled", "late"))),
    max_size=40)


def feed(tr, steps) -> None:
    """Emit ``steps``, each record naming its task by a fresh but equal
    string, as separate emission sites do, with one of its name's
    declared schemas (``task.SCHEMAS``), through a tenant scope when the
    step names one."""
    for s in steps:
        tr.sim.now += s["dt"]
        t, key, task, op = tr.sim.now, s["key"], s["task"], s["op"]
        tid, owner = task[:1] + task[1:], task[:1] + task[1:]
        fence, seq, etag, loc = s["fence"], s["seq"], s["etag"], s["loc"]
        rule = task.split(":")[0]
        name, cat = {"acquire": ("lock-acquire", "lock"),
                     "release": ("lock-release", "lock"),
                     "actuate": ("actuate", "autopilot"),
                     "cordon": ("cordon", "lifecycle"),
                     "uncordon": ("uncordon", "lifecycle")}.get(
                         op, (op, "engine"))
        if op == "acquire":
            keys, values = ACQUIRE_KEYS, (key, owner, fence, s["mode"])
        elif op == "release" and s["ok"]:
            keys, values = RELEASE_KEYS, (key, owner, True, fence)
        elif op == "release":
            keys, values = REFUSED_KEYS, (key, owner, False)
        elif op == "plan":
            keys, values = PLAN_KEYS, (1, loc, True, True, 0.5)
        elif op == "verify":
            keys, values = VERIFY_KEYS, (key, etag, "e1", etag == "e1")
        elif op == "finalize" and s["write"] == "delete":
            keys, values = DELETE_KEYS, (key, seq, etag, fence, "delete",
                                         loc)
        elif op == "finalize":
            keys, values = FINALIZE_KEYS, (key, seq, etag, fence, "put",
                                           loc, s["ok"])
        elif op in ("visible", "retrigger"):
            keys, values = VERSION_KEYS, (key, seq, s["kind"])
        elif op == "done-marker":
            tid, keys, values = None, DONE_KEYS, (rule, key, seq, etag,
                                                  s["write"])
        elif op == "actuate":
            tid, keys, values = None, ACTUATE_KEYS, (
                key, 2.0, float(seq), 1.0, 2.0, 1.5, 0.0, False, "slo")
        elif op in ("cordon", "uncordon"):
            tid, keys, values = None, CORDON_KEYS, (rule, s["substrate"],
                                                    loc)
        elif op == "dispatch":
            keys, values = DISPATCH_KEYS, (rule, loc)
        elif op == "park":
            keys, values = PARK_KEYS, (rule, seq, key)
        elif op in ("probe", "drain"):
            keys, values = ROUTE_KEYS, (rule, seq, loc)
        elif op == "part-complete":
            keys, values = COMPLETE_KEYS, (seq, s["ok"], False)
        elif op == "hedge-start":
            keys, values = HEDGE_START_KEYS, (key, seq, 0, 1.0, 2.0)
        elif op == "hedge-resolved":
            keys, values = HEDGE_RESOLVED_KEYS, (key, seq, 0, s["outcome"])
        elif op == "chaos-corrupt":
            keys, values = CHAOS_CORRUPT_KEYS, ("get", 1024, loc)
        elif op == "quarantine":
            keys, values = QUARANTINE_KEYS, (key, "part-get", 0)
        elif op == "abort":
            keys, values = ABORT_KEYS, (key, etag)
        elif op == "lock-lost":
            keys, values = LOST_KEYS, (key,)
        elif op == "dead-letter":
            keys, values = DEAD_LETTER_KEYS, ("orch", loc, "boom", "failed")
        else:
            keys, values = CORRUPT_KEYS, (key, "part-get", "payload", 0)
        sink = tr if s["tenant"] is None else tr.scoped(s["tenant"])
        if op in ("plan", "verify"):
            sink.span(name, cat, tid, t - 0.25, t, keys, *values)
        elif op == "actuate":
            sink.span(name, cat, tid, t, t, keys, *values)
        else:
            sink.event(name, cat, tid, keys, *values)


#: The index's facts that the reference holds in the same form.
_SHARED_FACTS = ("acquires", "plan_end", "finalizes", "last_corrupt",
                 "surfaced", "span_claims", "event_claims", "windows",
                 "writes", "parked", "drained", "done", "hedges",
                 "resolved", "first_writers", "holders", "high_fences")


def _report(checker, tr):
    """What one checker reports on ``tr``'s index, and its integrity
    summary."""
    report = checker(_Svc(tr, {
        "r1": _Rule(_Bucket({"k": _Obj("e1")}), tenant="tA"),
        "r2": _Rule(_Bucket())})).check()
    return report.findings, report.checked, tr.integrity_summary()


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
# Tenant-scoped lock and finalize records; the delete finalize's seventh
# value is its tenant, not a verdict.
@example(steps=[step("acquire", tenant="tB"), step("verify", tenant="tA"),
                step("finalize", write="delete", tenant="tB"),
                step("visible", kind="deleted", tenant="tA"),
                step("release", tenant="tB")])
# Admissions and an actuation inside cordon windows, a cooldown and a
# bound broken, a park drained twice.
@example(steps=[step("cordon"), step("dispatch"), step("park"),
                step("drain"), step("probe"), step("drain", dt=0.5),
                step("uncordon"), step("cordon", substrate="kv"),
                step("actuate"), step("actuate", seq=3, dt=0.5)])
# Hedges resolved twice, with a bad outcome and never started; a part
# with two first writers.
@example(steps=[step("hedge-start"), step("hedge-resolved"),
                step("hedge-resolved", outcome="late"),
                step("hedge-resolved", seq=2), step("part-complete"),
                step("part-complete", task=_TASK_IDS[2])])
@settings(max_examples=300, deadline=None)
def test_the_compact_index_reports_what_the_record_index_did(steps):
    """The reference index fed the kept records by name, and the index
    the tracer feeds by position — with records kept and without — give
    one report and one integrity summary; without ``keep_records()`` the
    tracer builds no record."""
    kept, _ = bare()
    kept.keep_records()
    feed(kept, steps)
    live = _report(TraceChecker, kept)
    unkept, _ = bare()
    with counting_records() as built:
        feed(unkept, steps)
    assert built == {"Span": 0, "Event": 0}
    assert _report(TraceChecker, unkept) == live
    fed, kept.index = kept.index, _RecordIndex().feed(kept)
    assert _report(_RecordChecker, kept) == live
    # The facts both forms hold alike, so a difference no check reads
    # yet shows too.
    assert {f: getattr(kept.index, f) for f in _SHARED_FACTS} == \
        {f: getattr(fed, f) for f in _SHARED_FACTS}


#: Every record the index reads, with its schemas: ``task.SCHEMAS``,
#: and ``task.SUBSTRATE_READS`` with the schemas ``simcloud/faas.py``
#: keeps beside their emitter.
_DECLARED = {**SCHEMAS, "chaos-corrupt": (CHAOS_CORRUPT_KEYS,),
             "dead-letter": (DEAD_LETTER_KEYS,)}

#: A value per attribute name, for feeding any declared schema.
_VALUES = {"region": SRC, "substrate": "faas", "owner": _TASK_IDS[0],
           "mode": "fresh", "op": "put", "outcome": "won"}


def test_the_vocabulary_names_the_handlers_that_act_on_it():
    """``task.RECOVERY_FACTS`` names exactly the records whose handler
    hands the task to recovery, and ``task.CORDONED_ADMISSIONS`` exactly
    those whose handler holds an admission into an open FaaS cordon."""
    assert set(_Index().readers) == set(_DECLARED)
    surfacing, admitting = set(), set()
    for name, schemas in _DECLARED.items():
        ix = _Index()
        ix.windows[("faas", SRC)] = [[0.0, math.inf]]
        task = ix.tasks.setdefault(_TASK_IDS[0], _TASK_IDS[0])
        ix.readers[name](task, 1.0, tuple(_VALUES.get(key, 1)
                                          for key in schemas[0]))
        if task in ix.surfaced:
            surfacing.add(name)
        if ix.admissions:
            admitting.add(name)
    assert surfacing == RECOVERY_FACTS
    assert admitting == CORDONED_ADMISSIONS


#: The drills that emit, between them, every record the index reads.
_SCHEMA_DRILLS = ("chaos-soak", "outage-drill", "corruption-drill",
                  "hedge-drill", "lifecycle-evacuate", "tenant-drill",
                  "autopilot-drill")


def test_every_lifecycle_record_carries_a_declared_schema():
    """Each record the index reads is emitted with one of its name's
    schema tuples itself, or that tuple's tenant-scoped twin, so the
    checker's handler reads the values it expects where it expects
    them.  Between them the drills emit every read name and every
    declared schema, the shorter of a pair too (a delete finalize, a
    refused release).  Lock and done-marker records are emitted inside
    KV closures, where a handler's ``IndexError`` would surface only as
    a failed KV write, so a schema slip would show as a moved outcome,
    not an error."""
    declared = {name: {id(keys) for schema in schemas
                       for keys in (schema, _tenanted(schema))}
                for name, schemas in _DECLARED.items()}
    odd, seen_names, seen_ids = set(), set(), set()
    for drill in _SCHEMA_DRILLS:
        with keeping_records():
            tr = run_drill(DRILLS[drill], seed=0).service.tracer
        for r in tr.spans + tr.events:
            if r.name in _DECLARED:
                seen_names.add(r.name)
                seen_ids.add(id(r.keys))
                if id(r.keys) not in declared[r.name]:
                    odd.add((drill, r.name, r.keys))
    assert sorted(odd) == []
    assert seen_names == set(_DECLARED)
    assert seen_ids >= {id(schema) for schemas in _DECLARED.values()
                        for schema in schemas}


def test_a_traced_tenant_drill_builds_no_record_unless_kept():
    """Tenant-tagged records go by position too: a traced tenant drill
    without ``keep_records()`` builds no span or event, and reports what
    the same drill reports with its records kept."""
    with counting_records() as built:
        unkept = run_drill(DRILLS["tenant-drill"], seed=0)
    assert built == {"Span": 0, "Event": 0}
    with keeping_records():
        kept = run_drill(DRILLS["tenant-drill"], seed=0)
    assert kept.service.tracer.events
    report = TraceChecker(unkept.service).check()
    assert report.checked["tenant_records"] > 0
    assert report == TraceChecker(kept.service).check()


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
