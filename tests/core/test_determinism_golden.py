"""Golden determinism: seeded runs are bit-reproducible.

The performance work (event-record kernel, zero-delay ring, buffered
RNG sampling, plan/Monte-Carlo caching) must never introduce run-to-run
variation: two simulations built from the same seed have to produce
*identical* replication delays, cost ledgers, and event orderings.
These tests run each scenario twice in-process and compare exactly.
"""

import functools
import hashlib
import itertools
import json
from typing import Optional

import pytest

from repro.core.config import ReplicaConfig
from repro.core.service import AReplicaService
from repro.simcloud import objectstore
from repro.simcloud.chaos import ChaosConfig
from repro.simcloud.cloud import build_default_cloud
from repro.simcloud.objectstore import Blob
from repro.simcloud.sim import Simulator
from repro.traces.ibm_cos import IbmCosTraceGenerator
from repro.traces.replay import TraceReplayer

MB = 1024**2


def _fig12_run(seed: int, tracing: bool = False, keep: bool = True):
    """A distributed replication (Fig 12 shape): one large object split
    across parallel replicator functions, plus chaos-free retries of
    small objects — the full lock/pool/finalize protocol."""
    cloud = build_default_cloud(seed=seed)
    config = ReplicaConfig(slo_seconds=0.0, profile_samples=5, mc_samples=300,
                           tracing_enabled=tracing)
    svc = AReplicaService(cloud, config)
    if tracing and keep:
        svc.tracer.keep_records()
    src = cloud.bucket("aws:us-east-1", "src")
    dst = cloud.bucket("azure:eastus", "dst")
    svc.add_rule(src, dst)
    src.put_object("big", Blob.fresh(768 * MB), cloud.now)
    for i in range(6):
        src.put_object(f"small-{i}", Blob.fresh((i + 1) * 64 * 1024),
                       cloud.now + 0.2 * i)
    cloud.run()
    return cloud, svc


def _fig12_scenario(seed: int):
    cloud, svc = _fig12_run(seed)
    return (
        [ (r.key, r.seq, r.kind, r.event_time, r.visible_time, r.plan_n)
          for r in svc.records ],
        sorted(cloud.ledger.breakdown().items()),
        cloud.now,
    )


def _fig23_run(seed: int, idle: str = "", tracing: bool = False,
               keep: bool = True, chaos: Optional[ChaosConfig] = None):
    """A one-minute slice of the Fig 23 busy-hour replay, with at most
    one optional layer (``idle``) built but never started, under
    ``chaos`` from the first request on if given."""
    gen = IbmCosTraceGenerator(seed=seed)
    batches = gen.generate(60.0)
    cloud = build_default_cloud(seed=seed)
    svc = AReplicaService(cloud, ReplicaConfig(profile_samples=5,
                                               mc_samples=300,
                                               tracing_enabled=tracing))
    if tracing and keep:
        svc.tracer.keep_records()
    if idle == "tenancy":
        # Scheduler + shard router built, zero tenants registered:
        # classic rules must not route through either.
        svc.enable_multitenancy(shards=4, max_concurrent=8)
    src = cloud.bucket("aws:us-east-1", "src")
    dst = cloud.bucket("azure:eastus", "dst")
    rule = svc.add_rule(src, dst)
    if idle == "lifecycle":
        from repro.core.lifecycle import OperationsRunner
        OperationsRunner(svc, rule.rule_id)  # constructed, never scheduled
    if idle == "autopilot":
        from repro.core.autopilot import Autopilot
        Autopilot(svc)  # constructed, never started
    if chaos is not None:
        cloud.apply_chaos(chaos)
    TraceReplayer(cloud, src).replay_all(batches)
    return cloud, svc


def _fig23_slice(seed: int, idle: str = ""):
    cloud, svc = _fig23_run(seed, idle)
    return (
        svc.delays(),
        sorted(cloud.ledger.breakdown().items()),
        svc.pending_count(),
        cloud.now,
    )


class TestSeededReproducibility:
    def test_fig12_scenario_bit_identical(self):
        first = _fig12_scenario(seed=42)
        second = _fig12_scenario(seed=42)
        assert first == second
        records, ledger, _now = first
        assert records, "scenario produced no replications"
        assert any(n and n > 1 for *_rest, n in records), \
            "no distributed plan exercised"

    def test_fig23_slice_bit_identical(self):
        first = _fig23_slice(seed=7)
        second = _fig23_slice(seed=7)
        assert first == second
        delays, ledger, pending, _now = first
        assert delays and pending == 0

    def test_different_seeds_differ(self):
        # Sanity check that the comparisons above can actually fail.
        assert _fig23_slice(seed=7)[0] != _fig23_slice(seed=8)[0]


@functools.cache
def _plain_fig23_slice(seed: int):
    return _fig23_slice(seed)


@pytest.mark.parametrize("idle", ["lifecycle", "tenancy", "autopilot"])
def test_idle_layer_is_byte_invisible(idle):
    """Layer off == layer absent.  A layer that is constructed but never
    started must not shift a single RNG draw, event, timer, or ledger
    entry: runs with and without it are byte-identical across seeds.

    * ``lifecycle``: an OperationsRunner constructed, never scheduled.
    * ``tenancy``: the fair-share scheduler and shard router built with
      no tenants registered; classic rules never route through either,
      so the single-tenant fast path stays one ``is None`` check.
    * ``autopilot``: an ``Autopilot`` constructed, never started (the
      monitor, probes and knob registry are built lazily in
      ``start()``), so ``enable_autopilot=False`` — where nothing is
      even constructed — is byte-invisible a fortiori.
    """
    for seed in (0, 1, 2):
        assert _fig23_slice(seed, idle) == _plain_fig23_slice(seed), \
            f"seed {seed} perturbed"


def _outcome(cloud, svc):
    """What a run produced: every record, the ledger, the pending count
    and the clock."""
    return (
        [(r.key, r.seq, r.kind, r.event_time, r.visible_time, r.plan_n)
         for r in svc.records],
        sorted(cloud.ledger.breakdown().items()),
        svc.pending_count(),
        cloud.now,
    )


#: KV throttling and delays: lock and done-marker records are emitted
#: inside KV update closures, where an error in feeding the trace checker
#: would surface as a failed KV write, not as an exception.
_KV_CHAOS = ChaosConfig(kv_reject_prob=0.1, kv_delay_prob=0.1)


@pytest.mark.parametrize("run, keep", [
    (_fig23_run, True), (_fig12_run, True), (_fig23_run, False),
    (_fig12_run, False), (functools.partial(_fig23_run, chaos=_KV_CHAOS),
                          False)],
    ids=["fig23", "fig12", "fig23-fed", "fig12-fed", "fig23-kv-chaos-fed"])
def test_tracing_only_observes(run, keep):
    """Tracing on == tracing off.  The Tracer records what a run did and
    never selects different code, so the traced run is the measured run:
    the inline small-object path (fig23) and the distributed one (fig12)
    produce the same records, ledger, pending count and clock with
    ``tracing_enabled`` as without it, across seeds — with the records
    kept, and as the benchmark runs it (``-fed``): each record fed to
    the trace checker without being kept, most without being built."""
    for seed in (0, 1, 2):
        plain = _outcome(*run(seed))
        cloud, svc = run(seed, tracing=True, keep=keep)
        assert svc.tracer.index.n_events, "traced run recorded nothing"
        assert bool(svc.tracer.spans) == keep
        assert _outcome(cloud, svc) == plain, f"seed {seed} perturbed"


def _traced_export(seed: int, path):
    """A traced Fig-12-shaped run, exported as Chrome trace JSON."""
    # Blob content ids come from one process-global counter (the only
    # cross-run state in the simulator); resetting it lets two in-process
    # runs mint identical ids.  The counter stays monotonic afterwards,
    # so uniqueness within every later scenario is preserved.
    objectstore._fresh_counter = itertools.count()
    cloud = build_default_cloud(seed=seed)
    config = ReplicaConfig(slo_seconds=0.0, profile_samples=5,
                           mc_samples=300, tracing_enabled=True)
    svc = AReplicaService(cloud, config)
    svc.tracer.keep_records()
    src = cloud.bucket("aws:us-east-1", "src")
    dst = cloud.bucket("azure:eastus", "dst")
    svc.add_rule(src, dst)
    src.put_object("big", Blob.fresh(256 * MB), cloud.now)
    for i in range(4):
        src.put_object(f"small-{i}", Blob.fresh((i + 1) * 64 * 1024),
                       cloud.now + 0.2 * i)
    cloud.run()
    svc.run_to_convergence()
    svc.tracer.export_chrome(str(path))
    return path.read_bytes()


#: sha256 of the seed-42 export.  It pins the bytes across commits, so a
#: change to how records are stored cannot alter what is exported; only
#: a change meant to alter the trace may regenerate it.
GOLDEN_EXPORT_SHA256 = (
    "1abbe2f075af6fb66e530a5ba0b9cbf121eddc7aca2099cee74b7b7070fc4021")


class TestGoldenTraceExport:
    def test_traced_run_exports_byte_identical_json(self, tmp_path):
        first = _traced_export(42, tmp_path / "a.json")
        second = _traced_export(42, tmp_path / "b.json")
        assert first == second
        assert hashlib.sha256(first).hexdigest() == GOLDEN_EXPORT_SHA256
        events = json.loads(first)["traceEvents"]
        assert events, "export carries no events"
        assert {e["ph"] for e in events} <= {"M", "X", "i"}
        phases = {e["name"] for e in events if e.get("cat") == "phase"}
        assert {"N", "I", "D", "S", "C"} <= phases

    def test_different_seeds_export_differently(self, tmp_path):
        # Sanity check that the byte comparison above can actually fail.
        assert _traced_export(42, tmp_path / "a.json") != \
            _traced_export(43, tmp_path / "b.json")


class TestKernelOrderingDeterminism:
    def test_same_timestamp_events_fire_in_schedule_order(self):
        def trace():
            sim = Simulator()
            order = []
            for i in range(50):
                sim.call_at(1.0, lambda i=i: order.append(("timer", i)))
            def proc(i):
                yield sim.sleep(1.0)
                order.append(("proc", i))
            for i in range(50):
                sim.spawn(proc(i))
            sim.run()
            return order

        first = trace()
        assert first == trace()
        # Within one timestamp the firing order is the scheduling order.
        assert first == sorted(first, key=lambda e: (e[0] != "timer", e[1]))
