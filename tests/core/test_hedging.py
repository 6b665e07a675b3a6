"""Speculative straggler cloning (hedging) suites.

Covers the hedged-part race end to end (clones fired, first-writer-wins
settlement, every hedge resolved, cost charged to the dedicated ledger
line), the fail-safe direction of the deadline signal (no/NaN signal
means *never hedge*), the determinism contract (hedging off leaves
seeded runs byte-identical and fires nothing), the part-pool ownership
fixes that the hedged race leans on (leased ``try_reclaim`` rewins,
idempotent quarantine marking), and a seeded chaos-storm property: with
hedging on, storms at seeds 0-2 converge with the audit, trace oracle,
and deep scrub all clean.
"""

import contextlib
import itertools
import json

import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from repro.analysis.stats import percentile
from repro.core import hedging
from repro.core.audit import ReplicationAuditor
from repro.core.config import ReplicaConfig
from repro.core.invariants import TraceChecker
from repro.core.partpool import PartPool
from repro.core.repair import AntiEntropyScanner
from repro.core.service import AReplicaService
from repro.simcloud import objectstore
from repro.simcloud.chaos import ChaosConfig
from repro.simcloud.cloud import build_default_cloud
from repro.simcloud.monitoring import TimeSeries
from repro.traces.ibm_cos import IbmCosTraceGenerator
from repro.traces.replay import TraceReplayer

pytestmark = pytest.mark.hedge

MB = 1024**2

#: The aggressive hedging profile these tests and the engine golden
#: run (the hedge drill and the benchmark's storm use the default hedge
#: knobs): clone anything that overruns the windowed P90, up to twice
#: per part, parts of any size included (see hedge_every_part).
HEDGE_KNOBS = dict(hedging_enabled=True, hedge_deadline_quantile=0.9,
                   max_clones_per_part=2)


@contextlib.contextmanager
def hedge_every_part():
    """Lower ``hedging.HEDGE_MIN_PART_BYTES`` to one byte for the block:
    the rest of the HEDGE_KNOBS profile."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hedging, "HEDGE_MIN_PART_BYTES", 1)
        yield


@pytest.fixture(autouse=True, scope="module")
def _hedge_every_part():
    with hedge_every_part():
        yield


def _service(seed: int, tracing: bool = False, **config_kwargs):
    cloud = build_default_cloud(seed=seed)
    svc = AReplicaService(cloud, ReplicaConfig(**{
        "profile_samples": 5, "tracing_enabled": tracing, **config_kwargs}))
    if tracing:
        svc.tracer.keep_records()
    src = cloud.bucket("aws:us-east-1", "src")
    dst = cloud.bucket("azure:eastus", "dst")
    rule = svc.add_rule(src, dst)
    return cloud, svc, src, rule


def _stalled_replay(cloud, svc, src, seed: int, requests: int,
                    wan_stall_prob: float = 0.15, **chaos_kwargs):
    """Replay a seeded busy-hour segment under WAN stalls, then drain."""
    cloud.apply_chaos(ChaosConfig(wan_stall_prob=wan_stall_prob,
                                  **chaos_kwargs))
    trace = IbmCosTraceGenerator(seed=seed).busy_hour(
        total_requests=requests)
    TraceReplayer(cloud, src).replay_all(trace)
    cloud.apply_chaos(None)
    return svc.run_to_convergence()


# -- part-pool ownership (the primitives the hedged race settles on) ---------


class TestTryReclaimOwnership:
    def test_same_owner_rewin_requires_lease_expiry(self):
        """Regression: the old unconditional same-owner re-entrancy
        clause let a superseded former owner win a reclaim back while
        the incumbent lease was live, racing two writers on one part.
        A rewin — same owner or not — must wait out the lease."""
        cloud = build_default_cloud(seed=9)
        table = cloud.kv_table("aws:us-east-1", "state")
        pool = PartPool(table, "t", 3)

        def main():
            sim = cloud.sim
            yield sim.timeout_at(100.0)
            first = yield from pool.try_reclaim(0, "w0", lease_s=60.0)
            yield sim.timeout_at(130.0)
            same_owner_live = yield from pool.try_reclaim(0, "w0",
                                                          lease_s=60.0)
            other_owner_live = yield from pool.try_reclaim(0, "w1",
                                                           lease_s=60.0)
            yield sim.timeout_at(161.0)
            after_expiry = yield from pool.try_reclaim(0, "w1", lease_s=60.0)
            return first, same_owner_live, other_owner_live, after_expiry

        assert cloud.sim.run_process(main()) == (True, False, False, True)

    def test_quarantine_marking_is_idempotent_per_part(self):
        """A hedged clone and its primary can both burn the retransfer
        budget on the same poisoned range; exactly one marker counts."""
        cloud = build_default_cloud(seed=9)
        table = cloud.kv_table("aws:us-east-1", "state")
        pool = PartPool(table, "t", 4)

        def main():
            yield from pool.create()
            primary = yield from pool.mark_quarantined(2)
            clone = yield from pool.mark_quarantined(2)
            retry = yield from pool.mark_quarantined(2)
            listed = yield from pool.quarantined_parts()
            return primary, clone, retry, listed

        assert cloud.sim.run_process(main()) == (True, False, False, [2])


# -- deadline signal fail-safe ------------------------------------------------


class TestHedgeDeadlineFailsafe:
    def test_empty_percentile_is_nan_and_window_maps_it_to_none(self):
        # The raw percentile of nothing is NaN — and NaN compares False
        # in every direction, so it must never reach the overrun check.
        # The windowed accessor owns the translation to the explicit
        # None sentinel.
        assert percentile([], 0.95) != percentile([], 0.95)  # NaN
        assert TimeSeries("cold").window_percentile(0.95, 300.0, 0.0) is None

    def test_cold_engine_has_no_deadline(self):
        _, _, _, rule = _service(0, **HEDGE_KNOBS)
        assert rule.engine.hedger.deadline(1000.0) is None

    def test_below_min_samples_has_no_deadline(self):
        assert hedging.HEDGE_MIN_SAMPLES == 8
        _, _, _, rule = _service(0, **HEDGE_KNOBS)
        for i in range(7):
            rule.engine.hedger.samples.record(990.0 + i, 1.0)
        assert rule.engine.hedger.deadline(1000.0) is None
        rule.engine.hedger.samples.record(997.5, 1.0)
        assert rule.engine.hedger.deadline(1000.0) is not None

    def test_aged_out_window_has_no_deadline(self, monkeypatch):
        monkeypatch.setattr(hedging, "HEDGE_MIN_SAMPLES", 4)
        _, _, _, rule = _service(0, **HEDGE_KNOBS)
        for i in range(8):
            rule.engine.hedger.samples.record(float(i), 1.0)
        assert rule.engine.hedger.deadline(10.0) is not None
        assert rule.engine.hedger.deadline(1000.0) is None

    def test_no_deadline_means_never_hedge_end_to_end(self, monkeypatch):
        """Direction assertion: a missing deadline fails *closed*.  An
        unreachable sample floor keeps the sentinel None for the whole
        run — zero clones, even with hedging on and stalls injected."""
        monkeypatch.setattr(hedging, "HEDGE_MIN_SAMPLES", 10**9)
        cloud, svc, src, rule = _service(0, **HEDGE_KNOBS)
        conv = _stalled_replay(cloud, svc, src, seed=0, requests=150)
        assert conv.converged
        assert rule.engine.stats["hedges"] == 0


# -- end-to-end hedged race ---------------------------------------------------


class TestHedgedReplication:
    def test_stalled_replay_hedges_and_accounts(self):
        cloud, svc, src, rule = _service(0, tracing=True, **HEDGE_KNOBS)
        conv = _stalled_replay(cloud, svc, src, seed=0, requests=300)
        assert conv.converged and svc.pending_count() == 0

        stats = rule.engine.stats
        assert stats["hedges"] > 0
        assert stats["hedge_wins"] > 0
        # Every hedge resolves exactly one way.
        assert stats["hedges"] == (stats["hedge_wins"]
                                   + stats["hedge_losses"]
                                   + stats["hedge_cancelled"])

        # The trace narrates the same story the counters tell ...
        starts = [e for e in svc.tracer.events if e.name == "hedge-start"]
        resolved = [e for e in svc.tracer.events if e.name == "hedge-resolved"]
        assert len(starts) == stats["hedges"] == len(resolved)
        outcomes = {e.attrs["outcome"] for e in resolved}
        assert outcomes <= {"won", "lost", "cancelled"}

        # ... the checker's hedge-discipline invariants agree ...
        report = TraceChecker(svc).check()
        assert report.clean, [str(f) for f in report.findings]
        assert report.checked["hedges"] == stats["hedges"]

        # ... and every clone attempt hit the cloning-aware ledger line.
        clones, clone_cost = svc.tracer.category_cost("hedge_clones")
        assert clones == stats["hedges"]
        assert clone_cost > 0

        assert ReplicationAuditor(svc).audit(quiescent=True).clean


# -- determinism contract -----------------------------------------------------


class TestHedgingFrontier:
    """The delay/cost frontier cloning exists for, sim-only and exact."""

    def test_p99_cut_at_least_a_quarter_for_at_most_a_tenth_more_cost(self):
        """Both arms replay the identical seeded 800-request busy-hour
        segment under the identical seeded WAN-stall schedule
        (exponential stalls, the paper's §6 straggler model) and drain
        to convergence; the only difference is the hedging knobs.  The
        hedged arm clones everything that overruns the windowed P90:
        parts are cheap to clone relative to WAN stalls, so that is the
        frontier-optimal policy here.  Recorded, with the module's
        every-part fixture applied: P99 17.15 s -> 4.65 s (72.9 % lower)
        at 1.011x the cost."""
        def arm(**knobs):
            cloud, svc, src, rule = _service(0, profile_samples=8, **knobs)
            _stalled_replay(cloud, svc, src, seed=0, requests=800)
            summary = svc.summary()
            return (summary["delay_p99_s"], summary["total_cost_usd"],
                    rule.engine.stats)

        p99_off, cost_off, _ = arm()
        p99_on, cost_on, stats = arm(**HEDGE_KNOBS)
        assert stats["hedge_wins"] > 0
        assert (p99_off - p99_on) / p99_off >= 0.25, (p99_off, p99_on)
        assert cost_on / cost_off <= 1.10, (cost_off, cost_on)


def _traced_export_bytes(seed: int, path, hedging: bool):
    # Blob content ids come from one process-global counter; reset it so
    # two in-process runs mint identical ids (same trick as the golden
    # determinism suite).
    objectstore._fresh_counter = itertools.count()
    config_kwargs = dict(HEDGE_KNOBS) if hedging else {}
    cloud, svc, src, rule = _service(seed, tracing=True,
                                     mc_samples=300, **config_kwargs)
    trace = IbmCosTraceGenerator(seed=seed).busy_hour(total_requests=120)
    TraceReplayer(cloud, src).replay_all(trace)
    svc.run_to_convergence()
    svc.tracer.export_chrome(str(path))
    return path.read_bytes(), rule.engine.stats


class TestHedgingDeterminismContract:
    def test_hedging_off_is_byte_identical_and_fires_nothing(self, tmp_path):
        first, stats = _traced_export_bytes(13, tmp_path / "a.json",
                                            hedging=False)
        second, _ = _traced_export_bytes(13, tmp_path / "b.json",
                                         hedging=False)
        assert first == second
        assert stats["hedges"] == 0
        events = json.loads(first)["traceEvents"]
        assert not [e for e in events if e["name"].startswith("hedge")]

    def test_hedging_on_is_byte_identical_too(self, tmp_path):
        first, _ = _traced_export_bytes(13, tmp_path / "a.json",
                                        hedging=True)
        second, _ = _traced_export_bytes(13, tmp_path / "b.json",
                                         hedging=True)
        assert first == second


# -- chaos storm --------------------------------------------------------------


@pytest.mark.chaos
class TestHedgedChaosStorm:
    @settings(max_examples=3, deadline=None, phases=[Phase.explicit])
    @given(seed=st.integers(min_value=0, max_value=2))
    @example(seed=0)
    @example(seed=1)
    @example(seed=2)
    def test_storm_converges_checker_clean(self, seed):
        """With cloning live, a full chaos storm (crashes, notification
        mangling, KV throttling, WAN stalls) still converges and every
        oracle — convergence audit, trace invariants (including the
        hedge-discipline and double-finalize checks), deep scrub —
        comes back clean."""
        cloud, svc, src, rule = _service(seed, tracing=True, **HEDGE_KNOBS)
        conv = _stalled_replay(
            cloud, svc, src, seed=seed, requests=350, wan_stall_prob=0.05,
            crash_prob=0.05, notif_drop_prob=0.05, notif_dup_prob=0.05,
            notif_reorder_prob=0.05, kv_reject_prob=0.05, kv_delay_prob=0.05)
        assert conv.converged
        assert svc.pending_count() == 0

        audit = ReplicationAuditor(svc).audit(quiescent=True)
        assert audit.clean, [str(f) for f in audit.findings]

        report = TraceChecker(svc).check()
        assert report.clean, [str(f) for f in report.findings]

        scrub = AntiEntropyScanner(svc).scan(rule, redrive=False, scrub=True)
        assert scrub.clean, [str(f) for f in scrub.findings]

        stats = rule.engine.stats
        assert stats["hedges"] == (stats["hedge_wins"]
                                   + stats["hedge_losses"]
                                   + stats["hedge_cancelled"])
