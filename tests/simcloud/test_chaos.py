"""Unit tests for the cross-substrate fault-injection layer."""

import math

import numpy as np
import pytest

from repro.core import retry
from repro.core.config import ReplicaConfig
from repro.core.service import AReplicaService
from repro.simcloud.chaos import INJECTED_KEYS, ChaosConfig, ChaosDraws
from repro.simcloud.cloud import build_default_cloud
from repro.simcloud.kvstore import Throttled
from repro.simcloud.objectstore import Blob

MB = 1024 * 1024


class TestChaosConfig:
    def test_defaults_are_fully_disabled(self):
        chaos = ChaosConfig()
        assert not chaos.enabled
        assert not chaos.faas_enabled
        assert not chaos.notifications_enabled
        assert not chaos.kv_enabled
        assert not chaos.wan_enabled

    def test_enabled_flags_follow_their_substrate(self):
        assert ChaosConfig(crash_prob=0.1).faas_enabled
        assert ChaosConfig(notif_dup_prob=0.1).notifications_enabled
        assert ChaosConfig(kv_delay_prob=0.1).kv_enabled
        assert ChaosConfig(wan_stall_prob=0.1).wan_enabled
        assert ChaosConfig(wan_blackout_windows=((5.0, 2.0),)).wan_enabled
        chaos = ChaosConfig(notif_drop_prob=0.2)
        assert chaos.enabled and not chaos.kv_enabled

    def test_probabilities_must_leave_room_for_success(self):
        # 1.0 would mean "never delivered / never admitted" and break the
        # at-least-once guarantee, so it is rejected outright.
        with pytest.raises(ValueError):
            ChaosConfig(notif_drop_prob=1.0)
        with pytest.raises(ValueError):
            ChaosConfig(kv_reject_prob=-0.1)
        with pytest.raises(ValueError):
            ChaosConfig(crash_mean_delay_s=-1.0)
        with pytest.raises(ValueError):
            ChaosConfig(wan_blackout_windows=((3.0, 0.0),))

    @pytest.mark.parametrize("kwargs", [
        {"crash_mean_delay_s": math.nan},
        {"crash_mean_delay_s": math.inf},
        {"notif_redelivery_s": math.nan},
        {"notif_dup_lag_s": math.inf},
        {"notif_reorder_spread_s": math.nan},
        {"kv_delay_mean_s": math.nan},
        {"wan_stall_mean_s": math.inf},
        {"wan_blackout_windows": ((math.nan, 5.0),)},
        {"wan_blackout_windows": ((5.0, math.nan),)},
        {"wan_blackout_windows": ((math.inf, 5.0),)},
        {"faas_outages": (("aws:us-east-1", math.nan, 5.0),)},
        {"kv_outages": (("aws:us-east-1", 0.0, math.nan),)},
        {"wan_outages": (("aws:us-east-1", math.inf, 5.0),)},
    ], ids=lambda kwargs: "-".join(f"{k}={v}" for k, v in kwargs.items()))
    def test_non_finite_delays_and_window_bounds_are_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ChaosConfig(**kwargs)

    def test_an_open_ended_outage_is_a_valid_window(self):
        chaos = ChaosConfig(faas_outages=(("aws:us-east-1", 5.0, math.inf),))
        assert chaos.outage_windows("faas", "aws:us-east-1") == \
            ((5.0, math.inf),)
        assert chaos.outage_windows("faas", "azure:eastus") == ()


class TestChaosDraws:
    @pytest.mark.parametrize("block", [1, 7, 128, 256])
    def test_one_kind_of_draw_is_independent_of_the_block(self, block):
        draws = ChaosDraws(np.random.default_rng(3), block=block)
        scalar = np.random.default_rng(3)
        assert [draws.random() for _ in range(600)] == \
            [scalar.random() for _ in range(600)]

    def test_mixed_kinds_make_the_block_part_of_the_schedule(self):
        """The FaaS-crash and WAN streams interleave uniform and
        exponential draws, which refill separate blocks: 256 and 128
        give different fault schedules for one seed."""
        def schedule(block):
            draws = ChaosDraws(np.random.default_rng(0), block=block)
            return [(draws.random(), draws.exponential(2.0))
                    for _ in range(300)]
        wide, narrow = schedule(256), schedule(128)
        assert wide == schedule(256)
        # The first uniform block starts the stream either way; the
        # first exponential block starts 256 or 128 values in.
        assert [u for u, _ in wide[:128]] == [u for u, _ in narrow[:128]]
        assert wide[0][1] != narrow[0][1]


class TestRetryPolicy:
    def test_backoff_grows_then_caps(self, monkeypatch):
        for name, value in (("BASE_S", 0.1), ("MULTIPLIER", 2.0),
                            ("CAP_S", 1.0), ("JITTER", 0.0)):
            monkeypatch.setattr(retry, name, value)
        rng = build_default_cloud(seed=0).rngs.stream("jitter-test")
        raw = [retry.backoff_s(a, rng) for a in range(6)]
        assert raw == sorted(raw)
        assert raw[0] == pytest.approx(0.1)
        assert raw[-1] == pytest.approx(1.0)

    def test_jitter_stays_within_band(self, monkeypatch):
        for name, value in (("BASE_S", 0.2), ("MULTIPLIER", 2.0),
                            ("CAP_S", 5.0), ("JITTER", 0.5)):
            monkeypatch.setattr(retry, name, value)
        rng = build_default_cloud(seed=0).rngs.stream("jitter-test")
        for attempt in range(5):
            raw = retry.nominal_s(attempt)
            for _ in range(20):
                got = retry.backoff_s(attempt, rng)
                assert raw * 0.5 <= got <= raw


class TestKvChaos:
    def test_rejection_is_pre_admission(self):
        """A throttled write must raise without mutating anything."""
        cloud = build_default_cloud(seed=4)
        table = cloud.kv_table("aws:us-east-1", "t")
        table.set_chaos(ChaosConfig(kv_reject_prob=0.95),
                        cloud.rngs.stream("test-kv"))
        outcomes = []

        def writer():
            for i in range(30):
                try:
                    yield table.put_item("x", {"v": i})
                    outcomes.append(("ok", i))
                except Throttled:
                    outcomes.append(("throttled", i))

        cloud.sim.run_process(writer())
        rejected = [i for kind, i in outcomes if kind == "throttled"]
        accepted = [i for kind, i in outcomes if kind == "ok"]
        assert rejected and cloud.chaos_stats()["kv_rejected"] == len(rejected)
        # The stored value reflects only *accepted* writes.
        expected = {"v": accepted[-1]} if accepted else None
        assert table.peek("x") == expected

    def test_reads_are_never_rejected(self):
        cloud = build_default_cloud(seed=4)
        table = cloud.kv_table("aws:us-east-1", "t")
        table.set_chaos(ChaosConfig(kv_reject_prob=0.95),
                        cloud.rngs.stream("test-kv"))

        def reader():
            for _ in range(20):
                yield table.get_item("missing")

        cloud.sim.run_process(reader())
        assert cloud.chaos_stats()["kv_rejected"] == 0

    def test_admission_delay_applies_late_but_applies(self):
        cloud = build_default_cloud(seed=4)
        table = cloud.kv_table("aws:us-east-1", "t")
        table.set_chaos(ChaosConfig(kv_delay_prob=0.95, kv_delay_mean_s=2.0),
                        cloud.rngs.stream("test-kv"))
        times = []

        def writer():
            for i in range(10):
                yield table.put_item(f"k{i}", {"v": i})
                times.append(cloud.sim.now)

        cloud.sim.run_process(writer())
        assert cloud.chaos_stats()["kv_delayed"] > 0
        assert all(table.peek(f"k{i}") == {"v": i} for i in range(10))
        # Delays are real simulated time, far above the baseline latency.
        assert times[-1] > 1.0

    def test_chaos_off_leaves_counters_untouched(self):
        cloud = build_default_cloud(seed=4)
        table = cloud.kv_table("aws:us-east-1", "t")

        def writer():
            yield table.put_item("x", {"v": 1})

        cloud.sim.run_process(writer())
        stats = cloud.chaos_stats()
        assert stats["kv_rejected"] == stats["kv_delayed"] == 0
        assert table.peek("x") == {"v": 1}


class TestNotificationChaos:
    def _deliveries(self, chaos, puts=25, seed=5):
        cloud = build_default_cloud(seed=seed)
        cloud.apply_chaos(chaos)
        src = cloud.bucket("aws:us-east-1", "src")
        seen = []
        cloud.notifications.connect(src, lambda e: seen.append(e.sequencer))
        for i in range(puts):
            src.put_object(f"k{i}", Blob.fresh(64), cloud.now)
        cloud.run()
        return cloud, seen

    def test_drop_means_delayed_redelivery_not_loss(self):
        cloud, seen = self._deliveries(
            ChaosConfig(notif_drop_prob=0.9, notif_redelivery_s=30.0))
        assert len(seen) == 25                       # at-least-once
        assert cloud.chaos_stats()["notifications_dropped"] > 0
        assert cloud.now > 30.0                      # redeliveries took time

    def test_duplicates_inflate_delivery_count(self):
        cloud, seen = self._deliveries(ChaosConfig(notif_dup_prob=0.9))
        duplicated = cloud.chaos_stats()["notifications_duplicated"]
        assert duplicated > 0
        assert len(seen) == 25 + duplicated
        assert set(seen) == set(range(1, 26))

    def test_reordering_scrambles_arrival_order(self):
        cloud, seen = self._deliveries(
            ChaosConfig(notif_reorder_prob=0.9, notif_reorder_spread_s=20.0))
        assert cloud.chaos_stats()["notifications_reordered"] > 0
        assert len(seen) == 25
        assert seen != sorted(seen)


class TestWanChaos:
    def test_blackout_penalty_is_window_remainder(self):
        cloud = build_default_cloud(seed=6)
        fabric = cloud.fabric
        fabric.set_chaos(ChaosConfig(wan_blackout_windows=((10.0, 5.0),)),
                         cloud.rngs.stream("test-wan"))
        assert fabric.chaos_penalty_s(12.0) == pytest.approx(3.0)
        assert fabric.chaos_penalty_s(20.0) == 0.0
        assert cloud.chaos_stats()["wan_blackout_hits"] == 1

    def test_stalls_are_sampled(self):
        cloud = build_default_cloud(seed=6)
        fabric = cloud.fabric
        fabric.set_chaos(ChaosConfig(wan_stall_prob=0.9, wan_stall_mean_s=4.0),
                         cloud.rngs.stream("test-wan"))
        penalties = [fabric.chaos_penalty_s(0.0) for _ in range(30)]
        assert cloud.chaos_stats()["wan_stalls"] > 0
        assert max(penalties) > 0.0


class TestCloudFanout:
    def test_apply_chaos_reaches_existing_and_future_substrates(self):
        cloud = build_default_cloud(seed=7)
        early = cloud.kv_table("aws:us-east-1", "early")
        cloud.apply_chaos(ChaosConfig(crash_prob=0.2, kv_reject_prob=0.2))
        late = cloud.kv_table("aws:us-east-2", "late")
        assert early._chaos is not None and late._chaos is not None
        faas = cloud.faas("aws:us-east-1")
        assert faas._chaos.crash_prob == pytest.approx(0.2)
        # Clearing restores every hot path to its single None check.
        cloud.apply_chaos(None)
        assert early._chaos is None and late._chaos is None
        assert faas._chaos is None
        assert cloud.chaos is None

    def test_all_zero_config_normalizes_to_off(self):
        cloud = build_default_cloud(seed=7)
        cloud.apply_chaos(ChaosConfig())
        assert cloud.chaos is None

    def test_chaos_stats_keys(self):
        cloud = build_default_cloud(seed=7)
        stats = cloud.chaos_stats()
        assert tuple(stats) == INJECTED_KEYS == (
            "faas_crashes", "faas_outage_failures", "notifications_dropped",
            "notifications_duplicated", "notifications_reordered",
            "kv_rejected", "kv_delayed", "kv_outage_rejections",
            "wan_stalls", "wan_blackout_hits", "wan_outage_hits",
            "corrupt_get", "corrupt_put", "corrupt_at_rest",
            "corrupt_truncated", "corrupt_wrong_etag",
        )
        assert all(v == 0 for v in stats.values())


#: The per-substrate ``ChaosConfig.*_enabled`` properties.
SLICES = ("faas_enabled", "notifications_enabled", "kv_enabled",
          "wan_enabled", "corruption_transfer_enabled",
          "corruption_at_rest_enabled")
_BOTH = ("aws:us-east-1", "azure:eastus")
#: When the workload starts: after the rule's path profiling.
T0 = 100.0

#: One fault family installed alone: its config, the ledger keys it may
#: move, and the one substrate slice it enables.
FAMILIES = {
    "crash": (ChaosConfig(crash_prob=0.5, crash_mean_delay_s=0.2),
              {"faas_crashes"}, "faas_enabled"),
    "notif-drop": (ChaosConfig(notif_drop_prob=0.5, notif_redelivery_s=1.0),
                   {"notifications_dropped"}, "notifications_enabled"),
    "notif-dup": (ChaosConfig(notif_dup_prob=0.5),
                  {"notifications_duplicated"}, "notifications_enabled"),
    "notif-reorder": (ChaosConfig(notif_reorder_prob=0.5),
                      {"notifications_reordered"}, "notifications_enabled"),
    "kv-reject": (ChaosConfig(kv_reject_prob=0.3), {"kv_rejected"},
                  "kv_enabled"),
    "kv-delay": (ChaosConfig(kv_delay_prob=0.3), {"kv_delayed"},
                 "kv_enabled"),
    "wan-stall": (ChaosConfig(wan_stall_prob=0.5, wan_stall_mean_s=0.5),
                  {"wan_stalls"}, "wan_enabled"),
    "wan-blackout": (ChaosConfig(wan_blackout_windows=((T0, 5.0),)),
                     {"wan_blackout_hits"}, "wan_enabled"),
    "in-flight-corruption": (
        ChaosConfig(corrupt_get_prob=0.3, corrupt_put_prob=0.3),
        {"corrupt_get", "corrupt_put"}, "corruption_transfer_enabled"),
    "at-rest-corruption": (
        ChaosConfig(corrupt_at_rest_prob=0.2, corrupt_truncate_prob=0.2,
                    corrupt_wrong_etag_prob=0.2),
        {"corrupt_at_rest", "corrupt_truncated", "corrupt_wrong_etag"},
        "corruption_at_rest_enabled"),
    "faas-outage": (
        ChaosConfig(faas_outages=tuple((r, T0, 5.0) for r in _BOTH)),
        {"faas_outage_failures"}, "faas_enabled"),
    "kv-outage": (
        ChaosConfig(kv_outages=tuple((r, T0, 5.0) for r in _BOTH)),
        {"kv_outage_rejections"}, "kv_enabled"),
    "wan-outage": (
        ChaosConfig(wan_outages=tuple((r, T0, 5.0) for r in _BOTH)),
        {"wan_outage_hits"}, "wan_enabled"),
}


class TestInjectedLedger:
    @pytest.mark.parametrize("family", list(FAMILIES))
    def test_each_family_moves_only_its_own_counters(self, family):
        chaos, keys, enabled = FAMILIES[family]
        assert [name for name in SLICES if getattr(chaos, name)] == [enabled]
        cloud = build_default_cloud(seed=11)
        service = AReplicaService(cloud, ReplicaConfig(profile_samples=5,
                                                       mc_samples=300))
        src = cloud.bucket("aws:us-east-1", "src")
        service.add_rule(src, cloud.bucket("azure:eastus", "dst"))
        cloud.run(until=T0)
        cloud.apply_chaos(chaos)
        for i in range(8):
            src.put_object(f"k{i}", Blob.fresh(2 * MB), cloud.now)
        cloud.run()
        stats = cloud.chaos_stats()
        moved = {key for key, count in stats.items() if count}
        assert moved and moved <= keys, moved
        assert cloud.corruption_injected() == (
            stats["corrupt_get"] + stats["corrupt_put"]
            + stats["corrupt_at_rest"] + stats["corrupt_truncated"]
            + stats["corrupt_wrong_etag"])
