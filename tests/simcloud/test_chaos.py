"""Unit tests for the cross-substrate fault-injection layer."""

import numpy as np
import pytest

from repro.core import retry
from repro.simcloud.chaos import ChaosConfig, ChaosDraws
from repro.simcloud.cloud import build_default_cloud
from repro.simcloud.kvstore import Throttled
from repro.simcloud.objectstore import Blob


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
        assert rejected and table.chaos_rejected == len(rejected)
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
        assert table.chaos_rejected == 0

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
        assert table.chaos_delayed > 0
        assert all(table.peek(f"k{i}") == {"v": i} for i in range(10))
        # Delays are real simulated time, far above the baseline latency.
        assert times[-1] > 1.0

    def test_chaos_off_leaves_counters_untouched(self):
        cloud = build_default_cloud(seed=4)
        table = cloud.kv_table("aws:us-east-1", "t")

        def writer():
            yield table.put_item("x", {"v": 1})

        cloud.sim.run_process(writer())
        assert table.chaos_rejected == table.chaos_delayed == 0
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
        assert cloud.notifications.chaos_dropped > 0
        assert cloud.now > 30.0                      # redeliveries took time

    def test_duplicates_inflate_delivery_count(self):
        cloud, seen = self._deliveries(ChaosConfig(notif_dup_prob=0.9))
        assert cloud.notifications.chaos_duplicated > 0
        assert len(seen) == 25 + cloud.notifications.chaos_duplicated
        assert set(seen) == set(range(1, 26))

    def test_reordering_scrambles_arrival_order(self):
        cloud, seen = self._deliveries(
            ChaosConfig(notif_reorder_prob=0.9, notif_reorder_spread_s=20.0))
        assert cloud.notifications.chaos_reordered > 0
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
        assert fabric.chaos_blackouts == 1

    def test_stalls_are_sampled(self):
        cloud = build_default_cloud(seed=6)
        fabric = cloud.fabric
        fabric.set_chaos(ChaosConfig(wan_stall_prob=0.9, wan_stall_mean_s=4.0),
                         cloud.rngs.stream("test-wan"))
        penalties = [fabric.chaos_penalty_s(0.0) for _ in range(30)]
        assert fabric.chaos_stalls > 0
        assert max(penalties) > 0.0


class TestCloudFanout:
    def test_apply_chaos_reaches_existing_and_future_substrates(self):
        cloud = build_default_cloud(seed=7)
        early = cloud.kv_table("aws:us-east-1", "early")
        cloud.apply_chaos(ChaosConfig(crash_prob=0.2, kv_reject_prob=0.2))
        late = cloud.kv_table("aws:us-east-2", "late")
        assert early._chaos is not None and late._chaos is not None
        faas = cloud.faas("aws:us-east-1")
        assert faas.chaos_crash_prob == pytest.approx(0.2)
        # Clearing restores every hot path to its single None check.
        cloud.apply_chaos(None)
        assert early._chaos is None and late._chaos is None
        assert faas.chaos_crash_prob == 0.0
        assert cloud.chaos is None

    def test_all_zero_config_normalizes_to_off(self):
        cloud = build_default_cloud(seed=7)
        cloud.apply_chaos(ChaosConfig())
        assert cloud.chaos is None

    def test_chaos_stats_keys(self):
        cloud = build_default_cloud(seed=7)
        stats = cloud.chaos_stats()
        assert set(stats) == {
            "faas_crashes", "faas_outage_failures", "notifications_dropped",
            "notifications_duplicated", "notifications_reordered",
            "kv_rejected", "kv_delayed", "kv_outage_rejections",
            "wan_stalls", "wan_blackout_hits", "wan_outage_hits",
            "corrupt_get", "corrupt_put", "corrupt_at_rest",
            "corrupt_truncated", "corrupt_wrong_etag",
        }
        assert all(v == 0 for v in stats.values())
