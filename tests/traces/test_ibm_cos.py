"""Tests for the synthetic IBM COS trace generator and replayer."""

import numpy as np
import pytest

from repro.analysis.stats import fraction_at_or_below, size_histogram
from repro.simcloud.cloud import build_default_cloud
from repro.traces.ibm_cos import (
    MB, GB, OP_DELETE, OP_PUT, IbmCosTraceGenerator, SizeModel, TraceBatch)
from repro.traces.replay import TraceReplayer


def _batch(*rows):
    """One batch from ``(time, op code, key, size)`` rows."""
    times, ops, keys, sizes = zip(*rows)
    return TraceBatch(np.array(times, dtype=np.float64),
                      np.array(ops, dtype=np.uint8), list(keys),
                      np.array(sizes, dtype=np.int64))


def _rows(trace):
    """``(time, op code, key, size)`` per request, in trace order."""
    return [row for b in trace for row in zip(
        b.times.tolist(), b.ops.tolist(), b.keys, b.sizes.tolist())]


class TestSizeModel:
    def test_fig2_eighty_percent_at_or_below_1mb(self):
        sizes = SizeModel(np.random.default_rng(0)).sample(100_000)
        share = fraction_at_or_below(sizes, MB)
        assert 0.72 <= share <= 0.88     # "~80 % of the PUT requests"

    def test_fig2_vast_majority_below_1gb(self):
        sizes = SizeModel(np.random.default_rng(0)).sample(200_000)
        assert fraction_at_or_below(sizes, GB) > 0.9995  # ">99.99 %"

    def test_capacity_dominated_by_large_objects(self):
        """Fig 2's two bar series diverge: small objects dominate count,
        large objects dominate capacity."""
        sizes = SizeModel(np.random.default_rng(1)).sample(200_000)
        hist = size_histogram(sizes)
        small_count = sum(hist[l]["count"] for l in ("1B", "10B", "100B", "1KB", "10KB", "100KB"))
        small_capacity = sum(hist[l]["capacity"] for l in ("1B", "10B", "100B", "1KB", "10KB", "100KB"))
        assert small_count > 0.5
        assert small_capacity < 0.05

    def test_sizes_positive(self):
        sizes = SizeModel(np.random.default_rng(2)).sample(10_000)
        assert (sizes >= 1).all()


class TestTraceGenerator:
    def test_deterministic_under_seed(self):
        # Column by column: ``==`` on two batches compares arrays.
        a = IbmCosTraceGenerator(seed=5).generate(300.0)
        b = IbmCosTraceGenerator(seed=5).generate(300.0)
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert np.array_equal(x.times, y.times)
            assert np.array_equal(x.ops, y.ops)
            assert x.keys == y.keys
            assert np.array_equal(x.sizes, y.sizes)
        c = IbmCosTraceGenerator(seed=6).generate(300.0)
        assert _rows(a) != _rows(c)

    def test_timestamps_sorted_within_duration(self):
        trace = IbmCosTraceGenerator(seed=0).generate(600.0)
        times = [t for t, _, _, _ in _rows(trace)]
        assert times == sorted(times)
        assert 0 <= times[0] and times[-1] <= 600.0

    def test_mean_rate_roughly_respected(self):
        gen = IbmCosTraceGenerator(seed=1, mean_rps=50.0)
        trace = gen.generate(1800.0)
        rate = sum(len(b) for b in trace) / 1800.0
        assert 25.0 < rate < 100.0

    def test_fig3_bursty_minute_rates(self):
        """Fig 3: throughput changes sharply from minute to minute."""
        gen = IbmCosTraceGenerator(seed=2)
        rates = gen.minute_rates(6 * 3600.0)
        ratios = rates[1:] / rates[:-1]
        assert ratios.max() > 2.0        # at least one sharp jump
        assert rates.max() / np.median(rates) > 3.0  # bursts well above typical

    def test_deletes_only_target_live_keys(self):
        gen = IbmCosTraceGenerator(seed=3, delete_fraction=0.2)
        live = set()
        for _, op, key, _ in _rows(gen.generate(900.0)):
            if op == OP_PUT:
                live.add(key)
            else:
                assert key in live
                live.discard(key)

    def test_hot_keys_receive_updates(self):
        gen = IbmCosTraceGenerator(seed=4, update_fraction=0.5)
        trace = gen.generate(900.0)
        puts = [key for _, op, key, _ in _rows(trace) if op == OP_PUT]
        assert len(set(puts)) < len(puts)  # some keys written repeatedly

    def test_busy_hour_request_budget(self):
        gen = IbmCosTraceGenerator(seed=5)
        trace = gen.busy_hour(total_requests=5_000)
        assert 2_000 < sum(len(b) for b in trace) < 12_000
        assert trace[-1].times[-1] <= 3600.0


class TestReplayer:
    def test_replay_applies_puts_and_deletes(self):
        cloud = build_default_cloud(seed=0)
        bucket = cloud.bucket("aws:us-east-1", "b")
        trace = [_batch((0.0, OP_PUT, "a", 100), (1.0, OP_PUT, "b", 200),
                        (2.0, OP_DELETE, "a", 0))]
        stats = TraceReplayer(cloud, bucket).replay_all(trace)
        assert stats.puts == 2
        assert stats.deletes == 1
        assert "a" not in bucket and "b" in bucket

    def test_replay_respects_timestamps(self):
        cloud = build_default_cloud(seed=0)
        bucket = cloud.bucket("aws:us-east-1", "b")
        arrivals = []
        bucket.subscribe(lambda ev: arrivals.append(ev.event_time))
        trace = [_batch(*((i * 10.0, OP_PUT, f"k{i}", 1) for i in range(3)))]
        TraceReplayer(cloud, bucket).replay_all(trace)
        assert arrivals == [0.0, 10.0, 20.0]

    def test_time_scale_compresses(self):
        cloud = build_default_cloud(seed=0)
        bucket = cloud.bucket("aws:us-east-1", "b")
        trace = [_batch((100.0, OP_PUT, "k", 1))]
        TraceReplayer(cloud, bucket, time_scale=0.1).replay_all(trace)
        assert cloud.now == pytest.approx(10.0)

    def test_delete_of_missing_key_skipped(self):
        cloud = build_default_cloud(seed=0)
        bucket = cloud.bucket("aws:us-east-1", "b")
        stats = TraceReplayer(cloud, bucket).replay_all(
            [_batch((0.0, OP_DELETE, "ghost", 0))]
        )
        assert stats.skipped_deletes == 1

    def test_unknown_op_rejected(self):
        cloud = build_default_cloud(seed=0)
        bucket = cloud.bucket("aws:us-east-1", "b")
        with pytest.raises(ValueError):
            TraceReplayer(cloud, bucket).replay_all(
                [_batch((0.0, 7, "k", 0))]
            )

    def test_invalid_time_scale(self):
        cloud = build_default_cloud(seed=0)
        with pytest.raises(ValueError):
            TraceReplayer(cloud, cloud.bucket("aws:us-east-1", "b"), time_scale=0)
