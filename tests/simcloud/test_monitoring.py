"""Tests for the cloud monitoring time series."""

import math

import numpy as np
import pytest

from repro.core.config import ReplicaConfig
from repro.core.service import AReplicaService
from repro.simcloud.cloud import build_default_cloud
from repro.simcloud.monitoring import CloudMonitor, TimeSeries
from repro.simcloud.objectstore import Blob
from repro.simcloud.sim import Simulator

MB = 1024 * 1024


class TestTimeSeries:
    def test_record_and_stats(self):
        ts = TimeSeries("x")
        for t, v in [(0, 1.0), (1, 3.0), (2, 2.0)]:
            ts.record(t, v)
        assert len(ts) == 3
        assert ts.latest == 2.0
        assert ts.peak == 3.0
        assert ts.mean() == pytest.approx(2.0)

    def test_time_must_not_go_backwards(self):
        ts = TimeSeries("x")
        ts.record(5.0, 1.0)
        with pytest.raises(ValueError):
            ts.record(4.0, 1.0)

    def test_step_interpolation(self):
        ts = TimeSeries("x")
        ts.record(0.0, 10.0)
        ts.record(10.0, 20.0)
        assert ts.at(5.0) == 10.0
        assert ts.at(10.0) == 20.0
        assert math.isnan(ts.at(-1.0))

    def test_window_max(self):
        ts = TimeSeries("x")
        for t in range(10):
            ts.record(float(t), float(t % 4))
        assert ts.window_max(2.0, 5.0) == 3.0
        assert math.isnan(ts.window_max(100.0, 200.0))

    def test_empty_series(self):
        ts = TimeSeries("x")
        assert math.isnan(ts.latest)
        assert math.isnan(ts.peak)
        assert math.isnan(ts.mean())

    def test_strip_renders(self):
        ts = TimeSeries("load")
        for t in range(5):
            ts.record(float(t), float(t))
        assert "load" in ts.strip(width=10)

    def test_discard_before_prunes_the_prefix(self):
        ts = TimeSeries("x")
        for t in range(10):
            ts.record(float(t), float(t))
        ts.discard_before(4.0)
        assert ts.times == [float(t) for t in range(4, 10)]
        assert ts.values == [float(t) for t in range(4, 10)]
        ts.discard_before(3.0)     # before the head: no-op
        assert len(ts) == 6

    def test_window_percentile_shares_the_fail_closed_path(self):
        """The one quantile both the hedge deadline and the autopilot's
        SLO error branch on covers exactly ``[now - w, now]`` — the
        sample at ``now`` included, nothing past it read — for any
        (now, w), and is the None sentinel (never NaN) only when that
        window is empty.  Edges built by float arithmetic got both
        wrong: an extra edge read the empty ``[now, now + w)`` as cold,
        and the sample at ``now`` fell off the last edge."""
        rng = np.random.default_rng(0)
        for _ in range(500):
            w = float(rng.uniform(0.1, 400.0))
            now = float(rng.uniform(0.0, 5000.0))
            times = sorted(rng.uniform(now - 2 * w, now, 8).tolist()) + [now]
            ts = TimeSeries("x")
            for t in times:
                ts.record(t, t)          # a sample's value is its time
            inside = [t for t in times if now - w <= t <= now]
            assert ts.window_percentile(1.0, w, now) == now, (now, w)
            assert ts.window_percentile(0.0, w, now) == inside[0], (now, w)
            assert ts.window_percentile(0.5, w, now) == \
                pytest.approx(float(np.quantile(inside, 0.5)))
        assert ts.window_percentile(0.99, 1.0, now + 100.0) is None   # cold
        assert TimeSeries("empty").window_percentile(
            0.99, 10.0, 0.0) is None


class TestCloudMonitor:
    def test_samples_at_interval(self):
        sim = Simulator()
        mon = CloudMonitor(sim, interval_s=5.0)
        clock = mon.add_probe("clock", lambda: sim.now)
        mon.start(duration_s=20.0)
        sim.run()
        assert clock.times == [0.0, 5.0, 10.0, 15.0, 20.0]
        assert sim.now == 20.0  # bounded: does not run forever

    def test_stop_ends_sampling(self):
        sim = Simulator()
        mon = CloudMonitor(sim, interval_s=1.0)
        series = mon.add_probe("x", lambda: 1.0)
        mon.start(duration_s=100.0)
        sim.call_later(3.5, mon.stop)
        sim.run()
        assert len(series) <= 5

    def test_duplicate_probe_rejected(self):
        mon = CloudMonitor(Simulator())
        mon.add_probe("x", lambda: 0.0)
        with pytest.raises(ValueError):
            mon.add_probe("x", lambda: 0.0)

    def test_invalid_interval_and_duration(self):
        with pytest.raises(ValueError):
            CloudMonitor(Simulator(), interval_s=0)
        mon = CloudMonitor(Simulator())
        with pytest.raises(ValueError):
            mon.start(duration_s=0)

    def test_double_start_rejected(self):
        sim = Simulator()
        mon = CloudMonitor(sim)
        mon.start(duration_s=10.0)
        with pytest.raises(RuntimeError):
            mon.start(duration_s=10.0)

    def test_retention_window_bounds_series_memory(self):
        """With ``retention_s`` set, every sampling tick prunes samples
        older than the trailing window, so a long run holds a bounded
        slice instead of growing every probe series without limit."""
        sim = Simulator()
        mon = CloudMonitor(sim, interval_s=1.0, retention_s=5.0)
        clock = mon.add_probe("clock", lambda: sim.now)
        mon.start(duration_s=100.0)
        sim.run()
        assert clock.times[0] == 95.0 and clock.times[-1] == 100.0
        assert len(clock) == 6          # the window, not the whole run
        assert mon.retention_s == 5.0

    def test_retention_defaults_off_and_validates(self):
        sim = Simulator()
        mon = CloudMonitor(sim, interval_s=1.0)     # keep everything
        series = mon.add_probe("x", lambda: 0.0)
        mon.start(duration_s=50.0)
        sim.run()
        assert len(series) == 51
        with pytest.raises(ValueError):
            CloudMonitor(sim, retention_s=0.0)

    def test_watch_replication_workload(self):
        """End to end: concurrency, backlog, and cost series during a
        replication burst."""
        cloud = build_default_cloud(seed=901)
        svc = AReplicaService(cloud, ReplicaConfig(profile_samples=5,
                                                   mc_samples=300))
        src = cloud.bucket("aws:us-east-1", "src")
        dst = cloud.bucket("azure:eastus", "dst")
        svc.add_rule(src, dst)
        mon = CloudMonitor(cloud.sim, interval_s=0.5)
        mon.watch_faas(cloud.faas("aws:us-east-1"))
        mon.watch_service(svc)
        mon.watch_ledger(cloud.ledger)
        mon.start(duration_s=60.0)
        for i in range(6):
            src.put_object(f"k{i}", Blob.fresh(64 * MB), cloud.now)
        cloud.run()
        running = mon.series["aws:us-east-1.running"]
        backlog = mon.series["backlog"]
        cost = mon.series["cost"]
        assert running.peak >= 1           # instances spun up
        assert backlog.peak >= 1           # work was in flight
        assert backlog.latest == 0         # and drained
        assert cost.values == sorted(cost.values)  # monotone spend
        assert "backlog" in mon.report()
