"""Tests for the cloud monitoring time series."""

import numpy as np
import pytest

from repro.simcloud.monitoring import TimeSeries


class TestTimeSeries:
    def test_time_must_not_go_backwards(self):
        ts = TimeSeries("x")
        ts.record(5.0, 1.0)
        with pytest.raises(ValueError):
            ts.record(4.0, 1.0)

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
