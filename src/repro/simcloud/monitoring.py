"""Lightweight time-series monitoring for the simulated clouds.

Production replication systems live and die by their dashboards.  This
module provides the simulation-side equivalent: counters and gauges
sampled on the simulated clock, plus a :class:`CloudMonitor` that wires
standard probes (concurrent function instances, queued invocations,
cumulative egress dollars, replication backlog) onto a cloud and a
service.  Series render directly to the text-chart strips used in the
benchmark outputs.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.analysis.stats import percentile_or
from repro.analysis.textchart import series_strip
from repro.simcloud.sim import Simulator

__all__ = ["TimeSeries", "CloudMonitor"]


@dataclass
class TimeSeries:
    """Timestamped samples of one metric."""

    name: str
    times: list[float] = field(default_factory=list)
    values: list[float] = field(default_factory=list)

    def record(self, time: float, value: float) -> None:
        if self.times and time < self.times[-1]:
            raise ValueError(f"{self.name}: time went backwards")
        self.times.append(time)
        self.values.append(float(value))

    def __len__(self) -> int:
        return len(self.values)

    @property
    def latest(self) -> float:
        return self.values[-1] if self.values else math.nan

    @property
    def peak(self) -> float:
        return max(self.values) if self.values else math.nan

    def mean(self) -> float:
        if not self.values:
            return math.nan
        return sum(self.values) / len(self.values)

    def at(self, time: float) -> float:
        """The last sample at or before ``time`` (step interpolation)."""
        idx = bisect.bisect_right(self.times, time) - 1
        return self.values[idx] if idx >= 0 else math.nan

    def window_max(self, start: float, end: float) -> float:
        lo = bisect.bisect_left(self.times, start)
        hi = bisect.bisect_right(self.times, end)
        window = self.values[lo:hi]
        return max(window) if window else math.nan

    def window(self, start: float,
               end: float | None = None) -> tuple[list[float], list[float]]:
        """The (times, values) samples in ``[start, end]`` (``end``
        defaults to the newest sample).  O(log n) slicing — the hedge
        monitor reads its trailing completion window through this on
        every deadline computation."""
        lo = bisect.bisect_left(self.times, start)
        hi = len(self.times) if end is None else bisect.bisect_right(
            self.times, end)
        return self.times[lo:hi], self.values[lo:hi]

    def window_percentile(self, p: float, window_s: float,
                          now: float) -> Optional[float]:
        """The p-quantile of the samples in ``[now - window_s, now]``,
        both ends included, or ``None`` when the window holds none.

        Every decision path that derives a threshold from a trailing
        window — the hedge deadline, the autopilot's SLO error — goes
        through this one fail-closed quantile, so a cold window can
        never leak a NaN into a comparison.
        """
        return percentile_or(self.window(now - window_s, now)[1], p)

    def discard_before(self, cutoff: float) -> None:
        """Drop samples older than ``cutoff`` (bounded-memory trailing
        windows: a busy-hour replay records one sample per part)."""
        lo = bisect.bisect_left(self.times, cutoff)
        if lo:
            del self.times[:lo]
            del self.values[:lo]

    def strip(self, width: int = 60) -> str:
        """Render as a one-line sparkline."""
        return series_strip(self.values, width=width, title=self.name)


class CloudMonitor:
    """Periodic sampler of standard cloud/service health metrics."""

    def __init__(self, sim: Simulator, interval_s: float = 10.0,
                 retention_s: Optional[float] = None):
        if interval_s <= 0:
            raise ValueError("interval_s must be positive")
        if retention_s is not None and retention_s <= 0:
            raise ValueError("retention_s must be positive (or None)")
        self.sim = sim
        self.interval_s = interval_s
        #: Trailing retention window: samples older than ``retention_s``
        #: are discarded on every sampling tick, bounding the monitor's
        #: memory on long runs (a scale-100 busy hour would otherwise
        #: grow every probe series without limit).  ``None`` keeps the
        #: historical keep-everything behaviour for plotting runs.
        self.retention_s = retention_s
        self.series: dict[str, TimeSeries] = {}
        self._probes: list[tuple[str, Callable[[], float]]] = []
        self._running = False

    # -- wiring ----------------------------------------------------------

    def add_probe(self, name: str, fn: Callable[[], float]) -> TimeSeries:
        """Sample ``fn()`` into a series every interval."""
        if name in self.series:
            raise ValueError(f"duplicate probe {name!r}")
        ts = TimeSeries(name)
        self.series[name] = ts
        self._probes.append((name, fn))
        return ts

    def watch_faas(self, faas, prefix: Optional[str] = None) -> None:
        """Standard FaaS probes: running instances and queue depth."""
        p = prefix or faas.region.key
        self.add_probe(f"{p}.running", lambda: float(faas.running))
        self.add_probe(f"{p}.queued", lambda: float(len(faas._queue)))

    def watch_ledger(self, ledger, category: Optional[str] = None,
                     name: str = "cost") -> None:
        self.add_probe(name, lambda: ledger.total(category))

    def watch_service(self, service, name: str = "backlog") -> None:
        """Replication backlog: source writes not yet visible."""
        self.add_probe(name, lambda: float(service.pending_count()))

    # -- sampling loop -------------------------------------------------------

    def start(self, duration_s: float) -> None:
        """Sample every ``interval_s`` for the next ``duration_s`` of
        simulated time (bounded, so a drained simulation still
        terminates; call again to extend, or :meth:`stop` to end early).
        """
        if duration_s <= 0:
            raise ValueError("duration_s must be positive")
        if self._running:
            raise RuntimeError("monitor already started")
        self._running = True
        deadline = self.sim.now + duration_s

        def tick() -> None:
            if not self._running:
                return
            self.sample()
            if self.sim.now >= deadline:
                self._running = False
                return
            self._timer = self.sim.call_later(self.interval_s, tick)

        self.sample()
        self._timer = self.sim.call_later(self.interval_s, tick)

    def stop(self) -> None:
        self._running = False
        timer = getattr(self, "_timer", None)
        if timer is not None:
            timer.cancel()

    def sample(self) -> None:
        """Take one sample of every probe, now (pruning expired samples
        when a retention window is configured)."""
        now = self.sim.now
        cutoff = None if self.retention_s is None else now - self.retention_s
        for name, fn in self._probes:
            ts = self.series[name]
            ts.record(now, fn())
            if cutoff is not None:
                ts.discard_before(cutoff)

    # -- reporting ----------------------------------------------------------------

    def report(self, width: int = 60) -> str:
        """All series as sparkline strips."""
        return "\n".join(ts.strip(width) for ts in self.series.values())
