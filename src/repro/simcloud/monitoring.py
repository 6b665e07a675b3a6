"""Timestamped samples of one metric on the simulated clock.

A :class:`TimeSeries` is the trailing window behind every decision
that derives a threshold from recent history: the hedger's part
completion durations and the autopilot's per-tenant replication
delays, both read through :meth:`TimeSeries.window_percentile`.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Optional

from repro.analysis.stats import percentile_or

__all__ = ["TimeSeries"]


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
