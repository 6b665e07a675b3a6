"""Parametric workloads for the ablation benchmarks.

These are the simple, controlled workloads §8.2 uses: fixed-size
objects replicated once (Tables 1-3, Fig 16-20), a hot object updated
at a fixed frequency (Fig 22), and derived-object streams for the
changelog experiment (Fig 21).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.traces.ibm_cos import TraceRequest

__all__ = ["UpdateWorkload", "uniform_object_workload"]


@dataclass(frozen=True)
class UpdateWorkload:
    """A single hot object updated at a fixed frequency (Fig 22)."""

    key: str
    size: int
    updates_per_minute: float
    duration_s: float

    def requests(self) -> Iterator[TraceRequest]:
        if self.updates_per_minute <= 0:
            raise ValueError("updates_per_minute must be positive")
        interval = 60.0 / self.updates_per_minute
        t = 0.0
        while t < self.duration_s:
            yield TraceRequest(t, "PUT", self.key, self.size)
            t += interval


def uniform_object_workload(count: int, size: int,
                            spacing_s: float = 0.0,
                            prefix: str = "obj") -> list[TraceRequest]:
    """``count`` distinct objects of identical ``size`` (Tables 1-3)."""
    if count < 1:
        raise ValueError("count must be >= 1")
    return [
        TraceRequest(i * spacing_s, "PUT", f"{prefix}{i}", size)
        for i in range(count)
    ]
