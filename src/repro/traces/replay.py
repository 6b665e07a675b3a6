"""Trace replay against a source bucket.

The replayer writes a trace's PUT/DELETE operations into a bucket at
their trace timestamps (optionally time-scaled); whatever replication
system is wired to that bucket — AReplica, Skyplane, S3 RTC, AZ Rep —
reacts through its normal notification path.  This mirrors the paper's
§8.3 methodology of replaying the IBM COS trace with parallel client
drivers against the source bucket.

A trace is a sequence of the generator's column-form
:class:`TraceBatch` minutes; ``replay_batches`` reads their raw
columns, and ``replay_all`` drives it to the end of the simulation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from repro.simcloud.cloud import Cloud
from repro.simcloud.sim import SleepRequest
from repro.simcloud.objectstore import Blob, Bucket
from repro.traces.ibm_cos import OP_DELETE, OP_PUT, TraceBatch

__all__ = ["ReplayStats", "TraceReplayer"]


@dataclass
class ReplayStats:
    """Counters from one replay run."""

    puts: int = 0
    deletes: int = 0
    skipped_deletes: int = 0
    bytes_written: int = 0
    first_time: Optional[float] = None
    last_time: Optional[float] = None

    @property
    def requests(self) -> int:
        return self.puts + self.deletes


class TraceReplayer:
    """Feeds trace requests into a bucket on the simulated clock."""

    def __init__(self, cloud: Cloud, bucket: Bucket,
                 time_scale: float = 1.0):
        """``time_scale`` < 1 compresses the trace (replay "at a high
        rate", as the paper does with 32×16 parallel clients)."""
        if time_scale <= 0:
            raise ValueError("time_scale must be positive")
        self.cloud = cloud
        self.bucket = bucket
        self.time_scale = time_scale
        self.stats = ReplayStats()

    def replay_batches(self, batches: Iterable[TraceBatch]):
        """Process: apply every request at its (scaled) timestamp."""
        origin = self.cloud.now
        sim = self.cloud.sim
        scale = self.time_scale
        stats = self.stats
        for batch in batches:
            ops = batch.ops
            # The trace may come from outside the program: reject a
            # batch holding an unknown op before applying any of it.
            unknown = (ops != OP_PUT) & (ops != OP_DELETE)
            if unknown.any():
                raise ValueError(
                    f"unknown trace op {ops[unknown][0].item()!r}")
            times = batch.times.tolist()
            ops = ops.tolist()
            sizes = batch.sizes.tolist()
            keys = batch.keys
            for i in range(len(keys)):
                target = origin + times[i] * scale
                if target > sim.now:
                    yield SleepRequest(target - sim.now)
                self._apply(ops[i] == OP_PUT, keys[i], sizes[i])
        stats.last_time = self.cloud.now

    def replay_all(self, batches: Iterable[TraceBatch]) -> ReplayStats:
        """Spawn the replay process and drain the simulation."""
        self.cloud.sim.run_process(self.replay_batches(batches),
                                   name="trace-replay")
        self.cloud.run()
        return self.stats

    def _apply(self, is_put: bool, key: str, size: int) -> None:
        if self.stats.first_time is None:
            self.stats.first_time = self.cloud.now
        if is_put:
            self.bucket.put_object(key, Blob.fresh(size), self.cloud.now)
            self.stats.puts += 1
            self.stats.bytes_written += size
        else:
            if key in self.bucket:
                self.bucket.delete_object(key, self.cloud.now)
                self.stats.deletes += 1
            else:
                self.stats.skipped_deletes += 1
