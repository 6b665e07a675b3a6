"""Ablation: the storage cost of versioning-based replication.

§5.2 motivates AReplica's lock-based consistency by the cost of the
alternative: "if each object is updated once a day, versioning at
least doubles the storage cost because the lifecycle rules are at
day-granularity."  This benchmark simulates a month of daily updates
over a working set and compares the steady-state storage footprint —
and the implied $/GB-month — of a versioned deployment (what S3 RTC
and AZ Rep require on both buckets) against AReplica's unversioned one.
"""

import numpy as np

from benchmarks.conftest import run_once, scaled
from repro.simcloud.chaos import injected_ledger
from repro.simcloud.objectstore import Blob, Bucket
from repro.simcloud.pricing import PriceBook
from repro.simcloud.regions import get_region

MB = 1024 * 1024
DAY = 86_400.0


def _simulate_month(versioning: bool, objects: int, update_prob: float,
                    seed: int):
    rng = np.random.default_rng(seed)
    bucket = Bucket("b", get_region("aws:us-east-1"), injected_ledger(),
                    versioning=versioning)
    sizes = rng.integers(1, 64, objects) * MB
    for i in range(objects):
        bucket.put_object(f"o{i}", Blob.fresh(int(sizes[i])), time=0.0)
    footprint = []
    for day in range(1, 31):
        now = day * DAY
        for i in range(objects):
            if rng.random() < update_prob:
                bucket.put_object(f"o{i}", Blob.fresh(int(sizes[i])), now)
        if versioning:
            bucket.expire_noncurrent(now, older_than_s=DAY)
        footprint.append(bucket.total_bytes(include_noncurrent=True))
    return np.array(footprint, dtype=float)


def test_ablation_versioning_storage_cost(benchmark, save_result):
    objects = scaled(200)

    def run():
        out = {}
        for label, prob in (("daily", 1.0), ("every-other-day", 0.5),
                            ("weekly", 1 / 7)):
            out[label] = {
                "versioned": _simulate_month(True, objects, prob, seed=42),
                "plain": _simulate_month(False, objects, prob, seed=42),
            }
        return out

    out = run_once(benchmark, run)
    price = PriceBook().store["aws"].gb_month

    lines = ["Ablation: storage footprint of versioning-based replication "
             f"({objects} objects, 30 days, day-granularity lifecycle)", ""]
    lines.append(f"{'update rate':>16} {'plain GB':>9} {'versioned GB':>13} "
                 f"{'overhead':>9} {'extra $/mo (both buckets)':>26}")
    for label, data in out.items():
        plain = data["plain"][5:].mean() / 1e9
        versioned = data["versioned"][5:].mean() / 1e9
        overhead = versioned / plain
        extra = (versioned - plain) * price * 2  # versioning on src AND dst
        lines.append(f"{label:>16} {plain:>9.2f} {versioned:>13.2f} "
                     f"{overhead:>8.2f}x {extra:>25.2f}")
    lines.append("")
    lines.append("paper (§5.2): daily updates => versioning at least doubles "
                 "storage; AReplica's replication lock avoids versioning "
                 "entirely")
    save_result("abl_versioning_cost", "\n".join(lines))

    daily = out["daily"]
    assert (daily["versioned"][5:] >= 2 * daily["plain"][5:]).all()
    weekly = out["weekly"]
    # Lower update rates shrink the overhead toward 1x.
    assert weekly["versioned"][5:].mean() < daily["versioned"][5:].mean()
    assert (out["every-other-day"]["versioned"][5:].mean()
            < daily["versioned"][5:].mean())
