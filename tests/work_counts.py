"""Per-request work counts of every benchmark workload, in a form two
commits can diff.

For each workload at seed 0 this runs the traced smoke unit
(``benchmarks/e2e/run.py --smoke --trace 1``) and keeps, from the last
JSON line it prints, every metric counted in simulated work rather than
host time: units ``count/req``, ``count/kreq``, ``count`` and ``frac``,
except ``trace.coverage_frac`` (the share of host time the tracer
attributed).  It prints one line per workload, the metrics sorted by
name.  These counts repeat exactly from run to run, so a change that
claims none of them moved prints the same lines as its parent, and a
perf claim can be stated as a count delta (~10 s):

    make work-counts        # diffs against tests/golden/work_counts.txt
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("busy_hour_small", "bulk_large", "tenant_fanout", "storm_churn")
COUNT_UNITS = frozenset({"count/req", "count/kreq", "count", "frac"})
TIME_BASED = frozenset({"trace.coverage_frac"})


def work_counts(workload: str) -> dict[str, float]:
    """The work counts of ``workload``'s seed-0 traced smoke unit."""
    out = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks/e2e/run.py"),
         "--workload", workload, "--seed", "0", "--smoke", "--trace", "1"],
        capture_output=True, text=True, check=True, cwd=ROOT).stdout
    metrics = json.loads(out.strip().splitlines()[-1])["metrics"]
    return {name: m["value"] for name, m in metrics.items()
            if m["unit"] in COUNT_UNITS and name not in TIME_BASED}


def main() -> None:
    for workload in WORKLOADS:
        counts = work_counts(workload)
        print(workload, " ".join(f"{name}={counts[name]!r}"
                                 for name in sorted(counts)))


if __name__ == "__main__":
    main()
