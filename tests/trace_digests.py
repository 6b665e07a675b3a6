"""What the drills and the trace checker report, in a form two commits
can diff.

One line per (drill, seed 0-2): the sha256 of that drill's ``--json``
report's ``trace_findings`` plus ``trace_checked``, then the sha256 of
the whole ``--json`` report.  Then the findings and ``checked`` counts
of the seed-0 ``storm_churn`` benchmark unit, built read-only through
the benchmark harness's ``set_up`` and run the way the harness runs it.
A change to ``repro.core.invariants`` that claims identical findings
prints the same ``trace`` hashes as its parent; a change that claims
no drill outcome moved prints the same lines throughout (~25 s):

    make trace-digests      # PYTHONPATH=src python -m tests.trace_digests
"""

from __future__ import annotations

import hashlib
import io
import json
from contextlib import redirect_stdout

from benchmarks.e2e.harness import set_up
from benchmarks.e2e.workloads import WORKLOADS
from repro.cli import main
from repro.core.invariants import TraceChecker
from repro.drills import DRILLS

SEEDS = (0, 1, 2)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def drill_digests(name: str, seed: int) -> tuple[str, str]:
    """(trace findings + checked, whole report) digests of one drill."""
    operation = DRILLS[name].operation
    argv = (["lifecycle-drill", "--scenario", operation] if operation
            else [name])
    out = io.StringIO()
    with redirect_stdout(out):
        main([*argv, "--seed", str(seed), "--json"])
    report = json.loads(out.getvalue())
    pinned = json.dumps([report["trace_findings"], report["trace_checked"]],
                        sort_keys=True)
    return _sha256(pinned), _sha256(out.getvalue())


def storm_unit_report():
    """The trace report of the seed-0 ``storm_churn`` unit."""
    workload = WORKLOADS["storm_churn"]
    env = set_up(workload, 0, workload.requests)[0]
    env.cloud.run()
    env.after_replay()
    env.service.run_to_convergence()
    return TraceChecker(env.service).check()


def main_digests() -> None:
    for name in DRILLS:
        for seed in SEEDS:
            trace, whole = drill_digests(name, seed)
            print(f"{name:<22} seed {seed} trace {trace} report {whole}",
                  flush=True)
    report = storm_unit_report()
    print(f"storm_churn seed 0: {len(report.findings)} finding(s)")
    for finding in report.findings:
        print(f"  {finding}")
    print("storm_churn seed 0 checked: "
          + json.dumps(report.checked, sort_keys=True))


if __name__ == "__main__":
    main_digests()
