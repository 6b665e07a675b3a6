"""Command line of the end-to-end benchmark.

One run of one workload (the form the driver calls):

    python3 benchmarks/e2e/run.py --workload busy_hour_small --seed 0 \\
        --seconds 20 --trace 0

``--trace 0`` measures three replicas of the workload's fixed-size unit
(sub-seeds of ``--seed``), going round them again while ``--seconds``
have not passed, and reports every end-to-end metric: simulated outcomes
pooled over the replicas, host numbers as the median over the units.
``--trace 1`` runs replica 0 once untraced and once with the layer
wrappers installed (and, where the workload has one, once more in its
hedged variant), and reports every per-layer metric.  Both check that
the destination converged and that units which ran the same sub-seed
produced the same ``sim_digest``; the last line of standard output is
the result object.

Without ``--workload`` the whole suite runs (see ``suite.py``):
``--compare A.json B.json`` compares two suite result files and
``--selftest`` runs the harness's own tests.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parents[2]
# A plain checkout, no install and no PYTHONPATH: make `repro` (under
# src/) and `benchmarks.e2e` importable.
for _p in (ROOT, ROOT / "src"):
    if str(_p) not in sys.path:
        sys.path.insert(0, str(_p))

from benchmarks.e2e import suite  # noqa: E402
from benchmarks.e2e.harness import (  # noqa: E402
    UnitResult, layer_metrics, run_unit, set_up, sim_outcomes)
from benchmarks.e2e.tracing import SpanRecorder  # noqa: E402
from benchmarks.e2e.workloads import WORKLOADS, Workload  # noqa: E402

E2E_UNITS = {
    "setup_s": "s", "host_reqs_per_s": "req/s", "host_cpu_us_per_req": "us/req",
    "host_peak_rss_mb": "MB", "sim_delay_p50_s": "s", "sim_delay_tail_s": "s",
    "sim_cost_usd_per_gb": "USD/GB", "slo_met_frac": "frac",
    "converged_frac": "frac",
}


#: A run measures this many replicas of the workload, each a full unit
#: under its own sub-seed.  Simulated outcomes are pooled over them (more
#: samples behind every quantile); host metrics are the median over them.
REPLICAS = 3
#: Set-up takes tens of milliseconds; its median is taken over at least
#: this many set-ups per run (the units' own, then set-up-only repeats).
SETUP_SAMPLES = 9


def _sub_seed(seed: int, replica: int) -> int:
    return seed * REPLICAS + replica % REPLICAS


@dataclass
class Run:
    """What one invocation measured."""

    units: list[UnitResult]
    #: name -> (value, unit): end-to-end metrics untraced, per-layer traced.
    metrics: dict[str, tuple[float, str]]
    #: Pooled simulated outcomes, with ``tail_q`` and the sample count.
    sim: dict
    #: Units that ran the same sub-seed produced the same digest.
    repeatable: bool
    sim_digest: str
    #: Traced runs of a workload with a hedged variant: that unit.  It
    #: is a side measurement under another configuration (one under
    #: which requests do fail now and then), so it counts towards
    #: neither ``attempted``/``failed`` nor ``correct``.
    hedged: Optional[UnitResult] = None

    @property
    def correct(self) -> bool:
        # Audit findings feed `failed` and are printed, never raised; a
        # run is incorrect when it did not quiesce or when its simulated
        # outcome does not repeat.
        return self.repeatable and all(u.converged for u in self.units)


def _digest(units: list[UnitResult]) -> str:
    return hashlib.sha256("".join(u.digest for u in units).encode()).hexdigest()


def timed_run(workload: Workload, seed: int, n: int, seconds: float) -> Run:
    """Run the replicas, then go round them again while ``seconds`` have
    not passed; a further unit starts only if half of it is expected to
    fit."""
    units: list[UnitResult] = []
    start = time.perf_counter()
    while True:
        units.append(run_unit(workload, _sub_seed(seed, len(units)), n))
        elapsed = time.perf_counter() - start
        if (len(units) >= REPLICAS
                and elapsed + 0.5 * elapsed / len(units) >= seconds):
            break
    setups = [u.setup_s for u in units]
    while len(setups) < SETUP_SAMPLES:
        setups.append(set_up(workload, _sub_seed(seed, len(setups)), n)[3])
    median = statistics.median
    sim = sim_outcomes(units[:REPLICAS])
    values = {
        "setup_s": median(setups),
        "host_reqs_per_s": median(u.requests / u.wall_s for u in units),
        "host_cpu_us_per_req":
            median(u.cpu_s / u.requests * 1e6 for u in units),
        "host_peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        **sim,
    }
    return Run(units, {k: (values[k], unit) for k, unit in E2E_UNITS.items()},
               sim,
               all(u.digest == units[i % REPLICAS].digest
                   for i, u in enumerate(units)),
               _digest(units[:REPLICAS]))


def traced_run(workload: Workload, seed: int, n: int,
               out: str | None = None) -> Run:
    """Replica 0 once untraced and once traced, then once in the
    workload's hedged variant if it has one."""
    sub_seed = _sub_seed(seed, 0)
    untraced = run_unit(workload, sub_seed, n)
    rec = SpanRecorder()
    traced = run_unit(workload, sub_seed, n, rec)
    hedged = None
    if workload.hedged_setup is not None:
        hedged = run_unit(replace(workload, setup=workload.hedged_setup),
                          sub_seed, n)
    if out:
        os.makedirs(out, exist_ok=True)
        rec.export_chrome(
            os.path.join(out, f"{workload.name}-seed{seed}.trace.json"))
    return Run([untraced, traced],
               layer_metrics(traced, rec, untraced, hedged),
               sim_outcomes([untraced]), traced.digest == untraced.digest,
               _digest([untraced]), hedged)


def run_once(args) -> int:
    workload = WORKLOADS[args.workload]
    n = workload.smoke_requests if args.smoke else workload.requests
    if args.trace:
        run = traced_run(workload, args.seed, n, args.out)
    else:
        run = timed_run(workload, args.seed, n, args.seconds)
    units, sim = run.units, run.sim
    mloops = statistics.median(u.mloops_per_s for u in units)
    result = {
        "correct": run.correct,
        "attempted": sum(u.requests for u in units),
        "failed": sum(u.failed for u in units),
        "metrics": {k: {"value": v, "unit": unit}
                    for k, (v, unit) in run.metrics.items()},
    }
    findings = sorted({f for u in units for f in u.findings})
    if run.hedged is not None:
        findings += [f"(hedged variant) {f}" for f in run.hedged.findings]
    print(f"{workload.name} seed={args.seed} trace={args.trace}: "
          f"{len(units)} unit(s) of {units[0].requests} requests "
          f"({units[0].bytes_written / 1e9:.1f} GB), timed region "
          + "/".join(f"{u.raw_wall_s:.2f}" for u in units) + " s by the "
          "clock, " + "/".join(f"{u.wall_s:.2f}" for u in units)
          + f" s at nominal speed (machine read {mloops:.1f} Mloops/s), "
          f"tail_q={sim['tail_q']} over {sim['delay_samples']} delays, "
          f"slo_s={workload.slo_s}")
    if run.hedged is not None:
        print(f"  hedged variant: timed region {run.hedged.raw_wall_s:.2f} s "
              f"by the clock, {run.hedged.failed} of {run.hedged.requests} "
              "requests not converged")
    for name, (value, unit) in run.metrics.items():
        print(f"  {name:<34} {value:>16.6g} {unit}")
    print(f"  sim_digest {run.sim_digest}"
          + ("" if run.repeatable else "  NOT REPEATABLE"))
    for finding in findings:
        print(f"  finding: {finding}")
    if args.report:
        Path(args.report).write_text(json.dumps({
            **result, "workload": workload.name, "seed": args.seed,
            "trace": args.trace, "requests_per_unit": units[0].requests,
            "units": [{"setup_s": u.setup_s, "wall_s": u.wall_s,
                       "cpu_s": u.cpu_s, "raw_wall_s": u.raw_wall_s,
                       "mloops_per_s": u.mloops_per_s,
                       "requests": u.requests, "digest": u.digest}
                      for u in units],
            "sim": sim, "sim_digest": run.sim_digest,
            "slo_s": workload.slo_s, "findings": findings,
            "calib_mops": mloops,
        }, indent=1) + "\n")
    print(json.dumps(result))
    return 0 if run.correct else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=None,
                   help="measured seconds per run (default: run_seconds "
                        "of BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny units (harness check, numbers mean nothing)")
    p.add_argument("--out", help="directory for Chrome traces (--trace 1) "
                                 "and suite result files")
    p.add_argument("--report", help="write this run's full detail as JSON")
    p.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    p.add_argument("--selftest", action="store_true")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = 2.0 if args.smoke else float(spec["run_seconds"])
    if args.selftest:
        from benchmarks.e2e.tests import test_harness
        return test_harness.run_all()
    if args.compare:
        return suite.compare(spec, *args.compare)
    if args.workload:
        return run_once(args)
    return suite.run_suite(spec, [sys.executable, str(Path(__file__))], args)


if __name__ == "__main__":
    sys.exit(main())
