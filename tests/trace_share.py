"""What the in-program tracer costs the storm_churn benchmark unit, in
CPU time and peak memory.

For each seed this runs the benchmark's ``storm_churn`` unit (12 000
requests under its fault storm, as ``benchmarks/e2e/workloads.py``
builds it) twice, each time in a fresh process: once as the benchmark
runs it, with the ``Tracer`` on, and once with ``tracing_enabled=False``.
Which side goes first alternates from seed to seed.  It prints, per
seed, each side's CPU µs per request (the harness's ``cpu_s``, at
nominal machine speed) and peak RSS, and whether the two sides'
simulated outcomes (the unit's digest) agree; then the median and
quartiles of the tracer's share, on minus off (~4 min at ten seeds;
not in CI):

    make trace-share                            # seeds 11-20
    PYTHONPATH=src python -m tests.trace_share 11 12 13

``--split`` attributes that share.  It adds two diagnostic sides per
seed, both with the Tracer on: ``nosink``, where ``install_cost_sink``
is a no-op (no ledger charge reaches the tracer's cost mirror), and
``count``, where besides ``Tracer.span``/``event`` only count their
records (nothing reaches the checker's index).  The four sides' order
rotates from seed to seed.  It then prints the median shares of the
cost mirror (on minus nosink), the feed (nosink minus count) and the
emission sites with their calls (count minus off).  The diagnostic
sides' traces feed no checker, so their findings mean nothing:

    PYTHONPATH=src python -m tests.trace_share --split 11 12 13 14 15 16
"""

from __future__ import annotations

import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = tuple(range(11, 21))


def unit(side: str, seed: int) -> dict:
    """Run one storm_churn unit in this process; ``side`` is "on",
    "off" (the same set-up with tracing disabled), or one of the
    ``--split`` sides "nosink" and "count" (module docstring)."""
    from benchmarks.e2e import workloads
    from benchmarks.e2e.harness import run_unit
    from repro.core.tracing import Tracer
    if side in ("nosink", "count"):
        Tracer.install_cost_sink = lambda self, ledger: None
    if side == "count":
        def span(self, name, cat, task, start, end, keys=(), *values):
            self.index.n_spans += 1

        def event(self, name, cat, task, keys=(), *values):
            self.index.n_events += 1
        Tracer.span, Tracer.event = span, event
    if side == "off":
        config = workloads.ReplicaConfig
        workloads.ReplicaConfig = lambda **fields: config(
            **{**fields, "tracing_enabled": False})
    storm = workloads.WORKLOADS["storm_churn"]
    result = run_unit(storm, seed, storm.requests)
    return {"cpu_us_per_req": result.cpu_s / result.requests * 1e6,
            "rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "digest": result.digest}


def run_side(side: str, seed: int) -> dict:
    out = subprocess.run(
        [sys.executable, "-m", "tests.trace_share", "--unit", side,
         str(seed)], capture_output=True, text=True, check=True,
        cwd=ROOT).stdout
    return json.loads(out.strip().splitlines()[-1])


def _spread(values: list[float], digits: int) -> str:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return f"{median:.{digits}f} [{q1:.{digits}f}, {q3:.{digits}f}]"


def split(seeds: list[int]) -> None:
    sides = ("on", "off", "nosink", "count")
    cpu: dict[str, list[float]] = {side: [] for side in sides}
    print("seed  cpu us/req:     on     off  nosink   count  digests")
    for i, seed in enumerate(seeds):
        k = i % len(sides)
        order = sides[k:] + sides[:k]
        runs = {side: run_side(side, seed) for side in order}
        for side in sides:
            cpu[side].append(runs[side]["cpu_us_per_req"])
        same = len({run["digest"] for run in runs.values()}) == 1
        print(f"{seed:>4}  {'':>10}" + "".join(
            f"{runs[side]['cpu_us_per_req']:>8.1f}" for side in sides)
            + ("  same" if same else "  DIFFER"))
    med = {side: statistics.median(cpu[side]) for side in sides}
    print(f"median over {len(seeds)} seeds, cpu us/req: " + ", ".join(
        f"{side} {med[side]:.1f}" for side in sides))
    print(f"tracer share {med['on'] - med['off']:.1f} us/req: cost mirror "
          f"{med['on'] - med['nosink']:.1f}, feed "
          f"{med['nosink'] - med['count']:.1f}, emission and calls "
          f"{med['count'] - med['off']:.1f} (medians' differences; the "
          "nosink and count sides are diagnostic and feed no checker)")


def main(argv: list[str]) -> None:
    if argv[:1] == ["--unit"]:
        print(json.dumps(unit(argv[1], int(argv[2]))))
        return
    if argv[:1] == ["--split"]:
        split([int(a) for a in argv[1:]] or list(SEEDS))
        return
    seeds = [int(a) for a in argv] or list(SEEDS)
    cpu, rss = [], []
    print("seed  on: cpu us/req  rss MB   off: cpu us/req  rss MB   "
          "share: cpu us/req  rss MB  digests")
    for i, seed in enumerate(seeds):
        order = ("on", "off") if i % 2 == 0 else ("off", "on")
        runs = {side: run_side(side, seed) for side in order}
        on, off = runs["on"], runs["off"]
        cpu.append(on["cpu_us_per_req"] - off["cpu_us_per_req"])
        rss.append(on["rss_mb"] - off["rss_mb"])
        same = on["digest"] == off["digest"]
        print(f"{seed:>4}  {on['cpu_us_per_req']:>16.1f} "
              f"{on['rss_mb']:>7.1f}   {off['cpu_us_per_req']:>16.1f} "
              f"{off['rss_mb']:>7.1f}   {cpu[-1]:>17.1f} {rss[-1]:>7.2f}  "
              + ("same" if same else "DIFFER"))
    if len(seeds) > 1:
        print(f"tracer share, median [quartiles] over {len(seeds)} seeds: "
              f"cpu {_spread(cpu, 1)} us/req, rss {_spread(rss, 2)} MB")


if __name__ == "__main__":
    main(sys.argv[1:])
