"""The whole suite and the comparison of two suite result files.

``run_suite`` makes every run in a fresh subprocess (the same command
the driver uses) and interleaves the ``REPEATS`` untraced runs of each
workload round-robin across workloads, so that slow drift of the machine
lands on all of them alike.  Host metrics are reported as median,
quartiles and n; no best-of-N anywhere.  Simulated outcomes and
``sim_digest`` must be identical across a workload's repeats and its
traced run.

``compare`` applies the bounds of ``BENCHMARK.json`` to two result
files, one row per (workload, end-to-end metric).
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import tempfile
from pathlib import Path

__all__ = ["run_suite", "compare", "summarize"]

#: Untraced runs per workload.
REPEATS = 3


def summarize(values: list[float]) -> dict:
    """Median, quartiles (``statistics.quantiles(n=4)``) and n."""
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else (values[0],) * 3)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


def _one_run(command: list[str], workload: str, seed: int, seconds: float,
             trace: int, smoke: bool, out: str | None, report: str) -> dict:
    argv = [*command, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
            "--report", report]
    if smoke:
        argv.append("--smoke")
    if out and trace:
        argv += ["--out", out]
    proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
    # Exit 1 is a completed run that reports "correct": false.
    if proc.returncode not in (0, 1) or not os.path.exists(report):
        raise RuntimeError(f"{workload}: run failed (exit {proc.returncode})"
                           f"\n{proc.stdout}")
    return json.loads(Path(report).read_text())


def run_suite(spec: dict, command: list[str], args) -> int:
    names = [w["name"] for w in spec["workloads"]]
    runs: dict[str, list[dict]] = {name: [] for name in names}
    traced: dict[str, dict] = {}
    if args.out:
        os.makedirs(args.out, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=args.out or None) as tmp:
        def run(name: str, trace: int, repeat: int = 0) -> dict:
            print(f"[suite] {name} trace={trace} ...", flush=True)
            # One report file per run: a run that dies without writing
            # its own must not be read as the previous one's.
            return _one_run(
                command, name, args.seed, args.seconds, trace, args.smoke,
                args.out, os.path.join(tmp, f"{name}-{trace}-{repeat}.json"))

        for repeat in range(REPEATS):
            for name in names:
                runs[name].append(run(name, 0, repeat))
        for name in names:
            traced[name] = run(name, 1)

    ok = True
    result = {"meta": {"seed": args.seed, "seconds": args.seconds,
                       "repeats": REPEATS, "smoke": args.smoke},
              "workloads": {}}
    for name in names:
        first = runs[name][0]
        every = runs[name] + [traced[name]]
        # Repeats agree on all three replicas; the traced run's two
        # units (untraced, traced) are replica 0 again.
        digests_agree = (
            all(r["sim_digest"] == first["sim_digest"] for r in runs[name])
            and all(u["digest"] == first["units"][0]["digest"]
                    for u in traced[name]["units"]))
        correct = digests_agree and all(r["correct"] for r in every)
        ok = ok and correct
        result["workloads"][name] = {
            "correct": correct,
            "sim_digest": first["sim_digest"] if digests_agree else None,
            # Both over every unit of every run, traced run included.
            "attempted": sum(r["attempted"] for r in every),
            "failed": sum(r["failed"] for r in every),
            "requests_per_unit": first["requests_per_unit"],
            "sim": first["sim"], "slo_s": first["slo_s"],
            "findings": sorted({f for r in every for f in r["findings"]}),
            "calib_mops": [r["calib_mops"] for r in runs[name]],
            "end_to_end": {
                m["name"]: {
                    **summarize([r["metrics"][m["name"]]["value"]
                                 for r in runs[name]]),
                    "unit": m["unit"]}
                for m in spec["end_to_end"]},
            "per_layer": traced[name]["metrics"],
        }
    _print_suite(result)
    if args.out:
        path = os.path.join(args.out, "suite.json")
        Path(path).write_text(json.dumps(result, indent=1) + "\n")
        print(f"[suite] wrote {path}")
    return 0 if ok else 1


def _print_suite(result: dict) -> None:
    for name, w in result["workloads"].items():
        print(f"\n== {name}: {w['requests_per_unit']} requests/unit, failed "
              f"{w['failed']} of {w['attempted']} attempted in all runs, "
              f"correct {w['correct']}, tail_q "
              f"{w['sim']['tail_q']} over {w['sim']['delay_samples']} delays, "
              f"slo_s {w['slo_s']}, sim_digest {w['sim_digest']}")
        for metric, s in w["end_to_end"].items():
            print(f"  {metric:<24} {s['median']:>14.6g} {s['unit']:<8} "
                  f"[q1 {s['q1']:.6g}, q3 {s['q3']:.6g}, n {s['n']}]")
        for metric, m in w["per_layer"].items():
            print(f"  {metric:<34} {m['value']:>14.6g} {m['unit']}")
        for finding in w["findings"]:
            print(f"  finding: {finding}")


def compare(spec: dict, path_a: str, path_b: str) -> int:
    """One row per (workload, end-to-end metric): B against base A.

    ``worse``: B's median is worse than A's by more than the metric's
    bound.  ``unresolved``: it is not, but the run-to-run spread
    (quartile distance over median, either side) is wider than the
    bound, so "same" cannot be told.  ``better``: B's median is better
    by more than A's own spread.  Exit status 1 on any ``worse`` or on a
    lower ``converged_frac``.
    """
    a = json.loads(Path(path_a).read_text())["workloads"]
    b = json.loads(Path(path_b).read_text())["workloads"]
    bad = False
    print(f"{'workload':<16} {'metric':<22} {'A median':>12} {'B median':>12} "
          f"{'B/A':>8} {'spread':>8} {'bound':>7}  verdict")
    for name in a:
        if name not in b:
            continue
        for m in spec["end_to_end"]:
            sa, sb = (x[name]["end_to_end"][m["name"]] for x in (a, b))
            base, new = sa["median"], sb["median"]
            sign = 1.0 if m["better"] == "lower" else -1.0
            worse_by = sign * (new - base) / base
            spread = max((s["q3"] - s["q1"]) / s["median"] for s in (sa, sb))
            own_spread = (sa["q3"] - sa["q1"]) / base
            if worse_by > m["bound"] or (m["name"] == "converged_frac"
                                         and new < base):
                verdict, bad = "worse", True
            elif spread > m["bound"]:
                verdict = "unresolved"
            elif worse_by < 0 and -worse_by > own_spread:
                verdict = "better"
            else:
                verdict = "same"
            print(f"{name:<16} {m['name']:<22} {base:>12.6g} {new:>12.6g} "
                  f"{new / base:>8.4f} {spread:>8.4f} {m['bound']:>7.3f}  "
                  f"{verdict}")
        same = a[name]["sim_digest"] == b[name]["sim_digest"]
        print(f"{name:<16} sim_digest {'identical' if same else 'DIFFERS'}")
    return 1 if bad else 0
