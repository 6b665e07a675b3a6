"""Which drills FAIL at which seeds, in a form two commits can diff.

Runs every drill of the roster at seeds 0-31, each the way ``areplica
drill-all`` runs it, and prints one line per FAIL: the drill, the seed
and its first failure — the first finding of the audit, the final scan
or the trace checker, else non-convergence or pending measurements,
else the first gate that failed.  ``tests/golden/census.txt`` is the
committed census; a new line there is a new finding, a removed line a
fix (~4 min, not in CI):

    make census             # PYTHONPATH=src python -m tests.census,
                            # diffed against tests/golden/census.txt
"""

from __future__ import annotations

from repro.drills import DRILLS, run_drill

SEEDS = range(32)


def first_failure(run) -> str:
    """What made a non-PASS drill run fail, as one line."""
    verdict = run.verdict
    for report in (verdict.audit, verdict.repair, verdict.trace):
        if report is not None and report.findings:
            return str(report.findings[0])
    if not verdict.convergence.converged:
        return "not converged"
    if verdict.pending:
        return f"{verdict.pending} pending measurement(s)"
    failed = [name for name, ok in run.report["gates"].items() if not ok]
    return f"gate {failed[0]} failed"


def main_census() -> None:
    for seed in SEEDS:
        for name, spec in DRILLS.items():
            try:
                run = run_drill(spec, seed=seed)
            except Exception as exc:  # noqa: BLE001 - a crash is a FAIL
                failure = f"raised {type(exc).__name__}: {exc}"
            else:
                if run.report["pass"]:
                    continue
                failure = first_failure(run)
            print(f"{name:<22} seed {seed:>2}: {failure}", flush=True)


if __name__ == "__main__":
    main_census()
