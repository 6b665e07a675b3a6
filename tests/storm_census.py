"""Which storm units FAIL at which sub-seeds, in a form two commits can diff.

Runs the benchmark's ``storm_churn`` unit (12 000 hot-key overwrites and
deletes) at sub-seeds 200-279 under the storm without duplicates:
``benchmarks/e2e``'s full storm with ``notif_dup_prob=0``, so the
orchestrator crashes and WAN stalls that the measured storm leaves out
are back in, and hedging stays off.  It prints one line per FAIL (a
failed request, a finding of the unit's gate, or no convergence) with
the failed count and the first finding.  ``tests/golden/storm_census.txt``
is the committed census; a new line is a new finding, a removed line a
fix (~8 min on 2 vCPUs, not in CI):

    make storm-census       # python -m tests.storm_census, diffed
                            # against tests/golden/storm_census.txt

The unit, its gate and its storm are ``benchmarks/e2e``'s own, imported
and never edited.
"""

from __future__ import annotations

from dataclasses import replace

from benchmarks.e2e import harness, workloads

SUB_SEEDS = range(200, 280)
#: Duplicate deliveries are finding (1)'s trigger; the rest of the full
#: storm stays.
STORM = replace(workloads._FULL_STORM, notif_dup_prob=0.0)


def _setup(seed: int, inputs) -> workloads.Env:
    env = workloads._setup_storm_churn(seed, inputs)
    env.cloud.apply_chaos(STORM)    # before the first request, in place
    return env                      # of the measured storm


UNIT = replace(workloads.WORKLOADS["storm_churn"], setup=_setup)


def main() -> None:
    for sub_seed in SUB_SEEDS:
        unit = harness.run_unit(UNIT, sub_seed, UNIT.requests)
        if unit.failed or unit.findings or not unit.converged:
            first = unit.findings[0] if unit.findings else "not converged"
            print(f"sub-seed {sub_seed}: {unit.failed} failed, {first}",
                  flush=True)


if __name__ == "__main__":
    main()
