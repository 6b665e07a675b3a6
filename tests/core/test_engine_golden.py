"""Cross-commit engine golden: a refactor must not shift one outcome.

The determinism goldens compare two runs of the *same* build, so they
cannot see a change that moves an RNG draw or reorders two KV
operations consistently.  ``golden/engine_seeds0_2.json`` pins, for
seeds 0-2, a sha256 over every record, the ledger breakdown, the engine
counters and (when traced) the tracer's span and event ``(name, task)``
sequences of seven small scenarios that between them walk the inline,
single, distributed, hedged, verified-retransfer, parked and restarted
paths.  Regenerate it only for a change that is meant to alter
simulated behaviour:

    PYTHONPATH=src python -m tests.core.test_engine_golden
"""

import dataclasses
from dataclasses import replace
import hashlib
import itertools
import json
import pathlib

import pytest

from repro.core.lifecycle import OperationsRunner
from repro.simcloud import objectstore
from repro.simcloud.chaos import ChaosConfig
from repro.simcloud.objectstore import Blob

from tests.core import (test_chaos_convergence, test_determinism_golden,
                        test_engine_edge_cases, test_hedging,
                        test_lifecycle, test_outage_degradation)
from tests.core.test_trace_invariants import keeping_records

GOLDEN_PATH = (pathlib.Path(__file__).parent.parent / "golden"
               / "engine_seeds0_2.json")
SEEDS = (0, 1, 2)
MB = 1024 * 1024
SRC, DST = test_lifecycle.SRC, test_lifecycle.DST
#: In-flight flips, truncated reads and lying ETags (no durable rot:
#: that needs a scrub to heal, which is the corruption drill's job).
CORRUPTION = dict(corrupt_get_prob=0.08, corrupt_put_prob=0.08,
                  corrupt_truncate_prob=0.04, corrupt_wrong_etag_prob=0.04)


def _fig12(seed):
    return test_determinism_golden._fig12_run(seed)


def _fig23(seed):
    return test_determinism_golden._fig23_run(seed)


def _chaos_storm(seed):
    cloud, svc, *_ = test_chaos_convergence.soak(
        seed, replace(test_chaos_convergence.STORM, **CORRUPTION),
        tracing_enabled=True)
    return cloud, svc


def _hedged_stalls(seed):
    with test_hedging.hedge_every_part():
        cloud, svc, src, _rule = test_hedging._service(
            seed, tracing=True, mc_samples=300, **test_hedging.HEDGE_KNOBS)
        test_hedging._stalled_replay(cloud, svc, src, seed=seed,
                                     requests=200)
    return cloud, svc


def _kv_outage(seed):
    cloud, svc, src, _dst, _rule = test_outage_degradation.build(
        seed, tracing_enabled=True)
    cloud.apply_chaos(ChaosConfig(kv_outages=((SRC, 0.0, 600.0),)))
    test_outage_degradation.put_spaced(cloud, src, 12, gap_s=30.0)
    svc.run_to_convergence()
    return cloud, svc


def _rolling_restart(seed):
    """Checkpoint -> rebuild_engine -> restore while both FaaS platforms
    are dark, so the restart happens over a non-empty backlog and the
    adopted backlog and hedger keep working for the rebuilt engine."""
    with test_hedging.hedge_every_part():
        cloud, svc, src, _dst, rule = test_lifecycle.build(
            seed, **test_hedging.HEDGE_KNOBS)
        cloud.apply_chaos(ChaosConfig(
            faas_outages=((SRC, 100.0, 250.0), (DST, 100.0, 250.0))))
        test_lifecycle.spawn_workload(cloud, src, n=60)
        OperationsRunner(svc, rule.rule_id).schedule("rolling", 200.0)
        cloud.run()
        svc.run_to_convergence()
    return cloud, svc


def _pinned_plans(seed):
    """The ablation hook: a remote single replicator (one PUT, then a
    multipart) and fixed fan-outs, under in-flight corruption."""
    cloud, svc, src, _dst, rule = test_engine_edge_cases.build(
        seed, dst_key=DST, tracing_enabled=True)
    cloud.apply_chaos(ChaosConfig(**CORRUPTION))
    for i, (plan, size) in enumerate((((1, DST), 2 * MB), ((1, DST), 72 * MB),
                                      ((4, SRC), 96 * MB),
                                      ((3, DST), 40 * MB))):
        rule.engine.forced_plan = plan
        src.put_object(f"k{i}", Blob.fresh(size), cloud.now)
        cloud.run()
    cloud.apply_chaos(None)
    svc.run_to_convergence()
    return cloud, svc


SCENARIOS = {
    "fig12": _fig12, "fig23": _fig23, "chaos-storm": _chaos_storm,
    "hedged-stalls": _hedged_stalls, "kv-outage": _kv_outage,
    "rolling-restart": _rolling_restart, "pinned-plans": _pinned_plans,
}


def digest(name: str, seed: int) -> str:
    # Blob content ids come from one process-global counter; reset it
    # so the digest does not depend on which tests ran before.
    objectstore._fresh_counter = itertools.count()
    with keeping_records():
        cloud, svc = SCENARIOS[name](seed)
    tracer = svc.tracer
    return hashlib.sha256(repr((
        [dataclasses.astuple(r) for r in svc.records],
        sorted(cloud.ledger.breakdown().items()),
        [sorted(rule.engine.stats.items())
         for _rid, rule in sorted(svc.rules.items())],
        tracer and ([(s.name, s.task) for s in tracer.spans],
                    [(e.name, e.task) for e in tracer.events]),
    )).encode()).hexdigest()


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", list(SCENARIOS))
def test_engine_outcomes_match_the_parent_commit(name, seed):
    golden = json.loads(GOLDEN_PATH.read_text())
    assert digest(name, seed) == golden[name][str(seed)]


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(
        {name: {str(seed): digest(name, seed) for seed in SEEDS}
         for name in SCENARIOS}, indent=1) + "\n")
