"""One measured unit: set up, replay to convergence, gate, metrics.

A *unit* is one fixed-size workload instance run once: generate the
inputs, build the deployment, apply every request at its simulated
instant, ``run_to_convergence``.  Host numbers cover the timed region
only (replay + convergence); everything before the first request is
``setup_s``; both are read through a :class:`SpeedSampler`, which
rescales them to a nominal machine speed.  The gate and the simulated
outcomes are computed after the clock stops.
"""

from __future__ import annotations

import gc
import hashlib
import json
import signal
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from repro.core.audit import ReplicationAuditor
from repro.core.invariants import TraceChecker
from repro.traces.replay import TraceReplayer

from benchmarks.e2e.tracing import SpanRecorder
from benchmarks.e2e.workloads import Env, Workload

__all__ = ["UnitResult", "set_up", "run_unit", "pick_tail_q", "sim_outcomes",
           "layer_metrics", "SpeedSampler", "NOMINAL_LOOPS_PER_S"]

#: Quantiles a tail may be reported at; the highest with at least
#: ``_TAIL_MIN_BEYOND`` samples beyond it is used (0.9 is the floor for
#: workloads with too few requests for 0.99).  Ten samples beyond is the
#: least that means anything; a hundred is what it took for the tail to
#: agree across seeds to within a few percent on all four workloads.
TAIL_LADDER = (0.9, 0.99, 0.999, 0.9999)
_TAIL_MIN_BEYOND = 100
_DIVERGENT = ("divergence", "silent-divergence")
#: Host times are reported in nominal seconds: the time in which the
#: calibration spin makes this many loops.  The value only fixes the
#: unit — any two results compare as long as both used it, on whatever
#: box — and 25e6 makes a nominal second a wall second on the quiet
#: 2-vCPU box the baseline was taken on.  (A rate measured per run or
#: per suite session cannot stand in for it: runs in different speed
#: states of the machine would each be rescaled to themselves.)
NOMINAL_LOOPS_PER_S = 25e6
_SPIN_LOOPS = 10_000
_SAMPLE_EVERY_S = 0.05


def pick_tail_q(samples: int) -> float:
    """Highest ladder quantile with enough samples beyond it."""
    best = TAIL_LADDER[0]
    for q in TAIL_LADDER:
        if samples * (1.0 - q) >= _TAIL_MIN_BEYOND - 1e-9:
            best = q
    return best


class SpeedSampler:
    """Host time of a region, rescaled to a nominal machine speed.

    The benchmark's one answer to machine-speed drift (nothing re-runs
    or discards a run).  This box (and any shared VM) drifts between
    speed states: for seconds to tens of seconds everything runs up to
    ~40 % slower, a fixed pure-Python spin included.  Every
    ``_SAMPLE_EVERY_S`` of the region a timer signal runs that spin for
    ``_SPIN_LOOPS`` iterations
    (~0.4 ms, <1 % of the region) and notes its rate; the time between
    two readings is then counted at ``rate / NOMINAL_LOOPS_PER_S`` of
    its length, i.e. as what it would have taken on a machine that spins
    at the nominal rate.  The faster of the two readings is used, since
    a reading can be spuriously low (the spin itself got preempted) but
    not spuriously high.  The spins' own time is left out.

    The spin is integer arithmetic in registers on purpose.  A spin that
    walks memory tracks the simulator's speed more closely (tried: 25 %
    less residual noise) but reads faster or slower depending on what
    the measured program has just done to the caches, so it would cancel
    part of any change to the program's own memory behaviour.  This one
    the program cannot influence; the price is that slowdowns caused by
    a neighbour's memory traffic are not corrected.
    """

    def __init__(self) -> None:
        #: (spin start, spin end, cpu at start, cpu at end, loops/s)
        self.readings: list[tuple[float, float, float, float, float]] = []

    def _read(self, *_signal_args) -> None:
        t0, c0 = time.perf_counter(), time.process_time()
        x = 0
        for i in range(_SPIN_LOOPS):
            x += i & 3
        t1 = time.perf_counter()
        self.readings.append((t0, t1, c0, time.process_time(),
                              _SPIN_LOOPS / (t1 - t0)))

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._read)
        self._read()
        signal.setitimer(signal.ITIMER_REAL, _SAMPLE_EVERY_S, _SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc_info) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        self._read()
        signal.signal(signal.SIGALRM, self._previous)

    def _rescaled(self, start_field: int, end_field: int) -> float:
        r = self.readings
        return sum((b[start_field] - a[end_field]) * max(a[4], b[4])
                   for a, b in zip(r, r[1:])) / NOMINAL_LOOPS_PER_S

    @property
    def wall_s(self) -> float:
        """Wall seconds of the region at nominal machine speed."""
        return self._rescaled(0, 1)

    @property
    def cpu_s(self) -> float:
        """Process CPU seconds of the region at nominal machine speed."""
        return self._rescaled(2, 3)

    @property
    def raw_wall_s(self) -> float:
        return self.readings[-1][0] - self.readings[0][1]

    @property
    def mloops_per_s(self) -> float:
        """Median machine-speed reading, in millions of loops a second."""
        return statistics.median(r[4] for r in self.readings) / 1e6


@dataclass
class UnitResult:
    requests: int                 # source PUT+DELETE requests applied
    failed: int                   # requests not converged at quiescence
    bytes_written: int
    setup_s: float                # at nominal machine speed, like wall_s, cpu_s
    gen_s: float                  # input generation, as the clock read it
    wall_s: float
    cpu_s: float
    raw_wall_s: float             # the timed region as the clock read it
    mloops_per_s: float           # median machine-speed reading
    events: int                   # kernel events scheduled in the timed region
    delays: np.ndarray            # sorted replication delays, simulated s
    slo_misses: int               # delays beyond their rule's limit
    cost_usd: float               # metered in the timed region, simulated
    digest: str                   # of every simulated outcome of the unit
    converged: bool
    findings: list[str] = field(default_factory=list)
    #: Counters the program itself publishes, for the per-layer table.
    counters: dict = field(default_factory=dict)
    profiler_s: float = 0.0       # traced runs: inclusive ensure_path time


def _sum_dicts(dicts) -> dict:
    out: dict = {}
    for d in dicts:
        for k, v in d.items():
            out[k] = out.get(k, 0) + v
    return out


def _faas_stats(env: Env) -> dict:
    """Platform counters summed over every function the rules deployed."""
    stats = []
    for rule in env.service.rules.values():
        for faas in {env.cloud.faas(rule.src_bucket.region.key),
                     env.cloud.faas(rule.dst_bucket.region.key)}:
            for kind in ("orch", "rep", "apply"):
                try:
                    stats.append(faas.deployment_stats(
                        f"areplica-{kind}-{rule.rule_id}"))
                except KeyError:        # the applier deploys at dst only
                    pass
    return _sum_dicts(stats)


def set_up(workload: Workload, seed: int, n: int):
    """Everything up to the first request: generate the inputs, build
    and onboard the deployment, arm one replayer per source bucket.
    Returns (env, replayers, generation seconds, set-up seconds)."""
    gc.collect()
    with SpeedSampler() as clock:
        t0 = time.perf_counter()
        inputs = workload.generate(seed, n)
        gen_s = time.perf_counter() - t0
        env = workload.setup(seed, inputs)
        replayers = [TraceReplayer(env.cloud, bucket, inputs.time_scale)
                     for bucket, _ in env.plan]
        for replayer, (_, stream) in zip(replayers, env.plan):
            env.cloud.sim.spawn(replayer.replay_batches(stream),
                                name="trace-replay")
    return env, replayers, gen_s, clock.wall_s


def run_unit(workload: Workload, seed: int, n: int,
             rec: Optional[SpanRecorder] = None) -> UnitResult:
    """Run one unit of ``n`` requests.  With ``rec`` its layer wrappers
    are installed for the set-up and the timed region (the gate runs
    unwrapped) and the recorder is left holding the timed region only."""
    with rec.installed() if rec is not None else nullcontext():
        env, replayers, gen_s, setup_s = set_up(workload, seed, n)
        cloud, service = env.cloud, env.service
        profiler_s = 0.0
        if rec is not None:
            profiler_s = rec.inclusive_s("profiler", "ensure_path")
            rec.reset()
        cost0 = cloud.ledger.total()
        events0 = cloud.sim._seq    # read-only peek at the kernel counter
        with SpeedSampler() as clock:
            cloud.run()
            env.after_replay()
            report = service.run_to_convergence()
        events = cloud.sim._seq - events0

    requests = sum(r.stats.requests for r in replayers)
    bytes_written = sum(r.stats.bytes_written for r in replayers)

    # -- gate (never raises: findings are reported, failures counted) ------
    findings: list[str] = []
    divergent = set()
    auditor = ReplicationAuditor(service)
    for rule in service.rules.values():
        for f in auditor.audit(rule, quiescent=True).findings:
            findings.append(f"{rule.rule_id} {f}")
            if f.kind in _DIVERGENT:
                divergent.add((rule.src_bucket.name, f.key))
    if service.tracer is not None:
        findings += [str(f) for f in TraceChecker(service).check().findings]
    pending = service.pending_count()
    failed = (len(divergent) + pending + report.residual_dead_letters
              + report.parked_backlog + report.deferred_tenant_tasks)
    converged = report.converged and pending == 0

    # -- simulated outcomes ----------------------------------------------------
    limit = {rid: env.slo_by_rule(rid) or workload.slo_s
             for rid in service.rules}
    delays = np.sort(np.asarray([r.delay for r in service.records]))
    misses = sum(1 for r in service.records if r.delay > limit[r.rule_id])
    engine_stats = _sum_dicts(r.engine.stats for r in service.rules.values())
    chaos_stats = cloud.chaos_stats()
    digest = hashlib.sha256(json.dumps([
        [repr(d) for d in delays.tolist()],
        sorted(cloud.ledger.breakdown().items()),
        sorted(engine_stats.items()), sorted(chaos_stats.items()),
    ]).encode()).hexdigest()

    summary = service.summary()
    counters = {
        "engine": engine_stats,
        "faas": _faas_stats(env),
        "chaos_injected": sum(chaos_stats.values()),
        "dead_letters": report.redriven + report.residual_dead_letters,
        "plan_cache_hits": summary["plan_cache_hits"],
        "plan_cache_misses": summary["plan_cache_misses"],
        "plans_generated": summary["plans_generated"],
        "rules": summary["rules"],
        "tenant": {k: summary.get(k, 0) for k in
                   ("admitted", "deferred", "rejected", "fairshare_waits")},
    }
    return UnitResult(
        requests=requests, failed=failed, bytes_written=bytes_written,
        setup_s=setup_s, gen_s=gen_s, wall_s=clock.wall_s,
        cpu_s=clock.cpu_s, raw_wall_s=clock.raw_wall_s,
        mloops_per_s=clock.mloops_per_s, events=events, delays=delays,
        slo_misses=misses,
        cost_usd=cloud.ledger.total() - cost0, digest=digest,
        converged=converged, findings=findings, counters=counters,
        profiler_s=profiler_s)


def sim_outcomes(units: Sequence[UnitResult]) -> dict:
    """Simulated outcomes pooled over ``units`` (replicas of one
    workload under different sub-seeds); repeat exactly for a seed."""
    delays = np.sort(np.concatenate([u.delays for u in units]))
    requests = sum(u.requests for u in units)
    failed = sum(u.failed for u in units)
    misses = sum(u.slo_misses for u in units)
    tail_q = pick_tail_q(len(delays))
    return {
        "sim_delay_p50_s": float(np.quantile(delays, 0.5)),
        "sim_delay_tail_s": float(np.quantile(delays, tail_q)),
        "sim_cost_usd_per_gb": sum(u.cost_usd for u in units)
        / (sum(u.bytes_written for u in units) / 1e9),
        "slo_met_frac": 1.0 - min(1.0, (misses + failed) / requests),
        "converged_frac": 1.0 - min(1.0, failed / requests),
        "tail_q": tail_q,
        "delay_samples": len(delays),
    }


# -- per-layer table -------------------------------------------------------------

#: Layers whose self time is reported as ``<layer>.self_us_per_req``.
SELF_TIME_LAYERS = (
    "sim", "faas", "kvstore", "objectstore", "network", "notifications",
    "cost", "health", "engine", "planner", "model", "partpool", "locks",
    "service", "scheduler", "sharding", "tracing", "replay")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(traced: UnitResult, rec: SpanRecorder,
                  untraced: UnitResult, hedged: Optional[UnitResult] = None
                  ) -> dict[str, tuple[float, str]]:
    """Every per-layer metric as name -> (value, unit).

    Self times and call counts come from the traced unit's spans; the
    remaining counters are the program's own, read after the run.  The
    ``engine.hedge*`` metrics compare ``hedged`` (the workload's hedged
    variant on the same inputs, untraced) with ``untraced`` and are 0
    without it.
    """
    n = traced.requests
    kreq = n / 1000.0
    # Span clocks read raw time; bring them to nominal machine speed by
    # the factor the traced region as a whole was rescaled by.
    us = 1e6 / n * traced.wall_s / traced.raw_wall_s
    out: dict[str, tuple[float, str]] = {}
    for layer in SELF_TIME_LAYERS:
        out[f"{layer}.self_us_per_req"] = (rec.self_s(layer) * us,
                                           "us/req")
    eng, faas, c = (traced.counters["engine"], traced.counters["faas"],
                    traced.counters)
    tasks = eng["tasks"]

    def per_req(name: str, value: float) -> None:
        out[name] = (value / n, "count/req")

    def per_kreq(name: str, value: float) -> None:
        out[name] = (value / kreq, "count/kreq")

    def frac(name: str, num: float, den: float) -> None:
        out[name] = (_ratio(num, den), "frac")

    per_req("sim.events_per_req", traced.events)
    out["sim.self_ns_per_event"] = (
        _ratio(rec.self_s("sim") * us * n * 1e3, traced.events), "ns/event")
    per_req("faas.invocations_per_req", faas.get("invocations", 0))
    frac("faas.cold_start_frac", faas.get("cold_starts", 0),
         faas.get("cold_starts", 0) + faas.get("warm_starts", 0))
    per_kreq("faas.retries_per_kreq", faas.get("retries", 0))
    per_kreq("faas.dead_letters_per_kreq", c["dead_letters"])
    per_req("kvstore.ops_per_req", rec.calls("kvstore"))
    per_req("kvstore.reads_per_req", rec.calls("kvstore", "get_item"))
    per_req("kvstore.cond_writes_per_req",
            rec.calls("kvstore", "conditional_put", "put_if_absent",
                      "update_item", "increment"))
    per_req("objectstore.ops_per_req", rec.calls("objectstore"))
    per_req("network.samples_per_req", rec.calls("network"))
    per_req("cost.charges_per_req", rec.calls("cost", "charge"))
    per_req("engine.resumes_per_req", rec.resumes("engine"))
    per_req("engine.tasks_per_req", tasks)
    frac("engine.inline_frac", eng["inline"], tasks)
    frac("engine.distributed_frac", eng["distributed"], tasks)
    frac("engine.useful_task_frac",
         eng["inline"] + eng["single"] + eng["distributed"] + eng["deletes"]
         + eng["changelog_applied"], tasks)
    per_req("engine.deferred_per_req", eng["deferred"])
    frac("engine.skipped_done_frac", eng["skipped_done"], tasks)
    per_kreq("engine.retriggered_per_kreq", eng["retriggered"])
    per_kreq("engine.lock_lost_per_kreq", eng["lock_lost"])
    per_kreq("engine.kv_retries_per_kreq", eng["kv_retries"])
    per_kreq("engine.recovered_per_kreq",
             eng.get("recovered_parts", 0) + eng.get("recovered_finalize", 0))
    h_eng = hedged.counters["engine"] if hedged else {}
    frac("engine.hedge_win_frac", h_eng.get("hedge_wins", 0),
         h_eng.get("hedges", 0))
    per_kreq("engine.hedges_per_kreq", h_eng.get("hedges", 0))
    per_kreq("engine.hedged_unconverged_per_kreq",
             hedged.failed if hedged else 0)
    for name, of in (
            ("host", lambda u: u.wall_s), ("cost", lambda u: u.cost_usd),
            ("tail", lambda u: sim_outcomes([u])["sim_delay_tail_s"])):
        out[f"engine.hedged_{name}_ratio"] = (
            of(hedged) / of(untraced) if hedged else 0.0, "ratio")
    per_req("planner.plans_per_req", c["plans_generated"])
    frac("planner.cache_hit_frac", c["plan_cache_hits"],
         c["plan_cache_hits"] + c["plan_cache_misses"])
    per_req("partpool.ops_per_req", rec.calls("partpool"))
    per_req("locks.acquires_per_req", rec.calls("locks", "lock"))
    per_req("service.admitted_per_req", c["tenant"]["admitted"])
    per_kreq("service.deferred_per_kreq", c["tenant"]["deferred"])
    per_kreq("service.rejected_per_kreq", c["tenant"]["rejected"])
    per_req("scheduler.waits_per_req", c["tenant"]["fairshare_waits"])
    out["service.rules"] = (float(c["rules"]), "count")
    per_req("tracing.spans_per_req", rec.calls("tracing"))
    per_kreq("chaos.injected_per_kreq", c["chaos_injected"])
    out["ibm_cos.gen_reqs_per_s"] = (_ratio(n, traced.gen_s), "req/s")
    out["profiler.self_s"] = (traced.profiler_s, "s")
    out["trace.overhead_ratio"] = (_ratio(traced.wall_s, untraced.wall_s),
                                   "ratio")
    out["trace.coverage_frac"] = (
        _ratio(rec.self_s(), traced.raw_wall_s), "frac")
    return out
