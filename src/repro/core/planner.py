"""Dynamic replication strategy planning (§5.3, Algorithm 3).

Given an object, the remaining SLO budget (the user SLO minus the time
already consumed by the cloud notification), and a target percentile,
the planner scans parallelism levels exponentially (1, 2, 4, …,
``n_max``) and, at each level, compares executing the replicators at
the **source** region against the **destination** region.  The first
SLO-compliant plan wins — fewer functions means fewer API calls and
less aggregate execution time, so the scan order doubles as a cost
order and the exact cost of each plan never needs computing.  If no
plan complies, the fastest plan found is returned (best effort).

Plans are memoized.  Every model prediction depends on the object size
only through its chunk count, so a plan query is fully determined by
``(src, dst, percentile, chunk count, parallelism cap, inline
eligibility)`` — :class:`PlanCache` stores the predicted percentiles of
every ladder candidate under that key and replays the (cheap)
Algorithm-3 selection against the caller's actual SLO budget.  The
cache subscribes to the model's invalidation feed: drift-triggered
``scale_path``/``set_path_params`` drop the affected (src, dst)
entries, and location-parameter changes clear everything.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro.core.config import (DISTRIBUTED_THRESHOLD, LOCAL_THRESHOLD,
                               ReplicaConfig)
from repro.core.health import HealthTracker, NoRouteAvailable
from repro.core.model import PathKey, PerformanceModel

__all__ = ["Plan", "PlanCache", "StrategyPlanner"]

#: Trace attribute names, one tuple per record schema.
_NO_ROUTE_KEYS = ("src", "dst", "cordoned")
_DEGRADED_KEYS = ("src", "dst", "dropped", "cordoned")


@dataclass(frozen=True, slots=True)
class Plan:
    """An executable replication strategy."""

    n: int                    # number of replicator functions
    loc_key: str              # execution region (functions run here)
    path: PathKey             # (loc, src, dst)
    predicted_s: float        # predicted replication time at percentile p
    percentile: float
    compliant: bool           # predicted_s fits the remaining SLO budget
    inline: bool              # orchestrator replicates by itself (T_func=0)
    #: Median prediction — the runtime logger compares actual task times
    #: against this (comparing against the p99 estimate would read a
    #: healthy model as persistently overestimating).
    predicted_median_s: float = 0.0

    @property
    def distributed(self) -> bool:
        return self.n > 1


#: A scored ladder candidate: (n, loc_key, path, inline, predicted at
#: the target percentile, predicted median).
_Candidate = tuple[int, str, PathKey, bool, float, float]


class PlanCache:
    """Memoized Algorithm-3 candidate tables, keyed per size bucket.

    The key ``(src, dst, p, chunks, n_cap, inline_ok)`` captures every
    way the inputs can influence a prediction, so cached entries are
    exact, not approximate.  Entries hold the scored ladder candidates
    (in scan order); selection against a concrete SLO budget is
    replayed per query, which keeps SLO-mode calls with different
    remaining budgets sharing one entry.
    """

    def __init__(self) -> None:
        self._entries: dict[tuple, list[_Candidate]] = {}
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: tuple) -> Optional[list[_Candidate]]:
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
        else:
            self.hits += 1
        return entry

    def put(self, key: tuple, candidates: list[_Candidate]) -> None:
        self._entries[key] = candidates

    def invalidate(self, path: Optional[PathKey] = None) -> None:
        """Drop entries affected by a model-parameter change.

        ``path`` is the updated :data:`PathKey`; ``None`` (location
        parameters changed) clears the whole cache.
        """
        if path is None:
            self._entries.clear()
            return
        _loc, src, dst = path
        stale = [k for k in self._entries if k[0] == src and k[1] == dst]
        for k in stale:
            del self._entries[k]


class StrategyPlanner:
    """Algorithm 3 over a fitted :class:`PerformanceModel`."""

    def __init__(self, model: PerformanceModel, config: ReplicaConfig,
                 health: HealthTracker):
        self.model = model
        self.config = config
        #: Substrate-health ledger; while any circuit is open, ladder
        #: candidates whose execution location is dark are skipped
        #: (degraded-mode routing).
        self.health = health
        #: Optional :class:`~repro.core.tracing.Tracer`; only the
        #: degraded-routing decisions emit (the per-plan span belongs to
        #: the engine, which knows the task id).
        self.tracer = None
        self.plans_generated = 0
        self.degraded_plans = 0
        self.cache = PlanCache()
        # Fastest-mode selection ignores the SLO budget, so the chosen
        # Plan itself (frozen, safely shared) can be memoized on top of
        # the candidate tables — the trace replay calls nothing else.
        self._fastest_plans: dict[tuple, Plan] = {}
        model.subscribe_invalidation(self._invalidate)

    def _invalidate(self, path) -> None:
        self.cache.invalidate(path)
        if path is None:
            self._fastest_plans.clear()
            return
        _loc, src, dst = path
        stale = [k for k in self._fastest_plans
                 if k[0] == src and k[1] == dst]
        for k in stale:
            del self._fastest_plans[k]

    def _candidate_locs(self, src_key: str, dst_key: str) -> list[str]:
        locs = [src_key]
        if dst_key != src_key:
            locs.append(dst_key)
        return locs

    def _is_inline(self, n: int, loc_key: str, src_key: str, size: int) -> bool:
        """The orchestrator (at the source region) can replicate small
        objects itself, skipping the extra invocation entirely."""
        return n == 1 and loc_key == src_key and size <= LOCAL_THRESHOLD

    def _max_useful_parallelism(self, size: int, fastest: bool = False) -> int:
        """No more functions than data parts; in SLO mode, no
        distribution at all below the distributed-replication threshold
        (a single function is cheaper and compliant).  In fastest mode
        (SLO = 0) every multi-part object may be parallelized — that is
        how the trace replay absorbs bursts of medium objects."""
        if not fastest and size < DISTRIBUTED_THRESHOLD:
            return 1
        return max(1, min(self.config.max_parallelism,
                          self.model.num_chunks(size)))

    def _scored_candidates(self, size: int, src_key: str, dst_key: str,
                           p: float, n_cap: int,
                           inline_ok: bool) -> list[_Candidate]:
        """Score every ladder candidate, batching the model queries.

        Candidates are returned in Algorithm-3 scan order (level-major,
        source location before destination).  Each carries both the
        target-percentile and the median prediction so selection never
        goes back to the model.
        """
        locs = self._candidate_locs(src_key, dst_key)
        slots: list[tuple[int, str, PathKey, bool]] = []
        n = 1
        while n <= n_cap:
            for loc_key in locs:
                path: PathKey = (loc_key, src_key, dst_key)
                if not self.model.has_path(path):
                    continue
                inline = inline_ok and n == 1 and loc_key == src_key
                slots.append((n, loc_key, path, inline))
            n *= 2
        # One vectorized percentile pass per path (candidate queries for
        # the same path share Monte-Carlo state).
        by_path: dict[PathKey, list[int]] = {}
        for i, (_n, _loc, path, _inline) in enumerate(slots):
            by_path.setdefault(path, []).append(i)
        scored: list[Optional[_Candidate]] = [None] * len(slots)
        for path, indices in by_path.items():
            queries = [(slots[i][0], slots[i][3]) for i in indices]
            preds = self.model.predict_percentiles(path, size, queries, (p, 0.5))
            for row, i in enumerate(indices):
                n_i, loc_i, path_i, inline_i = slots[i]
                scored[i] = (n_i, loc_i, path_i, inline_i,
                             float(preds[row, 0]), float(preds[row, 1]))
        return [c for c in scored if c is not None]

    def generate(self, size: int, src_key: str, dst_key: str,
                 slo_remaining: float, percentile: float | None = None) -> Plan:
        """Produce the cheapest SLO-compliant plan, else the fastest.

        ``slo_remaining`` is ``SLO - (now - obj.timestamp)``; it may be
        negative when the notification alone blew the budget, in which
        case the fastest plan is returned (the SLO is already violated,
        per the paper's note on unreasonably tight SLOs).
        """
        p = percentile if percentile is not None else self.config.percentile
        self.plans_generated += 1
        fastest_mode = slo_remaining == -math.inf
        n_cap = self._max_useful_parallelism(size, fastest=fastest_mode)
        inline_ok = size <= LOCAL_THRESHOLD
        key = (src_key, dst_key, p, self.model.num_chunks(size), n_cap,
               inline_ok)
        candidates = self.cache.get(key)
        if candidates is None:
            candidates = self._scored_candidates(size, src_key, dst_key, p,
                                                 n_cap, inline_ok)
            self.cache.put(key, candidates)
        if not candidates:
            raise RuntimeError(
                f"no profiled path between {src_key} and {dst_key}"
            )
        health = self.health
        if health.any_open:
            # Degraded mode: drop candidates whose execution location's
            # FaaS platform sits behind an open circuit.  Filtering
            # happens on a copy — the cache stays health-agnostic so
            # recovery needs no invalidation.
            filtered = [c for c in candidates
                        if health.available(("faas", c[1]))]
            # Distinguish NoRoute-with-intent (an operator cordoned the
            # location) from NoRoute-by-failure (a breaker opened) in
            # the trace: the cordon invariant and operators both need
            # to see *why* a plan degraded.
            cordoned_drops = sum(
                1 for c in candidates
                if not health.available(("faas", c[1]))
                and health.is_cordoned(("faas", c[1])))
            if not filtered:
                if self.tracer is not None:
                    self.tracer.event("plan-no-route", "engine", None,
                                      _NO_ROUTE_KEYS, src_key, dst_key,
                                      cordoned_drops)
                raise NoRouteAvailable(
                    f"every execution location for {src_key}->{dst_key} "
                    f"is behind an open circuit or cordon")
            if len(filtered) != len(candidates):
                self.degraded_plans += 1
                if self.tracer is not None:
                    self.tracer.event(
                        "plan-degraded", "engine", None, _DEGRADED_KEYS,
                        src_key, dst_key, len(candidates) - len(filtered),
                        cordoned_drops)
            candidates = filtered
        # Replay Algorithm 3 against this call's SLO budget: walk the
        # ladder, keep the global best, stop at the first level whose
        # best plan complies.
        best: Optional[_Candidate] = None
        level = candidates[0][0]
        for cand in candidates:
            if cand[0] != level:
                if best is not None and best[4] <= slo_remaining:
                    break
                level = cand[0]
            if best is None or cand[4] < best[4]:
                best = cand
        assert best is not None
        n, loc_key, path, inline, predicted, median = best
        return Plan(
            n=n, loc_key=loc_key, path=path, predicted_s=predicted,
            percentile=p, compliant=predicted <= slo_remaining,
            inline=inline, predicted_median_s=median,
        )

    def fastest(self, size: int, src_key: str, dst_key: str) -> Plan:
        """SLO = 0 mode (§8.1): scan everything, return the fastest."""
        if self.health.any_open:
            # The memoized Plan may route into a dark region; bypass it
            # (without poisoning it) until every circuit closes.
            return self.generate(size, src_key, dst_key,
                                 slo_remaining=-math.inf)
        key = (src_key, dst_key, self.config.percentile,
               self.model.num_chunks(size), size <= LOCAL_THRESHOLD,
               size >= DISTRIBUTED_THRESHOLD)
        plan = self._fastest_plans.get(key)
        if plan is None:
            plan = self.generate(size, src_key, dst_key, slo_remaining=-math.inf)
            self._fastest_plans[key] = plan
        else:
            self.plans_generated += 1
            self.cache.hits += 1
        return plan

    def pinned(self, size: int, n: int, loc_key: str, src_key: str,
               dst_key: str) -> Plan:
        """The plan an experiment pinned to ``(n, loc_key)`` instead of
        running Algorithm 3 (the ablation studies), priced by the model
        when the path is profiled."""
        path = (loc_key, src_key, dst_key)
        inline = n == 1 and loc_key == src_key and size <= LOCAL_THRESHOLD
        predicted = median = 0.0
        if self.model.has_path(path):
            predicted, median = self.model.predict_percentiles(
                path, size, [(n, inline)],
                (self.config.percentile, 0.5))[0].tolist()
        return Plan(n=n, loc_key=loc_key, path=path, predicted_s=predicted,
                    percentile=self.config.percentile, compliant=True,
                    inline=inline, predicted_median_s=median)
