"""Speculative hedging: straggler cloning for tail latency.

When a distributed part overruns a deadline derived from recent
completions, the same range is cloned onto a fresh FaaS instance and
first-writer-wins into the part pool settles the race.  A
:class:`Hedger` owns everything that exists only while hedging is on —
the completion-sample window, the clone sequence and the registry of
live clone bodies — and an engine constructs one only when
``hedging_enabled``; the disabled path is ``engine.hedger is None`` and
adds no events, draws, or KV operations.
"""

from __future__ import annotations

import itertools
from typing import Optional

from repro.core import distributed
from repro.core.partpool import pool_for
from repro.core.task import HEDGE_RESOLVED_KEYS, HEDGE_START_KEYS
from repro.simcloud.cost import CostCategory
from repro.simcloud.monitoring import TimeSeries
from repro.simcloud.sim import Interrupt

__all__ = ["Hedger", "HEDGE_WINDOW_S", "HEDGE_MIN_PART_BYTES",
           "HEDGE_MIN_SAMPLES"]

#: Trace attribute names, one tuple per record schema.
_HEDGE_KEYS = ("part", "seq", "outcome")

#: Trailing window over part-completion samples feeding the deadline
#: percentile.
HEDGE_WINDOW_S = 300.0
#: Parts smaller than this are never hedged: a clone's cold start and
#: invocation latency dwarf any straggler saving on tiny parts.
HEDGE_MIN_PART_BYTES = 1024 * 1024
#: Minimum part-completion samples in the trailing window before any
#: deadline is derived at all (fewer samples -> "never hedge").
HEDGE_MIN_SAMPLES = 8

_NOT_DONE = {"part_done": False, "finished": False}


class Hedger:
    """Per-engine hedging state and the hedged part race.

    Tunables (``hedge_deadline_quantile``, ``max_clones_per_part``) are
    read through ``self.engine.config`` at use time: the autopilot replaces that
    config object while tasks are in flight, and a rebuilt engine
    adopts the hedger by pointing ``engine`` at itself.
    """

    def __init__(self, engine):
        self.engine = engine
        #: Trailing per-part completion durations in seconds — the
        #: sample feed for the windowed-percentile hedge deadline.
        self.samples = TimeSeries(f"hedge-samples:{engine.rule_id}")
        self._seq = itertools.count(1)
        #: Live clone transfer bodies keyed by (task_id, part, seq); the
        #: race cancels the losing side in flight through this registry
        #: (a process interrupt).
        self._live: dict[tuple, object] = {}

    def eligible(self, size: int) -> bool:
        """Whether a transfer of ``size`` bytes is worth a clone budget
        (and so must flow through the part pool, where it gets one)."""
        cfg = self.engine.config
        return (cfg.max_clones_per_part > 0
                and size >= HEDGE_MIN_PART_BYTES)

    def deadline(self, now: float) -> Optional[float]:
        """Hedge deadline in seconds for a part starting ``now``, or None.

        The deadline is the windowed ``hedge_deadline_quantile`` of
        recent part completion durations.  Too few samples — cold
        start, or a window the trailing completions have aged out of —
        yields the explicit ``None`` sentinel meaning *never hedge*.
        Never NaN: every comparison against NaN is False, so a NaN
        deadline would silently decide the overrun check in whichever
        direction the comparison happens to be written; the sentinel
        keeps the fail-safe direction explicit.
        """
        cfg = self.engine.config
        cutoff = now - HEDGE_WINDOW_S
        _times, values = self.samples.window(cutoff)
        if len(values) < HEDGE_MIN_SAMPLES:
            return None
        # Bound the sample buffer: anything older than a full window
        # behind the cutoff can never be read again.
        self.samples.discard_before(cutoff - HEDGE_WINDOW_S)
        return self.samples.window_percentile(
            cfg.hedge_deadline_quantile, HEDGE_WINDOW_S, now)

    def _fire(self, ctx, task, idx, seq, deadline_s, elapsed):
        """Process: launch one speculative clone of part ``idx``.

        The invocation forces a cold start — the point of cloning is
        drawing a fresh per-instance channel factor, not re-landing on
        a warm (and possibly just-as-slow) instance — and its request
        fee is charged to the cloning-aware HEDGE_CLONES ledger line so
        hedging's spend is readable separately from ordinary
        replication traffic.
        """
        engine = self.engine
        engine.stats["hedges"] += 1
        task_id = task["task_id"]
        if engine.tracer is not None:
            engine.tracer.event("hedge-start", "engine", task_id,
                                HEDGE_START_KEYS, task["key"], idx, seq,
                                deadline_s, elapsed)
        faas = engine.cloud.faas(ctx.region.key)
        faas.ledger.charge(CostCategory.HEDGE_CLONES,
                           faas.prices.faas[faas.provider].per_request,
                           task_id)
        payload = dict(task, mode="hedge-clone", hedge_part=idx,
                       hedge_seq=seq, worker_index=f"hedge{seq}")
        return (yield from ctx.invoke(faas, engine._rep_name, payload,
                                      fresh_instance=True))

    @staticmethod
    def _clone_guard(invocation):
        """Process: join a clone invocation, mapping platform-level
        failure (a clone that dead-lettered) onto a result value — a
        losing contender must never fail the race's combined future."""
        try:
            result = yield invocation
        except Interrupt:
            raise
        except Exception:
            result = None
        if not isinstance(result, dict):
            return dict(_NOT_DONE, status="error")
        return result

    def part(self, ctx, task, pool, worker_key, start, idx, offset, length):
        """Process: one part under speculative hedging.

        The primary attempt runs as a child process raced against a
        deadline gate derived from the windowed percentile of recent
        completions (:meth:`deadline`).  When the part overruns its
        deadline, the range is cloned onto a fresh FaaS instance;
        whichever contender's completion enters the pool's done-set
        first wins, and the loser is cancelled in flight (a process
        interrupt).  Every fired hedge resolves exactly once —
        ``won`` (a clone delivered the part),
        ``lost`` (the primary did, or the clone failed while the part
        still completed), or ``cancelled`` (the race was abandoned:
        task abort, quarantine, or this worker itself dying) — and
        double-finalize is excluded structurally: only the done-set's
        first writer can observe the finished transition.
        """
        engine = self.engine
        sim = engine.cloud.sim
        cfg = engine.config
        t0 = ctx.now
        task_id = task["task_id"]
        deadline_s = self.deadline(t0)
        primary = ctx.spawn(
            distributed.part_attempt(engine, ctx, task, pool, idx, offset,
                                     length),
            name=f"hedge-primary:{task_id}:{idx}")
        pending: dict[int, object] = {}    # seq -> clone guard process
        fired_at: dict[int, float] = {}    # seq -> fire time
        outcomes: dict[int, str] = {}      # seq -> resolved outcome
        gate_at = None if deadline_s is None else t0 + deadline_s
        status = None
        clone_won = None
        clone_q_first = False
        settled = False
        try:
            while True:
                contenders = []
                if primary is not None:
                    contenders.append(("primary", primary))
                contenders.extend(pending.items())
                if (primary is not None and gate_at is not None
                        and len(fired_at) < cfg.max_clones_per_part):
                    contenders.append(("gate", sim.timeout_at(gate_at)))
                if not contenders:
                    break
                which, value = yield sim.any_of(
                    [fut for _tag, fut in contenders])
                tag = contenders[which][0]
                if tag == "gate":
                    if primary is None or primary.done:
                        continue
                    seq = next(self._seq)
                    inv = yield from self._fire(ctx, task, idx, seq,
                                                deadline_s, ctx.now - t0)
                    pending[seq] = ctx.spawn(
                        self._clone_guard(inv),
                        name=f"hedge-guard:{task_id}:{idx}:{seq}")
                    fired_at[seq] = ctx.now
                    gate_at = ctx.now + deadline_s
                    continue
                if tag == "primary":
                    status = value
                    primary = None
                    if status == "ok":
                        for s in fired_at:
                            outcomes.setdefault(s, "lost")
                        settled = True
                        break
                    if not pending:
                        break
                    # The primary failed but a clone is still in flight:
                    # an independent transfer can still deliver the part
                    # (it dodges the primary's per-transfer fault draws).
                    continue
                seq, res = tag, value
                del pending[seq]
                if res.get("part_done"):
                    outcomes[seq] = "won"
                    for s in fired_at:
                        outcomes.setdefault(s, "lost")
                    clone_won = res
                    settled = True
                    break
                if res.get("status") == "quarantined":
                    clone_q_first = clone_q_first or bool(
                        res.get("first_quarantine"))
                if primary is None and not pending:
                    break
        finally:
            if primary is not None and not primary.done:
                # O(1) in-flight cancellation of the losing side.
                primary.interrupt("hedge-lost" if settled else
                                  "hedge-unwound")
            if settled:
                for s in pending:
                    body = self._live.get((task_id, idx, s))
                    if body is not None and not body.done:
                        body.interrupt("hedge-lost")
            for s, at in fired_at.items():
                outcome = outcomes.get(s, "cancelled")
                if outcome == "won":
                    engine.stats["hedge_wins"] += 1
                elif outcome == "lost":
                    engine.stats["hedge_losses"] += 1
                else:
                    engine.stats["hedge_cancelled"] += 1
                if engine.tracer is not None:
                    engine.tracer.event("hedge-resolved", "engine", task_id,
                                        HEDGE_RESOLVED_KEYS, task["key"], idx,
                                        s, outcome)
                    engine.tracer.span("hedge", "engine", task_id, at,
                                       sim.now, _HEDGE_KEYS, idx, s, outcome)
        if clone_won is not None:
            self.samples.record(ctx.now, ctx.now - t0)
            engine.worker_spans[worker_key] = (start, ctx.now)
            return bool(clone_won.get("finished"))
        if status == "ok":
            self.samples.record(ctx.now, ctx.now - t0)
        elif isinstance(status, tuple) and clone_q_first:
            # Merge the rival's first-marker signal so the quarantine
            # count stays exactly-once per (task, part).
            status = (status[0], status[1], True)
        return (yield from distributed.settle_part(
            engine, ctx, task, pool, worker_key, start, idx, status))

    def run_clone(self, ctx, payload):
        """Process: one speculative clone invocation (mode "hedge-clone").

        Runs on a cold-started instance whose channel drew an
        independent speed factor, re-transfers exactly one part range,
        and races the original through the done-set's first-writer-wins
        — the integrity layer verifies the winner's bytes exactly once
        and the loser's are discarded by the dedupe.  A clone arriving
        after the part (or task) concluded — including a DLQ redrive
        long after completion — stands down on a one-read snapshot.
        """
        engine = self.engine
        idx = payload["hedge_part"]
        task_id = payload["task_id"]
        pool = pool_for(engine, ctx, task_id, payload["num_parts"])
        state = yield from engine._kv(ctx, lambda: pool.part_state(idx))
        if not state.exists or state.aborted or state.done:
            return dict(_NOT_DONE, status="stood-down")
        offset = idx * payload["part_size"]
        length = min(payload["part_size"], payload["size"] - offset)
        live_key = (task_id, idx, payload["hedge_seq"])
        body = ctx.spawn(
            distributed.part_attempt(engine, ctx, payload, pool, idx, offset,
                                     length),
            name=f"hedge-clone:{task_id}:{idx}:{payload['hedge_seq']}")
        self._live[live_key] = body
        try:
            try:
                status = yield body
            except Interrupt as intr:
                if intr.cause not in ("hedge-lost", "hedge-unwound"):
                    # A chaos crash or watchdog kill of this clone — not
                    # a race cancellation — must still fail the function
                    # so the platform's own retry machinery sees it.
                    raise
                return dict(_NOT_DONE, status="cancelled")
        finally:
            self._live.pop(live_key, None)
            if not body.done:
                body.interrupt("clone-died")
        if isinstance(status, tuple):
            return dict(_NOT_DONE, status="quarantined",
                        first_quarantine=status[2])
        if status != "ok":
            return dict(_NOT_DONE, status=status)
        outcome = yield from engine._kv(ctx, lambda: pool.complete_part(idx))
        if outcome.first and outcome.finished:
            # The clone is the exactly-one finisher: the done-set's
            # first writer observed the finished transition.
            yield from distributed.try_finalize(engine, ctx, payload)
        return {"part_done": outcome.first, "status": "ok",
                "finished": outcome.finished}
