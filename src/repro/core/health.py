"""Outage-aware health tracking (degraded-mode routing, §6 extended).

The paper's planner (§5.3, Algorithm 3) assumes every execution
location is live; PR 2's retries and fencing cover *transient* faults
but a sustained outage — a FaaS platform, a regional KV database, or a
WAN path dark for minutes — just burns retry budget and piles up dead
letters.  This module is the substrate-health ledger the rest of the
system consults to degrade gracefully instead:

* a :class:`CircuitBreaker` per health *target* — ``("faas", region)``,
  ``("kv", region)``, ``("store", region)``, or a replication path —
  with the classic closed → open → half-open state machine, opened by
  either a consecutive-failure run or a sustained EWMA error rate;
* a :class:`HealthTracker` that owns the breakers, notifies
  subscribers on every transition (the engine parks/probes/drains off
  these), and schedules the open → half-open cooldown on the *sim
  clock* so that recovery is deterministic and happens even when the
  outage has scared all traffic away.

Everything is driven off recorded successes/failures — there is no
background prober; the half-open probe is the engine re-dispatching one
parked task.  All timestamps come from the injected ``clock`` (the
simulator), never the wall clock, so a seeded run replays exactly.

Besides the fault-driven breaker states there is one *administrative*
state: a target may be **cordoned** (``cordon`` / ``uncordon``) by a
planned operation — a region evacuation or an orchestration
switchover.  A cordoned target is healthy but closed to new traffic:
``available()`` is False, the planner treats it as no-route-with-
intent, and — crucially — the breaker's half-open machinery must not
re-admit traffic while the cordon holds (cordon wins over cooldown
expiry).  In-flight work is unaffected; cordoning stops *admission*,
not execution.
"""

from __future__ import annotations

from typing import Callable, Hashable, Optional

__all__ = ["BreakerState", "CircuitBreaker", "HealthTracker",
           "NoRouteAvailable"]

#: A health target: ("faas"|"kv"|"store"|"path", key...).  Any hashable
#: tuple works; the first element names the substrate.
Target = tuple


class NoRouteAvailable(RuntimeError):
    """Every candidate execution location sits behind an open circuit.

    Raised by the planner when degraded-mode filtering leaves no ladder
    candidate; the engine catches it and parks the task in the backlog
    instead of dispatching into a known-dark region.
    """


class BreakerState:
    """The circuit states, as stable string constants.

    ``CORDONED`` is not a breaker transition — it is the administrative
    overlay :meth:`HealthTracker.cordon` applies on top of whatever the
    underlying breaker is doing; :meth:`HealthTracker.state` reports it
    with priority over the breaker's own state.  ``UNCORDONED`` is the
    notification subscribers receive when the overlay lifts (the
    effective state reverts to the breaker's).
    """

    CLOSED = "closed"          # healthy: traffic flows, failures counted
    OPEN = "open"              # dark: no traffic routed until cooldown
    HALF_OPEN = "half-open"    # probing: limited traffic decides the verdict
    CORDONED = "cordoned"      # administratively closed to new admission
    UNCORDONED = "uncordoned"  # notification only: the cordon lifted


#: Breaker tuning, one set for every target.  A breaker opens on either
#: signal: ``FAILURE_THRESHOLD`` consecutive failures (a hard outage
#: fails everything immediately), or an EWMA error rate at or above
#: ``EWMA_THRESHOLD`` once ``EWMA_MIN_SAMPLES`` results have been seen
#: (a brown-out fails *most* things).  The consecutive threshold is
#: deliberately high enough that a background chaos storm (crash_prob
#: ≈ 0.1) essentially never strings together a run by luck: 0.1**8 ≈
#: 1e-8 per attempt.
FAILURE_THRESHOLD = 8
EWMA_ALPHA = 0.2
EWMA_THRESHOLD = 0.9
EWMA_MIN_SAMPLES = 25
#: Seconds an open circuit waits before admitting a half-open probe.
COOLDOWN_S = 30.0
#: Cooldown growth per re-open within one incident (a failed probe
#: re-opens with a longer wait), capped at ``COOLDOWN_MAX_S``.
COOLDOWN_BACKOFF = 2.0
COOLDOWN_MAX_S = 480.0
#: Successes required in half-open before the circuit closes.
HALF_OPEN_SUCCESSES = 1


class CircuitBreaker:
    """One target's state machine; transitions are applied by the tracker."""

    __slots__ = ("state", "consecutive_failures", "ewma", "samples",
                 "opens_total", "streak_opens", "opened_seq", "open_until",
                 "half_open_successes")

    def __init__(self) -> None:
        self.state = BreakerState.CLOSED
        self.consecutive_failures = 0
        self.ewma = 0.0
        self.samples = 0
        #: Lifetime open count (observability).
        self.opens_total = 0
        #: Opens within the current incident — drives cooldown backoff,
        #: reset when the circuit finally closes.
        self.streak_opens = 0
        #: Monotonic guard for scheduled half-open timers: a timer fires
        #: only if the breaker is still in the OPEN epoch it was armed in.
        self.opened_seq = 0
        self.open_until = 0.0
        self.half_open_successes = 0


class HealthTracker:
    """Per-target circuit breakers over the sim clock.

    ``clock`` is a zero-argument callable returning simulated time;
    ``schedule(delay_s, fn)`` (optional, normally ``sim.call_later``)
    arms the open → half-open cooldown timer so recovery fires even
    with zero ongoing traffic.  Without ``schedule`` the transition
    happens lazily on the next :meth:`state`/:meth:`available` query.
    """

    def __init__(self, clock: Callable[[], float],
                 schedule: Optional[Callable[[float, Callable[[], None]],
                                             object]] = None):
        self._clock = clock
        self._schedule = schedule
        self._breakers: dict[Target, CircuitBreaker] = {}
        self._open_count = 0
        #: Administrative cordons: target -> sim time the cordon was
        #: applied.  Orthogonal to the breakers — a target can be
        #: cordoned while its breaker is in any state.
        self._cordoned: dict[Target, float] = {}
        self._subscribers: list[Callable[[Target, str], None]] = []
        #: Every state transition as ``(sim_time, target, new_state)`` —
        #: the drill's recovery-time stats and the determinism tests
        #: read this log.
        self.transitions: list[tuple[float, Target, str]] = []

    # -- recording -----------------------------------------------------------

    def record(self, target: Target, ok: bool) -> None:
        """Fold one operation outcome into ``target``'s breaker."""
        b = self._breakers.get(target)
        if b is None:
            b = self._breakers[target] = CircuitBreaker()
        if b.state == BreakerState.OPEN:
            # No traffic is *supposed* to reach an open target; results
            # that still arrive (in-flight stragglers) are ignored so a
            # straggler's success cannot short-circuit the cooldown.
            return
        if ok:
            b.samples += 1
            b.consecutive_failures = 0
            b.ewma += EWMA_ALPHA * (0.0 - b.ewma)
            if b.state == BreakerState.HALF_OPEN:
                b.half_open_successes += 1
                if b.half_open_successes >= HALF_OPEN_SUCCESSES:
                    self._close(target, b)
            return
        b.samples += 1
        b.consecutive_failures += 1
        b.ewma += EWMA_ALPHA * (1.0 - b.ewma)
        if (b.state == BreakerState.HALF_OPEN
                or b.consecutive_failures >= FAILURE_THRESHOLD
                or (b.samples >= EWMA_MIN_SAMPLES
                    and b.ewma >= EWMA_THRESHOLD)):
            self._open(target, b)

    # -- queries -------------------------------------------------------------

    @property
    def any_open(self) -> bool:
        """Cheap hot-path gate: is any circuit open — or cordoned?

        The count is maintained on transitions, so the healthy case is
        one integer compare plus one empty-dict check.  It stays
        conservatively True between the cooldown expiring and the
        (scheduled or lazy) half-open transition — callers then take
        the filtering path, whose per-target :meth:`available` checks
        apply lazy transitions.  Administrative cordons engage the same
        filtering path: a cordon is NoRoute-with-intent, so the planner
        and router must consult :meth:`available` while one exists.
        """
        return self._open_count > 0 or bool(self._cordoned)

    def state(self, target: Target) -> str:
        """Current effective state; absent targets are healthy (closed).

        A cordon overrides everything — including the lazy cooldown
        expiry below, so an OPEN breaker whose cooldown lapses under a
        cordon does *not* slip into half-open (no probe re-admission
        while cordoned).  The lazy transition resumes on the first
        query after :meth:`uncordon`.
        """
        if self._cordoned and target in self._cordoned:
            return BreakerState.CORDONED
        b = self._breakers.get(target)
        if b is None:
            return BreakerState.CLOSED
        if (b.state == BreakerState.OPEN
                and self._clock() >= b.open_until):
            # Lazy cooldown expiry (backup for trackers without a
            # scheduler, and for queries racing the timer).
            self._half_open(target, b)
        return b.state

    def available(self, target: Target) -> bool:
        """Routable?  Closed and half-open admit traffic; an open
        circuit or an administrative cordon does not."""
        return self.state(target) not in (BreakerState.OPEN,
                                          BreakerState.CORDONED)

    def snapshot(self) -> dict[str, dict]:
        """JSON-friendly per-target state (CLI/machine-checkable drills)."""
        out: dict[str, dict] = {}
        for target in sorted(set(self._breakers) | set(self._cordoned),
                             key=str):
            b = self._breakers.get(target)
            entry = {
                "state": b.state if b is not None else BreakerState.CLOSED,
                "ewma_error_rate": round(b.ewma, 4) if b is not None else 0.0,
                "consecutive_failures":
                    b.consecutive_failures if b is not None else 0,
                "samples": b.samples if b is not None else 0,
                "opens": b.opens_total if b is not None else 0,
            }
            if target in self._cordoned:
                entry["state"] = BreakerState.CORDONED
                entry["cordoned_at"] = self._cordoned[target]
            out[":".join(str(part) for part in target)] = entry
        return out

    # -- administrative cordons ------------------------------------------------

    def cordon(self, target: Target) -> bool:
        """Administratively close ``target`` to new admission.

        Distinct from a chaos-opened breaker: the substrate is healthy
        and in-flight work keeps running, but the router and planner
        treat the target as unavailable until :meth:`uncordon`.  Returns
        False (and does nothing) if already cordoned.  Subscribers are
        notified with :data:`BreakerState.CORDONED`.
        """
        if target in self._cordoned:
            return False
        self._cordoned[target] = self._clock()
        self._notify(target, BreakerState.CORDONED)
        return True

    def uncordon(self, target: Target) -> bool:
        """Lift an administrative cordon; False if none was in place.

        Subscribers are notified with :data:`BreakerState.UNCORDONED`
        (the engine re-admits its backlog off this signal); the
        effective state reverts to the underlying breaker's.
        """
        if target not in self._cordoned:
            return False
        del self._cordoned[target]
        self._notify(target, BreakerState.UNCORDONED)
        return True

    def is_cordoned(self, target: Target) -> bool:
        return target in self._cordoned

    def cordoned_targets(self) -> list[Target]:
        return sorted(self._cordoned, key=str)

    # -- subscriptions ---------------------------------------------------------

    def subscribe(self, fn: Callable[[Target, str], None]) -> None:
        """``fn(target, new_state)`` on every transition, synchronously,
        in subscription order (determinism matters: the engine drains
        backlogs from these callbacks)."""
        self._subscribers.append(fn)

    def unsubscribe(self, fn: Callable[[Target, str], None]) -> None:
        """Withdraw a subscriber (idempotent).  A rolling engine restart
        detaches the torn-down engine here so the replacement — not the
        husk — reacts to subsequent transitions."""
        try:
            self._subscribers.remove(fn)
        except ValueError:
            pass

    # -- transitions -----------------------------------------------------------

    def _notify(self, target: Target, state: str) -> None:
        self.transitions.append((self._clock(), target, state))
        for fn in list(self._subscribers):
            fn(target, state)

    def _open(self, target: Target, b: CircuitBreaker) -> None:
        if b.state != BreakerState.OPEN:
            self._open_count += 1
        b.state = BreakerState.OPEN
        b.opens_total += 1
        b.streak_opens += 1
        b.opened_seq += 1
        b.half_open_successes = 0
        cooldown = min(COOLDOWN_MAX_S,
                       COOLDOWN_S * COOLDOWN_BACKOFF ** (b.streak_opens - 1))
        b.open_until = self._clock() + cooldown
        self._notify(target, BreakerState.OPEN)
        if self._schedule is not None:
            seq = b.opened_seq

            def try_half_open() -> None:
                # Cordon wins: a cooldown expiring under an
                # administrative cordon must not re-admit traffic.  The
                # lazy path in state() resumes recovery after uncordon
                # (any_open stays True while the breaker is open, so
                # routing keeps consulting state()).
                if (b.state == BreakerState.OPEN and b.opened_seq == seq
                        and target not in self._cordoned
                        and self._clock() >= b.open_until):
                    self._half_open(target, b)

            self._schedule(cooldown, try_half_open)

    def _half_open(self, target: Target, b: CircuitBreaker) -> None:
        self._open_count -= 1
        b.state = BreakerState.HALF_OPEN
        b.half_open_successes = 0
        self._notify(target, BreakerState.HALF_OPEN)

    def _close(self, target: Target, b: CircuitBreaker) -> None:
        b.state = BreakerState.CLOSED
        b.consecutive_failures = 0
        # A recovered target starts with a clean slate: the pre-outage
        # error history must not re-trip the EWMA on the first hiccup.
        b.ewma = 0.0
        b.samples = 0
        b.streak_opens = 0
        self._notify(target, BreakerState.CLOSED)
