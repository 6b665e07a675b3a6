"""Unit tests for the circuit-breaker health tracker.

Everything here drives a :class:`HealthTracker` directly with a manual
clock — no simulator, no engine — so each state-machine edge is pinned
in isolation: consecutive-failure opens, EWMA (brown-out) opens,
cooldown backoff across re-opens, half-open probe verdicts, and the
straggler-result guard.
"""

import pytest

from repro.core import health
from repro.core.health import BreakerState, HealthTracker, NoRouteAvailable

FAAS = ("faas", "aws:us-east-1")
KV = ("kv", "aws:us-east-1")


class ManualClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


class ManualScheduler:
    """Captures call_later-style timers and fires them on demand."""

    def __init__(self, clock):
        self.clock = clock
        self.timers = []

    def __call__(self, delay, fn):
        self.timers.append((self.clock.now + delay, fn))

    def run_due(self):
        due = [(t, fn) for t, fn in self.timers if t <= self.clock.now]
        self.timers = [(t, fn) for t, fn in self.timers if t > self.clock.now]
        for _, fn in sorted(due, key=lambda p: p[0]):
            fn()


@pytest.fixture
def make(monkeypatch):
    """``make(clock=, schedule=, **tuning)``: a tracker whose breaker
    tuning constants (``failure_threshold`` -> ``FAILURE_THRESHOLD``,
    ...) are patched for this test only."""
    def build(clock=None, schedule=None, **tuning):
        for name, value in tuning.items():
            monkeypatch.setattr(health, name.upper(), value)
        clock = clock or ManualClock()
        return clock, HealthTracker(clock=clock, schedule=schedule)
    return build


class TestOpening:
    def test_unknown_target_is_closed(self, make):
        _, tracker = make()
        assert tracker.state(FAAS) == BreakerState.CLOSED
        assert tracker.available(FAAS)
        assert not tracker.any_open

    def test_consecutive_failures_open(self, make):
        _, tracker = make(failure_threshold=3)
        tracker.record(FAAS, False)
        tracker.record(FAAS, False)
        assert tracker.state(FAAS) == BreakerState.CLOSED
        tracker.record(FAAS, False)
        assert tracker.state(FAAS) == BreakerState.OPEN
        assert not tracker.available(FAAS)
        assert tracker.any_open
        assert tracker.state(FAAS) == BreakerState.OPEN

    def test_success_resets_the_failure_run(self, make):
        _, tracker = make(failure_threshold=3)
        for _ in range(10):
            tracker.record(FAAS, False)
            tracker.record(FAAS, False)
            tracker.record(FAAS, True)
        assert tracker.state(FAAS) == BreakerState.CLOSED

    def test_ewma_brownout_opens_without_a_run(self, make):
        # ~85% failures never string together the consecutive threshold
        # of 50, but the error-rate EWMA crosses 0.8 once warmed up.
        _, tracker = make(failure_threshold=50, ewma_threshold=0.8,
                          ewma_min_samples=20, ewma_alpha=0.2)
        pattern = [False] * 6 + [True]
        i = 0
        while tracker.state(KV) == BreakerState.CLOSED and i < 200:
            tracker.record(KV, pattern[i % len(pattern)])
            i += 1
        assert tracker.state(KV) == BreakerState.OPEN
        assert i >= 20  # not before the warm-up gate

    def test_ewma_needs_min_samples(self, make):
        _, tracker = make(failure_threshold=100, ewma_threshold=0.5,
                          ewma_min_samples=30)
        for _ in range(29):
            tracker.record(KV, False)
        # EWMA is far above threshold but the sample gate holds.
        assert tracker.state(KV) == BreakerState.CLOSED

    def test_targets_are_independent(self, make):
        _, tracker = make(failure_threshold=2)
        tracker.record(FAAS, False)
        tracker.record(FAAS, False)
        assert not tracker.available(FAAS)
        assert tracker.available(KV)


class TestRecovery:
    def test_lazy_half_open_after_cooldown(self, make):
        clock, tracker = make(failure_threshold=2, cooldown_s=30.0)
        tracker.record(FAAS, False)
        tracker.record(FAAS, False)
        clock.advance(29.9)
        assert tracker.state(FAAS) == BreakerState.OPEN
        clock.advance(0.2)
        # No scheduler: the query itself applies the transition.
        assert tracker.state(FAAS) == BreakerState.HALF_OPEN
        assert tracker.available(FAAS)
        assert not tracker.any_open

    def test_half_open_success_closes_with_clean_slate(self, make):
        clock, tracker = make(failure_threshold=2, cooldown_s=10.0)
        tracker.record(FAAS, False)
        tracker.record(FAAS, False)
        clock.advance(10.0)
        assert tracker.state(FAAS) == BreakerState.HALF_OPEN
        tracker.record(FAAS, True)
        assert tracker.state(FAAS) == BreakerState.CLOSED
        b = tracker._breakers[FAAS]
        # Pre-outage error history must not re-trip on the next hiccup.
        assert b.ewma == 0.0 and b.samples == 0 and b.streak_opens == 0
        tracker.record(FAAS, False)
        assert tracker.state(FAAS) == BreakerState.CLOSED

    def test_half_open_failure_reopens_with_backoff(self, make):
        clock, tracker = make(failure_threshold=2, cooldown_s=10.0,
                              cooldown_backoff=2.0, cooldown_max_s=35.0)
        tracker.record(FAAS, False)
        tracker.record(FAAS, False)
        b = tracker._breakers[FAAS]
        assert b.open_until == pytest.approx(clock.now + 10.0)
        clock.advance(10.0)
        assert tracker.state(FAAS) == BreakerState.HALF_OPEN
        tracker.record(FAAS, False)  # probe failed
        assert tracker.state(FAAS) == BreakerState.OPEN
        assert b.open_until == pytest.approx(clock.now + 20.0)
        clock.advance(20.0)
        assert tracker.state(FAAS) == BreakerState.HALF_OPEN
        tracker.record(FAAS, False)
        # 10 * 2**2 = 40 exceeds the cap; 35 applies.
        assert b.open_until == pytest.approx(clock.now + 35.0)

    def test_results_arriving_while_open_are_ignored(self, make):
        clock, tracker = make(failure_threshold=2, cooldown_s=60.0)
        tracker.record(FAAS, False)
        tracker.record(FAAS, False)
        # An in-flight straggler succeeding must not short the cooldown.
        tracker.record(FAAS, True)
        tracker.record(FAAS, False)
        assert tracker.state(FAAS) == BreakerState.OPEN
        b = tracker._breakers[FAAS]
        assert b.opens_total == 1  # the straggler failure didn't re-open

    def test_scheduled_half_open_fires_without_traffic(self, make):
        clock = ManualClock()
        sched = ManualScheduler(clock)
        _, tracker = make(clock=clock, schedule=sched,
                          failure_threshold=2, cooldown_s=30.0)
        tracker.record(FAAS, False)
        tracker.record(FAAS, False)
        assert len(sched.timers) == 1
        clock.advance(30.0)
        sched.run_due()
        # The timer itself moved the state; no query was needed.
        assert tracker._breakers[FAAS].state == BreakerState.HALF_OPEN

    def test_stale_timer_from_earlier_epoch_is_inert(self, make):
        clock = ManualClock()
        sched = ManualScheduler(clock)
        _, tracker = make(clock=clock, schedule=sched,
                          failure_threshold=2, cooldown_s=10.0)
        tracker.record(FAAS, False)
        tracker.record(FAAS, False)
        clock.advance(10.0)
        sched.run_due()                      # half-open
        tracker.record(FAAS, False)          # probe fails: re-open (epoch 2)
        # The epoch-1 timer is gone; fire whatever remains early and
        # confirm the epoch guard keeps the breaker open.
        for _, fn in list(sched.timers):
            fn()
        assert tracker._breakers[FAAS].state == BreakerState.OPEN


class TestCordon:
    """The administrative ``cordoned`` state: intent, not failure."""

    def test_cordon_excludes_and_uncordon_restores(self, make):
        _, tracker = make(failure_threshold=2)
        assert tracker.cordon(FAAS)
        assert tracker.state(FAAS) == BreakerState.CORDONED
        assert not tracker.available(FAAS)
        assert tracker.is_cordoned(FAAS)
        assert tracker.any_open
        assert tracker.cordoned_targets() == [FAAS]
        assert tracker.uncordon(FAAS)
        assert tracker.state(FAAS) == BreakerState.CLOSED
        assert tracker.available(FAAS)
        assert not tracker.any_open

    def test_cordon_is_idempotent(self, make):
        _, tracker = make(failure_threshold=2)
        assert tracker.cordon(FAAS)
        assert not tracker.cordon(FAAS), "second cordon must report no-op"
        assert not tracker.uncordon(KV), "uncordon of uncordoned is a no-op"

    def test_cordon_notifies_subscribers(self, make):
        _, tracker = make(failure_threshold=2)
        seen = []
        tracker.subscribe(lambda t, s: seen.append((t, s)))
        tracker.cordon(FAAS)
        tracker.uncordon(FAAS)
        assert seen == [(FAAS, BreakerState.CORDONED),
                        (FAAS, BreakerState.UNCORDONED)]

    def test_cordon_wins_over_half_open_probe(self, make):
        """Regression: an administrative cordon on a target whose
        breaker is mid-cooldown must suppress the scheduled half-open
        probe — maintenance intent outranks the breaker's own recovery
        — and re-admission must resume once the cordon lifts."""
        clock = ManualClock()
        sched = ManualScheduler(clock)
        _, tracker = make(clock=clock, schedule=sched,
                          failure_threshold=2, cooldown_s=10.0)
        tracker.record(FAAS, False)
        tracker.record(FAAS, False)
        assert tracker.state(FAAS) == BreakerState.OPEN
        tracker.cordon(FAAS)
        clock.advance(10.5)
        sched.run_due()  # the cooldown timer fires into the cordon
        assert tracker.state(FAAS) == BreakerState.CORDONED
        assert not tracker.available(FAAS), \
            "half-open probe re-admitted traffic through a cordon"
        # Lifting the cordon resumes the breaker's own recovery: the
        # cooldown has long elapsed, so the next query walks half-open.
        tracker.uncordon(FAAS)
        assert tracker.state(FAAS) == BreakerState.HALF_OPEN
        assert tracker.available(FAAS)
        tracker.record(FAAS, True)
        assert tracker.state(FAAS) == BreakerState.CLOSED

    def test_lazy_half_open_query_respects_cordon(self, make):
        clock, tracker = make(failure_threshold=2, cooldown_s=10.0)
        tracker.record(FAAS, False)
        tracker.record(FAAS, False)
        tracker.cordon(FAAS)
        clock.advance(11.0)
        # No scheduler here: the lazy query path must also hold the line.
        assert tracker.state(FAAS) == BreakerState.CORDONED
        assert not tracker.available(FAAS)


class TestObservability:
    def test_transitions_log_records_every_edge(self, make):
        clock, tracker = make(failure_threshold=2, cooldown_s=10.0)
        tracker.record(FAAS, False)
        tracker.record(FAAS, False)
        clock.advance(10.0)
        tracker.state(FAAS)
        tracker.record(FAAS, True)
        states = [s for _, t, s in tracker.transitions if t == FAAS]
        assert states == [BreakerState.OPEN, BreakerState.HALF_OPEN,
                          BreakerState.CLOSED]
        times = [at for at, _, _ in tracker.transitions]
        assert times == sorted(times)

    def test_subscribers_see_transitions_in_order(self, make):
        clock, tracker = make(failure_threshold=1, cooldown_s=5.0)
        seen = []
        tracker.subscribe(lambda t, s: seen.append(("a", t, s)))
        tracker.subscribe(lambda t, s: seen.append(("b", t, s)))
        tracker.record(FAAS, False)
        assert seen == [("a", FAAS, BreakerState.OPEN),
                        ("b", FAAS, BreakerState.OPEN)]

    def test_snapshot_is_json_shaped(self, make):
        _, tracker = make(failure_threshold=2)
        tracker.record(FAAS, False)
        tracker.record(FAAS, False)
        tracker.record(KV, True)
        snap = tracker.snapshot()
        assert set(snap) == {"faas:aws:us-east-1", "kv:aws:us-east-1"}
        assert snap["faas:aws:us-east-1"]["state"] == BreakerState.OPEN
        assert snap["faas:aws:us-east-1"]["opens"] == 1
        assert snap["kv:aws:us-east-1"]["state"] == BreakerState.CLOSED

    def test_no_route_available_is_a_runtime_error(self):
        assert issubclass(NoRouteAvailable, RuntimeError)
