"""Kernel fast-path semantics: the optimizations must be invisible.

Covers the event-record scheduling primitives (``schedule_resolve`` /
``schedule_call``), the zero-delay FIFO ring's
ordering guarantees against the heap, the :class:`SleepRequest` and
:class:`DeferredResult` process fast paths (including interrupt
safety via the resume epoch), and lazy cancelled-timer compaction.
"""

import math

import pytest

from repro.simcloud.sim import (
    DeferredResult,
    Future,
    Interrupt,
    SimulationError,
    SleepRequest,
    Simulator,
)


class TestSchedulingPrimitives:
    def test_schedule_resolve_delivers_value(self):
        sim = Simulator()
        fut = Future(sim)
        sim.schedule_resolve(1.5, fut, "payload")
        got = []

        def proc():
            got.append((yield fut))

        sim.spawn(proc())
        sim.run()
        assert got == ["payload"]
        assert sim.now == 1.5

    def test_schedule_call_passes_both_arguments(self):
        sim = Simulator()
        seen = []
        sim.schedule_call(2.0, lambda a, b: seen.append((sim.now, a, b)),
                          "x", 42)
        sim.run()
        assert seen == [(2.0, "x", 42)]

    def test_schedule_call_rejects_negative_delay(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule_call(-0.1, lambda a, b: None)

    @pytest.mark.parametrize("schedule", [
        lambda sim: sim.call_at(math.nan, lambda: None),
        lambda sim: sim.call_later(math.nan, lambda: None),
        lambda sim: sim.schedule_call(math.nan, lambda a, b: None),
        lambda sim: sim.schedule_resolve(math.nan, Future(sim)),
        lambda sim: sim.run(until=math.nan),
    ], ids=["call_at", "call_later", "schedule_call", "schedule_resolve",
            "run_until"])
    def test_nan_time_or_delay_is_rejected(self, schedule):
        # A NaN time fails every comparison: queued, it would fire at
        # now = NaN and the clock would then step back unnoticed.
        sim = Simulator()
        sim.call_later(1.0, lambda: None)
        with pytest.raises(SimulationError):
            schedule(sim)
        sim.run()
        assert sim.now == 1.0


class TestSameTimestampOrdering:
    """Events at one timestamp fire in scheduling order, whether they
    land on the zero-delay ring or the heap."""

    def _trace(self, until):
        """``until`` None runs to empty, a float bounds the run."""
        sim = Simulator()
        order = []

        def proc(tag):
            yield sim.sleep(1.0)
            order.append(f"proc:{tag}")
            yield sim.sleep(0.0)   # ring entry at t=1
            order.append(f"ring:{tag}")

        for tag in ("a", "b", "c"):
            sim.spawn(proc(tag))
        for tag in ("x", "y"):     # heap entries also at t=1
            sim.call_at(1.0, lambda t=tag: order.append(f"timer:{t}"))
        sim.run(until=until)
        return order

    def test_fifo_order_matches_between_drain_and_bounded_run(self):
        # run() and run(until) both take the one _drain loop.
        unbounded = self._trace(until=None)
        assert self._trace(until=10.0) == unbounded
        # FIFO by scheduling order at t=1: the timers were pushed at
        # spawn time, the sleep wake-ups only when each process first
        # stepped (at t=0), so the timers carry earlier sequence numbers.
        assert unbounded == [
            "timer:x", "timer:y", "proc:a", "proc:b", "proc:c",
            "ring:a", "ring:b", "ring:c",
        ]

    def test_ring_preserves_fifo_within_a_timestamp(self):
        sim = Simulator()
        order = []
        for i in range(5):
            sim.schedule_call(0.0, lambda a, _b, i=i: order.append(i), None)
        sim.run()
        assert order == [0, 1, 2, 3, 4]


class TestSleepRequestFastPath:
    def test_sleep_request_advances_clock(self):
        sim = Simulator()
        times = []

        def proc():
            yield SleepRequest(1.25)
            times.append(sim.now)
            yield SleepRequest(0.75)
            times.append(sim.now)

        sim.spawn(proc())
        sim.run()
        assert times == [1.25, 2.0]

    def test_negative_delay_clamps_to_zero(self):
        assert SleepRequest(-3.0).delay == 0.0
        assert DeferredResult(-3.0).delay == 0.0

    def test_interrupt_during_sleep_request(self):
        sim = Simulator()
        events = []

        def sleeper():
            try:
                yield SleepRequest(10.0)
                events.append("woke")
            except Interrupt as intr:
                events.append(f"interrupted:{intr.cause}")
                yield SleepRequest(1.0)
                events.append(f"resumed@{sim.now}")

        proc = sim.spawn(sleeper())

        def interrupter():
            yield sim.sleep(2.0)
            proc.interrupt("test")

        sim.spawn(interrupter())
        sim.run()
        # The stale direct wake-up at t=10 must NOT resume the process a
        # second time: exactly one interrupt, one resume.
        assert events == ["interrupted:test", "resumed@3.0"]

    def test_process_result_survives_fast_paths(self):
        sim = Simulator()

        def proc():
            yield SleepRequest(1.0)
            return "done"

        p = sim.spawn(proc())
        sim.run()
        assert p.done and p.value == "done"


class TestDeferredResultFastPath:
    def test_value_delivery(self):
        sim = Simulator()
        got = []

        def proc():
            value = yield DeferredResult(0.5, value={"k": 1})
            got.append((sim.now, value))

        sim.spawn(proc())
        sim.run()
        assert got == [(0.5, {"k": 1})]

    def test_exception_delivery(self):
        sim = Simulator()
        caught = []

        def proc():
            try:
                yield DeferredResult(0.25, exc=KeyError("missing"))
            except KeyError as exc:
                caught.append((sim.now, str(exc)))

        sim.spawn(proc())
        sim.run()
        assert caught == [(0.25, "'missing'")]

    def test_interrupt_during_deferred_result(self):
        sim = Simulator()
        events = []

        def waiter():
            try:
                yield DeferredResult(10.0, value="late")
                events.append("value")
            except Interrupt:
                events.append("interrupted")

        proc = sim.spawn(waiter())

        def interrupter():
            yield sim.sleep(1.0)
            proc.interrupt("stop")

        sim.spawn(interrupter())
        sim.run()
        assert events == ["interrupted"]


class TestTombstoneChurnStress:
    """Heavy schedule/cancel churn across near and far horizons.

    An earlier kernel could drift ``_tombstones`` across the
    compaction/merge paths, silently defeating compaction; the counter
    is now self-checking (compaction raises if it goes negative) and
    this stress keeps the dead-record population bounded."""

    def test_churn_keeps_accounting_consistent(self):
        sim = Simulator()
        fired = []
        pending = []
        horizons = (0.1, 0.9, 3.7, 60.0, 700.0, 5000.0)

        def churn(round_no):
            # Cancel 3 of 4 timers from the previous round, then lay
            # down a fresh spread from sub-second to far future.
            for i, timer in enumerate(pending):
                if (i + round_no) % 4 != 0:
                    timer.cancel()
                    timer.cancel()  # double-cancel must stay a no-op
            pending.clear()
            if round_no >= 40:
                return
            for i, h in enumerate(horizons):
                pending.append(sim.call_later(
                    h + round_no * 1e-3,
                    lambda r=round_no, i=i: fired.append((r, i))))
            sim.call_later(0.05, lambda: churn(round_no + 1))

        churn(0)
        sim.run()
        assert fired, "churn never fired a surviving timer"
        assert sim._tombstones == 0, \
            f"tombstone count drifted: {sim._tombstones}"
        assert not sim._heap and not sim._ring

    def test_compaction_bounds_dead_records(self):
        sim = Simulator()
        sim.call_later(10_000.0, lambda: None)  # keep the run alive
        for _ in range(20):
            timers = [sim.call_later(3600.0 + i * 0.01, lambda: None)
                      for i in range(500)]
            for t in timers:
                t.cancel()
            # Tombstones may queue, but compaction keeps them under
            # the threshold or at most half of the heap.
            assert (sim._tombstones < sim._COMPACT_MIN
                    or sim._tombstones * 2 <= len(sim._heap))
        sim.run()
        assert sim._tombstones == 0


class TestCancelledTimerCompaction:
    def test_cancelled_timers_never_fire_and_heap_compacts(self):
        sim = Simulator()
        fired = []
        timers = [sim.call_later(float(i + 1), lambda i=i: fired.append(i))
                  for i in range(500)]
        for i, t in enumerate(timers):
            if i % 4 != 3:
                t.cancel()
        # 375 tombstones against 500 records: compaction must have run.
        assert len(sim._heap) < 500
        sim.run()
        assert fired == [i for i in range(500) if i % 4 == 3]

    def test_cancelled_horizon_does_not_drag_clock(self):
        sim = Simulator()
        t = sim.call_later(1000.0, lambda: None)
        sim.call_later(1.0, lambda: None)
        t.cancel()
        sim.run()
        assert sim.now == 1.0
