"""Discrete-event simulation kernel.

A tiny, dependency-free process-based DES in the style of SimPy.  Time
is a float (seconds).  Concurrency is expressed as generator-based
*processes* that yield :class:`Future` objects; the kernel resumes a
process when the future it waits on resolves.

The kernel is fully deterministic: events scheduled for the same
timestamp fire in scheduling order (a monotonically increasing sequence
number breaks ties), and no wall-clock or OS entropy is consulted.

The event queue is a plain future-event list:

* Timed events are ``(time, seq, kind, a, b, c)`` tuples in one binary
  heap (C ``heapq``).  ``seq`` is unique, so tuple comparison never
  looks past it and the heap pops in (time, scheduling order).
* Zero-delay events (process kick-off, interrupts, callback fan-out,
  same-instant KV responses) skip the heap through a FIFO ring of
  ``(seq, kind, a, b, c)`` records, all due at ``now``.  The sequence
  counter is shared, and a heap event due *now* fires before the ring
  head only if it was scheduled first — so same-timestamp order is
  global scheduling order no matter which structure held the event.
* A cancelled :class:`Timer` is a tombstone: its record stays queued
  with the callback cleared and is skipped when popped, without
  advancing the clock.  ``_tombstones`` counts them; once there are at
  least ``_COMPACT_MIN`` and they outnumber the live heap records the
  heap is rebuilt without them.  The counter is self-checking — it must
  end every compaction non-negative.

Event kinds are small ints dispatched inline: the common "resolve this
future / resume this process after a latency" patterns need no closure,
no :class:`Timer` and (for :class:`SleepRequest` /
:class:`DeferredResult`) no future.

Example
-------
>>> sim = Simulator()
>>> log = []
>>> def worker(name, delay):
...     yield sim.sleep(delay)
...     log.append((sim.now, name))
>>> _ = sim.spawn(worker("a", 2.0))
>>> _ = sim.spawn(worker("b", 1.0))
>>> sim.run()
>>> log
[(1.0, 'b'), (2.0, 'a')]
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from typing import Any, Callable, Generator, Iterable, Optional

__all__ = [
    "Simulator",
    "Future",
    "Process",
    "SleepRequest",
    "DeferredResult",
    "Interrupt",
    "SimulationError",
    "Timer",
]

# Event record kinds (index 2 of a heap record, 1 of a ring record).
_TIMER = 0      # a: Timer            -> a.fire()
_CALL = 1       # a: fn, b: value, c: exc -> a(b, c)
_RESOLVE = 2    # a: Future, b: value -> a.resolve(b)
_WAKE = 3       # a: Process, b: epoch -> a._step(None, None) if still fresh
_DEFER = 4      # a: Process, b: DeferredResult, c: epoch -> deliver outcome


class Timer:
    """Handle for a scheduled callback; ``cancel()`` makes it a no-op.

    Cancelled timers are also dropped from the clock-advance horizon:
    :meth:`Simulator.run` never advances time just to fire a dead timer,
    so long-dated safety timeouts (e.g. FaaS watchdogs) do not drag the
    clock forward when the queue drains.
    """

    __slots__ = ("_fn", "_sim")

    def __init__(self, fn: Callable[[], None], sim: Optional["Simulator"] = None):
        self._fn: Optional[Callable[[], None]] = fn
        self._sim = sim

    @property
    def cancelled(self) -> bool:
        return self._fn is None

    def cancel(self) -> None:
        if self._fn is None:
            return
        self._fn = None
        if self._sim is not None:
            self._sim._cancel_timer()

    def fire(self) -> None:
        if self._fn is not None:
            fn, self._fn = self._fn, None
            fn()


class SimulationError(RuntimeError):
    """Raised for kernel misuse (e.g. running time backwards)."""


class Interrupt(Exception):
    """Thrown into a process when it is interrupted.

    The ``cause`` attribute carries an arbitrary payload supplied by the
    interrupter (for example, a FaaS platform passes the string
    ``"timeout"`` when it kills a function that exceeded its execution
    time limit).
    """

    def __init__(self, cause: Any = None):
        super().__init__(f"interrupted: {cause!r}")
        self.cause = cause


class Future:
    """A one-shot container for a value produced at some simulated time.

    Processes wait on futures by yielding them.  A future resolves at
    most once, either with a value (:meth:`resolve`) or with an
    exception (:meth:`fail`).  Callbacks added after resolution fire
    immediately.
    """

    __slots__ = ("sim", "_done", "_value", "_exception", "_callbacks")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self._done = False
        self._value: Any = None
        self._exception: Optional[BaseException] = None
        self._callbacks: list[Callable[["Future"], None]] = []

    @property
    def done(self) -> bool:
        return self._done

    @property
    def value(self) -> Any:
        if not self._done:
            raise SimulationError("future not resolved yet")
        if self._exception is not None:
            raise self._exception
        return self._value

    @property
    def exception(self) -> Optional[BaseException]:
        return self._exception if self._done else None

    def resolve(self, value: Any = None) -> None:
        if self._done:
            raise SimulationError("future already resolved")
        self._done = True
        self._value = value
        if self._callbacks:
            self._fire()

    def fail(self, exc: BaseException) -> None:
        if self._done:
            raise SimulationError("future already resolved")
        self._done = True
        self._exception = exc
        if self._callbacks:
            self._fire()

    def add_callback(self, fn: Callable[["Future"], None]) -> None:
        if self._done:
            fn(self)
        else:
            self._callbacks.append(fn)

    def _fire(self) -> None:
        callbacks, self._callbacks = self._callbacks, []
        for fn in callbacks:
            fn(self)


class SleepRequest:
    """A lightweight "resume me after ``delay``" marker.

    Processes may yield a :class:`SleepRequest`; the kernel then
    schedules the process's own resumption directly, skipping the
    future allocation and callback chain.  This is the hot path for
    the data-plane latency sleeps (network legs, request admission),
    which account for the majority of all events in a trace replay —
    and it is what :meth:`Simulator.sleep` returns, so every plain
    ``yield sim.sleep(d)`` rides it too.  The process receives
    ``None``, and the wake-up event is pushed at the same global
    sequence point as an eagerly scheduled future would have been.
    """

    __slots__ = ("delay",)

    def __init__(self, delay: float):
        self.delay = delay if delay > 0.0 else 0.0


#: Shared zero-delay request returned by :meth:`Simulator.sleep` — the
#: "yield the floor" idiom is frequent enough that the allocation shows.
_SLEEP_ZERO = SleepRequest(0.0)


class DeferredResult:
    """A yieldable "resume me after ``delay`` with this outcome" marker.

    Like :class:`SleepRequest`, but carrying a value (or an exception to
    raise into the process).  Services whose response is computed at
    admission time and merely *delivered* after a latency — the KV
    store's point operations are the canonical case — yield this
    instead of allocating a future per request.
    """

    __slots__ = ("delay", "value", "exc")

    def __init__(self, delay: float, value: Any = None,
                 exc: Optional[BaseException] = None):
        self.delay = delay if delay > 0.0 else 0.0
        self.value = value
        self.exc = exc


ProcessBody = Generator[Future, Any, Any]


class Process(Future):
    """A running generator-based process.

    A process is itself a future: it resolves with the generator's
    return value, or fails with the exception that escaped it.  Other
    processes may therefore ``yield`` a process to join it.
    """

    __slots__ = ("_gen", "_waiting_on", "_epoch", "name")

    def __init__(self, sim: "Simulator", gen: ProcessBody, name: str = "",
                 eager: bool = False):
        # Inlined Future.__init__ — processes are created in bulk on the
        # hot path (one per request plus one per invocation).
        self.sim = sim
        self._done = False
        self._value: Any = None
        self._exception: Optional[BaseException] = None
        self._callbacks: list[Callable[[Future], None]] = []
        self._gen = gen
        self._waiting_on: Optional[Future] = None
        # Bumped on every interrupt so that direct wake-ups scheduled by
        # the SleepRequest fast path (which bypass the stale-future
        # check in _on_wait_done) can be recognised as stale.
        self._epoch = 0
        self.name = name or getattr(gen, "__name__", "process")
        if eager:
            # Run the first segment synchronously instead of paying a
            # zero-delay kick-off event.  Same timestamp; only the
            # ordering relative to other work at this instant differs,
            # so callers must not depend on running *after* their
            # spawner's current step.
            self._step(None, None)
        else:
            # Kick off on the next kernel step at the current time
            # (inlined zero-delay push).
            sim._seq = seq = sim._seq + 1
            sim._ring.append((seq, _CALL, self._step, None, None))

    @property
    def alive(self) -> bool:
        return not self._done

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        Interrupting an already-finished process is a no-op, mirroring
        the semantics of cancelling a completed task.
        """
        if self._done:
            return
        self._epoch += 1
        if self._waiting_on is not None:
            self._waiting_on = None
        self.sim._schedule_call(0.0, self._step, None, Interrupt(cause))

    def _on_wait_done(self, fut: Future) -> None:
        if self._waiting_on is not fut:
            return  # interrupted while waiting; stale wake-up
        self._waiting_on = None
        if fut._exception is not None:
            self._step(None, fut._exception)
        else:
            self._step(fut._value, None)

    def _step(self, value: Any, exc: Optional[BaseException]) -> None:
        if self._done:
            return
        try:
            if exc is not None:
                target = self._gen.throw(exc)
            else:
                target = self._gen.send(value)
        except StopIteration as stop:
            self.resolve(stop.value)
            return
        except BaseException as err:  # noqa: BLE001 - propagate into future
            self.fail(err)
            return
        if type(target) is SleepRequest:
            # A wake-up is a (process, epoch) event record — no future,
            # no bound-method closure.  The kernel dispatch checks the
            # epoch so wake-ups scheduled before an interrupt stay stale.
            sim = self.sim
            delay = target.delay
            if delay == 0.0:
                # Inlined zero-delay push: straight onto the FIFO ring.
                sim._seq = seq = sim._seq + 1
                sim._ring.append((seq, _WAKE, self, self._epoch, None))
            else:
                sim._push(sim.now + delay, _WAKE, self, self._epoch, None)
        elif type(target) is DeferredResult:
            sim = self.sim
            sim._push(sim.now + target.delay, _DEFER, self, target,
                      self._epoch)
        elif isinstance(target, Future):
            self._waiting_on = target
            target.add_callback(self._on_wait_done)
        else:
            self.fail(
                SimulationError(
                    f"process {self.name!r} yielded {target!r}; "
                    "processes must yield Future objects"
                )
            )


class Simulator:
    """The event loop: a binary heap of timed event records plus a FIFO
    ring for zero-delay events at the current time (see the module
    docstring for the ordering and tombstone rules)."""

    #: Compact the heap when at least this many cancelled timers are
    #: queued and they outnumber the live heap records.
    _COMPACT_MIN = 64

    def __init__(self) -> None:
        self.now: float = 0.0
        # Heap records: (time, seq, kind, a, b, c).
        self._heap: list[tuple] = []
        # Ring records: (seq, kind, a, b, c), all due at ``now``.
        self._ring: deque[tuple] = deque()
        #: Events scheduled so far; also the same-timestamp tie-break.
        self._seq = 0
        #: Cancelled-but-unpopped timers (heap and ring).
        self._tombstones = 0

    # -- scheduling ----------------------------------------------------

    def _push(self, time: float, kind: int, a: Any, b: Any, c: Any) -> None:
        """Schedule one event record; zero-delay goes to the ring."""
        self._seq += 1
        if time <= self.now:
            self._ring.append((self._seq, kind, a, b, c))
        else:
            heapq.heappush(self._heap, (time, self._seq, kind, a, b, c))

    def _schedule_call(
        self,
        delay: float,
        fn: Callable[..., None],
        value: Any,
        exc: Optional[BaseException],
    ) -> None:
        if not delay >= 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        self._push(self.now + delay, _CALL, fn, value, exc)

    def schedule_resolve(self, delay: float, fut: Future, value: Any = None) -> None:
        """Resolve ``fut`` with ``value`` after ``delay`` seconds.

        The allocation-free fast path for the ubiquitous "respond after
        some latency" pattern — no closure, no :class:`Timer`.
        """
        if not delay >= 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        self._push(self.now + delay, _RESOLVE, fut, value, None)

    def schedule_call(self, delay: float, fn: Callable[..., None],
                      a: Any = None, b: Any = None) -> None:
        """Run ``fn(a, b)`` after ``delay`` seconds.

        The allocation-free cousin of :meth:`call_later`: no closure, no
        :class:`Timer`, therefore not cancellable.  Made for high-volume
        callbacks whose two arguments are known up front (e.g. delivering
        a notification event to a handler).
        """
        if not delay >= 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        self._push(self.now + delay, _CALL, fn, a, b)

    def call_at(self, time: float, fn: Callable[[], None]) -> Timer:
        """Run ``fn()`` at absolute simulated ``time``; returns a handle."""
        if not time >= self.now:
            raise SimulationError(f"cannot schedule at {time} < now {self.now}")
        timer = Timer(fn, self)
        self._push(time, _TIMER, timer, None, None)
        return timer

    def call_later(self, delay: float, fn: Callable[[], None]) -> Timer:
        """Run ``fn()`` after ``delay`` simulated seconds; returns a handle."""
        return self.call_at(self.now + delay, fn)

    def sleep(self, delay: float) -> SleepRequest:
        """Return a yieldable that resumes the caller after ``delay``.

        Rides the :class:`SleepRequest` direct-resume fast path — no
        future, no callback chain.  The wake-up is scheduled when the
        request is yielded, which for the universal ``yield
        sim.sleep(d)`` idiom is the same sequence point as the eager
        future this method used to allocate.
        """
        if delay <= 0.0:
            return _SLEEP_ZERO
        return SleepRequest(delay)

    def timeout_at(self, time: float) -> Future:
        """Return a future that resolves at absolute ``time``."""
        fut = Future(self)
        self._push(max(self.now, time), _RESOLVE, fut, None, None)
        return fut

    def spawn(self, gen: ProcessBody, name: str = "",
              eager: bool = False) -> Process:
        """Start a new process from a generator.

        ``eager=True`` runs the first segment synchronously (saving the
        zero-delay kick-off event) — only for spawners that don't rely
        on the child starting after the current step completes.
        """
        return Process(self, gen, name=name, eager=eager)

    # -- tombstone management ------------------------------------------

    def _cancel_timer(self) -> None:
        """A timer was cancelled; its record stays queued as a tombstone
        until popped, or until tombstones dominate the heap."""
        self._tombstones += 1
        heap = self._heap
        if (self._tombstones >= self._COMPACT_MIN
                and self._tombstones * 2 > len(heap)):
            live = [e for e in heap
                    if e[2] != _TIMER or e[3]._fn is not None]
            self._tombstones -= len(heap) - len(live)
            if self._tombstones < 0:
                raise SimulationError(
                    "tombstone accounting drifted negative after compaction: "
                    f"tombstones={self._tombstones}")
            heapq.heapify(live)
            # In place: the drain loop holds a reference to the list.
            heap[:] = live

    # -- combinators ---------------------------------------------------

    def all_of(self, futures: Iterable[Future]) -> Future:
        """Resolve once every input future has resolved.

        The result is the list of individual values in input order.  The
        first failure fails the combined future immediately.
        """
        futures = list(futures)
        combined = Future(self)
        if not futures:
            self.schedule_resolve(0.0, combined, [])
            return combined
        remaining = [len(futures)]

        def on_done(_fut: Future) -> None:
            if combined.done:
                return
            if _fut._exception is not None:
                combined.fail(_fut._exception)
                return
            remaining[0] -= 1
            if remaining[0] == 0:
                combined.resolve([f._value for f in futures])

        for f in futures:
            f.add_callback(on_done)
        return combined

    def any_of(self, futures: Iterable[Future]) -> Future:
        """Resolve with (index, value) of the first future to resolve."""
        futures = list(futures)
        if not futures:
            raise SimulationError("any_of requires at least one future")
        combined = Future(self)

        def make_cb(idx: int) -> Callable[[Future], None]:
            def on_done(fut: Future) -> None:
                if combined.done:
                    return
                if fut._exception is not None:
                    combined.fail(fut._exception)
                else:
                    combined.resolve((idx, fut._value))

            return on_done

        for i, f in enumerate(futures):
            f.add_callback(make_cb(i))
        return combined

    # -- running -------------------------------------------------------

    def _drain(self, until: float) -> None:
        """Run every event due at or before ``until``, stopping before
        the first live event past it.

        The one event loop: ring events (zero-delay, due now) and heap
        events at the current timestamp are merged by sequence number,
        preserving global scheduling order among same-timestamp events,
        and tombstones are skipped without advancing the clock.  The pop
        and the dispatch are inlined: a call frame per event is a
        measurable share of a replay.  Ring events are due now, never
        past ``until``; a heap event past it is pushed back unchanged.
        """
        ring = self._ring
        heap = self._heap
        pop = heapq.heappop
        while True:
            if ring:
                if heap:
                    head = heap[0]
                    if head[2] == _TIMER and head[3]._fn is None:
                        pop(heap)
                        self._tombstones -= 1
                        continue
                    if head[0] <= self.now and head[1] < ring[0][0]:
                        time, _seq, kind, a, b, c = pop(heap)
                        if time < self.now:
                            raise SimulationError(
                                "event heap corrupted: time went backwards")
                        self.now = time
                    else:
                        _seq, kind, a, b, c = ring.popleft()
                        if kind == _TIMER and a._fn is None:
                            self._tombstones -= 1
                            continue
                else:
                    _seq, kind, a, b, c = ring.popleft()
                    if kind == _TIMER and a._fn is None:
                        self._tombstones -= 1
                        continue
            elif heap:
                record = pop(heap)
                time, _seq, kind, a, b, c = record
                if kind == _TIMER and a._fn is None:
                    self._tombstones -= 1
                    continue
                if time > until:
                    heapq.heappush(heap, record)
                    return
                if time < self.now:
                    raise SimulationError(
                        "event heap corrupted: time went backwards")
                self.now = time
            else:
                return
            if kind == _WAKE:
                if b == a._epoch:
                    a._step(None, None)
            elif kind == _DEFER:
                if c == a._epoch and not a._done:
                    a._step(b.value, b.exc)
            elif kind == _CALL:
                a(b, c)
            elif kind == _RESOLVE:
                a.resolve(b)
            else:
                a.fire()

    def run(self, until: Optional[float] = None) -> None:
        """Run until the event queue drains or ``until`` is reached.

        When ``until`` is given, the clock is advanced to exactly
        ``until`` even if the last event fires earlier, so repeated
        bounded runs compose predictably.
        """
        if until is None:
            self._drain(math.inf)
            return
        if not until >= self.now:
            raise SimulationError(f"cannot run until {until} < now {self.now}")
        self._drain(until)
        self.now = until

    def run_process(self, gen: ProcessBody, name: str = "") -> Any:
        """Spawn ``gen``, drain the queue, and return its result."""
        proc = self.spawn(gen, name=name)
        self.run()
        if not proc.done:
            raise SimulationError(
                f"process {proc.name!r} did not finish (deadlocked waiting?)"
            )
        return proc.value
