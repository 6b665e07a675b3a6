"""Simulated serverless function platforms (Lambda / Azure Functions /
Cloud Run functions).

Models every FaaS behaviour the paper's performance model (§5.3) and
discussion (§6) depend on:

* **API invocation latency** ``I(loc)`` — paid by the caller for each
  asynchronous invocation request;
* **instance readiness delay** ``D(loc)`` — cold-start time when no
  warm instance is available, small warm-start time otherwise;
* **scheduling postponement** ``P(loc)`` — Azure/GCP batch new-instance
  creation to a periodic scheduler tick (Cloud Run's scheduler runs
  every five seconds), so a burst of cold invocations waits for the
  next tick together;
* **execution time limits** — a watchdog interrupts handlers that
  exceed the platform maximum (e.g. 15 min on Lambda);
* **auto-retry with dead-letter queue** — failed/timed-out invocations
  are retried with backoff up to a platform maximum, then parked
  (§6 "Fault tolerance");
* **concurrency limits** — excess invocations queue (§6 "Resource
  limitations"), default 1,000 concurrent instances per region;
* **per-instance network variability** — each instance owns a
  persistent :class:`~repro.simcloud.network.InstanceChannel`;
* **millisecond-granularity billing** of compute and requests.

Handlers are DES processes: generator functions ``handler(ctx,
payload)`` that yield futures.  ``ctx`` (:class:`FunctionContext`)
exposes the object-storage data path with metered latency, transfer
time, and cost.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Generator, Optional

from repro.simcloud.chaos import ChaosConfig, ChaosDraws, outage_end
from repro.simcloud.cost import CostCategory, CostLedger
from repro.simcloud.network import (
    BEST_CONFIGS,
    FunctionConfig,
    InstanceChannel,
    NetworkFabric,
)
from repro.simcloud.objectstore import Blob, Bucket, ServiceUnavailable
from repro.simcloud.pricing import PriceBook
from repro.simcloud.regions import Provider, Region
from repro.simcloud.rng import BufferedSampler, Dist, RngFactory, normal
from repro.simcloud.sim import (
    Future,
    Interrupt,
    Process,
    Simulator,
    SleepRequest,
)

__all__ = [
    "FaasProfile",
    "FaasRegion",
    "FunctionContext",
    "Invocation",
    "FunctionTimeout",
    "InvocationFailed",
]

#: Trace attribute names, one tuple per record schema.
_INVOKE_KEYS = ("fn", "region")
_REGION_KEYS = ("region",)
_READY_KEYS = ("kind", "region", "instance")
_ATTEMPT_KEYS = ("fn", "region", "instance", "attempt", "outcome",
                 "compute_cost")
_STARTUP_KEYS = ("region", "instance")
_CHUNK_KEYS = ("op", "bytes", "region", "instance", "mbps")
#: The two the trace checker reads (``core/task.py`` SUBSTRATE_READS).
DEAD_LETTER_KEYS = ("fn", "region", "error", "disposition")
CHAOS_CORRUPT_KEYS = ("kind", "bytes", "region")


def _task_ref(payload) -> Optional[str]:
    """The task id a function invocation payload is working for.

    The engine stamps orchestrator payloads with a ``task`` field;
    replicator payloads already carry ``task_id``, and the changelog
    applier nests the whole task dict under ``task``.  Attribution
    degrades to ``None`` (an untasked row) rather than KeyError for
    payloads outside the task lifecycle (probes, timers).
    """
    if isinstance(payload, dict):
        ref = payload.get("task", payload.get("task_id"))
        if isinstance(ref, dict):
            ref = ref.get("task_id")
        if ref is not None:
            return str(ref)
    return None


class FunctionTimeout(RuntimeError):
    """Raised inside an invocation that exceeded its time limit."""


class InvocationFailed(RuntimeError):
    """An invocation exhausted its automatic retries."""


@dataclass(frozen=True)
class FaasProfile:
    """Platform behaviour parameters (per provider)."""

    invoke_latency_s: dict[str, Dist] = field(
        default_factory=lambda: {
            Provider.AWS: normal(0.018, 0.005, floor=0.004),
            Provider.AZURE: normal(0.045, 0.015, floor=0.008),
            Provider.GCP: normal(0.030, 0.010, floor=0.006),
        }
    )
    cold_start_s: dict[str, Dist] = field(
        default_factory=lambda: {
            Provider.AWS: normal(0.32, 0.08, floor=0.08),
            Provider.AZURE: normal(1.10, 0.35, floor=0.25),
            Provider.GCP: normal(0.55, 0.15, floor=0.12),
        }
    )
    warm_start_s: dict[str, Dist] = field(
        default_factory=lambda: {
            Provider.AWS: normal(0.008, 0.002, floor=0.001),
            Provider.AZURE: normal(0.020, 0.006, floor=0.002),
            Provider.GCP: normal(0.012, 0.004, floor=0.002),
        }
    )
    # Scheduler tick period driving P(loc); 0 means instances are added
    # immediately (Lambda's firecracker pool).
    scheduler_period_s: dict[str, float] = field(
        default_factory=lambda: {
            Provider.AWS: 0.0,
            Provider.AZURE: 4.0,
            Provider.GCP: 5.0,
        }
    )
    # Hard execution time limits.
    timeout_limit_s: dict[str, float] = field(
        default_factory=lambda: {
            Provider.AWS: 900.0,
            Provider.AZURE: 600.0,
            Provider.GCP: 540.0,
        }
    )
    # Extra caller-side latency when invoking across providers (public
    # HTTPS endpoint instead of in-cloud API).
    cross_provider_invoke_s: Dist = normal(0.09, 0.03, floor=0.02)
    keepalive_s: float = 600.0
    max_concurrency: int = 1000
    max_retries: int = 2
    retry_backoff_s: float = 1.0


# Object-storage request (first-byte) latencies, paid per API call from
# a function to a bucket; WAN round-trip added when crossing regions.
_STORE_REQ_LATENCY: dict[str, Dist] = {
    Provider.AWS: normal(0.025, 0.008, floor=0.005),
    Provider.AZURE: normal(0.040, 0.012, floor=0.008),
    Provider.GCP: normal(0.030, 0.010, floor=0.006),
}
_WAN_RTT_PER_1000KM = 0.012  # seconds of extra request RTT per 1000 km


@dataclass
class _Instance:
    """One warm function instance (a microVM/container)."""

    instance_id: int
    channel: InstanceChannel
    last_used: float
    cold_started_at: float


class Invocation(Future):
    """Handle for one logical invocation (spanning auto-retries)."""

    __slots__ = ("name", "payload", "attempts", "enqueued_at", "started_at",
                 "fresh_instance")

    def __init__(self, sim: Simulator, name: str, payload: Any,
                 fresh_instance: bool = False):
        super().__init__(sim)
        self.name = name
        self.payload = payload
        self.attempts = 0
        self.enqueued_at = sim.now
        self.started_at: Optional[float] = None
        #: Bypass the warm pool: every attempt cold-starts a brand-new
        #: instance (and therefore draws a fresh per-instance network
        #: speed factor).  The hedging engine sets this on clone
        #: invocations — re-landing a straggler's clone on a warm
        #: instance whose persistent factor is also slow would defeat
        #: the independent redraw the hedge exists to buy.
        self.fresh_instance = fresh_instance


_STAT_KEYS = ("invocations", "cold_starts", "warm_starts", "timeouts",
              "errors", "retries")


class _Deployment:
    """One deployed function.  A replication rule deploys five and a
    quiet one invokes two, so the warm pool exists from the first
    invocation on (``_start_attempt``) and the counters are slots."""

    __slots__ = ("name", "handler", "config", "timeout_s", "warm_pool",
                 *_STAT_KEYS)

    def __init__(self, name: str,
                 handler: Callable[["FunctionContext", Any], Generator],
                 config: FunctionConfig, timeout_s: float):
        self.name = name
        self.handler = handler
        self.config = config
        self.timeout_s = timeout_s
        #: Idle instances, oldest first.
        self.warm_pool: Optional[list] = None
        self.invocations = self.cold_starts = self.warm_starts = 0
        self.timeouts = self.errors = self.retries = 0


class FaasRegion:
    """The FaaS service of one provider in one region."""

    def __init__(
        self,
        sim: Simulator,
        region: Region,
        fabric: NetworkFabric,
        prices: PriceBook,
        ledger: CostLedger,
        rngs: RngFactory,
        injected: dict[str, int],
        profile: FaasProfile | None = None,
    ):
        self.sim = sim
        self.region = region
        self.fabric = fabric
        self.prices = prices
        self.ledger = ledger
        self.profile = profile or FaasProfile()
        self._rng = rngs.stream(f"faas:{region.key}")
        # Fault injection draws from its own stream: crash patterns for
        # a given seed depend only on the attempt sequence, not on how
        # many latency samples other machinery happened to consume.
        # Served in vectorized blocks (ChaosDraws) — every attempt
        # consults the crash schedule, every WAN leg the corruption one.
        self._chaos_rng = ChaosDraws(rngs.stream(f"faas-chaos:{region.key}"))
        self._req_latency_samplers: dict[str, BufferedSampler] = {}
        # Deterministic WAN round-trip surcharge per remote region key.
        self._wan_surcharges: dict[str, float] = {}
        # Scalar platform-latency draws (invoke, warm start, cold start)
        # served from vectorized blocks; keyed by the Dist itself so a
        # post-construction profile swap transparently gets fresh
        # samplers for any changed distribution.
        self._dist_samplers: dict[Dist, BufferedSampler] = {}
        self._deployments: dict[str, _Deployment] = {}
        self._instance_seq = itertools.count(1)
        self._running = 0
        #: High-water mark of concurrently running instances.
        self.peak_running = 0
        self._queue: deque[Callable[[], None]] = deque()
        self.dead_letters: list[tuple[str, Any, str]] = []
        #: How many dead-letter entries carried the ``corrupted``
        #: disposition (poison parts quarantined past their budget).
        self.quarantined_dead_letters = 0
        # Fault injection (see :meth:`set_chaos`): None while no FaaS
        # fault is on, and the region's outage windows.
        self._chaos: Optional[ChaosConfig] = None
        self._outages: tuple[tuple[float, float], ...] = ()
        #: Injected-fault counts (``chaos.INJECTED_KEYS``); the
        #: substrates of one Cloud share the dict.
        self.injected = injected
        #: Optional :class:`~repro.core.health.HealthTracker` fed one
        #: ``("faas", region)`` result per finished attempt.
        self.health_sink = None
        #: Optional :class:`~repro.core.tracing.Tracer` receiving the
        #: platform's I/D/P spans and attempt/dead-letter records.
        self.tracer = None

    def set_chaos(self, chaos: Optional[ChaosConfig]) -> None:
        """Install (or clear, with None) this platform's faults.

        Attempts crash after an Exp(``crash_mean_delay_s``) execution
        time and take the platform's failure path (§6: auto-retry, then
        the dead-letter queue); ``faas_outages`` windows refuse every
        attempt; cross-region GETs and PUTs may be corrupted in flight.
        Draws come from the ``faas-chaos:{region}`` stream, opened once
        at construction.
        """
        if chaos is not None and not (chaos.faas_enabled
                                      or chaos.corruption_transfer_enabled):
            chaos = None
        self._chaos = chaos
        self._outages = (chaos.outage_windows("faas", self.region.key)
                         if chaos is not None else ())

    @property
    def provider(self) -> str:
        return self.region.provider

    @property
    def running(self) -> int:
        return self._running

    # -- deployment ----------------------------------------------------------

    def deploy(
        self,
        name: str,
        handler: Callable[["FunctionContext", Any], Generator],
        config: FunctionConfig | None = None,
        timeout_s: float | None = None,
    ) -> None:
        """Register a function; ``config`` defaults to the platform's
        best-price configuration from the paper's setup."""
        limit = self.profile.timeout_limit_s[self.provider]
        timeout = min(timeout_s or limit, limit)
        self._deployments[name] = _Deployment(
            name, handler, config or BEST_CONFIGS[self.provider], timeout
        )

    def deployment_stats(self, name: str) -> dict[str, int]:
        dep = self._deployments[name]
        return {key: getattr(dep, key) for key in _STAT_KEYS}

    def _sample(self, dist: Dist) -> float:
        """One scalar draw from ``dist``, buffered per distribution."""
        sampler = self._dist_samplers.get(dist)
        if sampler is None:
            sampler = self._dist_samplers[dist] = BufferedSampler(
                dist, self._rng, block=128)
        return sampler.sample()

    # -- invocation ----------------------------------------------------------

    def invoke(self, name: str, payload: Any,
               caller_region: Region | None = None,
               fresh_instance: bool = False) -> tuple[Future, Invocation]:
        """Asynchronously invoke ``name``.

        Returns ``(accepted, invocation)``: ``accepted`` resolves after
        the caller-side API latency *I* (plus a cross-provider surcharge
        when the caller runs on a different cloud); ``invocation``
        resolves with the handler's return value once the function —
        including platform auto-retries — finishes.
        ``fresh_instance`` forces every attempt onto a cold-started
        instance (see :class:`Invocation`).
        """
        if name not in self._deployments:
            raise KeyError(f"function {name!r} not deployed in {self.region.key}")
        latency = self._sample(self.profile.invoke_latency_s[self.provider])
        if caller_region is not None and caller_region.provider != self.provider:
            latency += float(self.profile.cross_provider_invoke_s.sample(self._rng))
        invocation = Invocation(self.sim, name, payload,
                                fresh_instance=fresh_instance)
        accepted = Future(self.sim)
        self.sim.schedule_call(latency, self._accept, accepted, invocation)
        return accepted, invocation

    def _accept(self, accepted: Future, invocation: Invocation) -> None:
        if self.tracer is not None:
            # The caller-side invocation latency I(loc), paid per
            # request (T_func = I·n + D + P in the model).
            self.tracer.span("I", "phase", _task_ref(invocation.payload),
                             invocation.enqueued_at, self.sim.now,
                             _INVOKE_KEYS, invocation.name, self.region.key)
        accepted.resolve(invocation)
        self._admit(invocation)

    def invoke_and_forget(self, name: str, payload: Any) -> Invocation:
        """Platform-internal trigger (no caller to pay *I*), e.g. a
        bucket notification invoking its event-listener function."""
        invocation = Invocation(self.sim, name, payload)
        self._admit(invocation)
        return invocation

    def redrive_dead_letters(self) -> int:
        """Re-enqueue every dead-lettered event as a fresh invocation.

        The operational recovery path after an extended fault (e.g. a
        region outage that outlasted the automatic retries): all the
        system's functions are idempotent, so redriving the DLQ resumes
        exactly where the failures interrupted.  Returns the number of
        events redriven.
        """
        parked, self.dead_letters = self.dead_letters, []
        for name, payload, _error in parked:
            if name in self._deployments:
                self.invoke_and_forget(name, payload)
        return len(parked)

    # -- internal lifecycle -----------------------------------------------------

    def _admit(self, invocation: Invocation) -> None:
        if self._running >= self.profile.max_concurrency:
            self._queue.append(lambda: self._start_attempt(invocation))
        else:
            self._start_attempt(invocation)

    def _release_slot(self) -> None:
        self._running -= 1
        if self._queue and self._running < self.profile.max_concurrency:
            self._queue.popleft()()

    def _next_scheduler_tick(self) -> float:
        """Delay until the platform scheduler next adds instances (P)."""
        period = self.profile.scheduler_period_s[self.provider]
        if period <= 0:
            return 0.0
        return period - math.fmod(self.sim.now, period)

    def _cold_instance(self, task: Optional[str]):
        """Process: start a brand-new instance (P, then cold D)."""
        now = self.sim.now
        postponement = self._next_scheduler_tick()
        if postponement > 0:
            yield SleepRequest(postponement)
            if self.tracer is not None:
                # P(loc): the batch-scheduler postponement a cold
                # invocation waits out before its instance is created.
                self.tracer.span("P", "phase", task, now, self.sim.now,
                                 _REGION_KEYS, self.region.key)
        cold_from = self.sim.now
        yield SleepRequest(
            self._sample(self.profile.cold_start_s[self.provider])
        )
        inst = _Instance(
            instance_id=next(self._instance_seq),
            channel=self.fabric.open_channel(self.provider),
            last_used=self.sim.now,
            cold_started_at=self.sim.now,
        )
        if self.tracer is not None:
            self.tracer.span("D", "phase", task, cold_from, self.sim.now,
                             _READY_KEYS, "cold", self.region.key,
                             inst.instance_id)
        return inst

    def _start_attempt(self, invocation: Invocation) -> None:
        self._running += 1
        self.peak_running = max(self.peak_running, self._running)
        dep = self._deployments[invocation.name]
        if dep.warm_pool is None:
            dep.warm_pool = []
        dep.invocations += 1
        invocation.attempts += 1
        ctx = FunctionContext(self, dep)
        # Eager: the first segment (up to the instance's start-up sleep)
        # runs now, saving a kick-off event; ``ctx`` learns its process
        # before that sleep ends.  Through ``sim.spawn`` so the external
        # benchmark tracer keeps filing the attempt under this module.
        ctx._proc = self.sim.spawn(self._run_attempt(dep, invocation, ctx),
                                   eager=True)

    def _run_attempt(self, dep: _Deployment, invocation: Invocation,
                     ctx: "FunctionContext"):
        """Process: one attempt in one frame — the handler runs here via
        ``yield from``; the context's timers interrupt this process."""
        tracer = self.tracer
        task = _task_ref(invocation.payload) if tracer is not None else None
        if (self._chaos is not None and self._outages
                and outage_end(self._outages, self.sim.now)):
            # Regional platform outage: the control plane refuses the
            # attempt before any instance starts — nothing runs, nothing
            # bills — and the caller sees the platform's normal failure
            # path (auto-retry with backoff, then the dead-letter queue).
            try:
                yield SleepRequest(0.05)
            finally:
                self._release_slot()
            self.injected["faas_outage_failures"] += 1
            if tracer is not None:
                tracer.event("faas-outage-reject", "faas", task,
                             _INVOKE_KEYS, invocation.name, self.region.key)
            self._settle_attempt(
                dep, invocation, None,
                ServiceUnavailable(f"faas outage in {self.region.key}"))
            return
        sim = self.sim
        attempt_from = sim.now
        try:
            # ``fresh_instance`` skips the warm pool: the caller wants the
            # fresh per-instance channel factor a cold start draws.
            inst = None
            warm_pool = dep.warm_pool
            while warm_pool and not invocation.fresh_instance:
                candidate: _Instance = warm_pool.pop(0)
                if attempt_from - candidate.last_used <= self.profile.keepalive_s:
                    inst = candidate
                    break
            if inst is not None:
                yield SleepRequest(
                    self._sample(self.profile.warm_start_s[self.provider]))
                if tracer is not None:
                    tracer.span("D", "phase", task, attempt_from, sim.now,
                                _READY_KEYS, "warm", self.region.key,
                                inst.instance_id)
                dep.warm_starts += 1
            else:
                inst = yield from self._cold_instance(task)
                dep.cold_starts += 1
            if invocation.started_at is None:
                invocation.started_at = sim.now
            ctx.instance = inst
            ctx.deadline = sim.now + dep.timeout_s
            ctx._trace_task = task
            watchdog_timer = sim.call_later(dep.timeout_s, ctx._on_timeout)
            chaos_timer = None
            chaos = self._chaos
            # The draw precedes the scope check so a scoped storm (one
            # tenant's functions) consumes the identical stream a
            # global storm would — isolation tests rely on the schedule
            # other substrates see being scope-independent.
            if (chaos is not None and chaos.crash_prob
                    and self._chaos_rng.random() < chaos.crash_prob
                    and (chaos.crash_scope is None
                         or chaos.crash_scope in dep.name)):
                chaos_timer = sim.call_later(
                    float(self._chaos_rng.exponential(
                        chaos.crash_mean_delay_s)),
                    ctx._on_crash)
            started = sim.now
            # The handler's first segment runs after the timers are armed
            # and the crash draw is taken.  The crash schedule depends on
            # no first segment drawing from ``faas-chaos:{region}``: every
            # ``_flip_in_flight`` must sit after a yield.
            try:
                result = yield from dep.handler(ctx, invocation.payload)
                error: Optional[BaseException] = None
            except Interrupt as intr:
                error = FunctionTimeout(str(intr.cause)) if ctx._timed_out else intr
                result = None
            except Exception as exc:  # noqa: BLE001 - handler fault
                error = exc
                result = None
            watchdog_timer.cancel()
            if chaos_timer is not None:
                chaos_timer.cancel()
            duration = sim.now - started
            billed = self._bill(dep, duration, task)
            inst.last_used = sim.now
            warm_pool.append(inst)
            if tracer is not None:
                if error is None:
                    outcome = "ok"
                elif isinstance(error, FunctionTimeout):
                    outcome = "timeout"
                elif isinstance(error, Interrupt):
                    outcome = "crash"
                else:
                    outcome = "error"
                tracer.span("attempt", "faas", task, attempt_from,
                            sim.now, _ATTEMPT_KEYS, dep.name,
                            self.region.key, inst.instance_id,
                            invocation.attempts, outcome, billed)
        finally:
            # No attempt process may outlive its attempt (via a context a
            # hedge's child processes hold): tenant_fanout's RSS grows.
            ctx._proc = None
            self._release_slot()
        self._settle_attempt(dep, invocation, result, error)

    def _settle_attempt(self, dep: _Deployment, invocation: Invocation,
                        result: Any, error: Optional[BaseException]) -> None:
        """Resolve, retry, or dead-letter one finished attempt, and
        report its outcome to the health sink (per attempt, not per
        invocation — the circuit breaker should see every refusal an
        outage produces, not one failure after the retries drain)."""
        if self.health_sink is not None:
            self.health_sink.record(("faas", self.region.key), error is None)
        if error is None:
            invocation.resolve(result)
            return
        if isinstance(error, FunctionTimeout):
            dep.timeouts += 1
        else:
            dep.errors += 1
        # Errors carrying a ``dlq_disposition`` (e.g. a quarantined
        # poison part) skip the auto-retry ladder: retrying would re-run
        # the whole attempt against the same poisoned transfer, so they
        # park immediately under their distinct disposition, awaiting an
        # operator redrive.
        disposition = getattr(error, "dlq_disposition", None)
        if disposition is None and invocation.attempts <= self.profile.max_retries:
            dep.retries += 1
            delay = self.profile.retry_backoff_s * (2 ** (invocation.attempts - 1))
            self.sim.call_later(delay, lambda: self._admit_retry(invocation))
        else:
            if disposition == "corrupted":
                self.quarantined_dead_letters += 1
            self.dead_letters.append((invocation.name, invocation.payload, repr(error)))
            if self.tracer is not None:
                self.tracer.event("dead-letter", "faas",
                                  _task_ref(invocation.payload),
                                  DEAD_LETTER_KEYS, invocation.name,
                                  self.region.key, repr(error),
                                  disposition or "failed")
            invocation.fail(InvocationFailed(f"{invocation.name}: {error!r}"))

    def _admit_retry(self, invocation: Invocation) -> None:
        self._admit(invocation)

    def _bill(self, dep: _Deployment, duration_s: float,
              task: Optional[str] = None) -> float:
        cost = self.prices.faas_compute_cost(
            self.provider, dep.config.memory_mb, dep.config.vcpus, duration_s
        )
        per_request = self.prices.faas[self.provider].per_request
        self.ledger.charge(CostCategory.FAAS_COMPUTE, cost, task)
        self.ledger.charge(CostCategory.FAAS_REQUESTS, per_request, task)
        return cost + per_request


class FunctionContext:
    """Runtime services available to a handler.

    The data-path methods are generators; use them with ``yield from``
    inside handlers.  Each charges the appropriate request, egress, and
    compute-time costs and advances simulated time by the sampled
    request latency and transfer duration.
    """

    __slots__ = ("_faas", "_proc", "_timed_out", "instance",
                 "deadline", "region", "config", "_client_ready",
                 "bytes_downloaded", "bytes_uploaded", "_trace_task")

    def __init__(self, faas: FaasRegion, dep: _Deployment):
        self._faas = faas
        #: The attempt's process while it runs (the timers' target).
        self._proc: Optional[Process] = None
        self._timed_out = False
        self.instance: Optional[_Instance] = None  # set once it is ready
        self.deadline = math.inf
        self.region = faas.region
        self.config = dep.config
        self._client_ready = False
        self.bytes_downloaded = 0
        self.bytes_uploaded = 0
        #: Task attribution for spans and ledger charges issued from
        #: this context (stamped per attempt by the platform).
        self._trace_task: Optional[str] = None

    def _on_timeout(self) -> None:
        proc = self._proc
        if proc is not None and proc.alive:
            self._timed_out = True
            proc.interrupt("timeout")

    def _on_crash(self) -> None:
        proc = self._proc
        if proc is not None and proc.alive:
            self._faas.injected["faas_crashes"] += 1
            proc.interrupt("chaos-crash")

    # -- basics ---------------------------------------------------------------

    @property
    def sim(self) -> Simulator:
        return self._faas.sim

    @property
    def now(self) -> float:
        return self._faas.sim.now

    @property
    def remaining_s(self) -> float:
        return max(0.0, self.deadline - self.now)

    def sleep(self, seconds: float) -> SleepRequest:
        """Yieldable sleep — served by the kernel's direct-resume fast
        path rather than a full future (data-path sleeps dominate the
        event count of a replay)."""
        return SleepRequest(seconds)

    def spawn(self, gen, name: str = "") -> Process:
        return self._faas.sim.spawn(gen, name=name)

    # -- metered request plumbing ---------------------------------------------

    def _request_latency(self, bucket: Bucket) -> float:
        provider = bucket.region.provider
        samplers = self._faas._req_latency_samplers
        sampler = samplers.get(provider)
        if sampler is None:
            sampler = samplers[provider] = BufferedSampler(
                _STORE_REQ_LATENCY[provider], self._faas._rng)
        base = sampler.sample()
        if bucket.region.key != self.region.key:
            surcharges = self._faas._wan_surcharges
            surcharge = surcharges.get(bucket.region.key)
            if surcharge is None:
                from repro.simcloud.regions import geo_distance_km

                surcharge = surcharges[bucket.region.key] = (
                    _WAN_RTT_PER_1000KM
                    * geo_distance_km(self.region, bucket.region) / 1000.0)
            base += surcharge
        return base

    def _charge_request(self, bucket: Bucket, kind: str) -> None:
        faas = self._faas
        price = faas.prices.store[bucket.region.provider]
        faas.ledger.charge(CostCategory.STORAGE_REQUESTS,
                           price.put if kind == "put" else price.get,
                           self._trace_task)

    def _charge_egress(self, src: Region, dst: Region, nbytes: int) -> None:
        faas = self._faas
        cost = faas.prices.egress_cost(src, dst, nbytes)
        if cost > 0:
            faas.ledger.charge(CostCategory.EGRESS, cost, self._trace_task)

    def _client_startup(self):
        """First data-path call per invocation pays the S overhead
        (callers enter only while ``_client_ready`` is False)."""
        self._client_ready = True
        startup_from = self.now
        yield SleepRequest(self._faas.fabric.sample_startup(self.region.provider))
        if self._faas.tracer is not None:
            self._faas.tracer.span(
                "S", "phase", self._trace_task, startup_from, self.now,
                _STARTUP_KEYS, self.region.key, self.instance.instance_id)

    def _leg_seconds(self, bucket: Bucket, nbytes: int, upload: bool,
                     concurrency: int) -> float:
        fabric = self._faas.fabric
        peer = bucket.region
        mbps = fabric.path_mbps(self.region, peer, self.config, upload=upload)
        divisor, extra_sigma = fabric.congestion_scale(self.region.provider, concurrency)
        factor = self.instance.channel.next_factor()
        if extra_sigma > 0:
            factor *= fabric.congestion_jitter(extra_sigma)
        seconds = nbytes * 8 / (mbps * 1e6) * divisor / factor
        if fabric._chaos is not None and peer.key != self.region.key:
            seconds += fabric.chaos_penalty_s(self.now, self.region.key,
                                              peer.key)
        return seconds

    def _trace_leg(self, op: str, bucket: Bucket, nbytes: int,
                   started: float) -> None:
        """One C span: a single chunk's transfer leg, with the observed
        effective bandwidth as an attribute."""
        seconds = self.now - started
        self._faas.tracer.span(
            "C", "phase", self._trace_task, started, self.now, _CHUNK_KEYS,
            op, nbytes, bucket.region.key, self.instance.instance_id,
            nbytes * 8 / seconds / 1e6 if seconds > 0 else 0.0)

    # -- object storage data path -----------------------------------------------

    def _flip_in_flight(self, op: str, bucket: Bucket, blob: Blob) -> Blob:
        """Injected fault: flip bits of one WAN transfer's payload.

        Only cross-region transfers are exposed (the WAN is the
        unreliable medium the end-to-end argument targets); the chaos
        RNG stream keeps the flip schedule deterministic per seed.
        """
        faas = self._faas
        prob = (faas._chaos.corrupt_get_prob if op == "get"
                else faas._chaos.corrupt_put_prob)
        if (prob <= 0 or blob.size == 0
                or bucket.region.key == self.region.key
                or faas._chaos_rng.random() >= prob):
            return blob
        faas.injected[f"corrupt_{op}"] += 1
        if faas.tracer is not None:
            faas.tracer.event("chaos-corrupt", "chaos", self._trace_task,
                              CHAOS_CORRUPT_KEYS, op, blob.size,
                              bucket.region.key)
        return Blob.fresh(blob.size, tag=f"flip:{op}")

    def get_object(self, bucket: Bucket, key: str, offset: int = 0,
                   length: Optional[int] = None, concurrency: int = 1):
        """Download a (range of an) object into local storage."""
        if not self._client_ready:
            yield from self._client_startup()
        yield SleepRequest(self._request_latency(bucket))
        blob, version = bucket.get_object(key, offset, length)
        if self._faas._chaos is not None:
            blob = self._flip_in_flight("get", bucket, blob)
        self._charge_request(bucket, "get")
        leg_from = self.now
        yield SleepRequest(self._leg_seconds(bucket, blob.size, upload=False,
                                           concurrency=concurrency))
        if self._faas.tracer is not None:
            self._trace_leg("get", bucket, blob.size, leg_from)
        self._charge_egress(bucket.region, self.region, blob.size)
        self.bytes_downloaded += blob.size
        return blob, version

    def head_object(self, bucket: Bucket, key: str):
        """Metadata-only request (no data transfer)."""
        yield SleepRequest(self._request_latency(bucket))
        self._charge_request(bucket, "get")
        return bucket.head(key)

    def put_object(self, bucket: Bucket, key: str, blob: Blob,
                   if_match: Optional[str] = None, concurrency: int = 1):
        """Upload ``blob`` from local storage to ``bucket/key``."""
        if not self._client_ready:
            yield from self._client_startup()
        yield SleepRequest(self._request_latency(bucket))
        leg_from = self.now
        yield SleepRequest(self._leg_seconds(bucket, blob.size, upload=True,
                                           concurrency=concurrency))
        if self._faas.tracer is not None:
            self._trace_leg("put", bucket, blob.size, leg_from)
        sent = (self._flip_in_flight("put", bucket, blob)
                if self._faas._chaos is not None else blob)
        version = bucket.put_object(key, sent, self.now, if_match=if_match)
        self._charge_request(bucket, "put")
        self._charge_egress(self.region, bucket.region, blob.size)
        self.bytes_uploaded += blob.size
        return version

    def delete_object(self, bucket: Bucket, key: str):
        yield SleepRequest(self._request_latency(bucket))
        bucket.delete_object(key, self.now)
        self._charge_request(bucket, "put")
        return None

    def copy_object(self, bucket: Bucket, src_key: str, dst_key: str,
                    if_match: Optional[str] = None):
        """Server-side copy inside one bucket — no WAN transfer."""
        yield SleepRequest(self._request_latency(bucket))
        if if_match is not None and bucket.current_etag(src_key) != if_match:
            from repro.simcloud.objectstore import PreconditionFailed

            self._charge_request(bucket, "put")
            raise PreconditionFailed(f"copy source {src_key} etag mismatch")
        version = bucket.copy_object(src_key, dst_key, self.now)
        self._charge_request(bucket, "put")
        return version

    # -- multipart ----------------------------------------------------------------

    def initiate_multipart(self, bucket: Bucket, key: str,
                           if_match: Optional[str] = None):
        yield SleepRequest(self._request_latency(bucket))
        self._charge_request(bucket, "put")
        return bucket.initiate_multipart(key, if_match=if_match)

    def upload_part(self, bucket: Bucket, upload_id: str, part_number: int,
                    blob: Blob, concurrency: int = 1, pipelined: bool = False):
        """``pipelined=True`` overlaps the request handshake with the
        previous part's data transfer (streaming uploads), so only the
        transfer time itself is paid; the request is still billed."""
        if not self._client_ready:
            yield from self._client_startup()
        if not pipelined:
            yield SleepRequest(self._request_latency(bucket))
        leg_from = self.now
        yield SleepRequest(self._leg_seconds(bucket, blob.size, upload=True,
                                           concurrency=concurrency))
        if self._faas.tracer is not None:
            self._trace_leg("upload-part", bucket, blob.size, leg_from)
        sent = (self._flip_in_flight("put", bucket, blob)
                if self._faas._chaos is not None else blob)
        etag = bucket.upload_part(upload_id, part_number, sent)
        self._charge_request(bucket, "put")
        self._charge_egress(self.region, bucket.region, blob.size)
        self.bytes_uploaded += blob.size
        return etag

    def complete_multipart(self, bucket: Bucket, upload_id: str):
        yield SleepRequest(self._request_latency(bucket))
        version = bucket.complete_multipart(upload_id, self.now)
        self._charge_request(bucket, "put")
        return version

    # -- invoking other functions ---------------------------------------------------

    def invoke(self, target: FaasRegion, name: str, payload: Any,
               fresh_instance: bool = False):
        """Asynchronously invoke a function (possibly on another cloud).

        Generator; returns the :class:`Invocation` handle after the
        caller-side API latency elapses.  ``fresh_instance`` forces the
        callee onto a cold-started instance (hedged clones must draw a
        new per-instance speed factor, not re-land on a warm slow one).
        """
        accepted, _ = target.invoke(name, payload, caller_region=self.region,
                                    fresh_instance=fresh_instance)
        invocation = yield accepted
        return invocation
