"""Simulated serverless NoSQL database (DynamoDB / Cosmos DB / Firestore).

AReplica keeps all intermediate replication state — the shared part
pool, task progress counters, and the object-granularity replication
lock — in a pay-as-you-go cloud database.  The simulation provides the
exact primitives those components need:

* point reads/writes with single-digit-millisecond latency,
* one atomic read-modify-write, ``update_item``: every conditional
  write (a lock, a lease, a counter, a create-if-absent) is a closure
  over the current item,
* per-operation pricing metered into the cost ledger.

Mutations are applied atomically at request admission and the response
is delivered after the sampled latency, giving linearizable semantics
(a real conditional-write API provides the same guarantee).  Responses
are returned as kernel :class:`DeferredResult` markers — the outcome is
already known at admission, so the caller's process is resumed directly
without a future allocation (KV round trips dominate the control-plane
event count).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Optional

from repro.simcloud.chaos import ChaosConfig, outage_end
from repro.simcloud.cost import CostCategory, CostLedger
from repro.simcloud.pricing import PriceBook
from repro.simcloud.regions import Provider, Region
from repro.simcloud.rng import BufferedSampler, Dist, RngFactory, normal
from repro.simcloud.sim import DeferredResult, Future, Simulator

__all__ = ["KvProfile", "KvTable", "Throttled"]

#: Trace attribute names, one tuple per record schema.
_REJECT_KEYS = ("table", "region", "op")
_DELAY_KEYS = ("table", "region", "op", "seconds")

#: One ``("kv", region)`` health target per region, shared by its tables.
_HEALTH_TARGETS: dict[str, tuple[str, str]] = {}


class Throttled(RuntimeError):
    """A write was rejected by capacity throttling (chaos injection).

    Mirrors DynamoDB's ``ProvisionedThroughputExceededException``: the
    request was refused *before* any mutation applied, so retrying it
    is always safe.
    """


@dataclass(frozen=True)
class KvProfile:
    """Per-provider operation latency distributions."""

    latency_s: dict[str, Dist] = field(
        default_factory=lambda: {
            Provider.AWS: normal(0.004, 0.0012, floor=0.001),
            Provider.AZURE: normal(0.006, 0.002, floor=0.0015),
            Provider.GCP: normal(0.007, 0.002, floor=0.0015),
        }
    )


class KvTable:
    """One table in one region's serverless database."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        region: Region,
        prices: PriceBook,
        ledger: CostLedger,
        rngs: RngFactory,
        injected: dict[str, int],
        profile: KvProfile | None = None,
    ):
        self.sim = sim
        self.name = name
        self.region = region
        self._ledger = ledger
        self._profile = profile or KvProfile()
        self._items: dict[str, dict[str, Any]] = {}
        self._reads = self._writes = 0    # admitted requests, by kind
        # The table's stream has this one reader, so blocks grow with use.
        self._latency_sampler = BufferedSampler(
            self._profile.latency_s[region.provider],
            rngs.stream(f"kv:{region.key}:{name}"), owns_stream=True)
        self._price = prices.kv[region.provider]   # one per provider
        # Fault injection: None keeps every operation on the inline
        # admission fast path (a single check per call).
        self._chaos: Optional[ChaosConfig] = None
        self._chaos_rng = None
        # ``(start, end)`` windows during which every operation (reads
        # included) is rejected with :class:`Throttled` — the regional
        # database is dark.
        self._outages: tuple[tuple[float, float], ...] = ()
        #: Injected-fault counts (``chaos.INJECTED_KEYS``); the
        #: substrates of one Cloud share the dict.
        self.injected = injected
        # Optional HealthTracker fed one ("kv", region) result per
        # operation; None keeps the hot path at a single check.
        self._health = None
        self._health_target = _HEALTH_TARGETS.setdefault(
            region.key, ("kv", region.key))
        #: Optional :class:`~repro.core.tracing.Tracer`.  Only the chaos
        #: rejection/outage paths emit — the admitted-op hot path stays
        #: untouched (KV round trips dominate control-plane event
        #: counts; per-op spans would double the trace for no oracle
        #: value, and charges already flow through the ledger sink).
        self.tracer = None

    # -- fault injection ---------------------------------------------------

    def set_chaos(self, chaos: Optional[ChaosConfig], rng) -> None:
        """Install (or clear) the table's fault schedule.

        ``rng`` must be a dedicated chaos stream so a seed's rejection
        pattern does not shift with unrelated latency sampling.
        """
        self._chaos = chaos if chaos is not None and chaos.kv_enabled else None
        self._chaos_rng = rng
        self._outages = (self._chaos.outage_windows("kv", self.region.key)
                         if self._chaos is not None else ())

    def set_health(self, tracker) -> None:
        """Report per-operation outcomes to ``tracker`` (None clears)."""
        self._health = tracker

    def _chaos_admit(self, kind: str,
                     apply: Callable[[], Any]) -> DeferredResult | Future:
        """Admission under chaos: maybe reject, maybe delay, else apply.

        Writes may be thrown away with :class:`Throttled` *before* the
        mutation runs (throttling never half-applies).  Delayed
        operations defer the mutation itself to the admission instant —
        the serialization point moves with the delay, preserving
        linearizability while making "the clock advanced during the
        round-trip" a real phenomenon lock clients must survive.
        """
        chaos, rng = self._chaos, self._chaos_rng
        if self._outages and outage_end(self._outages, self.sim.now):
            # Regional database outage: everything — reads included —
            # is refused before any mutation applies.
            self.injected["kv_outage_rejections"] += 1
            if self._health is not None:
                self._health.record(self._health_target, False)
            if self.tracer is not None:
                self.tracer.event("kv-outage-reject", "kv", None,
                                  _REJECT_KEYS, self.name, self.region.key,
                                  kind)
            return DeferredResult(
                self._latency(), None,
                Throttled(f"{self.name}: {self.region.key} KV outage"))
        if (kind == "write" and chaos.kv_reject_prob
                and rng.random() < chaos.kv_reject_prob):
            self.injected["kv_rejected"] += 1
            if self._health is not None:
                self._health.record(self._health_target, False)
            if self.tracer is not None:
                self.tracer.event("kv-reject", "kv", None, _REJECT_KEYS,
                                  self.name, self.region.key, kind)
            # Refused requests are not billed (DynamoDB does not charge
            # throttled writes) and never reach the item store.
            return DeferredResult(self._latency(), None,
                                  Throttled(f"{self.name}: {kind} throttled"))
        if chaos.kv_delay_prob and rng.random() < chaos.kv_delay_prob:
            self.injected["kv_delayed"] += 1
            extra = float(rng.exponential(chaos.kv_delay_mean_s))
            if self.tracer is not None:
                self.tracer.event("kv-delay", "kv", None, _DELAY_KEYS,
                                  self.name, self.region.key, kind, extra)
            fut = Future(self.sim)

            def admit(_a: Any, _b: Any) -> None:
                if self._health is not None:
                    # The database answered (even a failed mutation is
                    # a healthy, linearizable response).
                    self._health.record(self._health_target, True)
                try:
                    value = apply()
                except Exception as exc:
                    fut.fail(exc)
                    return
                self._bill(kind)
                fut.resolve(value)

            self.sim.schedule_call(extra + self._latency(), admit)
            return fut
        try:
            value = apply()
        except Exception as exc:
            return self._respond(kind, error=exc)
        return self._respond(kind, value)

    # -- internals ---------------------------------------------------------

    @property
    def op_counts(self) -> dict[str, int]:
        """Admitted (billed) requests by kind."""
        return {"read": self._reads, "write": self._writes}

    def _latency(self) -> float:
        return self._latency_sampler.sample()

    def _bill(self, kind: str) -> None:
        if kind == "read":
            self._reads += 1
            self._ledger.charge(CostCategory.KV_OPS, self._price.read)
        else:
            self._writes += 1
            self._ledger.charge(CostCategory.KV_OPS, self._price.write)

    def _respond(self, kind: str, value: Any = None,
                 error: Optional[BaseException] = None) -> DeferredResult:
        self._bill(kind)
        if self._health is not None:
            # Any admitted response — a failed mutation included — means
            # the database is up; only rejections (which bypass this
            # path) count against the region's health.
            self._health.record(self._health_target, True)
        return DeferredResult(self._latency(), value, error)

    # -- point operations ----------------------------------------------------
    #
    # Each operation's mutation is written once, as ``_do_*``: the clean
    # path applies it directly (no per-op closure), the chaos path hands
    # it to :meth:`_chaos_admit`, which may reject or delay it.

    def get_item(self, key: str) -> DeferredResult:
        """Read an item; resolves with a copy of the dict or None."""
        if self._chaos is not None:
            return self._chaos_admit("read", lambda: self._do_get(key))
        return self._respond("read", self._do_get(key))

    def put_item(self, key: str, item: dict[str, Any]) -> DeferredResult:
        """Unconditional upsert."""
        if self._chaos is not None:
            return self._chaos_admit("write", lambda: self._do_put(key, item))
        return self._respond("write", self._do_put(key, item))

    def delete_item(self, key: str) -> DeferredResult:
        if self._chaos is not None:
            return self._chaos_admit("write", lambda: self._do_delete(key))
        return self._respond("write", self._do_delete(key))

    def update_item(
        self, key: str, fn: Callable[[Optional[dict[str, Any]]], tuple[Any, Any]]
    ) -> DeferredResult:
        """Atomic read-modify-write.

        ``fn`` receives a copy of the current item (or None) and returns
        ``(new item or None to delete, outcome)``; the request resolves
        with ``outcome``, the decision ``fn`` took.  ``fn`` runs at the
        admission instant — under injected admission delay that is
        *later* than the call, which is why lock-style closures must
        read clocks inside ``fn``, not before the call.
        """
        if self._chaos is not None:
            return self._chaos_admit("write", lambda: self._do_update(key, fn))
        return self._respond("write", self._do_update(key, fn))

    def _do_get(self, key: str) -> Optional[dict[str, Any]]:
        item = self._items.get(key)
        return dict(item) if item is not None else None

    def _do_put(self, key: str, item: dict[str, Any]) -> None:
        self._items[key] = dict(item)

    def _do_delete(self, key: str) -> None:
        self._items.pop(key, None)

    def _do_update(self, key, fn) -> Any:
        current = self._items.get(key)
        updated, outcome = fn(dict(current) if current is not None else None)
        if updated is None:
            self._items.pop(key, None)
        else:
            self._items[key] = dict(updated)
        return outcome

    # -- test/debug helpers ---------------------------------------------------

    def peek(self, key: str) -> Optional[dict[str, Any]]:
        """Zero-latency, zero-cost read for assertions in tests."""
        item = self._items.get(key)
        return dict(item) if item is not None else None

    def peek_prefix(self, prefix: str) -> Iterator[tuple[str, dict[str, Any]]]:
        """Zero-cost read, in key order, of every item whose key starts
        with ``prefix``: one copy per item, made as it is yielded, so a
        scan of a large table never holds them all at once.

        Like :meth:`peek`, this models an out-of-band inspection (an
        operator console, a sweeper reading a table scan) rather than a
        simulated request: no latency, no chaos, no billing.
        """
        for key in sorted(self._items):
            if key.startswith(prefix):
                yield key, dict(self._items[key])

    def __len__(self) -> int:
        return len(self._items)
