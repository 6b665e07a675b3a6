"""Weighted fair-share dispatch scheduling across tenants.

One tenant's burst must not starve another's trickle: the CloudSimSC
line of serverless simulators models per-tenant FaaS concurrency
shares as a first-class resource, and this module brings that to the
replication control plane.  A :class:`FairShareScheduler` gates how
many orchestrator invocations may be in flight at once and divides
that concurrency between tenants by **deficit round robin** (DRR) over
per-tenant FIFO queues:

* every tenant with queued work sits in one round-robin ring;
* the front tenant's *deficit counter* is credited its ``weight`` (a
  quantum of one task per unit of weight) when it cannot cover a task,
  and the lane is served (unit cost per task) until the deficit is
  spent or slots run out — a lane
  interrupted by slot exhaustion resumes at the front, so one-slot
  steady states still honor the weights;
* a tenant whose queue empties forfeits its remaining deficit (the
  classic DRR rule that stops an idle tenant from banking credit).

DRR's standard guarantees carry over: no tenant with pending work
waits more than a bounded number of rounds (no starvation), and
long-run dispatch shares converge to the configured weights — the
properties ``tests/core/test_fairshare.py`` checks under random mixes.

Everything is deterministic: the ring is visited in tenant arrival
order, ties resolve FIFO, and no randomness or wall-clock is consulted.
A dispatched task's concurrency slot is held until its invocation
(including platform auto-retries) settles; a callback on the
invocation then releases the slot and re-pumps the queues.  Engines
without a scheduler dispatch directly — the single-tenant fast path
stays one ``is None`` check (byte-identical to a build without this
module).

Backlog drains and half-open probes bypass the scheduler by design:
they are recovery traffic already capped by
``outage_catchup_concurrency``, and a probe must reach a half-open
region even when the fair-share ring is saturated.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Optional

__all__ = ["FairShareScheduler"]


class _TenantQueue:
    """One tenant's FIFO lane plus its DRR accounting."""

    __slots__ = ("tenant_id", "weight", "deficit", "queue", "stats",
                 "dispatched")

    def __init__(self, tenant_id: str, weight: float,
                 stats: Optional[dict] = None):
        self.tenant_id = tenant_id
        self.weight = weight
        self.deficit = 0.0
        #: Queued entries: ``[dispatch, dispatched_flag]`` (a short list:
        #: an idle tenant's empty deque would hold ~600 B).
        self.queue: list[list] = []
        #: Optional per-tenant stats dict (the service's tenant
        #: counters); ``fairshare_waits`` is bumped here.
        self.stats = stats
        #: Lifetime dispatch count — the share the fairness tests
        #: measure convergence of.
        self.dispatched = 0


class FairShareScheduler:
    """DRR dispatch gate over per-tenant FIFO queues.

    ``submit(tenant_id, dispatch)`` enqueues a zero-argument callable
    that performs the actual FaaS dispatch and returns the invocation
    handle (a yieldable future) — or ``None`` for fire-and-forget work
    whose slot releases immediately.  Dispatch happens synchronously
    inside ``submit`` whenever a slot and deficit allow, so the
    uncontended path adds no simulator events.
    """

    def __init__(self, max_concurrent: int = 64):
        if max_concurrent < 1:
            raise ValueError("max_concurrent must be >= 1")
        self.max_concurrent = max_concurrent
        self._tenants: dict[str, _TenantQueue] = {}
        #: Round-robin ring of tenant ids with queued work, in the
        #: deterministic order the work arrived.
        self._ring: deque[str] = deque()
        self.in_flight = 0
        #: Total dispatches routed through the scheduler (all tenants).
        self.total_dispatched = 0
        #: Submissions that could not dispatch synchronously.
        self.total_waits = 0

    # -- tenant registry -----------------------------------------------------

    def add_tenant(self, tenant_id: str, weight: float = 1.0,
                   stats: Optional[dict] = None) -> None:
        """Register ``tenant_id`` with a fair-share ``weight``.

        Idempotent: re-registration updates the weight/stats binding of
        the existing lane (queued work survives).
        """
        if weight <= 0:
            raise ValueError("weight must be positive")
        lane = self._tenants.get(tenant_id)
        if lane is None:
            self._tenants[tenant_id] = _TenantQueue(tenant_id, weight, stats)
        else:
            lane.weight = weight
            if stats is not None:
                lane.stats = stats

    def pending(self, tenant_id: Optional[str] = None) -> int:
        """Queued (not yet dispatched) tasks, total or per tenant."""
        if tenant_id is not None:
            lane = self._tenants.get(tenant_id)
            return len(lane.queue) if lane is not None else 0
        return sum(len(lane.queue) for lane in self._tenants.values())

    def dispatched(self, tenant_id: str) -> int:
        lane = self._tenants.get(tenant_id)
        return lane.dispatched if lane is not None else 0

    # -- submission ----------------------------------------------------------

    def submit(self, tenant_id: str, dispatch: Callable[[], object]) -> None:
        """Enqueue one dispatch for ``tenant_id`` and pump the ring."""
        lane = self._tenants.get(tenant_id)
        if lane is None:
            self.add_tenant(tenant_id)
            lane = self._tenants[tenant_id]
        entry = [dispatch, False]
        if not lane.queue:
            self._ring.append(tenant_id)
        lane.queue.append(entry)
        self._pump()
        if not entry[1]:
            self.total_waits += 1
            if lane.stats is not None:
                lane.stats["fairshare_waits"] = (
                    lane.stats.get("fairshare_waits", 0) + 1)

    # -- DRR core ------------------------------------------------------------

    def _pump(self) -> None:
        """Dispatch queued work while slots remain, visiting lanes DRR.

        The front lane is *served to its deficit*, not rotated after a
        single dispatch: in the steady state slots free one at a time
        (one settle → one pump), and rotating per dispatch would
        degenerate weighted DRR into plain round robin.  A lane whose
        service is cut short by slot exhaustion therefore stays at the
        front with its remaining deficit and resumes on the next free
        slot; it rotates to the back only once its deficit is spent.
        """
        while self.in_flight < self.max_concurrent and self._ring:
            tenant_id = self._ring[0]
            lane = self._tenants[tenant_id]
            if not lane.queue:
                # Lane drained since it was ringed; forfeit its credit.
                self._ring.popleft()
                lane.deficit = 0.0
                continue
            if lane.deficit < 1.0:
                # One round's credit — granted only when the carried
                # deficit cannot cover a task, so an interrupted service
                # turn is resumed, never re-credited.
                lane.deficit += lane.weight
            while (lane.queue and lane.deficit >= 1.0
                   and self.in_flight < self.max_concurrent):
                entry = lane.queue.pop(0)
                lane.deficit -= 1.0
                entry[1] = True
                self._dispatch(lane, entry[0])
            if not lane.queue:
                self._ring.popleft()
                lane.deficit = 0.0
            elif lane.deficit < 1.0:
                # Deficit spent this round: back of the ring, keeping
                # the fractional remainder (DRR's backlogged-lane rule).
                self._ring.popleft()
                self._ring.append(tenant_id)
            else:
                # Saturated mid-service: hold the front spot and the
                # unspent deficit until a settle frees a slot.
                break

    def _dispatch(self, lane: _TenantQueue, dispatch: Callable[[], object]) -> None:
        self.in_flight += 1
        lane.dispatched += 1
        self.total_dispatched += 1
        invocation = dispatch()
        if invocation is None:
            self.in_flight -= 1
            return
        invocation.add_callback(self._release)

    def _release(self, _invocation) -> None:
        """The invocation settled: free its slot and re-pump.  A
        dead-lettered invocation settles by failing; the DLQ redrive
        owns the task now — the slot is all we release."""
        self.in_flight -= 1
        self._pump()
