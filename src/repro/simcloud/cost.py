"""Cost accounting.

Every simulated cloud component reports its metered usage to a
:class:`CostLedger`.  Experiments snapshot the ledger before and after
an operation to attribute cost, exactly the way the paper "estimates
cost based on listed prices and metered usage from recorded logs".
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field

__all__ = ["CostCategory", "CostLedger", "CostSnapshot",
           "TenantLedger", "estimate_task_cost"]


class CostCategory:
    """Cost buckets used throughout the evaluation."""

    FAAS_COMPUTE = "faas_compute"
    FAAS_REQUESTS = "faas_requests"
    VM_COMPUTE = "vm_compute"
    EGRESS = "egress"
    STORAGE_REQUESTS = "storage_requests"
    KV_OPS = "kv_ops"
    STORAGE_CAPACITY = "storage_capacity"
    RTC_FEE = "rtc_fee"
    WORKFLOW = "workflow"
    #: Speculative-hedging clone invocations (the engine's tail-latency
    #: cloning).  Tracked as its own line — separate from the clone's
    #: ordinary FAAS_* / EGRESS metering — so the delay/cost frontier
    #: of hedging versus plain retries is readable off the ledger.
    HEDGE_CLONES = "hedge_clones"

    ALL = (
        FAAS_COMPUTE,
        FAAS_REQUESTS,
        VM_COMPUTE,
        EGRESS,
        STORAGE_REQUESTS,
        KV_OPS,
        STORAGE_CAPACITY,
        RTC_FEE,
        WORKFLOW,
        HEDGE_CLONES,
    )


@dataclass(frozen=True)
class CostSnapshot:
    """Immutable totals, used to compute per-operation deltas."""

    totals: dict[str, float]

    @property
    def total(self) -> float:
        return sum(self.totals.values())

    def delta(self, later: "CostSnapshot") -> "CostSnapshot":
        keys = set(self.totals) | set(later.totals)
        return CostSnapshot(
            {k: later.totals.get(k, 0.0) - self.totals.get(k, 0.0) for k in keys}
        )


@dataclass
class CostLedger:
    """Per-category totals of every charge."""

    _totals: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    #: Optional observer called as ``sink(category, amount, task)`` with
    #: every charge — the tracing layer installs one to mirror charges
    #: (with task attribution where the charging site knows it) into
    #: the causal trace.  None by default: the hot path pays a single
    #: identity check.
    sink: object = None

    def charge(self, category: str, amount: float,
               task: str | None = None) -> None:
        if not 0.0 <= amount < math.inf:
            raise ValueError(f"{category} charge must be finite and >= 0, "
                             f"not {amount}")
        if category not in CostCategory.ALL:
            raise ValueError(f"unknown cost category {category!r}")
        self._totals[category] += amount
        if self.sink is not None:
            self.sink(category, amount, task)

    def total(self, category: str | None = None) -> float:
        if category is None:
            return sum(self._totals.values())
        return self._totals.get(category, 0.0)

    def snapshot(self) -> CostSnapshot:
        return CostSnapshot(dict(self._totals))

    def breakdown(self) -> dict[str, float]:
        """Non-zero totals per category, for reporting."""
        return {k: v for k, v in self._totals.items() if v > 0}


def estimate_task_cost(prices, src_region, dst_region, size: int) -> float:
    """Deterministic admission-time estimate of one replication task.

    The budget admission controller reserves this amount against the
    tenant's window budget *before* dispatch.  The estimate is a pure
    function of the object size and the region pair — egress at the
    published per-GB rate plus a nominal request/compute surcharge — so
    it is identical across seeds, shard counts, and execution orders:
    the property the shard-equivalence and no-post-exhaustion-spend
    guarantees rest on.  Actual metered spend (cold starts, retries,
    congestion) still lands on the global :class:`CostLedger`; the
    tenant ledger tracks reservations, which is what the hard budget
    caps.
    """
    egress = prices.egress_cost(src_region, dst_region, size)
    src_store = prices.store[src_region.provider]
    dst_store = prices.store[dst_region.provider]
    faas = prices.faas[src_region.provider]
    # One GET at the source, one PUT at the destination, one
    # orchestrator invocation at roughly one billed second of the
    # platform's cheapest configuration — a floor, not a forecast.
    requests = src_store.get + dst_store.put + faas.per_request
    compute = prices.faas_compute_cost(src_region.provider, 1024, 1.0, 1.0)
    return egress + requests + compute


class TenantLedger:
    """Per-tenant admission spend over rolling budget windows.

    Totals the estimated cost of every *admitted* task (a reservation,
    charged before dispatch) per accounting window.  ``window_spent``
    resets when :meth:`roll` advances the window; lifetime totals are
    monotonic.  The admission rule the service applies — admit while
    ``window_spent < budget`` — makes the ledger self-certifying: a
    charge that lands while its window's spend already reached the
    budget is an over-admission, and :meth:`over_admissions` (the "no
    post-exhaustion spend" check drills read) counts them as they land.
    """

    __slots__ = ("tenant_id", "budget_usd", "window_s", "window_index",
                 "window_spent", "lifetime_spent", "admissions", "windows",
                 "_over", "_charged_window")

    def __init__(self, tenant_id: str, budget_usd: float | None,
                 window_s: float):
        self.tenant_id = tenant_id
        self.budget_usd = budget_usd
        self.window_s = window_s
        self.window_index = 0
        self.window_spent = 0.0
        self.lifetime_spent = 0.0
        #: Charges taken, and distinct windows they landed in.
        self.admissions = 0
        self.windows = 0
        self._over = 0
        self._charged_window = -1

    def window_of(self, time: float) -> int:
        """The accounting window a timestamp falls in."""
        return int(time // self.window_s)

    def sync(self, time: float) -> None:
        """Advance to the window containing ``time`` (idempotent)."""
        index = self.window_of(time)
        if index > self.window_index:
            self.roll(index)

    def roll(self, index: int) -> None:
        """Open window ``index``, resetting the window spend."""
        if index <= self.window_index:
            return
        self.window_index = index
        self.window_spent = 0.0

    @property
    def exhausted(self) -> bool:
        """No further admission in the current window."""
        return (self.budget_usd is not None
                and self.window_spent >= self.budget_usd)

    def charge(self, time: float, amount: float) -> None:
        """Reserve ``amount`` in the window containing ``time``."""
        if not 0.0 <= amount < math.inf:
            raise ValueError(f"tenant charge must be finite and >= 0, "
                             f"not {amount}")
        self.sync(time)
        if self.exhausted:
            self._over += 1
        if self._charged_window != self.window_index:
            self._charged_window = self.window_index
            self.windows += 1
        self.admissions += 1
        self.window_spent += amount
        self.lifetime_spent += amount

    def over_admissions(self) -> int:
        """Charges whose window had already exhausted the budget when
        they landed — must be zero for a correct controller."""
        return self._over
