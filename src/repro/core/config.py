"""AReplica configuration.

One :class:`ReplicaConfig` instance parameterizes a replication rule:
the user-defined SLO and percentile, the data-part size used by
decentralized scheduling, and the cost-optimization switches.  The
§5.1 size thresholds (inline below ``LOCAL_THRESHOLD``, distributed
from ``DISTRIBUTED_THRESHOLD``) are module constants.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

__all__ = ["ReplicaConfig", "TenantConfig", "MB", "DEFAULT_PART_SIZE",
           "LOCAL_THRESHOLD", "DISTRIBUTED_THRESHOLD"]

MB = 1024 * 1024
#: §5.1: "a part size of 8 MB strikes an effective balance".
DEFAULT_PART_SIZE = 8 * MB
#: Objects at or below this size are replicated inline by the
#: orchestrator function itself (``T_func = 0`` in the model).
LOCAL_THRESHOLD = 32 * MB
#: Minimum object size for which multi-function distributed replication
#: is considered at all (§5.1: relatively large objects, e.g. > 64 MB,
#: benefit).  Never below LOCAL_THRESHOLD.
DISTRIBUTED_THRESHOLD = 64 * MB


@dataclass(frozen=True)
class ReplicaConfig:
    """Tunable parameters of an AReplica deployment.

    Attributes
    ----------
    slo_seconds:
        User-defined replication SLO measured from object creation to
        visibility at the destination.  ``0`` (the paper's setting in
        §8.1) means "always pick the fastest plan" and disables
        SLO-bounded batching.
    percentile:
        The percentile of the predicted replication-time distribution
        that must fall within the SLO (Algorithm 3's ``p``).
    part_size:
        Data part granularity for distributed replication.
    max_parallelism:
        Upper bound on replicator functions per task (Algorithm 3's
        ``n_max``); bounded by account concurrency limits (§6).
    enable_changelog:
        Propagate user-supplied changelogs instead of full objects.
    enable_batching:
        Aggregate frequent updates under the SLO (Algorithm 4).
    batching_epsilon:
        Safety margin ``ε`` subtracted from the batching deadline.
    mc_samples:
        Monte-Carlo sample count for the parallel-transfer tail.
    gumbel_threshold:
        Parallelism above which the Gumbel (EVT) approximation replaces
        Monte-Carlo resampling (§5.3 "for large n").
    retry_deadline_s:
        Total time one throttled control-plane (KV) operation may spend
        in the engine's jittered backoff (``core/retry.py``), from its
        first rejection, before escalating to the platform's own
        retry-then-DLQ ladder.  The default of 150 s (half the 300 s
        replication-lock lease) bounds billed retry time during
        sustained KV outages; the autopilot tightens it.
    outage_catchup_concurrency:
        How many parked tasks the engine re-dispatches per batch while
        draining the backlog after recovery — the cap that keeps the
        catch-up burst from re-browning-out a freshly recovered region.
    """

    slo_seconds: float = 0.0
    percentile: float = 0.99
    part_size: int = DEFAULT_PART_SIZE
    max_parallelism: int = 512
    enable_changelog: bool = True
    enable_batching: bool = True
    batching_epsilon: float = 1.0
    mc_samples: int = 2000
    gumbel_threshold: int = 64
    profile_samples: int = 10
    retry_deadline_s: float = 150.0
    outage_catchup_concurrency: int = 8
    #: Record a causal span/event trace for every replication task
    #: (repro.core.tracing).  Off by default: the disabled path costs
    #: one ``is not None`` check per emission site, preserving the
    #: benchmarked hot-path numbers.
    tracing_enabled: bool = False
    #: Speculative hedging (tail-latency cloning): when a distributed
    #: part overruns a deadline derived from recent completions, clone
    #: the same range onto a fresh FaaS instance and let first-writer-
    #: wins into the part pool settle the race.  Off by default: the
    #: disabled path adds no events, draws, or KV operations, so
    #: hedging-off runs stay byte-identical to pre-hedging behaviour.
    hedging_enabled: bool = False
    #: Quantile of the windowed part-completion durations the hedge
    #: deadline is derived from (the "P95-derived deadline").
    hedge_deadline_quantile: float = 0.95
    #: How many clones one part may spawn before the engine stops
    #: hedging it (0 disables cloning while keeping the monitor on).
    max_clones_per_part: int = 1
    #: SLO autopilot (core/autopilot.py): a closed-loop controller that
    #: retunes engine knobs online from windowed per-tenant SLO error
    #: and budget burn-rate.  Off by default, and the disabled path is
    #: byte-invisible: no controller is constructed, no timer armed, no
    #: platform read — runs with and without the flag are identical.
    #: Its cadence, window, cooldown and settle bound are constants in
    #: that module.
    enable_autopilot: bool = False

    def __post_init__(self) -> None:
        if self.slo_seconds < 0:
            raise ValueError("slo_seconds must be >= 0")
        if not 0.5 <= self.percentile < 1.0:
            raise ValueError("percentile must be in [0.5, 1.0)")
        if self.part_size <= 0:
            raise ValueError("part_size must be positive")
        if self.max_parallelism < 1:
            raise ValueError("max_parallelism must be >= 1")
        if self.retry_deadline_s <= 0:
            raise ValueError("retry_deadline_s must be positive")
        if self.outage_catchup_concurrency < 1:
            raise ValueError("outage_catchup_concurrency must be >= 1")
        if not 0.5 <= self.hedge_deadline_quantile < 1.0:
            raise ValueError("hedge_deadline_quantile must be in [0.5, 1.0)")
        if self.max_clones_per_part < 0:
            raise ValueError("max_clones_per_part must be >= 0")

    @property
    def slo_enabled(self) -> bool:
        """False when the SLO is 0 — always choose the fastest plan."""
        return self.slo_seconds > 0

    def parallelism_ladder(self) -> list[int]:
        """The exponentially-spaced parallelism levels Algorithm 3 scans."""
        ladder = []
        n = 1
        while n <= self.max_parallelism:
            ladder.append(n)
            n *= 2
        return ladder


@dataclass(frozen=True)
class TenantConfig:
    """One tenant of a multi-tenant AReplica deployment.

    A tenant owns a set of buckets, runs under the service-wide
    :class:`ReplicaConfig`, carries its own SLO verdict target, and —
    following TCDRM's budget-aware replication economics — a **hard
    spend budget** per accounting window.  Once the tenant's admission
    ledger exhausts the window budget, new replication tasks are
    deferred to a per-tenant backlog lane (re-admitted when the window
    rolls) or rejected outright, per ``exhausted_policy``.  The budget
    gates *admission* (estimated task cost reserved up front), never
    in-flight work: work admitted before exhaustion always completes.

    Attributes
    ----------
    tenant_id:
        Stable identifier; embedded in rule ids (``{tenant}-s{shard}``),
        lock-table names, and trace attributes, so it must be non-empty
        and contain no ``:`` (task ids are colon-delimited).
    buckets:
        The tenant's bucket names (informational registry; the service
        binds concrete Bucket objects at :meth:`~repro.core.service.AReplicaService.add_tenant`).
    slo_target_s:
        Per-tenant replication-delay verdict target (p99, evaluated by
        drills/tests) — distinct from ``ReplicaConfig.slo_seconds``,
        which drives planning; 0 disables the verdict.
    budget_usd:
        Hard admission spend budget per window; ``None`` is unlimited.
        Admission is granted while the window's reserved spend is
        strictly below the budget, so each fresh window admits at least
        one task and a deferred backlog always drains eventually.
    budget_window_s:
        Length of the rolling accounting window.
    exhausted_policy:
        ``"defer"`` parks post-exhaustion tasks in the tenant's backlog
        lane until the window rolls; ``"reject"`` drops them (counted,
        traced, never replicated).
    weight:
        Fair-share weight for the deficit-round-robin dispatch
        scheduler; tenants with twice the weight receive twice the
        dispatch share under contention.
    """

    tenant_id: str
    buckets: tuple[str, ...] = ()
    slo_target_s: float = 0.0
    budget_usd: Optional[float] = None
    budget_window_s: float = 3600.0
    exhausted_policy: str = "defer"
    weight: float = 1.0

    def __post_init__(self) -> None:
        if not self.tenant_id or ":" in self.tenant_id:
            raise ValueError(
                f"tenant_id must be non-empty without ':', got {self.tenant_id!r}")
        if self.slo_target_s < 0:
            raise ValueError("slo_target_s must be >= 0")
        if self.budget_usd is not None and self.budget_usd <= 0:
            raise ValueError("budget_usd must be positive (or None)")
        if self.budget_window_s <= 0:
            raise ValueError("budget_window_s must be positive")
        if self.exhausted_policy not in ("defer", "reject"):
            raise ValueError("exhausted_policy must be 'defer' or 'reject'")
        if self.weight <= 0:
            raise ValueError("weight must be positive")
