"""Unified fault injection across the simulated substrates.

The paper's consistency argument (§5.2, §6) is that *any* single
failure — a crashed function, a lost notification, a throttled database
write, a stalled WAN link — leaves replication recoverable: the system
either retries its way through or converges once the operator redrives
the dead-letter queue.  One seeded :class:`ChaosConfig` drives fault
injection in every substrate so that claim can be tested as a whole
rather than one mechanism at a time:

* **FaaS** (`simcloud/faas.py`) — any attempt may crash after an
  exponentially-distributed execution time and takes the platform's
  normal failure path (auto-retry, then dead-letter queue);
* **notifications** (`simcloud/notifications.py`) — deliveries may be
  dropped (redelivered later: real buses are at-least-once, never
  at-most-once), duplicated, or reordered past later events;
* **serverless KV** (`simcloud/kvstore.py`) — writes may be throttled
  (rejected *before* any mutation applies, like a DynamoDB
  ``ProvisionedThroughputExceededException``) and any operation may
  see its admission delayed;
* **WAN** (`simcloud/network.py`) — transfers may hit transient stalls,
  and configured blackout windows hold up every cross-region transfer
  that starts inside them;
* **object storage** (`simcloud/objectstore.py`) — reads may return
  rotted, truncated or misreported content (silent corruption; its
  in-flight cousin rides the FaaS client data path).

Beyond the probabilistic faults, the config carries a **sustained
outage schedule**: per-region blackout windows during which a FaaS
platform refuses every attempt, a KV database throttles every
operation, or the WAN drops every transfer touching the region.  These
are the deterministic "region dark for minutes" scenarios the
outage-aware degradation machinery (``core/health.py``) is drilled
against — probabilities model flakiness, windows model incidents.

Every substrate installs faults through one ``set_chaos`` and holds
the config only while its own slice of it is on, so each clean hot
path stays a single ``is None`` check.  All draws come from dedicated
chaos streams, so a given seed produces the same fault schedule
regardless of how many samples the latency machinery consumed.  Every
injected fault is counted in one dict keyed by :data:`INJECTED_KEYS`,
shared by the substrates of one ``Cloud``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

__all__ = ["ChaosConfig", "ChaosDraws", "INJECTED_KEYS", "injected_ledger",
           "outage_end", "validate_outage_windows"]

#: The injected-fault ledger's keys, in ``Cloud.chaos_stats()`` order.
INJECTED_KEYS = (
    "faas_crashes", "faas_outage_failures",
    "notifications_dropped", "notifications_duplicated",
    "notifications_reordered",
    "kv_rejected", "kv_delayed", "kv_outage_rejections",
    "wan_stalls", "wan_blackout_hits", "wan_outage_hits",
    "corrupt_get", "corrupt_put", "corrupt_at_rest", "corrupt_truncated",
    "corrupt_wrong_etag",
)


def injected_ledger() -> dict[str, int]:
    """A zeroed injected-fault ledger."""
    return dict.fromkeys(INJECTED_KEYS, 0)


def outage_end(windows: tuple[tuple[float, float], ...], now: float) -> float:
    """The latest end among the ``(start, end)`` windows open at
    ``now``, or 0.0 when none is."""
    until = 0.0
    for start, end in windows:
        if start <= now < end and end > until:
            until = end
    return until


def _bad_window(start: float, duration: float) -> bool:
    # NaN fails every comparison; an infinite duration is a window that
    # never closes (a still-open outage).
    return not (0.0 <= start < math.inf and duration > 0.0)


def validate_outage_windows(name: str,
                            windows: tuple[tuple[str, float, float], ...],
                            ) -> None:
    """Validate ``(region_key, start_s, duration_s)`` window schedules.

    Shared between :class:`ChaosConfig` (regional outage schedules) and
    the planned-operations lifecycle layer (maintenance windows use the
    same shape) so the two kinds of scheduled disruption stay mutually
    composable: a lifecycle drill can layer its maintenance window over
    a chaos storm and both validate identically.  A NaN start or
    duration is rejected: it would open a window no clock reading is in.
    """
    for window in windows:
        region_key, start, duration = window
        if (not isinstance(region_key, str) or not region_key
                or _bad_window(start, duration)):
            raise ValueError(f"bad {name} window {window!r}")


class ChaosDraws:
    """Blocked scalar draws from one chaos stream.

    Drop-in for the ``random()`` / ``exponential()`` calls the
    fault-injection hot paths make against a
    ``numpy.random.Generator``, but served out of vectorized blocks:
    per-call NumPy dispatch costs ~µs, and a busy-hour replay consults
    the chaos schedule on every attempt and transfer.

    Draw-order contract: a block of ``n`` draws consumes exactly the
    same stream values, in the same order, as ``n`` scalar calls would
    (NumPy fills arrays from the bit stream sequentially).  But uniform
    and exponential draws each refill their own block, so a
    stream that mixes kinds — the FaaS-crash and WAN streams mix
    ``random()`` and ``exponential()`` — takes the bit stream in runs
    of ``block`` variates per kind: the block size is part of the fault
    schedule, and the ``block=256`` default is never changed.
    Exponential draws buffer *unit-scale* variates and multiply by the
    requested mean, which keeps one shared block correct for any mix of
    means.
    """

    __slots__ = ("_rng", "_block", "_u", "_ui", "_e", "_ei")

    def __init__(self, rng, block: int = 256):
        self._rng = rng
        self._block = block
        self._u: list[float] = []
        self._ui = 0
        self._e: list[float] = []
        self._ei = 0

    def random(self) -> float:
        """Uniform draw on [0, 1)."""
        i = self._ui
        if i >= len(self._u):
            self._u = self._rng.random(self._block).tolist()
            i = 0
        self._ui = i + 1
        return self._u[i]

    def exponential(self, mean: float = 1.0) -> float:
        """Exponential draw with the given mean."""
        i = self._ei
        if i >= len(self._e):
            self._e = self._rng.standard_exponential(self._block).tolist()
            i = 0
        self._ei = i + 1
        return self._e[i] * mean


@dataclass(frozen=True)
class ChaosConfig:
    """One seeded fault schedule spanning all substrates.

    Every ``*_prob`` is a per-event probability in ``[0, 1)``; the
    matching ``*_s`` knobs shape the injected delays.  Probabilities
    must stay below 1 so that geometric retries (notification
    redelivery, KV backoff) terminate with probability one.
    """

    # -- FaaS: attempt crashes (the platform failure path) --------------
    crash_prob: float = 0.0
    crash_mean_delay_s: float = 2.0
    #: Restrict crash injection to functions whose deployed name
    #: contains this substring (e.g. one tenant's rule-id prefix so a
    #: storm hits only that tenant's orchestrators).  ``None`` scopes
    #: nothing — and, crucially, non-matching attempts still consume a
    #: chaos draw under a scope, so scoping tenant A's storm does not
    #: perturb the fault schedule other substrates see.
    crash_scope: Optional[str] = None

    # -- notifications: at-least-once delivery faults -------------------
    notif_drop_prob: float = 0.0
    notif_dup_prob: float = 0.0
    notif_reorder_prob: float = 0.0
    #: Mean lag before the bus redelivers a dropped notification.
    notif_redelivery_s: float = 30.0
    #: Mean lag of a duplicate behind its original.
    notif_dup_lag_s: float = 1.0
    #: A reordered event is held back uniformly within this window.
    notif_reorder_spread_s: float = 5.0

    # -- serverless KV: throttling and slow admission -------------------
    kv_reject_prob: float = 0.0
    kv_delay_prob: float = 0.0
    kv_delay_mean_s: float = 0.05

    # -- WAN: transient stalls and blackout windows ---------------------
    wan_stall_prob: float = 0.0
    wan_stall_mean_s: float = 5.0
    #: ``(start_s, duration_s)`` windows during which every cross-region
    #: transfer that begins waits for the window to close first.
    wan_blackout_windows: tuple[tuple[float, float], ...] = field(
        default_factory=tuple)

    # -- silent corruption: bit flips, bit rot, truncation, bad ETags ----
    #: A ranged GET served to a replicator arrives with flipped bits
    #: (the payload differs from what the store holds).
    corrupt_get_prob: float = 0.0
    #: A part PUT is miswritten in flight: the store durably records a
    #: payload other than the one the client uploaded.
    corrupt_put_prob: float = 0.0
    #: A stored object rots at rest when read: the store itself now
    #: holds (and serves) corrupted content under the original key.
    corrupt_at_rest_prob: float = 0.0
    #: A read returns only a prefix of the requested range.
    corrupt_truncate_prob: float = 0.0
    #: The store misreports an object's ETag on a read while the
    #: payload itself is intact.
    corrupt_wrong_etag_prob: float = 0.0

    # -- sustained regional outages: (region_key, start_s, duration_s) --
    #: The region's FaaS control plane fast-fails every attempt started
    #: inside the window (no instance acquired, nothing billed).
    faas_outages: tuple[tuple[str, float, float], ...] = field(
        default_factory=tuple)
    #: Every KV operation on tables in the region is rejected with
    #: ``Throttled`` inside the window (reads included — the database
    #: itself is dark, not merely over capacity).
    kv_outages: tuple[tuple[str, float, float], ...] = field(
        default_factory=tuple)
    #: Cross-region transfers touching the region as either endpoint
    #: stall until the window closes.
    wan_outages: tuple[tuple[str, float, float], ...] = field(
        default_factory=tuple)

    def __post_init__(self) -> None:
        for name in ("crash_prob", "notif_drop_prob", "notif_dup_prob",
                     "notif_reorder_prob", "kv_reject_prob",
                     "kv_delay_prob", "wan_stall_prob",
                     "corrupt_get_prob", "corrupt_put_prob",
                     "corrupt_at_rest_prob", "corrupt_truncate_prob",
                     "corrupt_wrong_etag_prob"):
            p = getattr(self, name)
            if not 0.0 <= p < 1.0:
                raise ValueError(f"{name} must be in [0, 1), got {p}")
        for name in ("crash_mean_delay_s", "notif_redelivery_s",
                     "notif_dup_lag_s", "notif_reorder_spread_s",
                     "kv_delay_mean_s", "wan_stall_mean_s"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and >= 0")
        for window in self.wan_blackout_windows:
            if _bad_window(*window):
                raise ValueError(f"bad blackout window {window!r}")
        for name in ("faas_outages", "kv_outages", "wan_outages"):
            validate_outage_windows(name, getattr(self, name))
        if self.crash_scope is not None and not self.crash_scope:
            raise ValueError("crash_scope must be None or a non-empty "
                             "substring of a function name")

    def outage_windows(self, schedule: str, region_key: str,
                       ) -> tuple[tuple[float, float], ...]:
        """``region_key``'s ``(start, end)`` windows in the ``"faas"``,
        ``"kv"`` or ``"wan"`` outage schedule, in schedule order."""
        return tuple((start, start + duration) for key, start, duration
                     in getattr(self, f"{schedule}_outages")
                     if key == region_key)

    # -- which hooks does this config need? -----------------------------

    @property
    def faas_enabled(self) -> bool:
        return self.crash_prob > 0 or bool(self.faas_outages)

    @property
    def notifications_enabled(self) -> bool:
        return (self.notif_drop_prob > 0 or self.notif_dup_prob > 0
                or self.notif_reorder_prob > 0)

    @property
    def kv_enabled(self) -> bool:
        return (self.kv_reject_prob > 0 or self.kv_delay_prob > 0
                or bool(self.kv_outages))

    @property
    def wan_enabled(self) -> bool:
        return (self.wan_stall_prob > 0 or bool(self.wan_blackout_windows)
                or bool(self.wan_outages))

    @property
    def corruption_transfer_enabled(self) -> bool:
        """In-flight faults on the FaaS client data path."""
        return self.corrupt_get_prob > 0 or self.corrupt_put_prob > 0

    @property
    def corruption_at_rest_enabled(self) -> bool:
        """Faults the object store itself injects on reads."""
        return (self.corrupt_at_rest_prob > 0
                or self.corrupt_truncate_prob > 0
                or self.corrupt_wrong_etag_prob > 0)

    @property
    def enabled(self) -> bool:
        """True when any substrate has a fault to inject."""
        return (self.faas_enabled or self.notifications_enabled
                or self.kv_enabled or self.wan_enabled
                or self.corruption_transfer_enabled
                or self.corruption_at_rest_enabled)
