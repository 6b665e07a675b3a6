"""Cloud event notification service.

When an object is created or deleted, the platform generates a
JSON-format notification delivered to subscribed functions after a
platform-dependent delay ``T_n`` (the paper's notation in §5.3).  The
SLO math in the strategy planner subtracts this delay from the user's
budget, so the delivery delay distribution is part of the substrate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.simcloud.chaos import ChaosConfig
from repro.simcloud.objectstore import Bucket, ObjectEvent
from repro.simcloud.regions import Provider
from repro.simcloud.rng import BufferedSampler, Dist, RngFactory, normal
from repro.simcloud.sim import Simulator

__all__ = ["NotificationProfile", "NotificationBus"]


@dataclass(frozen=True)
class NotificationProfile:
    """Per-provider notification delivery delay distributions."""

    delay_s: dict[str, Dist] = field(
        default_factory=lambda: {
            Provider.AWS: normal(0.45, 0.12, floor=0.05),
            Provider.AZURE: normal(0.80, 0.25, floor=0.08),
            Provider.GCP: normal(0.60, 0.18, floor=0.06),
        }
    )


class NotificationBus:
    """Connects buckets to handlers with realistic delivery delay."""

    def __init__(self, sim: Simulator, rngs: RngFactory,
                 injected: dict[str, int],
                 profile: NotificationProfile | None = None):
        self.sim = sim
        self.profile = profile or NotificationProfile()
        self._rng = rngs.stream("notifications")
        self.delivered = 0
        # Fault injection: None keeps delivery on the single-schedule
        # fast path (one check per event).
        self._chaos: Optional[ChaosConfig] = None
        self._chaos_rng = None
        #: Injected-fault counts (``chaos.INJECTED_KEYS``); the
        #: substrates of one Cloud share the dict.
        self.injected = injected

    def set_chaos(self, chaos: Optional[ChaosConfig], rng) -> None:
        """Install (or clear) delivery fault injection.

        Real cloud buses are *at-least-once*: a "dropped" notification
        is one whose prompt delivery is lost and that the bus retries
        much later from its internal queue — it is never silently gone
        (that would make convergence impossible and does not model any
        real service).  Each redelivery may be dropped again with the
        same probability, so delivery happens eventually with
        probability one (``notif_drop_prob < 1``).
        """
        active = chaos is not None and chaos.notifications_enabled
        self._chaos = chaos if active else None
        self._chaos_rng = rng

    def connect(self, bucket: Bucket,
                handler: Callable[[ObjectEvent], None]) -> None:
        """Deliver ``bucket``'s events to ``handler`` after ``T_n``."""
        sampler = BufferedSampler(self.profile.delay_s[bucket.region.provider],
                                  self._rng, block=256)
        schedule_call = self.sim.schedule_call

        def on_event(event: ObjectEvent) -> None:
            delay = sampler.sample()
            if self._chaos is not None:
                delay = self._chaos_delivery(delay, handler, event)
            schedule_call(delay, self._deliver, handler, event)

        bucket.subscribe(on_event)

    def _chaos_delivery(self, delay: float, handler, event) -> float:
        """Apply the fault schedule to one delivery; returns its delay.

        Duplicates are scheduled here as extra deliveries; drops and
        reorders stretch the primary delivery's delay.
        """
        chaos, rng = self._chaos, self._chaos_rng
        if chaos.notif_reorder_prob and rng.random() < chaos.notif_reorder_prob:
            # Held back long enough to land behind later events.
            self.injected["notifications_reordered"] += 1
            delay += float(rng.uniform(0.0, chaos.notif_reorder_spread_s))
        if chaos.notif_dup_prob and rng.random() < chaos.notif_dup_prob:
            self.injected["notifications_duplicated"] += 1
            self.sim.schedule_call(
                delay + float(rng.exponential(chaos.notif_dup_lag_s)),
                self._deliver, handler, event)
        while chaos.notif_drop_prob and rng.random() < chaos.notif_drop_prob:
            # Lost delivery; the bus redelivers from its queue later.
            self.injected["notifications_dropped"] += 1
            delay += float(rng.exponential(chaos.notif_redelivery_s))
        return delay

    def _deliver(self, handler: Callable[[ObjectEvent], None],
                 event: ObjectEvent) -> None:
        self.delivered += 1
        handler(event)
