"""The multi-cloud facade.

A :class:`Cloud` owns one simulator plus every regional service: object
storage buckets, FaaS platforms, serverless KV databases, VM fleets,
workflow timers, the shared WAN fabric, the notification bus, the price
book and the cost ledger.  Experiments construct one Cloud, wire an
AReplica service (or a baseline) onto it, and drive workloads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.simcloud.chaos import ChaosConfig, injected_ledger
from repro.simcloud.cost import CostLedger
from repro.simcloud.faas import FaasProfile, FaasRegion
from repro.simcloud.kvstore import KvProfile, KvTable
from repro.simcloud.network import DEFAULT_PROFILE, NetworkFabric, NetworkProfile
from repro.simcloud.notifications import NotificationBus, NotificationProfile
from repro.simcloud.objectstore import Bucket
from repro.simcloud.pricing import PriceBook
from repro.simcloud.regions import Region, get_region
from repro.simcloud.rng import RngFactory
from repro.simcloud.sim import Simulator
from repro.simcloud.vm import VmFleet, VmProfile
from repro.simcloud.workflow import WorkflowTimers

__all__ = ["CloudProfiles", "Cloud", "build_default_cloud"]


@dataclass
class CloudProfiles:
    """Bundle of every tunable profile (all default-calibrated)."""

    network: NetworkProfile = None  # type: ignore[assignment]
    faas: FaasProfile = None  # type: ignore[assignment]
    kv: KvProfile = None  # type: ignore[assignment]
    vm: VmProfile = None  # type: ignore[assignment]
    notifications: NotificationProfile = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        self.network = self.network or DEFAULT_PROFILE
        self.faas = self.faas or FaasProfile()
        self.kv = self.kv or KvProfile()
        self.vm = self.vm or VmProfile()
        self.notifications = self.notifications or NotificationProfile()


class Cloud:
    """All three providers' services over one shared simulator."""

    def __init__(self, seed: int = 0, profiles: Optional[CloudProfiles] = None,
                 chaos: Optional[ChaosConfig] = None):
        self.sim = Simulator()
        self.rngs = RngFactory(seed)
        self.profiles = profiles or CloudProfiles()
        self.prices = PriceBook()
        self.ledger = CostLedger()
        # The one injected-fault ledger every substrate counts into.
        self._injected = injected_ledger()
        self.fabric = NetworkFabric(self.rngs, self._injected,
                                    self.profiles.network)
        self.notifications = NotificationBus(self.sim, self.rngs,
                                             self._injected,
                                             self.profiles.notifications)
        self._buckets: dict[tuple[str, str], Bucket] = {}
        self._faas: dict[str, FaasRegion] = {}
        self._kv: dict[tuple[str, str], KvTable] = {}
        self._vms: dict[str, VmFleet] = {}
        self._timers: dict[str, WorkflowTimers] = {}
        self.chaos: Optional[ChaosConfig] = None
        #: Optional HealthTracker every substrate reports outcomes to
        #: (installed by the AReplica service when health is enabled).
        self.health = None
        #: Optional Tracer every substrate emits causal spans/events to
        #: (installed by the AReplica service when tracing is enabled).
        self.tracer = None
        if chaos is not None:
            self.apply_chaos(chaos)

    # -- region helpers --------------------------------------------------------

    @staticmethod
    def region(key: str) -> Region:
        return get_region(key)

    # -- regional services -------------------------------------------------------

    def bucket(self, region_key: str, name: str, versioning: bool = False) -> Bucket:
        """Get or create a bucket; versioning is fixed at creation."""
        region = get_region(region_key)
        cache_key = (region.key, name)
        if cache_key not in self._buckets:
            bucket = Bucket(name, region, self._injected,
                            versioning=versioning)
            bucket.health_sink = self.health
            if self.chaos is not None:
                bucket.set_chaos(self.chaos,
                                 self._chaos_stream("store", cache_key))
            self._buckets[cache_key] = bucket
        bucket = self._buckets[cache_key]
        if versioning and not bucket.versioning:
            raise ValueError(f"bucket {name!r} exists without versioning")
        return bucket

    def faas(self, region_key: str) -> FaasRegion:
        region = get_region(region_key)
        if region.key not in self._faas:
            faas = FaasRegion(
                self.sim, region, self.fabric, self.prices, self.ledger,
                self.rngs, self._injected, self.profiles.faas,
            )
            if self.chaos is not None:
                faas.set_chaos(self.chaos)
            faas.health_sink = self.health
            faas.tracer = self.tracer
            self._faas[region.key] = faas
        return self._faas[region.key]

    def kv_table(self, region_key: str, name: str) -> KvTable:
        region = get_region(region_key)
        cache_key = (region.key, name)
        if cache_key not in self._kv:
            table = KvTable(
                self.sim, name, region, self.prices, self.ledger, self.rngs,
                self._injected, self.profiles.kv,
            )
            if self.chaos is not None:
                table.set_chaos(self.chaos,
                                self._chaos_stream("kv", cache_key))
            if self.health is not None:
                table.set_health(self.health)
            table.tracer = self.tracer
            self._kv[cache_key] = table
        return self._kv[cache_key]

    def vm_fleet(self, region_key: str) -> VmFleet:
        region = get_region(region_key)
        if region.key not in self._vms:
            self._vms[region.key] = VmFleet(
                self.sim, region, self.fabric, self.prices, self.ledger,
                self.rngs, self.profiles.vm,
            )
        return self._vms[region.key]

    def timers(self, region_key: str) -> WorkflowTimers:
        region = get_region(region_key)
        if region.key not in self._timers:
            self._timers[region.key] = WorkflowTimers(self.sim, self.ledger)
        return self._timers[region.key]

    # -- fault injection ---------------------------------------------------------

    def _chaos_stream(self, kind: str, cache_key: tuple[str, str]):
        """A table's or bucket's own stream, from its start."""
        region_key, name = cache_key
        return self.rngs.stream(f"chaos:{kind}:{region_key}:{name}")

    def apply_chaos(self, chaos: Optional[ChaosConfig]) -> None:
        """Install (or clear, with None) one fault schedule everywhere.

        Covers every substrate already instantiated *and* any created
        afterwards.  Each substrate only arms the hooks its part of the
        config actually needs — an all-zero config is a full clear, so
        chaos-off hot paths keep their single ``is None`` check.
        """
        if chaos is not None and not chaos.enabled:
            chaos = None
        self.chaos = chaos
        self.fabric.set_chaos(chaos, self.rngs.stream("chaos:wan"))
        self.notifications.set_chaos(chaos, self.rngs.stream("chaos:notif"))
        for faas in self._faas.values():
            faas.set_chaos(chaos)
        for cache_key, table in self._kv.items():
            table.set_chaos(chaos, self._chaos_stream("kv", cache_key))
        for cache_key, bucket in self._buckets.items():
            bucket.set_chaos(chaos, self._chaos_stream("store", cache_key))

    def set_health(self, tracker) -> None:
        """Install (or clear, with None) one health tracker everywhere.

        Covers substrates already instantiated and any created later
        (the factories consult ``self.health``).
        """
        self.health = tracker
        for faas in self._faas.values():
            faas.health_sink = tracker
        for table in self._kv.values():
            table.set_health(tracker)
        for bucket in self._buckets.values():
            bucket.health_sink = tracker

    def set_tracer(self, tracer) -> None:
        """Install (or clear, with None) one causal tracer everywhere.

        Mirrors :meth:`set_health`: covers substrates already
        instantiated and any created later (the factories consult
        ``self.tracer``), and hooks the cost ledger's sink so every
        subsequent charge lands in the trace.
        """
        self.tracer = tracer
        for faas in self._faas.values():
            faas.tracer = tracer
        for table in self._kv.values():
            table.tracer = tracer
        self.fabric.tracer = tracer
        if tracer is not None:
            tracer.install_cost_sink(self.ledger)
        else:
            self.ledger.sink = None

    def chaos_stats(self) -> dict[str, int]:
        """Injected-fault counts across every substrate, keyed and
        ordered by ``chaos.INJECTED_KEYS``."""
        return dict(self._injected)

    def corruption_injected(self) -> int:
        """Total silent-corruption faults injected so far (all kinds)."""
        return sum(count for key, count in self._injected.items()
                   if key.startswith("corrupt_"))

    def inject_outage(self, region_key: str, duration_s: float) -> None:
        """Take every bucket in ``region_key`` offline for ``duration_s``
        simulated seconds, starting now (a region-wide storage outage —
        the §1 motivation for cross-cloud replication)."""
        region = get_region(region_key)
        affected = [b for (rk, _), b in self._buckets.items()
                    if rk == region.key]
        for bucket in affected:
            bucket.in_outage = True

        def restore() -> None:
            for bucket in affected:
                bucket.in_outage = False

        self.sim.call_later(duration_s, restore)

    # -- convenience ---------------------------------------------------------------

    def run(self, until: Optional[float] = None) -> None:
        self.sim.run(until)

    @property
    def now(self) -> float:
        return self.sim.now


def build_default_cloud(seed: int = 0, **kwargs) -> Cloud:
    """A Cloud with the default calibrated profiles."""
    return Cloud(seed=seed, **kwargs)
