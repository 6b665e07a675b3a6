"""Simulated VMs — the substrate of the Skyplane baseline.

The paper's Figure 4 breaks a Skyplane transfer into VM provisioning
(31.16 s), container startup (25.97 s), data transfer (1.49 s) and
other overheads (18.27 s), with >99 % of the cost going to the VMs.
This module reproduces that envelope: slow provisioning with
platform-dependent distributions, container deployment, per-second
billing with a minimum billed duration, and a VM-class network that is
faster than a single cloud function (VMs get multi-stream gateways).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.simcloud.cost import CostCategory, CostLedger
from repro.simcloud.network import FunctionConfig, NetworkFabric
from repro.simcloud.pricing import PriceBook
from repro.simcloud.regions import Provider, Region
from repro.simcloud.rng import Dist, RngFactory, normal
from repro.simcloud.sim import Simulator

__all__ = ["VmProfile", "Vm", "VmFleet"]

# A VM opens many parallel streams, so its effective WAN bandwidth is a
# multiple of a single function's NIC-capped stream.
_VM_BANDWIDTH_MULT = 2.6
# Configuration handed to the fabric for VM transfers (full scale).
_VM_NET_CONFIG = FunctionConfig(memory_mb=32768, vcpus=16.0)


@dataclass(frozen=True)
class VmProfile:
    """Provisioning/boot distributions per provider."""

    provision_s: dict[str, Dist] = field(
        default_factory=lambda: {
            Provider.AWS: normal(31.0, 5.0, floor=15.0),
            Provider.AZURE: normal(58.0, 10.0, floor=30.0),
            Provider.GCP: normal(42.0, 7.0, floor=20.0),
        }
    )
    container_startup_s: Dist = normal(26.0, 4.0, floor=12.0)
    # Gateway setup, key exchange, chunk planning ("others" in Fig 4).
    session_overhead_s: Dist = normal(9.0, 2.0, floor=3.0)


class Vm:
    """A provisioned VM with a running replication gateway container."""

    def __init__(self, region: Region, fleet: "VmFleet",
                 provision_s: float = 0.0, container_s: float = 0.0):
        self.region = region
        self._fleet = fleet
        self.channel = fleet.fabric.open_channel(region.provider)
        self.launched_at = fleet.sim.now
        self.terminated_at: Optional[float] = None
        #: How long this VM took to provision / boot its container
        #: (Fig 4's breakdown).
        self.provision_s = provision_s
        self.container_s = container_s

    @property
    def alive(self) -> bool:
        return self.terminated_at is None

    def wan_seconds(self, peer: Region, nbytes: int, upload: bool) -> float:
        """Sampled single-leg transfer time between this VM and a bucket
        or peer gateway in ``peer``'s region."""
        fabric = self._fleet.fabric
        mbps = fabric.path_mbps(self.region, peer, _VM_NET_CONFIG, upload=upload)
        mbps *= _VM_BANDWIDTH_MULT
        return nbytes * 8 / (mbps * 1e6) / self.channel.next_factor()

    def terminate(self) -> None:
        """Stop the VM and bill its lifetime (with the billing minimum)."""
        if not self.alive:
            return
        self.terminated_at = self._fleet.sim.now
        duration = self.terminated_at - self.launched_at
        cost = self._fleet.prices.vm_cost(self.region.provider, duration)
        self._fleet.ledger.charge(CostCategory.VM_COMPUTE, cost)


class VmFleet:
    """Provisions and tracks VMs in one region."""

    def __init__(self, sim: Simulator, region: Region, fabric: NetworkFabric,
                 prices: PriceBook, ledger: CostLedger, rngs: RngFactory,
                 profile: VmProfile | None = None):
        self.sim = sim
        self.region = region
        self.fabric = fabric
        self.prices = prices
        self.ledger = ledger
        self.profile = profile or VmProfile()
        self._rng = rngs.stream(f"vm:{region.key}")
        self.provisioned = 0

    def provision(self):
        """Process: boot a VM and start its gateway container.

        Takes provisioning + container startup time (tens of seconds;
        the dominant term in Skyplane's replication delay).
        """
        provision = float(
            self.profile.provision_s[self.region.provider].sample(self._rng)
        )
        yield self.sim.sleep(provision)
        container = float(self.profile.container_startup_s.sample(self._rng))
        yield self.sim.sleep(container)
        self.provisioned += 1
        return Vm(self.region, self, provision_s=provision,
                  container_s=container)

    def sample_session_overhead(self) -> float:
        return float(self.profile.session_overhead_s.sample(self._rng))
