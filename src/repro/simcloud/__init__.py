"""Multi-cloud simulation substrate.

This package simulates the pieces of AWS, Azure, and GCP that AReplica
depends on: object storage with event notifications, FaaS platforms,
serverless key-value stores, durable workflow timers, VMs, a wide-area
network fabric with asymmetric and variable bandwidth, and a metered
price book.  All components run on a deterministic discrete-event
simulation kernel (:mod:`repro.simcloud.sim`), so experiments are
reproducible under a seed.
"""

from repro.simcloud.sim import Simulator, Process, Future, Interrupt
from repro.simcloud.cloud import Cloud, build_default_cloud
from repro.simcloud.monitoring import TimeSeries
from repro.simcloud.regions import Region, REGIONS, get_region
from repro.simcloud.cost import CostLedger, CostCategory

__all__ = [
    "Simulator",
    "Process",
    "Future",
    "Interrupt",
    "Cloud",
    "build_default_cloud",
    "TimeSeries",
    "Region",
    "REGIONS",
    "get_region",
    "CostLedger",
    "CostCategory",
]
