"""Azure object replication baseline model.

Azure's managed block-blob replication between two Azure storage
accounts: no SLO guarantee, consistently >60 s replication delay in the
paper's measurements (Table 2), versioning required on both ends.  The
service itself is free of charge; the user still pays inter-region
bandwidth, requests, and versioning storage — which is why AReplica is
*more expensive* than AZ Rep on Azure-to-Azure paths (Table 2's
positive cost deltas) while being ~4-8x faster.
"""

from __future__ import annotations

from repro.baselines.s3rtc import GB, _ManagedReplicatorBase
from repro.simcloud.cost import CostCategory
from repro.simcloud.objectstore import Bucket

__all__ = ["AzureObjectReplicator"]


class AzureObjectReplicator(_ManagedReplicatorBase):
    """Azure object replication between two Azure buckets."""

    _BASE_MEAN = 60.0
    _BASE_STD = 2.5
    _PER_1000KM = 0.35
    _PER_GB = 1.5
    _RATE_KNEE = 25.0
    _RATE_SLOPE = 0.3
    _BURST_TAIL = (0.5, 1.0)
    _FLOOR_S = 5.0

    def _check_buckets(self, src: Bucket, dst: Bucket) -> None:
        if src.region.provider != "azure" or dst.region.provider != "azure":
            raise ValueError("Azure object replication is Azure-to-Azure only")
        if not (src.versioning and dst.versioning):
            raise ValueError("Azure object replication requires versioning")

    def _charge(self, size: int) -> None:
        prices = self.cloud.prices
        ledger = self.cloud.ledger
        # No service fee; bandwidth + requests + versioning storage only.
        egress = prices.egress_cost(self.src_bucket.region,
                                    self.dst_bucket.region, size)
        if egress > 0:
            ledger.charge(CostCategory.EGRESS, egress)
        store = prices.store["azure"]
        ledger.charge(CostCategory.STORAGE_REQUESTS, store.get + store.put)
        ledger.charge(CostCategory.STORAGE_CAPACITY,
                      self._versioning_surcharge(size))
