"""AWS S3 Replication Time Control (S3 RTC) baseline model.

S3 RTC is the proprietary managed replication service AWS offers
between two S3 buckets (same-cloud only) with a 15-minute SLO.  The
paper's measurements (§8.1, Fig 23) show a typical replication delay of
15-26 seconds that grows mildly with object size and distance, with a
heavy tail exceeding 30 seconds during traffic bursts.  Versioning must
be enabled on both buckets (a prerequisite), and usage is billed as the
RTC data fee ($0.015/GB) on top of inter-region transfer and request
charges, plus the extra storage the mandatory versioning retains.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.simcloud.cloud import Cloud
from repro.simcloud.cost import CostCategory
from repro.simcloud.objectstore import Bucket, ObjectEvent
from repro.simcloud.regions import geo_distance_km

__all__ = ["S3RTCReplicator", "ProprietaryRecord"]

GB = 10**9


@dataclass(frozen=True, slots=True)
class ProprietaryRecord:
    """One managed-service replication completion."""

    key: str
    size: int
    event_time: float
    done_time: float

    @property
    def delay(self) -> float:
        return self.done_time - self.event_time


class _ManagedReplicatorBase:
    """Shared machinery of the managed (black-box) baselines."""

    #: Sliding window for burst detection (seconds).
    _LOAD_WINDOW = 30.0

    def __init__(self, cloud: Cloud, src_bucket: Bucket, dst_bucket: Bucket):
        self._check_buckets(src_bucket, dst_bucket)
        self.cloud = cloud
        self.src_bucket = src_bucket
        self.dst_bucket = dst_bucket
        self.records: list[ProprietaryRecord] = []
        self._rng = cloud.rngs.stream(type(self).__name__)
        self._recent_arrivals: deque[float] = deque()

    def _check_buckets(self, src: Bucket, dst: Bucket) -> None:
        raise NotImplementedError

    def connect_notifications(self) -> None:
        """Replicate every subsequent write of the source bucket."""
        self.src_bucket.subscribe(self._on_event)

    def _on_event(self, event: ObjectEvent) -> None:
        delay = self._sample_delay(event.size)

        def deliver() -> None:
            if event.kind == "created":
                try:
                    blob, version = self.src_bucket.get_object(event.key)
                except KeyError:
                    return
                if version.sequencer < event.sequencer:
                    return
                self.dst_bucket.put_object(event.key, blob, self.cloud.now,
                                           notify=False)
            else:
                self.dst_bucket.delete_object(event.key, self.cloud.now,
                                              notify=False)
            self._charge(event.size)
            self.records.append(ProprietaryRecord(
                event.key, event.size, event.event_time, self.cloud.now))

        self.cloud.sim.call_later(delay, deliver)

    def replicate_once(self, key: str) -> ProprietaryRecord:
        """Synchronous helper for single-object measurements."""
        obj = self.src_bucket.head(key)
        event = ObjectEvent("created", self.src_bucket.name,
                            self.src_bucket.region, key, obj.size, obj.etag,
                            obj.sequencer, self.cloud.now)
        self._on_event(event)
        self.cloud.run()
        return self.records[-1]

    # -- burst tracking ------------------------------------------------------

    def _load_rate(self) -> float:
        """Arrivals per second over the recent window."""
        now = self.cloud.now
        arrivals = self._recent_arrivals
        # Arrival times never decrease, so the expired ones are a prefix;
        # popping it costs O(1) amortised per request at any arrival rate.
        while arrivals and now - arrivals[0] > self._LOAD_WINDOW:
            arrivals.popleft()
        arrivals.append(now)
        return len(arrivals) / self._LOAD_WINDOW

    def _sample_delay(self, size: int) -> float:
        mean = (self._BASE_MEAN
                + self._PER_1000KM * geo_distance_km(self.src_bucket.region,
                                                     self.dst_bucket.region) / 1000.0
                + self._PER_GB * size / GB)
        rate = self._load_rate()
        if rate > self._RATE_KNEE:
            # Managed replication queues during bursts; the excess has a
            # lognormal (heavy) tail — Fig 23's >30 s p99.99 spikes.
            mean += self._RATE_SLOPE * (rate - self._RATE_KNEE)
            mean += float(self._rng.lognormal(*self._BURST_TAIL))
        return max(self._FLOOR_S, float(self._rng.normal(mean, self._BASE_STD)))

    def _charge(self, size: int) -> None:
        raise NotImplementedError

    def _versioning_surcharge(self, size: int) -> float:
        """One day of non-current-version storage at both ends — the
        minimum lifecycle granularity the paper notes (§5.2)."""
        src_p = self.cloud.prices.store[self.src_bucket.region.provider]
        dst_p = self.cloud.prices.store[self.dst_bucket.region.provider]
        return size / GB * (src_p.gb_month + dst_p.gb_month) / 30.0


class S3RTCReplicator(_ManagedReplicatorBase):
    """S3 Replication Time Control between two AWS buckets."""

    #: Baseline delay (s) and its mild per-1000-km / per-GB growth.
    _BASE_MEAN = 17.0
    _BASE_STD = 2.6
    _PER_1000KM = 0.55
    _PER_GB = 4.0
    #: Burst behaviour: above this arrival rate, delay inflates.
    _RATE_KNEE = 40.0
    _RATE_SLOPE = 0.10
    #: ``(mu, sigma)`` of the lognormal burst excess, and the delay floor.
    _BURST_TAIL = (0.2, 0.9)
    _FLOOR_S = 1.0

    def _check_buckets(self, src: Bucket, dst: Bucket) -> None:
        if src.region.provider != "aws" or dst.region.provider != "aws":
            raise ValueError("S3 RTC only replicates between AWS buckets")
        if not (src.versioning and dst.versioning):
            raise ValueError("S3 RTC requires versioning on both buckets")

    def _charge(self, size: int) -> None:
        prices = self.cloud.prices
        ledger = self.cloud.ledger
        src_store = prices.store[self.src_bucket.region.provider]
        ledger.charge(CostCategory.RTC_FEE,
                      src_store.rtc_fee_per_gb * size / GB)
        egress = prices.egress_cost(self.src_bucket.region,
                                    self.dst_bucket.region, size)
        if egress > 0:
            ledger.charge(CostCategory.EGRESS, egress)
        ledger.charge(CostCategory.STORAGE_REQUESTS,
                      src_store.get + prices.store[self.dst_bucket.region.provider].put)
        ledger.charge(CostCategory.STORAGE_CAPACITY,
                      self._versioning_surcharge(size))
