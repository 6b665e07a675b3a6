"""Skyplane-style VM-based replication baseline.

Reproduces the workflow envelope of Skyplane v0.3.2 that Figure 4
characterizes: for each transfer the system provisions a VM in the
source region and one in the destination region, deploys gateway
containers on them, establishes a relay session, streams the object
through the VM pair, and (by default) shuts the VMs down afterwards.
Provisioning and container startup dominate the replication delay;
VM-hours dominate the cost.

The keep-alive optimization from Figure 5 is supported: VMs stay warm
after a transfer and are shut down only after an idle timeout (20 s,
1 min, 5 min, or never), amortizing provisioning across a workload at
the price of idle VM-hours.  Bulk transfers (Figure 16) stripe one
object across multiple VM pairs; all stripes must finish — and all VMs
must have provisioned — before the transfer completes, so one slow VM
start extends the end-to-end time.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional

from repro.simcloud.cloud import Cloud
from repro.simcloud.cost import CostCategory
from repro.simcloud.objectstore import Bucket
from repro.simcloud.rng import normal
from repro.simcloud.vm import Vm

__all__ = ["SkyplaneReplicator", "TransferRecord"]

# Effective intra-region bucket<->VM bandwidth multiplier (matches the
# VM WAN multiplier in repro.simcloud.vm).
_VM_BANDWIDTH_MULT = 2.6
# Fixed per-transfer overhead inside the "data transfer" stage:
# chunking, gateway dispatch, TLS session per object.
_TRANSFER_FIXED = normal(1.1, 0.25, floor=0.3)
# Post-transfer finalize/teardown bookkeeping ("others" in Fig 4,
# together with the pre-transfer session overhead).
_FINALIZE = normal(8.0, 1.5, floor=3.0)


@dataclass(frozen=True)
class TransferRecord:
    """One completed Skyplane transfer."""

    key: str
    size: int
    submit_time: float          # source PUT completion / job submission
    start_time: float           # VMs ready, bytes start flowing
    done_time: float            # object visible at the destination

    @property
    def delay(self) -> float:
        return self.done_time - self.submit_time

    @property
    def transfer_seconds(self) -> float:
        return self.done_time - self.start_time


@dataclass
class _VmPair:
    """A relay chain of gateway VMs: source, optional overlay, destination."""

    src: Optional[Vm] = None
    relay: Optional[Vm] = None
    dst: Optional[Vm] = None
    uses_relay: bool = False

    @property
    def alive(self) -> bool:
        ok = (self.src is not None and self.src.alive
              and self.dst is not None and self.dst.alive)
        if self.uses_relay:
            ok = ok and self.relay is not None and self.relay.alive
        return ok

    def terminate(self) -> None:
        for vm in (self.src, self.relay, self.dst):
            if vm is not None:
                vm.terminate()
        self.src = self.relay = self.dst = None


class SkyplaneReplicator:
    """VM-pair relay replicator between two buckets."""

    def __init__(
        self,
        cloud: Cloud,
        src_bucket: Bucket,
        dst_bucket: Bucket,
        vm_pairs: int = 1,
        keepalive_s: Optional[float] = 0.0,
        overlay_region: Optional[str] = None,
    ):
        """``keepalive_s=0`` shuts VMs down after every transfer (the
        default Skyplane workflow); ``None`` keeps them alive forever;
        a positive value shuts them down after that much idle time.

        ``overlay_region`` routes the transfer through a gateway VM in a
        third region — Skyplane's cloud-aware overlay.  It can raise the
        bottleneck bandwidth on slow direct links at the price of a
        third VM and a second egress charge (see
        :meth:`plan_overlay` for the data-driven choice)."""
        if vm_pairs < 1:
            raise ValueError("need at least one VM pair")
        self.cloud = cloud
        self.src_bucket = src_bucket
        self.dst_bucket = dst_bucket
        self.keepalive_s = keepalive_s
        self.overlay_region = (cloud.region(overlay_region).key
                               if overlay_region else None)
        if self.overlay_region in (src_bucket.region.key,
                                   dst_bucket.region.key):
            self.overlay_region = None
        self.records: list[TransferRecord] = []
        self._pairs = [_VmPair() for _ in range(vm_pairs)]
        self._queue: deque[tuple[str, int, float]] = deque()
        self._worker_busy = False
        self._rng = cloud.rngs.stream("skyplane")
        self._idle_since: Optional[float] = None
        self._shutdown_timer = None
        self.stats = {"transfers": 0, "provisions": 0, "shutdowns": 0}
        #: Phase timings of the most recent transfer (Fig 4's breakdown):
        #: provision_s, container_s, session_s, transfer_s, finalize_s.
        self.last_breakdown: dict[str, float] = {}

    # -- overlay planning --------------------------------------------------

    @staticmethod
    def plan_overlay(cloud: Cloud, src_bucket: Bucket, dst_bucket: Bucket,
                     candidates: Optional[list[str]] = None) -> Optional[str]:
        """Pick the overlay region that maximizes the bottleneck
        bandwidth, or None when the direct path is already best —
        Skyplane's cloud-aware overlay decision, reduced to one hop.

        Uses the fabric's *mean* bandwidths (what a profiling pass would
        measure); the extra egress cost of relaying is the operator's
        explicit trade-off, as in §6's discussion.
        """
        from repro.simcloud.network import FunctionConfig
        from repro.simcloud.regions import REGIONS

        vm_cfg = FunctionConfig(memory_mb=32768, vcpus=16.0)
        fabric = cloud.fabric
        src, dst = src_bucket.region, dst_bucket.region

        def leg(a, b) -> float:
            return fabric.path_mbps(a, b, vm_cfg, upload=True)

        direct = leg(src, dst)
        best_key, best_bw = None, direct
        for key in (candidates if candidates is not None else sorted(REGIONS)):
            relay = cloud.region(key)
            if relay.key in (src.key, dst.key):
                continue
            bottleneck = min(leg(src, relay), leg(relay, dst))
            if bottleneck > best_bw * 1.05:  # require a real improvement
                best_key, best_bw = relay.key, bottleneck
        return best_key

    # -- public API ---------------------------------------------------------

    def submit(self, key: str, event_time: Optional[float] = None) -> None:
        """Queue a replication job for the object's current version."""
        obj = self.src_bucket.head(key)
        self._queue.append((key, obj.size,
                            self.cloud.now if event_time is None else event_time))
        if self._shutdown_timer is not None:
            self._shutdown_timer.cancel()
            self._shutdown_timer = None
        if not self._worker_busy:
            self._worker_busy = True
            self.cloud.sim.spawn(self._drain(), name="skyplane-worker")

    def connect_notifications(self) -> None:
        """Drive jobs from the source bucket's event notifications."""
        self.cloud.notifications.connect(
            self.src_bucket,
            lambda ev: self.submit(ev.key, ev.event_time)
            if ev.kind == "created" and ev.key in self.src_bucket else None,
        )

    def replicate_once(self, key: str) -> TransferRecord:
        """Synchronous helper: submit one job and drain the simulation."""
        self.submit(key)
        self.cloud.run()
        return self.records[-1]

    def shutdown(self) -> None:
        """Terminate all live VMs (bills their runtime)."""
        for pair in self._pairs:
            if pair.src is not None or pair.dst is not None:
                self.stats["shutdowns"] += 1
            pair.terminate()

    # -- internal workflow -----------------------------------------------------

    def _drain(self):
        while self._queue:
            key, size, submit_time = self._queue.popleft()
            yield from self._transfer(key, size, submit_time)
        self._worker_busy = False
        self._arm_idle_shutdown()

    def _arm_idle_shutdown(self) -> None:
        if self.keepalive_s is None:
            return
        if self.keepalive_s == 0:
            self.shutdown()
            return
        idle_mark = self.cloud.now
        self._idle_since = idle_mark

        def maybe_shutdown() -> None:
            if self._idle_since == idle_mark and not self._worker_busy:
                self.shutdown()

        self._shutdown_timer = self.cloud.sim.call_later(self.keepalive_s,
                                                         maybe_shutdown)

    def _ensure_pairs(self):
        """Process: provision any dead VM pairs (in parallel) and wait
        for all of them — stragglers extend the end-to-end time."""
        procs = []
        fresh = False
        for pair in self._pairs:
            if pair.alive:
                continue
            fresh = True
            self.stats["provisions"] += 1
            pair.uses_relay = self.overlay_region is not None
            procs.append((pair, "src", self.cloud.sim.spawn(
                self.cloud.vm_fleet(self.src_bucket.region.key).provision())))
            if pair.uses_relay:
                procs.append((pair, "relay", self.cloud.sim.spawn(
                    self.cloud.vm_fleet(self.overlay_region).provision())))
            procs.append((pair, "dst", self.cloud.sim.spawn(
                self.cloud.vm_fleet(self.dst_bucket.region.key).provision())))
        if procs:
            yield self.cloud.sim.all_of([p for _, _, p in procs])
            for pair, side, proc in procs:
                setattr(pair, side, proc.value)
        if fresh:
            vms = [vm for pair in self._pairs for vm in (pair.src, pair.dst)
                   if vm is not None]
            self.last_breakdown["provision_s"] = max(v.provision_s for v in vms)
            self.last_breakdown["container_s"] = max(v.container_s for v in vms)
            # Gateway session setup, key exchange, chunk planning.
            session = self.cloud.vm_fleet(
                self.src_bucket.region.key).sample_session_overhead()
            self.last_breakdown["session_s"] = session
            yield self.cloud.sim.sleep(session)
        else:
            self.last_breakdown["provision_s"] = 0.0
            self.last_breakdown["container_s"] = 0.0
            self.last_breakdown["session_s"] = 0.0
        return fresh

    def _stripe_seconds(self, pair: _VmPair, nbytes: int) -> float:
        """Pipelined relay time for one stripe through one VM chain.

        Chunks stream through every hop concurrently, so the stripe time
        is governed by the slowest hop (the overlay's whole point is
        raising that bottleneck)."""
        profile = self.cloud.fabric.profile
        intra_src = (profile.intra_mbps[self.src_bucket.region.provider]
                     * _VM_BANDWIDTH_MULT)
        intra_dst = (profile.intra_mbps[self.dst_bucket.region.provider]
                     * _VM_BANDWIDTH_MULT)
        download = nbytes * 8 / (intra_src * 1e6)
        upload = nbytes * 8 / (intra_dst * 1e6)
        if pair.uses_relay:
            hop1 = pair.src.wan_seconds(pair.relay.region, nbytes, upload=True)
            hop2 = pair.relay.wan_seconds(self.dst_bucket.region, nbytes,
                                          upload=True)
            return max(download, hop1, hop2, upload)
        wan = pair.src.wan_seconds(self.dst_bucket.region, nbytes, upload=True)
        return max(download, wan, upload)

    def _transfer(self, key: str, size: int, submit_time: float):
        yield from self._ensure_pairs()
        self._idle_since = None
        start = self.cloud.now
        blob, _version = self.src_bucket.get_object(key)
        # Stripe the object across the VM pairs; the transfer completes
        # when the slowest stripe lands.
        stripe = max(1, size // len(self._pairs))
        times = []
        for i, pair in enumerate(self._pairs):
            lo = i * stripe
            hi = size if i == len(self._pairs) - 1 else min(size, lo + stripe)
            if hi <= lo:
                continue
            times.append(self._stripe_seconds(pair, hi - lo))
        duration = max(times) + float(_TRANSFER_FIXED.sample(self._rng))
        self.last_breakdown["transfer_s"] = duration
        yield self.cloud.sim.sleep(duration)
        self.dst_bucket.put_object(key, blob, self.cloud.now, notify=False)
        self._charge(size)
        # Finalize/teardown bookkeeping before the next job.
        finalize = float(_FINALIZE.sample(self._rng))
        self.last_breakdown["finalize_s"] = finalize
        yield self.cloud.sim.sleep(finalize)
        record = TransferRecord(key, size, submit_time, start, self.cloud.now)
        self.records.append(record)
        self.stats["transfers"] += 1

    def _charge(self, size: int) -> None:
        prices = self.cloud.prices
        ledger = self.cloud.ledger
        if self.overlay_region is not None:
            relay = self.cloud.region(self.overlay_region)
            egress = (prices.egress_cost(self.src_bucket.region, relay, size)
                      + prices.egress_cost(relay, self.dst_bucket.region, size))
        else:
            egress = prices.egress_cost(self.src_bucket.region,
                                        self.dst_bucket.region, size)
        if egress > 0:
            ledger.charge(CostCategory.EGRESS, egress)
        store_src = prices.store[self.src_bucket.region.provider]
        store_dst = prices.store[self.dst_bucket.region.provider]
        ledger.charge(CostCategory.STORAGE_REQUESTS,
                      store_src.get + store_dst.put)
