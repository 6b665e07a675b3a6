"""Tests for the VM fleet, notification bus, workflow timers, and the
cloud facade."""

import numpy as np
import pytest

from repro.simcloud.cloud import build_default_cloud
from repro.simcloud.cost import CostCategory
from repro.simcloud.objectstore import Blob

MB = 10**6


@pytest.fixture
def cloud():
    return build_default_cloud(seed=5)


class TestVmFleet:
    def test_provisioning_takes_tens_of_seconds(self, cloud):
        fleet = cloud.vm_fleet("aws:us-east-1")

        def main():
            vm = yield cloud.sim.spawn(fleet.provision())
            return vm, cloud.now

        vm, elapsed = cloud.sim.run_process(main())
        # VM provisioning (~31 s) + container startup (~26 s): Fig 4.
        assert 40 < elapsed < 90
        assert vm.alive

    def test_azure_provisioning_slower_than_aws(self):
        def provision_time(region, seed):
            cloud = build_default_cloud(seed=seed)
            fleet = cloud.vm_fleet(region)

            def main():
                yield cloud.sim.spawn(fleet.provision())
                return cloud.now

            return cloud.sim.run_process(main())

        aws = np.mean([provision_time("aws:us-east-1", s) for s in range(5)])
        azure = np.mean([provision_time("azure:eastus", s) for s in range(5)])
        assert azure > aws

    def test_terminate_bills_with_minimum(self, cloud):
        fleet = cloud.vm_fleet("aws:us-east-1")

        def main():
            vm = yield cloud.sim.spawn(fleet.provision())
            yield cloud.sim.sleep(1.0)
            vm.terminate()
            return vm

        vm = cloud.sim.run_process(main())
        assert not vm.alive
        cost = cloud.ledger.total(CostCategory.VM_COMPUTE)
        assert cost >= 1.65 * 60 / 3600  # at least the 60 s minimum

    def test_double_terminate_bills_once(self, cloud):
        fleet = cloud.vm_fleet("aws:us-east-1")

        def main():
            vm = yield cloud.sim.spawn(fleet.provision())
            vm.terminate()
            before = cloud.ledger.total(CostCategory.VM_COMPUTE)
            vm.terminate()
            return before

        before = cloud.sim.run_process(main())
        assert cloud.ledger.total(CostCategory.VM_COMPUTE) == before

    def test_vm_faster_than_single_function(self, cloud):
        """A VM gateway multiplexes streams, beating one function's NIC."""
        from repro.simcloud.network import BEST_CONFIGS

        fleet = cloud.vm_fleet("aws:us-east-1")
        dst = cloud.region("aws:ca-central-1")

        def main():
            vm = yield cloud.sim.spawn(fleet.provision())
            return vm

        vm = cloud.sim.run_process(main())
        vm_times = [vm.wan_seconds(dst, 100 * MB, upload=True) for _ in range(30)]
        func_mbps = cloud.fabric.path_mbps(
            cloud.region("aws:us-east-1"), dst, BEST_CONFIGS["aws"], upload=True
        )
        func_time = 100 * MB * 8 / (func_mbps * 1e6)
        assert np.mean(vm_times) < func_time


class TestNotificationBus:
    def test_events_delivered_with_delay(self, cloud):
        bucket = cloud.bucket("aws:us-east-1", "b")
        received = []
        cloud.notifications.connect(bucket, lambda ev: received.append((cloud.now, ev)))
        bucket.put_object("k", Blob.fresh(10), cloud.now)
        cloud.run()
        assert len(received) == 1
        arrival, event = received[0]
        assert arrival > event.event_time
        assert event.key == "k"

    def test_delay_roughly_subsecond(self, cloud):
        bucket = cloud.bucket("aws:us-east-1", "b")
        arrivals = []
        cloud.notifications.connect(bucket, lambda ev: arrivals.append(cloud.now - ev.event_time))
        for i in range(200):
            bucket.put_object(f"k{i}", Blob.fresh(1), cloud.now)
        cloud.run()
        assert 0.2 < np.mean(arrivals) < 1.0

    def test_azure_notifications_slower_than_aws(self, cloud):
        aws_b = cloud.bucket("aws:us-east-1", "a")
        az_b = cloud.bucket("azure:eastus", "z")
        delays = {"aws": [], "azure": []}
        cloud.notifications.connect(aws_b, lambda ev: delays["aws"].append(cloud.now - ev.event_time))
        cloud.notifications.connect(az_b, lambda ev: delays["azure"].append(cloud.now - ev.event_time))
        for i in range(100):
            aws_b.put_object(f"k{i}", Blob.fresh(1), cloud.now)
            az_b.put_object(f"k{i}", Blob.fresh(1), cloud.now)
        cloud.run()
        assert np.mean(delays["azure"]) > np.mean(delays["aws"])

    def test_delivery_counter(self, cloud):
        bucket = cloud.bucket("aws:us-east-1", "b")
        cloud.notifications.connect(bucket, lambda ev: None)
        bucket.put_object("k", Blob.fresh(1), cloud.now)
        bucket.delete_object("k", cloud.now)
        cloud.run()
        assert cloud.notifications.delivered == 2


class TestWorkflowTimers:
    def test_schedule_after_fires_once(self, cloud):
        timers = cloud.timers("aws:us-east-1")
        fired = []
        timers.schedule_after(30.0, lambda: fired.append(cloud.now))
        cloud.run()
        assert fired == [30.0]
        assert timers.scheduled == 1

    def test_schedule_at_past_clamps_to_now(self, cloud):
        timers = cloud.timers("aws:us-east-1")
        cloud.sim.call_later(10.0, lambda: None)
        cloud.run()
        fired = []
        timers.schedule_at(5.0, lambda: fired.append(cloud.now))
        cloud.run()
        assert fired == [10.0]

    def test_timers_billed(self, cloud):
        timers = cloud.timers("aws:us-east-1")
        timers.schedule_after(1.0, lambda: None)
        assert cloud.ledger.total(CostCategory.WORKFLOW) > 0


class TestCloudFacade:
    def test_buckets_cached(self, cloud):
        assert cloud.bucket("aws:us-east-1", "b") is cloud.bucket("aws:us-east-1", "b")

    def test_versioning_conflict_detected(self, cloud):
        cloud.bucket("aws:us-east-1", "b", versioning=False)
        with pytest.raises(ValueError):
            cloud.bucket("aws:us-east-1", "b", versioning=True)

    def test_faas_cached_per_region(self, cloud):
        assert cloud.faas("aws:us-east-1") is cloud.faas("aws:us-east-1")
        assert cloud.faas("aws:us-east-1") is not cloud.faas("azure:eastus")

    def test_same_seed_reproducible_end_to_end(self):
        def run_once(seed):
            cloud = build_default_cloud(seed=seed)
            bucket = cloud.bucket("aws:us-east-1", "b")
            arrivals = []
            cloud.notifications.connect(bucket, lambda ev: arrivals.append(cloud.now))
            bucket.put_object("k", Blob.fresh(1), 0.0)
            cloud.run()
            return arrivals

        assert run_once(11) == run_once(11)
        assert run_once(11) != run_once(12)
