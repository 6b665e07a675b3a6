"""Additional kernel and FaaS behaviours: cancellable timers, queue
ordering, billing floors, and request-latency geometry."""

import pytest

from repro.simcloud.cloud import build_default_cloud
from repro.simcloud.cost import CostCategory
from repro.simcloud.objectstore import Blob
from repro.simcloud.sim import Simulator

MB = 1024 * 1024


class TestTimers:
    def test_call_later_returns_cancellable_handle(self):
        sim = Simulator()
        fired = []
        timer = sim.call_later(5.0, lambda: fired.append(1))
        timer.cancel()
        sim.run()
        assert fired == []
        assert timer.cancelled

    def test_cancelled_timer_does_not_advance_clock(self):
        sim = Simulator()
        sim.call_later(1.0, lambda: None)
        late = sim.call_later(1000.0, lambda: None)
        late.cancel()
        sim.run()
        assert sim.now == 1.0

    def test_cancel_after_fire_is_noop(self):
        sim = Simulator()
        fired = []
        timer = sim.call_later(1.0, lambda: fired.append(1))
        sim.run()
        timer.cancel()
        assert fired == [1]

    def test_run_until_skips_cancelled_head(self):
        sim = Simulator()
        head = sim.call_later(1.0, lambda: None)
        head.cancel()
        fired = []
        sim.call_later(2.0, lambda: fired.append(sim.now))
        sim.run(until=3.0)
        assert fired == [2.0]
        assert sim.now == 3.0

    def test_timeout_at_absolute(self):
        sim = Simulator()

        def proc():
            yield sim.timeout_at(7.5)
            return sim.now

        assert sim.run_process(proc()) == 7.5


class TestFaasQueueing:
    def test_queued_invocations_fifo(self):
        cloud = build_default_cloud(seed=501)
        faas = cloud.faas("aws:us-east-1")
        faas.profile = type(faas.profile)(max_concurrency=1)
        order = []

        def handler(ctx, payload):
            yield ctx.sleep(1.0)
            order.append(payload)

        faas.deploy("f", handler)

        def main():
            invocations = []
            for i in range(5):
                accepted, inv = faas.invoke("f", i)
                yield accepted
                invocations.append(inv)
            yield cloud.sim.all_of(invocations)

        cloud.sim.run_process(main())
        assert order == [0, 1, 2, 3, 4]

    def test_invoke_and_forget_runs_without_caller_latency(self):
        cloud = build_default_cloud(seed=502)
        faas = cloud.faas("aws:us-east-1")
        done = []

        def handler(ctx, payload):
            yield ctx.sleep(0.1)
            done.append(payload)

        faas.deploy("f", handler)
        faas.invoke_and_forget("f", "x")
        cloud.run()
        assert done == ["x"]

    def test_deployment_stats_accumulate(self):
        cloud = build_default_cloud(seed=503)
        faas = cloud.faas("aws:us-east-1")

        def handler(ctx, payload):
            yield ctx.sleep(0.01)

        faas.deploy("f", handler)

        def call():
            accepted, inv = faas.invoke("f", None)
            yield accepted
            yield inv

        for _ in range(3):
            cloud.sim.run_process(call())
        stats = faas.deployment_stats("f")
        assert stats["invocations"] == 3
        assert stats["cold_starts"] + stats["warm_starts"] == 3


class TestBillingDetails:
    def test_compute_cost_scales_with_duration(self):
        cloud = build_default_cloud(seed=504)
        faas = cloud.faas("aws:us-east-1")

        def make(duration):
            def handler(ctx, payload):
                yield ctx.sleep(duration)

            return handler

        faas.deploy("short", make(1.0))
        faas.deploy("long", make(10.0))

        def call(name):
            before = cloud.ledger.total(CostCategory.FAAS_COMPUTE)
            accepted, inv = faas.invoke(name, None)

            def main():
                yield accepted
                yield inv

            cloud.sim.run_process(main())
            return cloud.ledger.total(CostCategory.FAAS_COMPUTE) - before

        assert call("long") > 5 * call("short")

    def test_pipelined_upload_skips_handshake_but_bills_request(self):
        cloud = build_default_cloud(seed=505)
        faas = cloud.faas("aws:us-east-1")
        local = cloud.bucket("aws:us-east-1", "local")
        peer = cloud.bucket("aws:us-east-2", "peer")
        durations = {}

        def handler(ctx, payload):
            blob = Blob.fresh(8 * MB)
            upload = yield from ctx.initiate_multipart(peer, "k")
            # Warm the client so S is paid before timing starts.
            yield from ctx.get_object(local, "seed", 0, 1)
            t0 = ctx.now
            yield from ctx.upload_part(peer, upload, 1, blob.slice(0, 4 * MB),
                                       pipelined=payload["pipelined"])
            durations[payload["pipelined"]] = ctx.now - t0
            yield from ctx.upload_part(peer, upload, 2,
                                       blob.slice(4 * MB, 4 * MB))
            yield from ctx.complete_multipart(peer, upload)

        local.put_object("seed", Blob.fresh(1024), 0.0, notify=False)
        faas.deploy("f", handler)

        def call(pipelined):
            accepted, inv = faas.invoke("f", {"pipelined": pipelined})

            def main():
                yield accepted
                yield inv

            cloud.sim.run_process(main())

        before = cloud.ledger.total(CostCategory.STORAGE_REQUESTS)
        call(True)
        call(False)
        assert durations[True] < durations[False]
        # Requests billed in both modes.
        assert cloud.ledger.total(CostCategory.STORAGE_REQUESTS) > before

    def test_request_latency_grows_with_distance(self):
        cloud = build_default_cloud(seed=506)
        faas = cloud.faas("aws:us-east-1")
        near = cloud.bucket("aws:us-east-2", "near")
        far = cloud.bucket("aws:ap-northeast-1", "far")
        near.put_object("k", Blob.fresh(1), 0.0, notify=False)
        far.put_object("k", Blob.fresh(1), 0.0, notify=False)
        samples = {"near": [], "far": []}

        def handler(ctx, payload):
            yield from ctx.get_object(near, "k", 0, 1)  # pay S
            for name, bucket in (("near", near), ("far", far)):
                for _ in range(10):
                    t0 = ctx.now
                    yield from ctx.head_object(bucket, "k")
                    samples[name].append(ctx.now - t0)

        faas.deploy("f", handler)

        def main():
            accepted, inv = faas.invoke("f", None)
            yield accepted
            yield inv

        cloud.sim.run_process(main())
        assert (sum(samples["far"]) / len(samples["far"])
                > sum(samples["near"]) / len(samples["near"]))
