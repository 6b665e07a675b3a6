"""Tests for the simulated FaaS platforms."""

import math

import numpy as np
import pytest

from repro.simcloud.cloud import Cloud, CloudProfiles, build_default_cloud
from repro.simcloud.cost import CostCategory
from repro.simcloud.faas import FaasProfile, FunctionTimeout, InvocationFailed
from repro.simcloud.network import FunctionConfig
from repro.simcloud.objectstore import Blob
from repro.simcloud.sim import Interrupt, SleepRequest

MB = 10**6


@pytest.fixture
def cloud():
    return build_default_cloud(seed=2)


def run(cloud, gen):
    return cloud.sim.run_process(gen)


def echo_handler(ctx, payload):
    yield ctx.sleep(0.01)
    return payload


class TestInvocation:
    def test_invoke_returns_handler_result(self, cloud):
        faas = cloud.faas("aws:us-east-1")
        faas.deploy("echo", echo_handler)

        def main():
            accepted, invocation = faas.invoke("echo", {"v": 7})
            yield accepted
            result = yield invocation
            return result

        assert run(cloud, main()) == {"v": 7}

    def test_api_latency_precedes_acceptance(self, cloud):
        faas = cloud.faas("aws:us-east-1")
        faas.deploy("echo", echo_handler)

        def main():
            accepted, _ = faas.invoke("echo", None)
            yield accepted
            return cloud.now

        assert run(cloud, main()) > 0.0

    def test_unknown_function_raises(self, cloud):
        with pytest.raises(KeyError):
            cloud.faas("aws:us-east-1").invoke("nope", None)

    def test_cross_provider_invoke_slower(self, cloud):
        aws = cloud.faas("aws:us-east-1")
        aws.deploy("echo", echo_handler)
        az_region = cloud.region("azure:eastus")

        def accept_time(caller_region):
            def main():
                accepted, _ = aws.invoke("echo", None, caller_region=caller_region)
                yield accepted
                return cloud.now - start

            start = cloud.now
            return run(cloud, main())

        local = accept_time(cloud.region("aws:us-east-1"))
        cloud2 = build_default_cloud(seed=2)
        aws2 = cloud2.faas("aws:us-east-1")
        aws2.deploy("echo", echo_handler)

        def main2():
            accepted, _ = aws2.invoke("echo", None, caller_region=az_region)
            yield accepted
            return cloud2.now

        remote = run(cloud2, main2())
        assert remote > local

    def test_cold_then_warm_start(self, cloud):
        faas = cloud.faas("aws:us-east-1")
        faas.deploy("echo", echo_handler)

        def one_call():
            accepted, inv = faas.invoke("echo", None)
            yield accepted
            yield inv

        run(cloud, one_call())
        run(cloud, one_call())
        stats = faas.deployment_stats("echo")
        assert stats["cold_starts"] == 1
        assert stats["warm_starts"] == 1

    def test_warm_instance_keeps_channel(self, cloud):
        """A reused instance retains its (possibly slow) network factor."""
        faas = cloud.faas("aws:us-east-1")
        seen = []

        def handler(ctx, payload):
            seen.append(ctx.instance.channel.base_factor)
            yield ctx.sleep(0.001)

        faas.deploy("f", handler)

        def one_call():
            accepted, inv = faas.invoke("f", None)
            yield accepted
            yield inv

        run(cloud, one_call())
        run(cloud, one_call())
        assert seen[0] == seen[1]

    def test_expired_warm_instance_discarded(self, cloud):
        faas = cloud.faas("aws:us-east-1")
        faas.deploy("echo", echo_handler)

        def one_call():
            accepted, inv = faas.invoke("echo", None)
            yield accepted
            yield inv

        run(cloud, one_call())
        cloud.sim.run(until=cloud.now + faas.profile.keepalive_s + 1)
        run(cloud, one_call())
        assert faas.deployment_stats("echo")["cold_starts"] == 2


class TestSchedulerPostponement:
    def test_gcp_cold_starts_wait_for_tick(self):
        """Cloud Run's scheduler runs every 5 s; a cold invocation issued
        at t=1 s cannot start before the t=5 s tick."""
        cloud = build_default_cloud(seed=3)
        faas = cloud.faas("gcp:us-east1")
        started = []

        def handler(ctx, payload):
            started.append(ctx.now)
            yield ctx.sleep(0.001)

        faas.deploy("f", handler)

        def main():
            yield cloud.sim.sleep(1.0)
            accepted, inv = faas.invoke("f", None)
            yield accepted
            yield inv

        run(cloud, main())
        assert started[0] >= 5.0

    def test_aws_has_no_postponement(self):
        cloud = build_default_cloud(seed=3)
        faas = cloud.faas("aws:us-east-1")
        started = []

        def handler(ctx, payload):
            started.append(ctx.now)
            yield ctx.sleep(0.001)

        faas.deploy("f", handler)

        def main():
            yield cloud.sim.sleep(1.0)
            accepted, inv = faas.invoke("f", None)
            yield accepted
            yield inv

        run(cloud, main())
        assert started[0] < 2.5  # just I + cold start


class TestTimeoutsAndRetries:
    def test_timeout_interrupts_and_dead_letters(self, cloud):
        faas = cloud.faas("aws:us-east-1")

        def forever(ctx, payload):
            yield ctx.sleep(10_000.0)

        faas.deploy("stuck", forever, timeout_s=5.0)

        def main():
            accepted, inv = faas.invoke("stuck", {"id": 1})
            yield accepted
            try:
                yield inv
            except InvocationFailed:
                return "failed"
            return "ok"

        assert run(cloud, main()) == "failed"
        stats = faas.deployment_stats("stuck")
        assert stats["timeouts"] == 1 + faas.profile.max_retries
        assert len(faas.dead_letters) == 1

    def test_timeout_capped_at_platform_limit(self, cloud):
        faas = cloud.faas("gcp:us-east1")
        faas.deploy("f", echo_handler, timeout_s=10_000.0)
        assert faas._deployments["f"].timeout_s == 540.0

    def test_transient_failure_retried_to_success(self, cloud):
        faas = cloud.faas("aws:us-east-1")
        attempts = []

        def flaky(ctx, payload):
            attempts.append(ctx.now)
            yield ctx.sleep(0.01)
            if len(attempts) < 2:
                raise RuntimeError("transient")
            return "recovered"

        faas.deploy("flaky", flaky)

        def main():
            accepted, inv = faas.invoke("flaky", None)
            yield accepted
            return (yield inv)

        assert run(cloud, main()) == "recovered"
        assert faas.deployment_stats("flaky")["retries"] == 1

    def test_permanent_failure_exhausts_retries(self, cloud):
        faas = cloud.faas("aws:us-east-1")

        def broken(ctx, payload):
            yield ctx.sleep(0.01)
            raise ValueError("permanent")

        faas.deploy("broken", broken)

        def main():
            accepted, inv = faas.invoke("broken", None)
            yield accepted
            try:
                yield inv
            except InvocationFailed:
                return "dlq"

        assert run(cloud, main()) == "dlq"
        assert len(faas.dead_letters) == 1


class TestConcurrencyLimit:
    def test_excess_invocations_queue(self):
        cloud = build_default_cloud(seed=4)
        faas = cloud.faas("aws:us-east-1")
        faas.profile = type(faas.profile)(max_concurrency=2)
        peak = [0]

        def handler(ctx, payload):
            peak[0] = max(peak[0], faas.running)
            yield ctx.sleep(1.0)

        faas.deploy("f", handler)

        def main():
            invocations = []
            for _ in range(6):
                accepted, inv = faas.invoke("f", None)
                yield accepted
                invocations.append(inv)
            yield cloud.sim.all_of(invocations)

        run(cloud, main())
        assert peak[0] <= 2


def _erlang_c(c, a):
    """P(wait) in an M/M/c queue offered ``a`` erlangs (Erlang's C)."""
    top = a**c / math.factorial(c) / (1 - a / c)
    return top / (sum(a**k / math.factorial(k) for k in range(c)) + top)


def _p_wait(c, rho, seed, n):
    """Share of ``n`` Poisson arrivals (rate ``c * rho`` per second, each
    handler sleeping exp(1 s)) that found all ``c`` slots of one
    aws:us-east-1 platform busy."""
    cloud = Cloud(seed=seed, profiles=CloudProfiles(
        faas=FaasProfile(max_concurrency=c)))
    faas = cloud.faas("aws:us-east-1")
    rng = np.random.default_rng([seed, c])
    gaps = rng.exponential(1.0 / (c * rho), n).tolist()
    work = rng.exponential(1.0, n).tolist()

    def handler(ctx, seconds):
        yield ctx.sleep(seconds)

    faas.deploy("f", handler)
    waited = 0

    def arrivals():
        nonlocal waited
        for gap, seconds in zip(gaps, work):
            yield SleepRequest(gap)
            waited += faas.running >= c
            faas.invoke_and_forget("f", seconds)

    cloud.sim.spawn(arrivals())
    cloud.run()
    return waited / n


class TestAdmissionQueueIsMMc:
    """The admission queue is FCFS over ``max_concurrency`` slots, so
    Poisson arrivals with exponential handlers see Erlang's C.  A slot
    is held from the warm start on, so the offered load counts the
    mean warm start (8 ms) beside the 1 s handler: Erlang's C at the
    handler alone reads 0.059, 0.458, 0.702 and 0.458 at the four
    points, at the held time 0.061, 0.472, 0.721 and 0.488."""

    #: Seed-to-seed standard deviation of one 10 000-arrival run's
    #: P(wait), measured over seeds 100-123.
    SPREAD = {(8, 0.5): 0.0074, (8, 0.8): 0.0304, (8, 0.9): 0.0381,
              (32, 0.9): 0.0589}
    SEEDS = (0, 1, 2, 3)

    @pytest.mark.parametrize("c, rho", sorted(SPREAD))
    def test_p_wait_is_erlang_c(self, c, rho):
        held_s = 1.0 + FaasProfile().warm_start_s["aws"].mean
        expected = _erlang_c(c, c * rho * held_s)
        measured = np.mean([_p_wait(c, rho, seed, 10_000)
                            for seed in self.SEEDS])
        tolerance = 3 * self.SPREAD[c, rho] / math.sqrt(len(self.SEEDS))
        assert abs(measured - expected) <= tolerance, (measured, expected)


class TestDataPath:
    def test_function_replicates_object(self, cloud):
        src = cloud.bucket("aws:us-east-1", "src")
        dst = cloud.bucket("aws:ca-central-1", "dst")
        blob = Blob.fresh(8 * MB)
        src.put_object("obj", blob, 0.0, notify=False)
        faas = cloud.faas("aws:us-east-1")

        def replicate(ctx, payload):
            data, version = yield from ctx.get_object(src, "obj")
            yield from ctx.put_object(dst, "obj", data)
            return version.etag

        faas.deploy("rep", replicate)

        def main():
            accepted, inv = faas.invoke("rep", None)
            yield accepted
            return (yield inv)

        etag = run(cloud, main())
        assert etag == blob.etag
        assert dst.head("obj").etag == blob.etag

    def test_egress_charged_once_for_relay_at_source(self, cloud):
        src = cloud.bucket("aws:us-east-1", "src")
        dst = cloud.bucket("azure:eastus", "dst")
        blob = Blob.fresh(100 * MB)
        src.put_object("obj", blob, 0.0, notify=False)
        faas = cloud.faas("aws:us-east-1")

        def replicate(ctx, payload):
            data, _ = yield from ctx.get_object(src, "obj")
            yield from ctx.put_object(dst, "obj", data)

        faas.deploy("rep", replicate)

        def main():
            accepted, inv = faas.invoke("rep", None)
            yield accepted
            yield inv

        run(cloud, main())
        egress = cloud.ledger.total(CostCategory.EGRESS)
        # Download is intra-region (free); upload crosses AWS->Azure at
        # $0.09/GB. 100 MB => $0.009.
        assert egress == pytest.approx(0.09 * 100 * MB / 10**9, rel=1e-6)

    def test_compute_and_requests_billed(self, cloud):
        faas = cloud.faas("aws:us-east-1")
        faas.deploy("echo", echo_handler)

        def main():
            accepted, inv = faas.invoke("echo", None)
            yield accepted
            yield inv

        run(cloud, main())
        assert cloud.ledger.total(CostCategory.FAAS_COMPUTE) > 0
        assert cloud.ledger.total(CostCategory.FAAS_REQUESTS) > 0

    def test_head_object_charges_no_egress(self, cloud):
        src = cloud.bucket("aws:us-east-1", "src")
        src.put_object("obj", Blob.fresh(MB), 0.0, notify=False)
        faas = cloud.faas("azure:eastus")

        def peek(ctx, payload):
            meta = yield from ctx.head_object(src, "obj")
            return meta.size

        faas.deploy("peek", peek)

        def main():
            accepted, inv = faas.invoke("peek", None)
            yield accepted
            return (yield inv)

        assert run(cloud, main()) == MB
        assert cloud.ledger.total(CostCategory.EGRESS) == 0.0

    def test_multipart_via_context(self, cloud):
        src = cloud.bucket("aws:us-east-1", "src")
        dst = cloud.bucket("aws:ca-central-1", "dst")
        blob = Blob.fresh(32 * MB)
        src.put_object("obj", blob, 0.0, notify=False)
        faas = cloud.faas("aws:us-east-1")

        def rep(ctx, payload):
            upload = yield from ctx.initiate_multipart(dst, "obj")
            for i, off in enumerate(range(0, 32 * MB, 8 * MB), start=1):
                part, _ = yield from ctx.get_object(src, "obj", off, 8 * MB)
                yield from ctx.upload_part(dst, upload, i, part)
            version = yield from ctx.complete_multipart(dst, upload)
            return version.etag

        faas.deploy("rep", rep)

        def main():
            accepted, inv = faas.invoke("rep", None)
            yield accepted
            return (yield inv)

        assert run(cloud, main()) == blob.etag

    def test_remaining_time_decreases(self, cloud):
        faas = cloud.faas("aws:us-east-1")
        readings = []

        def handler(ctx, payload):
            readings.append(ctx.remaining_s)
            yield ctx.sleep(1.0)
            readings.append(ctx.remaining_s)

        faas.deploy("f", handler, timeout_s=10.0)

        def main():
            accepted, inv = faas.invoke("f", None)
            yield accepted
            yield inv

        run(cloud, main())
        assert readings[0] > readings[1]

    def test_invoke_from_context(self, cloud):
        aws = cloud.faas("aws:us-east-1")
        az = cloud.faas("azure:eastus")
        az.deploy("worker", echo_handler)

        def orchestrator(ctx, payload):
            invocation = yield from ctx.invoke(az, "worker", "hi")
            result = yield invocation
            return result

        aws.deploy("orch", orchestrator)

        def main():
            accepted, inv = aws.invoke("orch", None)
            yield accepted
            return (yield inv)

        assert run(cloud, main()) == "hi"


class TestAttemptLifecycle:
    """The handler runs inside the attempt's own process; the context's
    watchdog and crash timers interrupt that process."""

    def _invoke(self, cloud, faas, name):
        def main():
            accepted, inv = faas.invoke(name, None)
            yield accepted
            try:
                return (yield inv)
            except InvocationFailed as exc:
                return exc

        return run(cloud, main())

    def test_watchdog_fails_the_attempt_with_function_timeout(self, cloud):
        faas = cloud.faas("aws:us-east-1")
        faas.profile = type(faas.profile)(max_retries=0)

        def forever(ctx, payload):
            yield ctx.sleep(10_000.0)

        faas.deploy("stuck", forever, timeout_s=5.0)
        outcome = self._invoke(cloud, faas, "stuck")
        assert isinstance(outcome, InvocationFailed)
        assert faas.dead_letters[0][2].startswith("FunctionTimeout(")
        assert faas.deployment_stats("stuck")["timeouts"] == 1
        assert len(faas._deployments["stuck"].warm_pool) == 1
        assert faas.running == 0

    def test_chaos_crash_fails_the_attempt_with_interrupt(self, cloud):
        faas = cloud.faas("aws:us-east-1")
        faas.profile = type(faas.profile)(max_retries=0)

        def slow(ctx, payload):
            ctx.sim.call_later(0.5, ctx._on_crash)
            yield ctx.sleep(1_000.0)

        faas.deploy("slow", slow)
        outcome = self._invoke(cloud, faas, "slow")
        assert isinstance(outcome, InvocationFailed)
        assert faas.dead_letters[0][2].startswith("Interrupt(")
        assert cloud.chaos_stats()["faas_crashes"] == 1
        stats = faas.deployment_stats("slow")
        assert stats["errors"] == 1 and stats["timeouts"] == 0
        assert len(faas._deployments["slow"].warm_pool) == 1

    def test_handler_that_catches_interrupt_and_returns_succeeds(self, cloud):
        faas = cloud.faas("aws:us-east-1")

        def stubborn(ctx, payload):
            ctx.sim.call_later(0.5, ctx._on_crash)
            try:
                yield ctx.sleep(1_000.0)
            except Interrupt as intr:
                return f"survived {intr.cause}"
            return "finished"

        faas.deploy("stubborn", stubborn)
        assert self._invoke(cloud, faas, "stubborn") == "survived chaos-crash"
        stats = faas.deployment_stats("stubborn")
        assert stats["errors"] == 0 and stats["retries"] == 0
        assert cloud.chaos_stats()["faas_crashes"] == 1

    def test_instance_returns_to_the_warm_pool_after_a_crash(self, cloud):
        faas = cloud.faas("aws:us-east-1")
        faas.profile = type(faas.profile)(max_retries=0)
        seen = []

        def handler(ctx, payload):
            if not seen:  # only the first attempt crashes
                ctx.sim.call_later(0.5, ctx._on_crash)
            seen.append(ctx.instance.instance_id)
            # Short enough that the stale wake-up of the crashed attempt
            # does not carry the clock past the keep-alive.
            yield ctx.sleep(60.0)

        faas.deploy("f", handler)
        self._invoke(cloud, faas, "f")
        self._invoke(cloud, faas, "f")
        stats = faas.deployment_stats("f")
        assert stats["cold_starts"] == 1 and stats["warm_starts"] == 1
        assert seen[0] == seen[1]
