"""Tenant-isolation regression battery.

The multi-tenant contract: one tenant's disasters — a crash storm over
its orchestrators, an outage of its buckets, an exhausted budget — stay
*its* disasters.  Every scenario here runs two tenants side by side,
points the fault at tenant A only, and asserts tenant B's replication
is complete, on time, and untouched by A's admission controller, while
the trace oracle confirms no span or lock ever crossed the tenant
boundary.

Fault scoping uses two mechanisms the production layers expose:
``ChaosConfig.crash_scope`` restricts crash injection to functions
whose deployed name contains a substring (a tenant's rule-id prefix),
and per-bucket ``in_outage`` toggles take a single tenant's store dark
without declaring a region-wide incident.
"""

from __future__ import annotations

import pytest

from repro.core.audit import ReplicationAuditor
from repro.core.config import ReplicaConfig, TenantConfig
from repro.core.invariants import TraceChecker
from repro.core.service import AReplicaService
from repro.simcloud.chaos import ChaosConfig
from repro.simcloud.cloud import build_default_cloud
from repro.simcloud.cost import estimate_task_cost
from repro.simcloud.objectstore import Blob

pytestmark = pytest.mark.tenant

KB = 1024

#: Generous end-to-end bound for an undisturbed tenant's replication
#: delay in these small-object workloads (healthy runs finish in a few
#: seconds; a cross-tenant leak of A's storm/outage shows up as minutes
#: of retry backoff or DLQ dwell).
ISOLATION_DELAY_BOUND_S = 60.0


def build_pair(seed, policy="defer", budget_a=None, shards=2,
               tracing=True):
    """Two tenants, separate buckets, same region pair, shared plane."""
    cloud = build_default_cloud(seed=seed)
    config = ReplicaConfig(profile_samples=4, mc_samples=300,
                           tracing_enabled=tracing)
    svc = AReplicaService(cloud, config)
    svc.enable_multitenancy(shards=shards, max_concurrent=8)
    # Tenant shard rules skip per-rule profiling; profile the region
    # pair once up front (the same probe-bucket pattern tenant-drill
    # uses), so lazily created engine workers find a fitted path model.
    probe_src = cloud.bucket("aws:us-east-1", "profile-probe-src")
    probe_dst = cloud.bucket("azure:eastus", "profile-probe-dst")
    svc.profiler.ensure_path("aws:us-east-1", probe_src, probe_dst)
    svc.profiler.ensure_path("azure:eastus", probe_src, probe_dst)
    a_src = cloud.bucket("aws:us-east-1", "a-src")
    a_dst = cloud.bucket("azure:eastus", "a-dst")
    b_src = cloud.bucket("aws:us-east-1", "b-src")
    b_dst = cloud.bucket("azure:eastus", "b-dst")
    svc.add_tenant(TenantConfig("t-a", budget_usd=budget_a,
                                budget_window_s=300.0,
                                exhausted_policy=policy), a_src, a_dst)
    svc.add_tenant(TenantConfig("t-b"), b_src, b_dst)
    return cloud, svc, (a_src, a_dst), (b_src, b_dst)


def put_workload(cloud, bucket, n, prefix="k", size=32 * KB, start=1.0,
                 spacing=2.0):
    base = cloud.sim.now
    for i in range(n):
        cloud.sim.call_at(
            base + start + i * spacing,
            lambda i=i: bucket.put_object(f"{prefix}{i}", Blob.fresh(size),
                                          cloud.sim.now))


def tenant_delays(svc, tenant_id):
    rule_ids = {r.rule_id for r in svc.tenant_rules(tenant_id)}
    return [r.delay for r in svc.records if r.rule_id in rule_ids]


def assert_replicated(src, dst, n, prefix="k"):
    for i in range(n):
        assert dst.head(f"{prefix}{i}").etag == src.head(f"{prefix}{i}").etag


# -- fault isolation: storms and outages scoped to tenant A -------------------

class TestFaultIsolation:
    def test_crash_storm_scoped_to_tenant_a_leaves_b_on_time(self):
        """A heavy crash storm over tenant A's orchestrators (scoped by
        rule-id prefix, so ``areplica-*-t-a-s*`` deployments only) must
        not push tenant B's replication delay past the healthy bound."""
        cloud, svc, (a_src, a_dst), (b_src, b_dst) = build_pair(seed=9005)
        put_workload(cloud, a_src, 8, prefix="a")
        put_workload(cloud, b_src, 8, prefix="b")
        cloud.apply_chaos(ChaosConfig(crash_prob=0.35,
                                      crash_mean_delay_s=0.1,
                                      crash_scope="t-a-"))
        cloud.run()
        cloud.apply_chaos(None)
        assert svc.run_to_convergence().converged
        assert cloud.chaos_stats()["faas_crashes"] > 0, "storm never hit"

        assert_replicated(a_src, a_dst, 8, prefix="a")
        assert_replicated(b_src, b_dst, 8, prefix="b")
        b_delays = tenant_delays(svc, "t-b")
        assert len(b_delays) == 8
        assert max(b_delays) <= ISOLATION_DELAY_BOUND_S, (
            f"tenant A's storm delayed tenant B: {max(b_delays):.1f}s")
        report = ReplicationAuditor(svc).audit(quiescent=True)
        assert report.clean, report.render()

    def test_tenant_a_bucket_outage_does_not_slow_b(self):
        """Tenant A's destination bucket goes dark mid-replication (a
        per-bucket outage, not a regional one).  B — same regions, same
        shared scheduler — must converge inside the healthy bound."""
        cloud, svc, (a_src, a_dst), (b_src, b_dst) = build_pair(seed=9002)
        put_workload(cloud, a_src, 6, prefix="a")
        put_workload(cloud, b_src, 6, prefix="b")

        def darken():
            a_dst.in_outage = True

        def restore():
            a_dst.in_outage = False

        base = cloud.sim.now
        cloud.sim.call_at(base + 2.0, darken)
        cloud.sim.call_at(base + 14.0, restore)
        cloud.run()
        assert svc.run_to_convergence().converged

        assert_replicated(a_src, a_dst, 6, prefix="a")
        assert_replicated(b_src, b_dst, 6, prefix="b")
        b_delays = tenant_delays(svc, "t-b")
        assert max(b_delays) <= ISOLATION_DELAY_BOUND_S
        # A genuinely felt the outage (its delays straddle the window).
        assert max(tenant_delays(svc, "t-a")) > max(b_delays)

    def test_trace_oracle_finds_no_cross_tenant_leakage(self):
        """The tenant-isolation trace invariant: every span/event tagged
        with a tenant must reference only that tenant's tasks and lock
        owners.  Run the storm scenario and let the oracle audit it."""
        cloud, svc, (a_src, a_dst), (b_src, b_dst) = build_pair(seed=9003)
        put_workload(cloud, a_src, 5, prefix="a")
        put_workload(cloud, b_src, 5, prefix="b")
        cloud.apply_chaos(ChaosConfig(crash_prob=0.3,
                                      crash_mean_delay_s=0.1,
                                      crash_scope="t-a-"))
        cloud.run()
        cloud.apply_chaos(None)
        assert svc.run_to_convergence().converged
        report = TraceChecker(svc).check()
        isolation = [f for f in report.findings
                     if f.kind == "tenant-isolation"]
        assert not isolation, "\n".join(str(f) for f in isolation)
        assert report.checked["tenant_records"] > 0, "oracle saw no tenants"
        assert report.clean, report.render()


# -- budget isolation: A's exhaustion never touches B -------------------------

class TestBudgetIsolation:
    def _exhaust_a(self, policy):
        cloud, svc, (a_src, a_dst), (b_src, b_dst) = build_pair(
            seed=9004, policy=policy, budget_a=2.0e-05)
        # Budget below one task's estimate: admission is strict-below,
        # so exactly the first event of each window clears it and every
        # subsequent one defers/rejects until the window rolls.
        task_cost = estimate_task_cost(
            cloud.prices, a_src.region, a_dst.region, 32 * KB)
        assert task_cost > 2.0e-05, "budget not actually tight"
        put_workload(cloud, a_src, 6, prefix="a", spacing=1.0)
        put_workload(cloud, b_src, 6, prefix="b", spacing=1.0)
        cloud.run()
        return cloud, svc, (a_src, a_dst), (b_src, b_dst)

    def test_a_exhaustion_under_reject_never_rejects_b(self):
        cloud, svc, _, (b_src, b_dst) = self._exhaust_a("reject")
        assert svc.run_to_convergence().converged
        summary = svc.tenant_summary()
        assert summary["t-a"]["rejected"] > 0, "A never exhausted"
        assert summary["t-b"]["rejected"] == 0
        assert summary["t-b"]["deferred"] == 0
        assert summary["t-b"]["admitted"] == 6
        assert_replicated(b_src, b_dst, 6, prefix="b")
        # A's dst holds exactly its admitted keys: post-exhaustion tasks
        # never dispatched, and the ledger self-audit agrees.
        a_state = svc.tenants["t-a"]
        a_dst_keys = len(list(svc.tenants["t-a"].dst_bucket.keys()))
        assert a_dst_keys == summary["t-a"]["admitted"]
        assert summary["t-a"]["over_admissions"] == 0
        assert summary["t-a"]["rejected"] + summary["t-a"]["admitted"] == 6

    def test_a_exhaustion_under_defer_parks_only_a(self):
        cloud, svc, (a_src, a_dst), (b_src, b_dst) = self._exhaust_a("defer")
        # B fully converges even while A still has a deferral lane; the
        # service-level report only closes once A's windows roll and the
        # lane drains — both tenants then converged with zero rejects.
        report = svc.run_to_convergence()
        assert report.converged
        summary = svc.tenant_summary()
        assert summary["t-a"]["deferred"] > 0, "A never deferred"
        assert summary["t-b"]["deferred"] == 0
        assert summary["t-b"]["rejected"] == 0
        assert summary["t-a"]["deferred_lane"] == 0, "lane never drained"
        assert_replicated(a_src, a_dst, 6, prefix="a")
        assert_replicated(b_src, b_dst, 6, prefix="b")
        assert summary["t-a"]["over_admissions"] == 0
        # B's delays never waited on A's window rolls.
        assert max(tenant_delays(svc, "t-b")) <= ISOLATION_DELAY_BOUND_S

    def test_b_unbudgeted_admits_everything_regardless_of_a(self):
        """The admission controller consults only the event's own
        tenant: with A pinned at zero budget, B's ledger never so much
        as syncs against A's window."""
        cloud, svc, _, _ = self._exhaust_a("defer")
        svc.run_to_convergence()
        b_ledger = svc.tenants["t-b"].ledger
        assert b_ledger.budget_usd is None
        assert b_ledger.admissions == 6
        assert b_ledger.over_admissions() == 0
        # B admitted everything in its arrival window; A's admissions
        # straddled budget-window rolls (defer drains one per window).
        assert b_ledger.windows == 1
        a_ledger = svc.tenants["t-a"].ledger
        assert a_ledger.windows > 1


def test_add_tenant_profiles_an_unprofiled_region_pair():
    """A tenant on a pair nobody profiled used to livelock: every task
    failed planning with 'no profiled path', the failure was booked as a
    FaaS platform fault, and the breaker's half-open probe loop never
    ended (0 records, dead letters and heap growing without bound).
    ``add_tenant`` now runs the onboarding profile ``add_rule`` runs.
    Bounded by simulated time, not wall time: the run drains its queue
    in under 100 simulated seconds, a livelock never does."""
    cloud = build_default_cloud(seed=0)
    svc = AReplicaService(cloud, ReplicaConfig(profile_samples=4,
                                               mc_samples=300))
    src = cloud.bucket("aws:us-east-1", "lone-src")
    dst = cloud.bucket("gcp:europe-west6", "lone-dst")
    svc.add_tenant(TenantConfig("lone"), src, dst)
    put_workload(cloud, src, 50, spacing=1.0)
    sim = cloud.sim
    sim.run(until=3600.0)
    assert not sim._heap and not sim._ring, "still running after an hour"
    assert len(svc.records) == 50
    assert svc.pending_count() == 0
    assert not cloud.faas("aws:us-east-1").dead_letters
