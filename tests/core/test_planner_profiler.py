"""Tests for the offline profiler and the strategy planner."""

import math

import pytest

from repro.core.config import DISTRIBUTED_THRESHOLD, ReplicaConfig
from repro.core.health import HealthTracker
from repro.core.model import NormalParam, PerformanceModel
from repro.core.planner import StrategyPlanner
from repro.core.profiler import PerformanceProfiler
from repro.simcloud.cloud import build_default_cloud

MB = 1024 * 1024


@pytest.fixture(scope="module")
def profiled():
    """One profiled cloud shared by this module's read-only tests."""
    cloud = build_default_cloud(seed=21)
    config = ReplicaConfig()
    model = PerformanceModel(chunk_size=config.part_size, seed=0)
    profiler = PerformanceProfiler(cloud, model, samples=8)
    src = cloud.bucket("aws:us-east-1", "src")
    dst = cloud.bucket("azure:eastus", "dst")
    profiler.ensure_path("aws:us-east-1", src, dst)
    profiler.ensure_path("azure:eastus", src, dst)
    return cloud, config, model, profiler, src, dst


class TestProfiler:
    def test_paths_installed(self, profiled):
        _, _, model, _, src, dst = profiled
        assert model.has_path(("aws:us-east-1", src.region.key, dst.region.key))
        assert model.has_path(("azure:eastus", src.region.key, dst.region.key))

    def test_loc_params_sane(self, profiled):
        _, _, model, _, _, _ = profiled
        lp = model.loc_params["aws:us-east-1"]
        assert 0.002 < lp.invoke.mean < 0.1          # I: tens of ms
        assert 0.05 < lp.startup.mean < 2.0          # D: sub-second-ish

    def test_path_params_sane(self, profiled):
        _, _, model, _, src, dst = profiled
        pp = model.path_params[("aws:us-east-1", src.region.key, dst.region.key)]
        # An 8 MB chunk at a few hundred Mbps: tenths of a second.
        assert 0.05 < pp.chunk.mean < 2.0
        assert pp.chunk_distributed.mean > 0
        assert pp.client_startup.mean >= 0

    def test_distributed_chunk_includes_kv_overhead(self, profiled):
        """C' >= C on average: same transfer plus two KV accesses."""
        _, _, model, _, src, dst = profiled
        pp = model.path_params[("aws:us-east-1", src.region.key, dst.region.key)]
        assert pp.chunk_distributed.mean > pp.chunk.mean * 0.8

    def test_ensure_path_idempotent(self, profiled):
        _, _, model, profiler, src, dst = profiled
        count = len(profiler.profiled_paths)
        profiler.ensure_path("aws:us-east-1", src, dst)
        assert len(profiler.profiled_paths) == count

    def test_probe_objects_cleaned_up(self, profiled):
        _, _, _, _, src, dst = profiled
        assert not [k for k in src.keys() if "probe" in k]
        assert not [k for k in dst.keys() if "probe" in k]

    def test_too_few_samples_rejected(self, profiled):
        cloud, _, model, _, _, _ = profiled
        with pytest.raises(ValueError):
            PerformanceProfiler(cloud, model, samples=1)

    def test_variability_captured_in_std(self, profiled):
        """The whole point of distribution-awareness: non-zero spread."""
        _, _, model, _, src, dst = profiled
        pp = model.path_params[("azure:eastus", src.region.key, dst.region.key)]
        assert pp.chunk.std > 0


class TestPlanner:
    @pytest.fixture()
    def planner(self, profiled):
        _, config, model, _, _, _ = profiled
        return StrategyPlanner(model, config,
                               HealthTracker(clock=lambda: 0.0))

    def test_small_object_single_inline_plan(self, planner):
        plan = planner.fastest(1 * MB, "aws:us-east-1", "azure:eastus")
        assert plan.n == 1
        assert plan.inline           # orchestrator handles it locally
        assert plan.loc_key == "aws:us-east-1"

    def test_large_object_distributed_plan(self, planner):
        plan = planner.fastest(1024 * MB, "aws:us-east-1", "azure:eastus")
        assert plan.n >= 8
        assert plan.distributed

    def test_loose_slo_prefers_fewer_functions(self, planner):
        tight = planner.generate(1024 * MB, "aws:us-east-1", "azure:eastus",
                                 slo_remaining=10.0)
        loose = planner.generate(1024 * MB, "aws:us-east-1", "azure:eastus",
                                 slo_remaining=600.0)
        assert loose.n <= tight.n
        assert loose.compliant

    def test_compliant_plan_meets_budget(self, planner):
        plan = planner.generate(128 * MB, "aws:us-east-1", "azure:eastus",
                                slo_remaining=60.0)
        assert plan.compliant
        assert plan.predicted_s <= 60.0

    def test_impossible_slo_returns_fastest_noncompliant(self, planner):
        plan = planner.generate(1024 * MB, "aws:us-east-1", "azure:eastus",
                                slo_remaining=0.001)
        assert not plan.compliant

    def test_negative_budget_handled(self, planner):
        """Notification alone blew the SLO: still returns a plan."""
        plan = planner.generate(1 * MB, "aws:us-east-1", "azure:eastus",
                                slo_remaining=-5.0)
        assert plan.n >= 1

    def test_parallelism_capped_by_part_count(self, planner, profiled):
        _, config, _, _, _, _ = profiled
        plan = planner.fastest(80 * MB, "aws:us-east-1", "azure:eastus")
        assert plan.n <= math.ceil(80 * MB / config.part_size)

    def test_no_distribution_below_threshold_in_slo_mode(self, planner,
                                                         profiled):
        """With an SLO to meet, sub-threshold objects stay on a single
        (cheaper) function; fastest mode may still parallelize them."""
        plan = planner.generate(DISTRIBUTED_THRESHOLD - 1,
                                "aws:us-east-1", "azure:eastus",
                                slo_remaining=120.0)
        assert plan.n == 1
        assert plan.compliant

    def test_fastest_mode_may_parallelize_medium_objects(self, planner,
                                                         profiled):
        plan = planner.fastest(DISTRIBUTED_THRESHOLD - 1,
                               "aws:us-east-1", "azure:eastus")
        assert plan.n >= 1  # allowed to exceed 1 (bursts of medium objects)

    def test_unprofiled_path_raises(self, planner):
        with pytest.raises(RuntimeError):
            planner.fastest(MB, "gcp:us-west1", "gcp:europe-west6")

    def test_dynamic_loc_choice_can_pick_either_side(self, profiled):
        """Fig 20: the planner evaluates both source- and destination-side
        execution and the choice is data-driven, not hard-coded."""
        _, config, model, _, src, dst = profiled
        planner = StrategyPlanner(model, config,
                                  HealthTracker(clock=lambda: 0.0))
        plan = planner.fastest(128 * MB, src.region.key, dst.region.key)
        assert plan.loc_key in (src.region.key, dst.region.key)
        # With AWS's faster, stabler links the model should prefer AWS
        # (the paper observes AReplica consistently runs on AWS).
        assert plan.loc_key == "aws:us-east-1"

    def test_plans_generated_counter(self, planner):
        before = planner.plans_generated
        planner.fastest(MB, "aws:us-east-1", "azure:eastus")
        assert planner.plans_generated == before + 1
