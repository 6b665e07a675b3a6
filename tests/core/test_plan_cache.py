"""Plan-cache correctness: memoization must never serve stale plans.

The planner memoizes scored Algorithm-3 candidate tables per
``(src, dst, percentile, chunk count, parallelism cap, inline)`` key
and subscribes to the model's invalidation feed.  These tests pin the
contract: warm queries are cache hits with identical results, drift
corrections (``scale_path`` / ``set_path_params``) yield *fresh* plans,
location-parameter changes clear everything, and the model's own
Monte-Carlo cache does not leak entries across invalidations.
"""

import math

import pytest
from scipy import stats as scipy_stats

from repro.core.config import ReplicaConfig
from repro.core.health import HealthTracker
from repro.core.model import (
    LocParams,
    NormalParam,
    PathParams,
    PerformanceModel,
    _norm_ppf,
)
from repro.core.planner import StrategyPlanner

SRC = "aws:us-east-1"
DST = "azure:eastus"
MB = 1024**2


def make_model_and_planner(**cfg):
    config = ReplicaConfig(**cfg)
    model = PerformanceModel(chunk_size=config.part_size,
                             mc_samples=config.mc_samples,
                             gumbel_threshold=config.gumbel_threshold, seed=3)
    for i, loc in enumerate((SRC, DST)):
        model.set_loc_params(loc, LocParams(
            invoke=NormalParam(0.05 + 0.01 * i, 0.01),
            startup=NormalParam(0.25, 0.05),
            postponement=NormalParam(0.4, 0.1),
        ))
        model.set_path_params((loc, SRC, DST), PathParams(
            client_startup=NormalParam(0.6, 0.12),
            chunk=NormalParam(0.35 + 0.05 * i, 0.07),
            chunk_distributed=NormalParam(0.45, 0.09),
        ))
    return model, StrategyPlanner(model, config,
                                  HealthTracker(clock=lambda: 0.0))


class TestWarmQueries:
    def test_repeat_query_hits_cache_with_identical_plan(self):
        model, planner = make_model_and_planner()
        first = planner.generate(64 * MB, SRC, DST, slo_remaining=30.0)
        misses = planner.cache.misses
        second = planner.generate(64 * MB, SRC, DST, slo_remaining=30.0)
        assert planner.cache.misses == misses
        assert planner.cache.hits >= 1
        assert second == first

    def test_same_chunk_count_shares_an_entry(self):
        model, planner = make_model_and_planner()
        planner.generate(3 * MB, SRC, DST, slo_remaining=30.0)
        entries = len(planner.cache)
        # Different byte size, same ceil(size / chunk_size) bucket.
        planner.generate(3 * MB + 17, SRC, DST, slo_remaining=30.0)
        assert len(planner.cache) == entries

    def test_different_slo_budgets_share_an_entry(self):
        model, planner = make_model_and_planner()
        loose = planner.generate(512 * MB, SRC, DST, slo_remaining=1e9)
        entries = len(planner.cache)
        tight = planner.generate(512 * MB, SRC, DST, slo_remaining=0.2)
        assert len(planner.cache) == entries
        # Selection replays per budget: a hopeless budget falls back to
        # the fastest plan, a loose one picks the cheapest (n=1 ladder
        # start), so compliance must differ.
        assert loose.compliant and not tight.compliant


class TestDriftInvalidation:
    def test_scale_path_yields_fresh_plans(self):
        model, planner = make_model_and_planner()
        before = planner.generate(256 * MB, SRC, DST, slo_remaining=30.0)
        # Path got 8x slower (drift); the cached table must be dropped:
        # the same query now sees the rescaled parameters (the planner
        # escalates parallelism and/or blows the prediction — either
        # way the served plan cannot be the cached one).
        for loc in (SRC, DST):
            model.scale_path((loc, SRC, DST), 8.0)
        after = planner.generate(256 * MB, SRC, DST, slo_remaining=30.0)
        assert (after.n, after.predicted_s) != (before.n, before.predicted_s)
        assert after.n > before.n or after.predicted_s > before.predicted_s

    def test_set_path_params_yields_fresh_plans(self):
        model, planner = make_model_and_planner()
        before = planner.generate(256 * MB, SRC, DST, slo_remaining=30.0)
        for loc in (SRC, DST):
            model.set_path_params((loc, SRC, DST), PathParams(
                client_startup=NormalParam(0.6, 0.12),
                chunk=NormalParam(3.5, 0.7),
                chunk_distributed=NormalParam(4.5, 0.9),
            ))
        after = planner.generate(256 * MB, SRC, DST, slo_remaining=30.0)
        assert (after.n, after.predicted_s) != (before.n, before.predicted_s)
        assert after.n > before.n or after.predicted_s > before.predicted_s

    def test_loc_params_change_clears_everything(self):
        model, planner = make_model_and_planner()
        planner.fastest(8 * MB, SRC, DST)
        planner.generate(256 * MB, SRC, DST, slo_remaining=30.0)
        assert len(planner.cache) > 0 and planner._fastest_plans
        model.set_loc_params(SRC, LocParams(
            invoke=NormalParam(0.5, 0.1),
            startup=NormalParam(2.5, 0.5),
            postponement=NormalParam(0.4, 0.1),
        ))
        assert len(planner.cache) == 0
        assert not planner._fastest_plans

    def test_fastest_memo_refreshes_after_drift(self):
        model, planner = make_model_and_planner()
        before = planner.fastest(256 * MB, SRC, DST)
        for loc in (SRC, DST):
            model.scale_path((loc, SRC, DST), 4.0)
        after = planner.fastest(256 * MB, SRC, DST)
        assert after.predicted_s > before.predicted_s * 2.0


class TestMonteCarloCacheHygiene:
    def test_mc_cache_entries_dropped_on_path_invalidation(self):
        model, planner = make_model_and_planner()
        planner.generate(256 * MB, SRC, DST, slo_remaining=30.0)
        assert model._mc_cache
        path = (SRC, SRC, DST)
        model.scale_path(path, 2.0)
        assert all(k[:3] != path for k in model._mc_cache)

    def test_mc_cache_does_not_grow_across_repeated_invalidations(self):
        model, planner = make_model_and_planner()

        def fill():
            for size in (4 * MB, 64 * MB, 256 * MB, 1024 * MB):
                planner.generate(size, SRC, DST, slo_remaining=30.0)

        fill()
        steady = len(model._mc_cache)
        for _ in range(5):
            for loc in (SRC, DST):
                model.scale_path((loc, SRC, DST), 1.1)
            fill()
            assert len(model._mc_cache) <= steady


class TestNormPpf:
    """The scipy-free inverse normal CDF must match scipy to ~1e-9."""

    @pytest.mark.parametrize("p", [
        1e-9, 1e-6, 0.001, 0.024, 0.0243, 0.5, 0.9, 0.95, 0.99, 0.999,
        0.9999, 1 - 1e-6, 1 - 1e-9,
    ])
    def test_matches_scipy(self, p):
        assert _norm_ppf(p) == pytest.approx(
            float(scipy_stats.norm.ppf(p)), abs=1e-9, rel=1e-9)

    def test_extremes_and_domain(self):
        assert _norm_ppf(0.0) == -math.inf
        assert _norm_ppf(1.0) == math.inf
        with pytest.raises(ValueError):
            _norm_ppf(1.5)
        with pytest.raises(ValueError):
            _norm_ppf(-0.1)
