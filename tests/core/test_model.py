"""Tests for the distribution-aware performance model."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.model import (LocParams, NormalParam, PathParams,
                              PerformanceModel, _linear_quantiles)

MB = 1024 * 1024
LOC = "aws:us-east-1"
PATH = (LOC, "aws:us-east-1", "azure:eastus")


def make_model(chunk_size=8 * MB, **kwargs) -> PerformanceModel:
    model = PerformanceModel(chunk_size=chunk_size, **kwargs)
    model.set_loc_params(LOC, LocParams(
        invoke=NormalParam(0.02, 0.005),
        startup=NormalParam(0.35, 0.08),
        postponement=NormalParam.zero(),
    ))
    model.set_path_params(PATH, PathParams(
        client_startup=NormalParam(0.25, 0.05),
        chunk=NormalParam(0.20, 0.04),
        chunk_distributed=NormalParam(0.24, 0.06),
    ))
    return model


class TestNormalParam:
    def test_from_samples(self):
        p = NormalParam.from_samples([1.0, 2.0, 3.0])
        assert p.mean == pytest.approx(2.0)
        assert p.std == pytest.approx(1.0)

    def test_from_single_sample_zero_std(self):
        p = NormalParam.from_samples([5.0])
        assert (p.mean, p.std) == (5.0, 0.0)

    def test_from_empty_rejected(self):
        with pytest.raises(ValueError):
            NormalParam.from_samples([])

    def test_scaled_is_fully_correlated(self):
        p = NormalParam(2.0, 0.5).scaled(4)
        assert (p.mean, p.std) == (8.0, 2.0)

    def test_iid_sum_sqrt_variance(self):
        p = NormalParam(2.0, 0.5).iid_sum(4)
        assert p.mean == 8.0
        assert p.std == pytest.approx(1.0)

    def test_plus_independent(self):
        p = NormalParam(1.0, 3.0).plus(NormalParam(2.0, 4.0))
        assert p.mean == 3.0
        assert p.std == pytest.approx(5.0)

    def test_percentile_monotone(self):
        p = NormalParam(10.0, 2.0)
        assert p.percentile(0.5) == pytest.approx(10.0)
        assert p.percentile(0.99) > p.percentile(0.9) > p.percentile(0.5)

    def test_percentile_of_degenerate(self):
        assert NormalParam(3.0, 0.0).percentile(0.99) == 3.0

    def test_samples_nonnegative(self):
        rng = np.random.default_rng(0)
        xs = NormalParam(0.01, 1.0).sample(rng, 1000)
        assert (xs >= 0).all()


class TestChunkMath:
    def test_num_chunks_rounds_up(self):
        m = make_model()
        assert m.num_chunks(1) == 1
        assert m.num_chunks(8 * MB) == 1
        assert m.num_chunks(8 * MB + 1) == 2
        assert m.num_chunks(1024 * MB) == 128

    def test_chunks_per_function(self):
        m = make_model()
        assert m.chunks_per_function(1024 * MB, 32) == 4
        assert m.chunks_per_function(1024 * MB, 100) == 2  # ceil(128/100)


class TestTFunc:
    def test_inline_is_zero(self):
        m = make_model()
        assert m.t_func(1, LOC, inline=True) == NormalParam.zero()

    def test_single_is_invoke_plus_startup(self):
        m = make_model()
        t = m.t_func(1, LOC)
        assert t.mean == pytest.approx(0.37)

    def test_parallel_scales_invoke_linearly(self):
        """T_func = I·n + D + P (§5.3)."""
        m = make_model()
        t8 = m.t_func(8, LOC)
        t16 = m.t_func(16, LOC)
        assert t16.mean - t8.mean == pytest.approx(8 * 0.02)


class TestTransfer:
    def test_single_grows_with_chunks(self):
        m = make_model()
        t1 = m.t_transfer_single(PATH, 8 * MB)
        t4 = m.t_transfer_single(PATH, 32 * MB)
        assert t4.mean == pytest.approx(t1.mean + 3 * 0.20)

    def test_parallel_percentile_above_single_instance_mean(self):
        """The max over n instances exceeds any single instance's mean."""
        m = make_model()
        per_mean = 0.25 + 4 * 0.24
        p50 = m.t_transfer_parallel_percentile(PATH, 1024 * MB, 32, 0.5)
        assert p50 > per_mean

    def test_parallel_percentile_monotone_in_p(self):
        m = make_model()
        p90 = m.t_transfer_parallel_percentile(PATH, 1024 * MB, 8, 0.90)
        p99 = m.t_transfer_parallel_percentile(PATH, 1024 * MB, 8, 0.99)
        assert p99 > p90

    def test_mc_cache_reused(self):
        m = make_model()
        m.t_transfer_parallel_percentile(PATH, 1024 * MB, 8, 0.9)
        runs = m.mc_runs
        m.t_transfer_parallel_percentile(PATH, 1024 * MB, 8, 0.99)
        assert m.mc_runs == runs  # same (path, n, m) key

    def test_mc_cache_invalidated_on_scale(self):
        m = make_model()
        m.t_transfer_parallel_percentile(PATH, 1024 * MB, 8, 0.9)
        runs = m.mc_runs
        m.scale_path(PATH, 1.5)
        m.t_transfer_parallel_percentile(PATH, 1024 * MB, 8, 0.9)
        assert m.mc_runs == runs + 1

    def test_gumbel_used_for_large_n(self):
        m = make_model(gumbel_threshold=32)
        m.predict_percentile(PATH, 10240 * MB, 64, 0.99)
        assert m.mc_runs == 0  # no resampling for large n (§5.3)

    def test_gumbel_approximates_monte_carlo(self):
        """EVT percentiles should be close to brute-force resampling."""
        m = make_model(mc_samples=20000)
        n, size = 128, 10240 * MB
        gumbel_p = m._gumbel_percentile(PATH, size, n, 0.9)
        per_inst = m._per_instance(PATH, size, n)
        rng = np.random.default_rng(1)
        mc = per_inst.sample(rng, (20000, n)).max(axis=1)
        mc_p = float(np.quantile(mc, 0.9))
        assert gumbel_p == pytest.approx(mc_p, rel=0.08)

    def test_scale_path_rejects_nonpositive(self):
        m = make_model()
        with pytest.raises(ValueError):
            m.scale_path(PATH, 0.0)


class TestPredict:
    def test_more_functions_cut_transfer_time(self):
        m = make_model()
        t1 = m.predict_percentile(PATH, 1024 * MB, 1, 0.9)
        t32 = m.predict_percentile(PATH, 1024 * MB, 32, 0.9)
        assert t32 < t1 / 4

    def test_inline_beats_remote_single_for_small(self):
        m = make_model()
        remote = m.predict_percentile(PATH, 1 * MB, 1, 0.9, inline=False)
        inline = m.predict_percentile(PATH, 1 * MB, 1, 0.9, inline=True)
        assert inline < remote

    def test_predict_stats_match_sample_moments(self):
        m = make_model(mc_samples=20000)
        mean, std = m.predict_stats(PATH, 1024 * MB, 16)
        samples = m.predict_samples(PATH, 1024 * MB, 16, count=20000)
        assert mean == pytest.approx(float(samples.mean()), rel=0.05)
        assert std == pytest.approx(float(samples.std()), rel=0.2)

    def test_predict_single_closed_form(self):
        m = make_model()
        mean, std = m.predict_stats(PATH, 8 * MB, 1)
        # I + D + S + C
        assert mean == pytest.approx(0.02 + 0.35 + 0.25 + 0.20)
        assert std == pytest.approx(math.sqrt(0.005**2 + 0.08**2 + 0.05**2 + 0.04**2))

    def test_has_path(self):
        m = make_model()
        assert m.has_path(PATH)
        assert not m.has_path(("gcp:us-east1", "a", "b"))

    @given(n=st.sampled_from([2, 4, 8, 16]), p=st.floats(0.6, 0.99))
    @settings(max_examples=20, deadline=None)
    def test_percentile_increases_with_n_at_fixed_chunks(self, n, p):
        """With per-function work held constant, more instances mean a
        worse straggler tail: max of more draws."""
        m = make_model()
        size_small = n * 8 * MB          # one chunk per function
        t = m.t_transfer_parallel_percentile(PATH, size_small, n, p)
        t_double = m.t_transfer_parallel_percentile(PATH, 2 * size_small, 2 * n, p)
        assert t_double >= t - 0.05


class TestRowMax:
    def test_tail_samples_equal_the_numpy_row_reduce(self):
        """The column-by-column row max is bit-identical to
        ``draws.max(axis=1)`` for every Monte-Carlo n, including rows
        clamped to zero (a path whose per-instance time is centred on
        zero clamps about half of all draws)."""
        clamped = PathParams(client_startup=NormalParam(0.0, 1.0),
                             chunk=NormalParam(0.0, 0.01),
                             chunk_distributed=NormalParam(0.0, 0.01))
        size = 64 * 8 * MB
        zero_rows = 0
        for n in range(1, 64):
            model, oracle = make_model(seed=n), make_model(seed=n)
            for m in (model, oracle):
                m.set_path_params(PATH, clamped)
            per_inst = oracle._per_instance(PATH, size, n)
            draws = per_inst.sample(oracle._rng, (oracle.mc_samples, n))
            expected = draws.max(axis=1)
            got = model.transfer_tail_samples(PATH, size, n)
            assert got.tobytes() == expected.tobytes(), n
            zero_rows += int((got == 0.0).sum())
        assert zero_rows > 0


class TestBitIdenticalShortcuts:
    """The planner-miss shortcuts against the formulas they replace."""

    @given(mean=st.floats(-2.0, 5.0), std=st.floats(0.0, 3.0),
           n=st.integers(1, 40), seed=st.integers(0, 2**32 - 1),
           mc=st.integers(1, 300))
    @settings(max_examples=60, deadline=None)
    def test_tail_samples_equal_the_sampled_row_max(self, mean, std, n,
                                                    seed, mc):
        """Row max of the standard normals, then ``mean + std·z`` and the
        zero floor, equals the row max of ``NormalParam.sample``."""
        params = PathParams(client_startup=NormalParam(mean, std),
                            chunk=NormalParam(0.2, 0.04),
                            chunk_distributed=NormalParam(0.0, 0.0))
        size = n * 8 * MB
        model = make_model(seed=seed, mc_samples=mc)
        oracle = make_model(seed=seed, mc_samples=mc)
        for m in (model, oracle):
            m.set_path_params(PATH, params)
        per_inst = oracle._per_instance(PATH, size, n)
        expected = per_inst.sample(oracle._rng, (mc, n)).max(axis=1)
        got = model.transfer_tail_samples(PATH, size, n)
        assert got.tobytes() == expected.tobytes()
        # Both consumed the stream identically: the next draws agree.
        assert model._rng.random() == oracle._rng.random()

    @pytest.mark.parametrize("n", [2, 9, 40])
    def test_a_row_redrawn_from_its_checkpoint_is_the_missed_row(self, n):
        """A miss keeps a checkpoint and returns a row it does not keep;
        the first hit redraws that row from the checkpoint and keeps it,
        and later hits return the kept row.  Only the miss draws from the
        live stream, and only the miss counts as a Monte-Carlo run."""
        size = 3 * n * 8 * MB
        model, oracle = make_model(seed=n), make_model(seed=n)
        key = (*PATH, n, model.chunks_per_function(size, n))
        miss = model.transfer_tail_samples(PATH, size, n)
        assert type(model._mc_cache[key]) is int
        first_hit = model.transfer_tail_samples(PATH, size, n)
        assert type(model._mc_cache[key]) is np.ndarray
        later_hit = model.transfer_tail_samples(PATH, size, n)
        assert miss.tobytes() == first_hit.tobytes() == later_hit.tobytes()
        assert later_hit is model._mc_cache[key]
        assert model.mc_runs == 1
        expected = oracle.transfer_tail_samples(PATH, size, n)
        assert miss.tobytes() == expected.tobytes()
        assert model._rng.random() == oracle._rng.random()

    @pytest.mark.parametrize("hits", [0, 1])
    def test_the_lookup_after_scale_path_draws_from_the_live_stream(
            self, hits):
        """Invalidation drops a checkpoint as it drops a kept row: the
        next lookup is a miss on the rescaled path, drawn where the live
        stream stands, as on a model that never hit the old entry."""
        size, n = 64 * 8 * MB, 8
        model, oracle = make_model(seed=1), make_model(seed=1)
        before = model.transfer_tail_samples(PATH, size, n)
        for _ in range(hits):
            model.transfer_tail_samples(PATH, size, n)
        oracle.transfer_tail_samples(PATH, size, n)
        for m in (model, oracle):
            m.scale_path(PATH, 1.5)
        got = model.transfer_tail_samples(PATH, size, n)
        assert got.tobytes() == oracle.transfer_tail_samples(
            PATH, size, n).tobytes()
        assert got.tobytes() != before.tobytes()
        assert model.mc_runs == 2
        assert model._rng.random() == oracle._rng.random()

    @given(rows=st.integers(1, 6), width=st.integers(1, 300),
           seed=st.integers(0, 2**32 - 1), ties=st.booleans(),
           ps=st.lists(st.one_of(
               st.sampled_from([0.0, 0.5, 0.9, 0.95, 0.99, 0.9999, 1.0]),
               st.floats(0.0, 1.0)), min_size=1, max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_sorted_quantiles_equal_np_quantile(self, rows, width, seed,
                                                ties, ps):
        """Linear interpolation off one sort is ``np.quantile`` bit for
        bit, on both sides of its ``gamma = 0.5`` branch and with ties."""
        rng = np.random.default_rng(seed)
        x = rng.lognormal(0.0, 1.0, (rows, width))
        if ties:
            x = np.round(x, 1)
        got = _linear_quantiles(np.sort(x, axis=1), ps)
        expected = np.quantile(x, ps, axis=1).T
        assert got.tobytes() == expected.tobytes()
