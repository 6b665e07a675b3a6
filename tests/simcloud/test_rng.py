"""Tests for seeded random streams and distribution helpers."""

import gc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simcloud.rng import (BufferedSampler, RngFactory, _checkpoint,
                                _restore, constant, lognormal, normal,
                                uniform)


class TestRngFactory:
    def test_same_seed_same_stream(self):
        a = RngFactory(7).stream("x").random(10)
        b = RngFactory(7).stream("x").random(10)
        assert np.allclose(a, b)

    def test_different_names_differ(self):
        a = RngFactory(7).stream("x").random(10)
        b = RngFactory(7).stream("y").random(10)
        assert not np.allclose(a, b)

    def test_different_seeds_differ(self):
        a = RngFactory(1).stream("x").random(10)
        b = RngFactory(2).stream("x").random(10)
        assert not np.allclose(a, b)

    def test_child_factory_deterministic(self):
        a = RngFactory(3).child("sub").stream("s").random(5)
        b = RngFactory(3).child("sub").stream("s").random(5)
        assert np.allclose(a, b)

    def test_child_differs_from_parent(self):
        a = RngFactory(3).stream("s").random(5)
        b = RngFactory(3).child("sub").stream("s").random(5)
        assert not np.allclose(a, b)


class TestDist:
    def test_normal_moments(self):
        rng = np.random.default_rng(0)
        d = normal(10.0, 2.0)
        samples = d.sample(rng, 200_000)
        assert abs(samples.mean() - 10.0) < 0.05
        assert abs(samples.std() - 2.0) < 0.05
        assert d.mean == 10.0
        assert d.std == 2.0

    def test_normal_floor_truncates(self):
        rng = np.random.default_rng(0)
        d = normal(0.0, 1.0, floor=0.5)
        assert (d.sample(rng, 1000) >= 0.5).all()

    def test_lognormal_mean_formula(self):
        rng = np.random.default_rng(0)
        d = lognormal(-0.125, 0.5)
        samples = d.sample(rng, 400_000)
        assert abs(samples.mean() - d.mean) < 0.01
        assert abs(samples.std() - d.std) < 0.02

    def test_constant(self):
        rng = np.random.default_rng(0)
        d = constant(3.5)
        assert d.sample(rng) == 3.5
        assert (d.sample(rng, 10) == 3.5).all()
        assert d.mean == 3.5
        assert d.std == 0.0

    def test_uniform_range(self):
        rng = np.random.default_rng(0)
        d = uniform(2.0, 4.0)
        samples = d.sample(rng, 1000)
        assert samples.min() >= 2.0
        assert samples.max() <= 4.0
        assert d.mean == 3.0

    def test_unknown_kind_rejected(self):
        from repro.simcloud.rng import Dist

        with pytest.raises(ValueError):
            Dist("cauchy", 0.0).sample(np.random.default_rng(0))

    @given(mean=st.floats(0.1, 100), std=st.floats(0.01, 10))
    @settings(max_examples=25, deadline=None)
    def test_samples_respect_floor_property(self, mean, std):
        rng = np.random.default_rng(0)
        d = normal(mean, std, floor=0.001)
        assert (d.sample(rng, 200) >= 0.001).all()

    def test_scalar_sample_is_float_like(self):
        rng = np.random.default_rng(0)
        assert float(normal(1.0, 0.1).sample(rng)) > 0


class TestBufferedSampler:
    @pytest.mark.parametrize("dist", [
        normal(0.004, 0.0012, floor=0.001), lognormal(-1.0, 0.5),
        constant(3.5), uniform(2.0, 4.0)], ids=lambda d: d.kind)
    def test_stream_owner_returns_the_one_call_sequence(self, dist):
        """Demand-sized blocks rest on split invariance: however an
        owning sampler cuts its stream into blocks (16, 32, 64, 64, 64
        here: four boundaries in 200 draws), it returns what one
        ``dist.sample(fresh_rng, n)`` call returns, element by element."""
        n = 200
        sampler = BufferedSampler(dist, RngFactory(5).stream("own"),
                                  block=64, owns_stream=True)
        got = [sampler.sample() for _ in range(n)]
        assert got == dist.sample(RngFactory(5).stream("own"), n).tolist()
        assert all(type(x) is float for x in got)

    def test_stream_owner_holds_no_generator_between_refills(self):
        """An owned stream sits idle as a PCG64 checkpoint from the
        sampler's construction on, across refills; a shared one stays
        the caller's live generator."""
        sampler = BufferedSampler(normal(1.0, 0.1), RngFactory(5).stream("own"),
                                  block=64, owns_stream=True)
        drawn = 0
        for draws in (0, 1, 16, 17, 200):       # refills at 1, 17, 49, ...
            while drawn < draws:
                sampler.sample()
                drawn += 1
            held = gc.get_referents(sampler)
            assert not any(isinstance(x, (np.random.Generator,
                                          np.random.BitGenerator))
                           for x in held), draws
        rng = RngFactory(5).stream("shared")
        assert BufferedSampler(normal(1.0, 0.1), rng)._rng is rng

    def test_a_restored_checkpoint_continues_a_half_used_32_bit_draw(self):
        """A bounded 32-bit draw leaves half of a 64-bit output buffered;
        the checkpoint carries it, so the restored stream goes on as the
        original does."""
        rng = RngFactory(3).stream("half")
        rng.integers(0, 10, dtype=np.uint32)
        checkpoint = _checkpoint(rng)
        assert checkpoint >> 256 & 1 == 1     # has_uint32
        expected = rng.integers(0, 2**32, 5, dtype=np.uint32).tolist()
        got = _restore(checkpoint).integers(0, 2**32, 5, dtype=np.uint32)
        assert got.tolist() == expected

    def test_interleaved_stream_owners_each_return_their_own_sequence(self):
        """Owned samplers restore into one scratch generator; refills
        that alternate between them leave each on its own stream."""
        dists = [normal(0.004, 0.0012, floor=0.001), lognormal(-1.0, 0.5),
                 uniform(2.0, 4.0)]
        samplers = [BufferedSampler(d, RngFactory(9).stream(f"own{i}"),
                                    block=32, owns_stream=True)
                    for i, d in enumerate(dists)]
        got: list[list[float]] = [[] for _ in samplers]
        for i in range(300):
            j = (0, 1, 0, 2, 0, 1)[i % 6]   # uneven turns: refills out of step
            got[j].append(samplers[j].sample())
        for i, d in enumerate(dists):
            expected = d.sample(RngFactory(9).stream(f"own{i}"), len(got[i]))
            assert got[i] == expected.tolist(), i

    @pytest.mark.parametrize("dist", [
        normal(0.45, 0.12, floor=0.05), lognormal(-1.0, 0.5),
        uniform(2.0, 4.0)], ids=lambda d: d.kind)
    def test_a_shared_sampler_returns_what_whole_blocks_return(self, dist):
        """A shared-stream sampler takes each 256-value block whole from
        the stream but, while cold, keeps only the chunk it serves and a
        checkpoint of the rest.  Over three blocks and more (the first
        cold, the rest hot), with a second reader drawing from the same
        generator between its refills, it returns what a sampler holding
        every drawn block returns, and leaves the stream where that one
        does."""
        block, n = 256, 3 * 256 + 50

        def whole_blocks(rng):
            while True:
                yield from dist.sample(rng, block).tolist()

        ours, theirs = (RngFactory(13).stream("notifications")
                        for _ in range(2))
        sampler, reference = BufferedSampler(dist, ours, block), \
            whole_blocks(theirs)
        got, expected, other = [], [], []
        for i in range(n):
            got.append(sampler.sample())
            expected.append(next(reference))
            if i % 37 == 5:                     # the other reader's turn
                other.append((ours.normal(), theirs.normal()))
            if i < block:   # cold: one chunk, at most twice what was used
                assert len(sampler._buf) <= min(max(16, 2 * i), block // 2)
        assert got == expected
        assert all(a == b for a, b in other)
        assert ours.bit_generator.state == theirs.bit_generator.state
        assert len(sampler._buf) == block       # hot: whole blocks kept

    def test_shared_stream_interleaving_is_frozen(self):
        """Two samplers on one stream interleave by whole blocks, so the
        block schedule decides every value; this literal was generated
        before blocks became demand-sized and must never be regenerated
        to make a sampler change pass."""
        rng = RngFactory(11).stream("shared")
        a = BufferedSampler(normal(0.45, 0.12, floor=0.05), rng, block=8)
        b = BufferedSampler(lognormal(-1.0, 0.5), rng, block=4)
        got = [(a if i % 3 else b).sample() for i in range(40)]
        assert got == [
            0.8103021122444083, 0.29709705958520205, 0.2913192987872129,
            0.4330732701022601, 0.49557343860576886, 0.26990795587422345,
            0.15833574882919596, 0.3283596916071685, 0.3741547963956427,
            0.6090340056131788, 0.6747586079337555, 0.4963092547200294,
            0.447695901497041, 0.29978634755359823, 0.5642355867558271,
            0.6648170182410441, 0.4083609784930928, 0.5186015338640056,
            0.3565998844282507, 0.4849970551949384, 0.5237926061579787,
            0.8120036836846166, 0.4270523814368724, 0.39693904331272195,
            0.1339643146437032, 0.31604220866630744, 0.40493243162740045,
            0.29748862627559586, 0.46117099059377215, 0.46991276800677184,
            0.25670762004573255, 0.4880992958506608, 0.3607400042714455,
            0.24065037999180128, 0.5785062624055147, 0.3166850108939876,
            0.5805190671318362, 0.5870437529097081, 0.174261857342825,
            0.6105620512677353]
