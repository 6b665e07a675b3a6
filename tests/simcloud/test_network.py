"""Tests for the WAN fabric: asymmetry, variability, config scaling."""

import numpy as np
import pytest

from repro.simcloud.chaos import injected_ledger
from repro.simcloud.network import (
    BEST_CONFIGS,
    DEFAULT_PROFILE,
    FunctionConfig,
    NetworkFabric,
    NetworkProfile,
)
from repro.simcloud.regions import get_region
from repro.simcloud.rng import RngFactory

AWS_USE1 = get_region("aws:us-east-1")
AWS_CAC1 = get_region("aws:ca-central-1")
AWS_APNE1 = get_region("aws:ap-northeast-1")
AZ_EASTUS = get_region("azure:eastus")
GCP_USE1 = get_region("gcp:us-east1")
GCP_APNE1 = get_region("gcp:asia-northeast1")

MB = 10**6


def make_fabric(seed=0):
    return NetworkFabric(RngFactory(seed), injected_ledger())


class TestMeanBandwidth:
    def setup_method(self):
        self.fabric = make_fabric()
        self.cfg = BEST_CONFIGS["aws"]

    def test_intra_region_fastest(self):
        intra = self.fabric.path_mbps(AWS_USE1, AWS_USE1, self.cfg, upload=False)
        inter = self.fabric.path_mbps(AWS_USE1, AWS_CAC1, self.cfg, upload=False)
        assert intra > inter

    def test_nearby_faster_than_far(self):
        near = self.fabric.path_mbps(AWS_USE1, AWS_CAC1, self.cfg, upload=False)
        far = self.fabric.path_mbps(AWS_USE1, AWS_APNE1, self.cfg, upload=False)
        assert near > far

    def test_cross_provider_slower_than_same_provider(self):
        same = self.fabric.path_mbps(AWS_USE1, AWS_CAC1, self.cfg, upload=False)
        cross = self.fabric.path_mbps(AWS_USE1, AZ_EASTUS, self.cfg, upload=False)
        assert cross < same

    def test_upload_slower_than_download(self):
        down = self.fabric.path_mbps(AWS_USE1, AWS_CAC1, self.cfg, upload=False)
        up = self.fabric.path_mbps(AWS_USE1, AWS_CAC1, self.cfg, upload=True)
        assert up < down

    def test_single_function_bandwidth_few_hundred_mbps(self):
        """Opportunity #1: hundreds of Mbps between regions."""
        bw = self.fabric.path_mbps(AWS_USE1, AWS_CAC1, self.cfg, upload=False)
        assert 100 <= bw <= 1000

    def test_platform_asymmetry(self):
        """Challenge #1 (Fig 8): speed depends on where functions run,
        not only on the (src, dst) pair: the same AWS -> Azure flow,
        pushed by a function at AWS or pulled by one at Azure."""
        pushed = self.fabric.path_mbps(AWS_USE1, AZ_EASTUS, BEST_CONFIGS["aws"],
                                       upload=True)
        pulled = self.fabric.path_mbps(AZ_EASTUS, AWS_USE1,
                                       BEST_CONFIGS["azure"], upload=False)
        assert pushed != pytest.approx(pulled, rel=0.05)

    def test_pair_override_wins(self):
        # Keyed by data flow: downloads from ca-central-1 into a
        # function at us-east-1 move bytes ca-central-1 -> us-east-1.
        profile = NetworkProfile(
            pair_overrides={("aws", AWS_CAC1.key, AWS_USE1.key): 50.0})
        fabric = NetworkFabric(RngFactory(0), injected_ledger(), profile)
        cfg = FunctionConfig(memory_mb=2048, vcpus=1.0)  # full AWS scale
        bw = fabric.path_mbps(AWS_USE1, AWS_CAC1, cfg, upload=False)
        assert bw == pytest.approx(50.0)


class TestConfigScaling:
    """Fig 6: bandwidth vs memory/CPU configuration with a sweet spot."""

    def test_aws_memory_scaling_saturates(self):
        p = DEFAULT_PROFILE
        low = p.config_scale("aws", FunctionConfig(memory_mb=128))
        mid = p.config_scale("aws", FunctionConfig(memory_mb=1024))
        high = p.config_scale("aws", FunctionConfig(memory_mb=8192))
        assert low < mid
        assert mid == high == 1.0  # sweet spot at ~1 GB

    def test_azure_min_config_is_knee(self):
        p = DEFAULT_PROFILE
        assert p.config_scale("azure", FunctionConfig(memory_mb=2048)) == 1.0
        assert p.config_scale("azure", FunctionConfig(memory_mb=4096)) == 1.0

    def test_gcp_scales_with_vcpus_not_memory(self):
        p = DEFAULT_PROFILE
        one = p.config_scale("gcp", FunctionConfig(memory_mb=1024, vcpus=1))
        two = p.config_scale("gcp", FunctionConfig(memory_mb=1024, vcpus=2))
        eight = p.config_scale("gcp", FunctionConfig(memory_mb=1024, vcpus=8))
        assert one < two
        assert two == eight == 1.0

    def test_scale_bounded(self):
        p = DEFAULT_PROFILE
        for provider in ("aws", "azure", "gcp"):
            s = p.config_scale(provider, FunctionConfig(memory_mb=128, vcpus=0.1))
            assert 0 < s <= 1.0


class TestInstanceVariability:
    """Challenge #2 (Fig 9): >2x spread between instances, no pattern."""

    def test_instance_factors_spread(self):
        fabric = make_fabric()
        factors = [fabric.open_channel("azure").base_factor for _ in range(300)]
        assert max(factors) / min(factors) > 2.0

    def test_aws_more_stable_than_azure(self):
        fabric = make_fabric()
        aws = np.std([fabric.open_channel("aws").base_factor for _ in range(500)])
        azure = np.std([fabric.open_channel("azure").base_factor for _ in range(500)])
        assert aws < azure

    def test_factor_mean_near_one(self):
        fabric = make_fabric()
        factors = [fabric.open_channel("aws").base_factor for _ in range(3000)]
        assert abs(np.mean(factors) - 1.0) < 0.05

    def test_within_instance_autocorrelation(self):
        """Consecutive transfers by one instance are correlated (AR drift),
        so a slow instance tends to stay slow."""
        fabric = make_fabric()
        chan = fabric.open_channel("azure")
        xs = np.array([chan.next_factor() for _ in range(4000)])
        lag1 = np.corrcoef(xs[:-1], xs[1:])[0, 1]
        assert lag1 > 0.4

    def test_factors_positive(self):
        fabric = make_fabric()
        chan = fabric.open_channel("gcp")
        assert all(chan.next_factor() > 0 for _ in range(100))


def leg_seconds(fabric, channel, nbytes, concurrency=1):
    """One us-east-1 -> ca-central-1 download leg, composed the way
    ``FunctionContext._leg_seconds`` composes it: mean path bandwidth,
    congestion divisor and jitter, and the instance's speed factor."""
    mbps = fabric.path_mbps(AWS_USE1, AWS_CAC1, BEST_CONFIGS["aws"],
                            upload=False)
    divisor, extra_sigma = fabric.congestion_scale("aws", concurrency)
    factor = channel.next_factor()
    if extra_sigma > 0:
        factor *= fabric.congestion_jitter(extra_sigma)
    return nbytes * 8 / (mbps * 1e6) * divisor / factor


class TestSampling:
    def test_sample_transfer_positive_and_reproducible(self):
        t1 = make_fabric(7)
        t2 = make_fabric(7)
        c1, c2 = t1.open_channel("aws"), t2.open_channel("aws")
        s1 = [leg_seconds(t1, c1, 8 * MB) for _ in range(20)]
        s2 = [leg_seconds(t2, c2, 8 * MB) for _ in range(20)]
        assert s1 == s2
        assert min(s1) > 0

    def test_more_bytes_take_longer_on_average(self):
        fabric = make_fabric()
        small = np.mean([leg_seconds(fabric, fabric.open_channel("aws"), MB)
                         for _ in range(50)])
        big = np.mean([leg_seconds(fabric, fabric.open_channel("aws"), 64 * MB)
                       for _ in range(50)])
        assert big > small * 10

    def test_congestion_reduces_azure_bandwidth_more(self):
        fabric = make_fabric()
        az_div, az_sigma = fabric.congestion_scale("azure", 32)
        aws_div, aws_sigma = fabric.congestion_scale("aws", 32)
        assert az_div > aws_div
        assert az_sigma > aws_sigma

    def test_no_congestion_at_one(self):
        fabric = make_fabric()
        assert fabric.congestion_scale("azure", 1) == (1.0, 0.0)

    def test_startup_overhead_positive(self):
        fabric = make_fabric()
        assert all(fabric.sample_startup(p) > 0 for p in ("aws", "azure", "gcp"))

    def test_near_linear_aggregate_scaling(self):
        """Opportunity #2 (Fig 7): aggregate bandwidth with n functions is
        near-linear — n=64 achieves >70 % of perfect scaling on AWS."""
        fabric = make_fabric()
        size = 64 * MB

        def aggregate_mbps(n):
            times = [leg_seconds(fabric, fabric.open_channel("aws"), size,
                                 concurrency=n)
                     for _ in range(n)]
            return n * size * 8 / MB / np.mean(times)

        one = aggregate_mbps(1)
        sixty_four = aggregate_mbps(64)
        assert sixty_four > 0.7 * 64 * one
