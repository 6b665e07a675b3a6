"""Tests for the price book and cost ledger."""

import math

import pytest

from repro.simcloud.cost import CostCategory, CostLedger
from repro.simcloud.pricing import GB, PriceBook
from repro.simcloud.regions import get_region

AWS_USE1 = get_region("aws:us-east-1")
AWS_CAC1 = get_region("aws:ca-central-1")
AWS_APNE1 = get_region("aws:ap-northeast-1")
AZ_EASTUS = get_region("azure:eastus")
AZ_UKSOUTH = get_region("azure:uksouth")
GCP_USE1 = get_region("gcp:us-east1")
GCP_EUW6 = get_region("gcp:europe-west6")


class TestEgressPricing:
    def setup_method(self):
        self.p = PriceBook()

    def test_intra_region_free(self):
        assert self.p.egress_per_gb(AWS_USE1, AWS_USE1) == 0.0

    def test_aws_inter_region_backbone(self):
        assert self.p.egress_per_gb(AWS_USE1, AWS_CAC1) == 0.02

    def test_cross_provider_uses_internet_rate(self):
        assert self.p.egress_per_gb(AWS_USE1, AZ_EASTUS) == 0.09
        assert self.p.egress_per_gb(AZ_EASTUS, AWS_USE1) == 0.087
        assert self.p.egress_per_gb(GCP_USE1, AWS_USE1) == 0.12

    def test_gcp_intra_continent_cheapest(self):
        assert self.p.egress_per_gb(GCP_USE1, get_region("gcp:us-west1")) == 0.01

    def test_cross_continent_same_provider(self):
        assert self.p.egress_per_gb(AZ_EASTUS, AZ_UKSOUTH) == 0.05
        assert self.p.egress_per_gb(GCP_USE1, GCP_EUW6) == 0.05

    def test_egress_cost_scales_with_bytes(self):
        one_gb = self.p.egress_cost(AWS_USE1, AWS_CAC1, GB)
        assert one_gb == pytest.approx(0.02)
        assert self.p.egress_cost(AWS_USE1, AWS_CAC1, GB // 2) == pytest.approx(0.01)

    def test_egress_dominates_for_large_cross_cloud_objects(self):
        """Paper §8.1: for 1 GB cross-cloud, egress is ~90 % of AReplica's
        total cost (~$0.09 of ~$0.091)."""
        assert self.p.egress_cost(AWS_USE1, AZ_EASTUS, GB) == pytest.approx(0.09)


class TestComputePricing:
    def setup_method(self):
        self.p = PriceBook()

    def test_lambda_gb_second(self):
        # 1024 MB for 10 s = 10 GB-s at $0.0000166667.
        cost = self.p.faas_compute_cost("aws", 1024, 0.6, 10.0)
        assert cost == pytest.approx(1.66667e-4, rel=1e-3)

    def test_gcp_bills_cpu_separately(self):
        cost = self.p.faas_compute_cost("gcp", 1024, 2.0, 10.0)
        assert cost == pytest.approx(10 * 2.5e-6 + 2.0 * 10 * 2.4e-5, rel=1e-6)

    def test_minimum_billing_duration(self):
        tiny = self.p.faas_compute_cost("aws", 1024, 0.6, 1e-9)
        assert tiny == pytest.approx(self.p.faas_compute_cost("aws", 1024, 0.6, 0.001))

    def test_vm_minimum_billed_minute(self):
        ten_s = self.p.vm_cost("aws", 10.0)
        sixty_s = self.p.vm_cost("aws", 60.0)
        assert ten_s == sixty_s == pytest.approx(1.65 / 60)

    def test_vm_per_second_after_minimum(self):
        assert self.p.vm_cost("aws", 3600.0) == pytest.approx(1.65)

    def test_dynamodb_write_price_matches_paper(self):
        # §5.1 quotes $0.6250 per million writes in us-east-1.
        assert self.p.kv["aws"].write == pytest.approx(0.625e-6)


class TestCostLedger:
    def test_charges_accumulate(self):
        ledger = CostLedger()
        ledger.charge(CostCategory.EGRESS, 0.5)
        ledger.charge(CostCategory.EGRESS, 0.25)
        assert ledger.total(CostCategory.EGRESS) == pytest.approx(0.75)
        assert ledger.total() == pytest.approx(0.75)

    def test_negative_charge_rejected(self):
        with pytest.raises(ValueError):
            CostLedger().charge(CostCategory.EGRESS, -1.0)

    @pytest.mark.parametrize("amount", [math.nan, math.inf, -math.inf])
    def test_non_finite_charge_rejected(self, amount):
        # One NaN would turn total() into NaN and drop its category from
        # breakdown() (NaN > 0 is False).
        ledger = CostLedger()
        ledger.charge(CostCategory.EGRESS, 1.0)
        with pytest.raises(ValueError):
            ledger.charge(CostCategory.EGRESS, amount)
        assert ledger.total() == 1.0
        assert ledger.breakdown() == {CostCategory.EGRESS: 1.0}

    def test_unknown_category_rejected(self):
        with pytest.raises(ValueError):
            CostLedger().charge("snacks", 1.0)

    def test_snapshot_delta(self):
        ledger = CostLedger()
        ledger.charge(CostCategory.EGRESS, 1.0)
        before = ledger.snapshot()
        ledger.charge(CostCategory.EGRESS, 0.5)
        ledger.charge(CostCategory.KV_OPS, 0.1)
        delta = before.delta(ledger.snapshot())
        assert delta.totals[CostCategory.EGRESS] == pytest.approx(0.5)
        assert delta.totals[CostCategory.KV_OPS] == pytest.approx(0.1)
        assert delta.total == pytest.approx(0.6)

    def test_breakdown_excludes_zero(self):
        ledger = CostLedger()
        ledger.charge(CostCategory.EGRESS, 1.0)
        assert ledger.breakdown() == {CostCategory.EGRESS: 1.0}


class TestRegions:
    def test_catalog_covers_paper_regions(self):
        from repro.simcloud.regions import REGIONS

        for key in [
            "aws:us-east-1", "aws:ca-central-1", "aws:eu-west-1",
            "aws:ap-northeast-1", "azure:eastus", "azure:westus2",
            "azure:uksouth", "azure:southeastasia", "gcp:us-east1",
            "gcp:us-west1", "gcp:europe-west6", "gcp:asia-northeast1",
        ]:
            assert key in REGIONS

    def test_lookup_by_bare_name(self):
        assert get_region("eastus").provider == "azure"
        assert get_region("us-east-1").provider == "aws"

    def test_unknown_region_raises(self):
        with pytest.raises(KeyError):
            get_region("mars-north-1")

    def test_geo_distance_sane(self):
        from repro.simcloud.regions import geo_distance_km

        d = geo_distance_km(AWS_USE1, AWS_APNE1)
        assert 9_000 < d < 13_000
        assert geo_distance_km(AWS_USE1, AWS_USE1) == 0.0

    def test_regions_of(self):
        from repro.simcloud.regions import regions_of

        assert all(r.provider == "azure" for r in regions_of("azure"))
        assert len(regions_of("aws")) >= 5
