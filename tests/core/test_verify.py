"""The convergence gate (``repro.core.verify``) on its own: the repair
policy it owns, its optional parts, and an honest non-clean verdict."""

from repro.core.config import ReplicaConfig
from repro.core.service import AReplicaService
from repro.core.verify import verify
from repro.simcloud.chaos import ChaosConfig
from repro.simcloud.cloud import build_default_cloud
from repro.simcloud.objectstore import Blob

MB = 1024 * 1024
SRC = "aws:us-east-1"
DST = "azure:eastus"


def build(seed, **cfg):
    cloud = build_default_cloud(seed=seed)
    svc = AReplicaService(cloud, ReplicaConfig(profile_samples=5,
                                               mc_samples=300, **cfg))
    src = cloud.bucket(SRC, "src")
    dst = cloud.bucket(DST, "dst")
    svc.add_rule(src, dst)
    return cloud, svc, src, dst


def test_object_lost_behind_a_valid_done_marker_is_redriven_and_rescanned():
    cloud, svc, src, dst = build(seed=901, tracing_enabled=True)
    for i in range(6):
        src.put_object(f"k{i}", Blob.fresh(MB), cloud.now)
    cloud.run()
    # The done marker still vouches for k0; only a bucket diff sees this.
    dst.delete_object("k0", cloud.now, notify=False)
    spent = cloud.ledger.total()

    verdict = verify(svc, repair=True)

    assert [f.kind for f in verdict.first_scan.findings] == ["missing"]
    assert verdict.first_scan.redriven == 1
    # The last word is the detect-only rescan, after the repair landed.
    assert verdict.repair is not verdict.first_scan
    assert verdict.repair.clean and verdict.repair.redriven == 0
    assert dst.head("k0").etag == src.head("k0").etag
    assert verdict.audit.clean and verdict.trace.clean
    assert verdict.clean
    assert verdict.to_dict()["repair"] == verdict.repair.to_dict()
    assert cloud.ledger.total() > spent, "scans and the repair are metered"
    assert "repair scan rule1: clean" in verdict.render()


def test_without_a_tracer_the_oracle_is_skipped_not_failed():
    cloud, svc, src, dst = build(seed=902)
    src.put_object("k", Blob.fresh(MB), cloud.now)

    verdict = verify(svc)

    assert verdict.trace is None and verdict.repair is None
    assert verdict.clean
    assert not {"trace_clean", "repair"} & set(verdict.to_dict())
    assert dst.head("k").etag == src.head("k").etag


def test_backlog_behind_a_still_open_outage_is_reported_not_raised():
    cloud, svc, src, dst = build(seed=903)
    forever = ((SRC, 0.0, float("inf")),)
    cloud.apply_chaos(ChaosConfig(faas_outages=forever, kv_outages=forever,
                                  wan_outages=forever))

    def writer():
        for i in range(12):
            src.put_object(f"k{i}", Blob.fresh(MB), cloud.now)
            yield cloud.sim.sleep(30.0)

    cloud.sim.run_process(writer())

    verdict = verify(svc, repair=False)

    residuals = verdict.to_dict()["convergence"]
    assert residuals["converged"] is False
    assert residuals["parked_backlog"] > 0
    assert residuals["parked_backlog"] == svc.backlog_count()
    assert verdict.pending == 12 and not verdict.audit.clean
    assert verdict.clean is False
    assert "NOT converged" in verdict.render()
