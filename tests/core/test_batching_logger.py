"""Tests for SLO-bounded batching (Algorithm 4) and the runtime logger."""

import pytest

from repro.core import logger as logger_module
from repro.core.config import ReplicaConfig
from repro.core.logger import RuntimeLogger
from repro.core.model import LocParams, NormalParam, PathParams, PerformanceModel
from repro.core.service import AReplicaService
from repro.simcloud.cloud import build_default_cloud
from repro.simcloud.cost import CostCategory
from repro.simcloud.objectstore import Blob

MB = 1024 * 1024


def build_batched(seed=71, slo=30.0, **cfg):
    cloud = build_default_cloud(seed=seed)
    config = ReplicaConfig(slo_seconds=slo, profile_samples=6, mc_samples=500,
                           **cfg)
    svc = AReplicaService(cloud, config)
    src = cloud.bucket("aws:us-east-1", "src")
    dst = cloud.bucket("aws:us-east-2", "dst")
    rule = svc.add_rule(src, dst)
    return cloud, svc, src, dst, rule


class TestBatchingBehaviour:
    def test_rapid_updates_aggregate_into_few_replications(self):
        """Fig 22: with a 30 s SLO and 1 update/s, cost stays ~constant:
        far fewer replications than updates."""
        cloud, svc, src, dst, rule = build_batched()

        def producer():
            for _ in range(30):
                src.put_object("hot", Blob.fresh(10 * MB), cloud.now)
                yield cloud.sim.sleep(1.0)

        cloud.sim.run_process(producer())
        cloud.run()
        tasks_run = rule.engine.stats["inline"] + rule.engine.stats["single"] \
            + rule.engine.stats["distributed"]
        assert tasks_run <= 6            # ~one per SLO window, not 30
        assert dst.head("hot").etag == src.head("hot").etag

    def test_all_updates_meet_slo(self):
        cloud, svc, src, dst, rule = build_batched(seed=73)

        def producer():
            for _ in range(20):
                src.put_object("hot", Blob.fresh(10 * MB), cloud.now)
                yield cloud.sim.sleep(2.0)

        cloud.sim.run_process(producer())
        cloud.run()
        delays = svc.delays()
        assert len(delays) == 20
        violations = [d for d in delays if d > 30.0]
        assert len(violations) <= 1      # "very few violations" (Fig 22a)

    def test_batching_defers_single_update_toward_deadline(self):
        cloud, svc, src, dst, rule = build_batched(seed=79)
        src.put_object("solo", Blob.fresh(10 * MB), cloud.now)
        cloud.run()
        [record] = [r for r in svc.records if r.key == "solo"]
        # Replication was intentionally delayed toward (but within) the SLO.
        assert 5.0 < record.delay <= 30.0

    def test_batching_disabled_replicates_immediately(self):
        cloud, svc, src, dst, rule = build_batched(seed=83,
                                                   enable_batching=False)
        src.put_object("solo", Blob.fresh(10 * MB), cloud.now)
        cloud.run()
        [record] = [r for r in svc.records if r.key == "solo"]
        assert record.delay < 5.0

    def test_zero_slo_disables_batching(self):
        cloud, svc, src, dst, rule = build_batched(seed=89, slo=0.0)
        assert rule.batcher is None

    def test_batched_cost_lower_than_unbatched(self):
        def run_workload(enable_batching):
            cloud, svc, src, dst, rule = build_batched(
                seed=97, enable_batching=enable_batching)
            before = cloud.ledger.snapshot()

            def producer():
                for _ in range(30):
                    src.put_object("hot", Blob.fresh(10 * MB), cloud.now)
                    yield cloud.sim.sleep(1.0)

            cloud.sim.run_process(producer())
            cloud.run()
            delta = before.delta(cloud.ledger.snapshot())
            return delta.totals.get(CostCategory.EGRESS, 0.0)

        assert run_workload(True) < run_workload(False) / 3

    def test_deletes_not_lost_under_batching(self):
        cloud, svc, src, dst, rule = build_batched(seed=101)
        src.put_object("doomed", Blob.fresh(MB), cloud.now)
        cloud.run(until=cloud.now + 1.0)
        src.delete_object("doomed", cloud.now)
        cloud.run()
        assert "doomed" not in dst

    def test_batcher_stats(self):
        cloud, svc, src, dst, rule = build_batched(seed=103)
        for _ in range(5):
            src.put_object("hot", Blob.fresh(MB), cloud.now)
        cloud.run()
        stats = rule.batcher.stats
        assert stats["delayed"] >= 1
        assert stats["flushes"] >= 1
        assert rule.batcher.pending_count() == 0


class TestRuntimeLogger:
    def _model(self):
        model = PerformanceModel(chunk_size=8 * MB)
        model.set_loc_params("loc", LocParams(
            NormalParam(0.02, 0.005), NormalParam(0.3, 0.05), NormalParam.zero()))
        model.set_path_params(("loc", "s", "d"), PathParams(
            NormalParam(0.2, 0.05), NormalParam(0.2, 0.04), NormalParam(0.25, 0.05)))
        return model

    def test_no_correction_for_noise(self):
        model = self._model()
        logger = RuntimeLogger(model)
        path = ("loc", "s", "d")
        for i in range(20):
            actual = 1.0 * (1.05 if i % 2 else 0.95)
            logger.record(path, predicted_s=1.0, actual_s=actual)
        assert logger.corrections(path) == 0

    def test_persistent_drift_triggers_correction(self):
        model = self._model()
        logger = RuntimeLogger(model)
        path = ("loc", "s", "d")
        chunk_before = model.path_params[path].chunk.mean
        for _ in range(30):
            logger.record(path, predicted_s=1.0, actual_s=2.2)
        assert logger.corrections(path) >= 1
        assert model.path_params[path].chunk.mean > chunk_before

    def test_correction_direction_down(self):
        model = self._model()
        logger = RuntimeLogger(model)
        path = ("loc", "s", "d")
        chunk_before = model.path_params[path].chunk.mean
        for _ in range(30):
            logger.record(path, predicted_s=1.0, actual_s=0.4)
        assert model.path_params[path].chunk.mean < chunk_before

    def test_timings_recorded(self):
        logger = RuntimeLogger(self._model())
        logger.record(("loc", "s", "d"), 1.0, 1.1)
        assert logger.observations(("loc", "s", "d")) == 1
        assert logger.observations(("loc", "d", "s")) == 0
        logger.record(("loc", "s", "d"), 1.0, 0.9)
        assert logger.observations(("loc", "s", "d")) == 2

    def test_degenerate_values_ignored(self):
        logger = RuntimeLogger(self._model())
        logger.record(("loc", "s", "d"), 0.0, 1.0)
        logger.record(("loc", "s", "d"), 1.0, 0.0)
        assert logger.observations(("loc", "s", "d")) == 0

    def test_correction_resets_drift_state(self, monkeypatch):
        monkeypatch.setattr(logger_module, "PATIENCE", 3)
        model = self._model()
        logger = RuntimeLogger(model)
        path = ("loc", "s", "d")
        for _ in range(10):
            logger.record(path, 1.0, 3.0)
        first = logger.corrections(path)
        assert first >= 1
        # After correction, accurate predictions cause no more changes.
        for _ in range(10):
            logger.record(path, 1.0, 1.0)
        assert logger.corrections(path) == first
