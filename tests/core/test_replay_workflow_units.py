"""Unit coverage for the trace replayer and workflow timers.

Both modules sit on the evaluation's critical path (the Fig 23 replay
and SLO-bounded batching) but were previously exercised only through
end-to-end scenarios; these tests pin their contracts directly.
"""

import numpy as np
import pytest

from repro.simcloud import workflow as workflow_mod
from repro.simcloud.cloud import build_default_cloud
from repro.simcloud.cost import CostCategory, CostLedger
from repro.simcloud.sim import Simulator
from repro.simcloud.workflow import WorkflowTimers
from repro.traces.ibm_cos import OP_DELETE, OP_PUT, TraceBatch
from repro.traces.replay import TraceReplayer

KB = 1024


def _requests(ops=(OP_PUT, OP_PUT, OP_DELETE, OP_DELETE)):
    return [TraceBatch(
        times=np.array([0.0, 60.0, 120.0, 120.0]),
        ops=np.array(ops, dtype=np.uint8),
        keys=["k1", "k2", "k1", "k3"],   # k3 never written: skipped
        sizes=np.array([100 * KB, 40 * KB, 0, 0], dtype=np.int64),
    )]


def _cloud_bucket(seed=5):
    cloud = build_default_cloud(seed=seed)
    return cloud, cloud.bucket("aws:us-east-1", "replay-src")


class TestTraceReplayer:
    def test_time_scale_must_be_positive(self):
        cloud, bucket = _cloud_bucket()
        for bad in (0.0, -1.0):
            with pytest.raises(ValueError):
                TraceReplayer(cloud, bucket, time_scale=bad)

    def test_unknown_op_raises(self):
        cloud, bucket = _cloud_bucket()
        replayer = TraceReplayer(cloud, bucket)
        with pytest.raises(ValueError, match="unknown trace op 9"):
            list(replayer.replay_batches(
                _requests((OP_PUT, OP_PUT, 9, OP_DELETE))))
        assert replayer.stats.requests == 0
        assert "k1" not in bucket

    def test_request_replay_counters_and_bucket_state(self):
        cloud, bucket = _cloud_bucket()
        stats = TraceReplayer(cloud, bucket).replay_all(_requests())
        assert (stats.puts, stats.deletes, stats.skipped_deletes) == (2, 1, 1)
        assert stats.requests == 3  # skipped deletes are not applied
        assert stats.bytes_written == 140 * KB
        assert stats.first_time == 0.0
        assert stats.last_time == 120.0
        assert "k1" not in bucket and "k2" in bucket

    def test_time_scale_compresses_the_schedule(self):
        cloud, bucket = _cloud_bucket()
        stats = TraceReplayer(cloud, bucket, time_scale=0.5).replay_all(
            _requests())
        assert stats.last_time == 60.0
        assert stats.requests == 3


class TestWorkflowTimers:
    def test_timers_fire_in_order_and_bill_per_transition(self):
        sim, ledger = Simulator(), CostLedger()
        timers = WorkflowTimers(sim, ledger)
        fired = []
        timers.schedule_at(5.0, lambda: fired.append("b"))
        timers.schedule_at(1.0, lambda: fired.append("a"))
        timers.schedule_after(10.0, lambda: fired.append("c"))
        sim.run()
        assert fired == ["a", "b", "c"]
        assert timers.scheduled == 3
        expected = 3 * workflow_mod._COST_PER_TIMER
        assert ledger.total(CostCategory.WORKFLOW) == pytest.approx(expected)
        assert ledger.total() == pytest.approx(expected)

    def test_past_deadline_clamps_to_now(self):
        sim, ledger = Simulator(), CostLedger()
        timers = WorkflowTimers(sim, ledger)
        fired = []

        def proc():
            yield sim.sleep(10.0)
            timers.schedule_at(3.0, lambda: fired.append(sim.now))

        sim.spawn(proc())
        sim.run()
        assert fired == [10.0]

    def test_negative_delay_clamps_to_zero(self):
        sim, ledger = Simulator(), CostLedger()
        timers = WorkflowTimers(sim, ledger)
        fired = []
        timers.schedule_after(-5.0, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [0.0]
        assert timers.scheduled == 1
