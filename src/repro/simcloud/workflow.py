"""Serverless workflow timers.

The paper realizes SLO-bounded batching with cloud-managed serverless
workflows (AWS Step Functions ``Wait`` states, Durable Functions
timers, Google Workflows sleeps).  The simulation needs only the one
primitive those services share: *durably schedule a callback for a
future instant*, billed per state transition.
"""

from __future__ import annotations

from typing import Callable

from repro.simcloud.cost import CostCategory, CostLedger
from repro.simcloud.sim import Simulator

__all__ = ["WorkflowTimers"]

# AWS Step Functions standard workflows: $25 per million state
# transitions; a wait-then-invoke is ~2 transitions.
_COST_PER_TIMER = 5.0e-5


class WorkflowTimers:
    """Durable delayed invocations for one cloud region."""

    def __init__(self, sim: Simulator, ledger: CostLedger):
        self.sim = sim
        self._ledger = ledger
        self.scheduled = 0

    def schedule_at(self, time: float, fn: Callable[[], None]) -> None:
        """Run ``fn`` at absolute simulated ``time`` (>= now)."""
        self.scheduled += 1
        self._ledger.charge(CostCategory.WORKFLOW, _COST_PER_TIMER)
        self.sim.call_at(max(time, self.sim.now), fn)

    def schedule_after(self, delay: float, fn: Callable[[], None]) -> None:
        self.schedule_at(self.sim.now + max(0.0, delay), fn)
