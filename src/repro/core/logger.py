"""Runtime logger and model drift correction (§4 "Logger").

Transfer rates between regions change after offline profiling.  The
logger folds the (predicted, actual) replication time of each completed
task into a per-path exponentially-weighted estimate of the
actual/predicted ratio; it keeps no per-task log.  When the ratio
deviates persistently — not just for one noisy task — the model's path
parameters are rescaled and its Monte-Carlo caches invalidated, which
is exactly the "significant, persistent deviation" trigger the paper
describes for re-running the on-demand simulation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.model import PathKey, PerformanceModel

__all__ = ["RuntimeLogger"]

#: EWMA weight of the newest log(actual/predicted) ratio.
ALPHA = 0.25
#: Drift threshold on |log(actual/predicted)| — 0.30 means a persistent
#: ~35 % deviation.
DRIFT_THRESHOLD = 0.30
#: Consecutive drifting observations that trigger a correction.
PATIENCE = 5


@dataclass
class _PathDrift:
    ewma_log_ratio: float = 0.0
    consecutive_drifts: int = 0
    observations: int = 0
    corrections: int = 0


class RuntimeLogger:
    """Folds task timings into per-path drift state and rescales the
    performance model's path on persistent drift."""

    def __init__(self, model: PerformanceModel):
        self.model = model
        self._drift: dict[PathKey, _PathDrift] = {}

    def record(self, path: PathKey, predicted_s: float,
               actual_s: float) -> None:
        """Fold one completed task into ``path``'s drift estimate; may
        rescale the model's path."""
        if predicted_s <= 0 or actual_s <= 0:
            return
        state = self._drift.get(path)
        if state is None:
            state = self._drift[path] = _PathDrift()
        state.observations += 1
        log_ratio = math.log(actual_s / predicted_s)
        state.ewma_log_ratio = (
            ALPHA * log_ratio + (1 - ALPHA) * state.ewma_log_ratio
        )
        if abs(state.ewma_log_ratio) > DRIFT_THRESHOLD:
            state.consecutive_drifts += 1
        else:
            state.consecutive_drifts = 0
        if state.consecutive_drifts >= PATIENCE:
            ratio = math.exp(state.ewma_log_ratio)
            self.model.scale_path(path, ratio)
            state.corrections += 1
            state.ewma_log_ratio = 0.0
            state.consecutive_drifts = 0

    def corrections(self, path: PathKey) -> int:
        state = self._drift.get(path)
        return state.corrections if state else 0

    def observations(self, path: PathKey) -> int:
        state = self._drift.get(path)
        return state.observations if state else 0
