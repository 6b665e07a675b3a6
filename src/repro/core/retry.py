"""Engine-side retry/backoff schedule.

The platform already retries whole *invocations* (``faas.py``: two
auto-retries with backoff, then the dead-letter queue).  This schedule
governs the layer below: individual control-plane operations — lock
writes, part-pool claims, done-marker updates — that a throttled
serverless database rejects.  Retrying them in place is far cheaper
than failing the function and paying a platform retry, and the jitter
de-synchronizes the herd of replicators a throttling episode creates,
which is why :func:`backoff_s` requires the caller's seeded RNG.  After
``MAX_ATTEMPTS`` retries, or once a retry would end past
``ReplicaConfig.retry_deadline_s`` from the first rejection, the engine
lets the error escalate to the platform's retry/DLQ ladder.
"""

from __future__ import annotations

__all__ = ["BASE_S", "MULTIPLIER", "CAP_S", "MAX_ATTEMPTS", "JITTER",
           "nominal_s", "backoff_s"]

BASE_S = 0.05
MULTIPLIER = 2.0
CAP_S = 5.0
MAX_ATTEMPTS = 8
#: Fraction of the raw backoff that jitter may remove (0 = none,
#: 1 = full jitter down to zero).
JITTER = 0.5


def nominal_s(attempt: int) -> float:
    """The un-jittered schedule value for ``attempt`` (zero-based)."""
    return min(CAP_S, BASE_S * MULTIPLIER ** attempt)


def backoff_s(attempt: int, rng) -> float:
    """Sleep before retry number ``attempt`` (zero-based), jittered by
    one draw from the caller's seeded ``rng``."""
    raw = nominal_s(attempt)
    low = raw * (1.0 - JITTER)
    return float(low + (raw - low) * rng.random())
