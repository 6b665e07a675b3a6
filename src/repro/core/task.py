"""The vocabulary a replication task is reported in.

One task is one ``{rule}:{key}:{seq}:{kind}`` lifecycle — lock, plan,
transfer, finalize, unlock — identified by :func:`task_id` everywhere
(lock owner, pool record, trace row) and summarised to whoever built
the engine as a :class:`TaskResult` through a :class:`TaskRecorder`.
The lifecycle's rules are data here, and the trace checker
(:mod:`repro.core.invariants`) reads them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Protocol

from repro.core.planner import Plan

__all__ = ["task_id", "TaskResult", "TaskRecorder", "LIFECYCLE",
           "WRITING_KINDS", "RECOVERY_FACTS", "CORDONED_ADMISSIONS",
           "ACQUIRE_MODES", "SCHEMAS", "SUBSTRATE_READS"]

#: A task's facts in the order they must happen, each with the name a
#: trace finding gives it.
LIFECYCLE = {"lock-acquire": "first lock acquire", "plan": "plan selection",
             "finalize": "finalize", "visible": "visibility"}
#: Visibility kinds that wrote the destination, so each needs a fenced
#: finalize; ``already-replicated``, ``content-match`` and
#: ``duplicate-delivery`` report work done earlier.
WRITING_KINDS = frozenset({"created", "changelog", "deleted"})
#: Facts that hand a task, and any corruption it saw, to recovery.
RECOVERY_FACTS = frozenset({"quarantine", "abort", "retrigger", "lock-lost",
                            "park", "dead-letter"})
#: Admissions a cordon on a FaaS region forbids while it is open.
CORDONED_ADMISSIONS = frozenset({"dispatch", "probe", "drain"})
#: How a lock may be taken, as ``mode: (holder, fence step)``.  The
#: holder must be ``None`` (nobody), ``"self"`` (the acquirer) or
#: ``"any"`` (somebody); the new fence is the holder's (0 when unheld)
#: plus the step.
ACQUIRE_MODES = {"fresh": (None, 1), "reentrant": ("self", 0),
                 "takeover": ("any", 1)}

#: The attribute names of every record the trace checker reads, one
#: tuple per schema.  Emitters pass these very tuples as ``keys`` (a
#: tenant scope appends ``"tenant"`` after them), and the checker reads
#: the values by position.
ACQUIRE_KEYS = ("key", "owner", "fence", "mode")
RELEASE_KEYS = ("key", "owner", "released", "fence")
REFUSED_KEYS = ("key", "owner", "released")
FINALIZE_KEYS = ("key", "seq", "etag", "fence", "op", "loc", "verified")
DELETE_KEYS = ("key", "seq", "etag", "fence", "op", "loc")
VERSION_KEYS = ("key", "seq", "kind")       # visible, retrigger
DONE_KEYS = ("rule", "key", "seq", "etag", "op")
PLAN_KEYS = ("n", "loc_key", "inline", "compliant", "predicted_s")
VERIFY_KEYS = ("key", "expected", "actual", "ok")
ACTUATE_KEYS = ("knob", "old", "new", "lo", "hi", "cooldown_s", "error",
                "clamped", "reason")
CORDON_KEYS = ("rule", "substrate", "region")       # cordon, uncordon
DISPATCH_KEYS = ("rule", "region")
PARK_KEYS = ("rule", "backlog_id", "key")
ROUTE_KEYS = ("rule", "backlog_id", "region")       # probe, drain
COMPLETE_KEYS = ("idx", "first", "finished")
HEDGE_START_KEYS = ("key", "part", "seq", "deadline_s", "elapsed_s")
HEDGE_RESOLVED_KEYS = ("key", "part", "seq", "outcome")
CORRUPT_KEYS = ("key", "stage", "kind", "part")
QUARANTINE_KEYS = ("key", "stage", "part")
ABORT_KEYS = ("key", "etag")
LOST_KEYS = ("key",)
#: Each record name the checker reads by position, with its schemas:
#: the longest first, then any other, which is a prefix of it.
SCHEMAS = {"lock-acquire": (ACQUIRE_KEYS,),
           "lock-release": (RELEASE_KEYS, REFUSED_KEYS),
           "finalize": (FINALIZE_KEYS, DELETE_KEYS),
           "visible": (VERSION_KEYS,), "retrigger": (VERSION_KEYS,),
           "done-marker": (DONE_KEYS,), "plan": (PLAN_KEYS,),
           "verify": (VERIFY_KEYS,), "actuate": (ACTUATE_KEYS,),
           "cordon": (CORDON_KEYS,), "uncordon": (CORDON_KEYS,),
           "dispatch": (DISPATCH_KEYS,), "park": (PARK_KEYS,),
           "probe": (ROUTE_KEYS,), "drain": (ROUTE_KEYS,),
           "part-complete": (COMPLETE_KEYS,),
           "hedge-start": (HEDGE_START_KEYS,),
           "hedge-resolved": (HEDGE_RESOLVED_KEYS,),
           "corrupt-detected": (CORRUPT_KEYS,),
           "quarantine": (QUARANTINE_KEYS,), "abort": (ABORT_KEYS,),
           "lock-lost": (LOST_KEYS,)}
#: The FaaS substrate's records the checker reads too; their handlers
#: read no value, and ``simcloud/faas.py`` keeps their schemas.
SUBSTRATE_READS = ("chaos-corrupt", "dead-letter")


def task_id(rule_id: str, key: str, seq: int, kind: str) -> str:
    """The id of one replication task.  Deterministic per object
    version: a platform-retried orchestrator re-enters its own lock and
    resumes its own pool instead of deadlocking against its crashed
    predecessor."""
    return f"{rule_id}:{key}:{seq}:{kind}"


@dataclass(frozen=True, slots=True)
class TaskResult:
    """Summary of one completed replication task."""

    key: str
    etag: str
    seq: int
    event_time: float
    visible_time: float
    plan: Optional[Plan]
    kind: str = "created"          # "created" | "deleted" | "changelog"
    #: When the orchestrator began executing the plan (i.e. after the
    #: notification and planning) — the reference point the performance
    #: model's T_rep prediction is measured from.
    started: float = 0.0

    @property
    def delay(self) -> float:
        return self.visible_time - self.event_time


class TaskRecorder(Protocol):
    """Callbacks the engine uses to report task outcomes."""

    def record_visible(self, result: TaskResult) -> None: ...

    def record_abort(self, key: str, etag: str) -> None: ...
