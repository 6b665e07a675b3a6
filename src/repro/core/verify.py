"""The one convergence gate: did the service end up right?

Every drill asks the same question after its disturbance — did the
lock / part-pool / done-marker protocol leave the destination equal to
the source — and :func:`verify` is the one sequence that answers it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.core.audit import AuditReport, ReplicationAuditor
from repro.core.invariants import TraceChecker, TraceReport
from repro.core.repair import AntiEntropyScanner, RepairReport
from repro.core.service import AReplicaService, ConvergenceReport

__all__ = ["Verdict", "verify"]


@dataclass(frozen=True)
class Verdict:
    """Everything :func:`verify` observed, and whether it is all clean."""

    convergence: ConvergenceReport
    audit: AuditReport
    #: The scan that saw the disturbed state and re-drove its findings
    #: (None when ``repair=False``).
    first_scan: Optional[RepairReport]
    #: The last word on divergence: the detect-only rescan when the
    #: first scan re-drove anything, else the first scan itself.
    repair: Optional[RepairReport]
    #: None for a service built without ``tracing_enabled``.
    trace: Optional[TraceReport]
    #: Measurements still open (a source version nobody saw land).
    pending: int

    @property
    def clean(self) -> bool:
        return (self.convergence.converged and self.audit.clean
                and (self.repair is None or self.repair.clean)
                and (self.trace is None or self.trace.clean)
                and self.pending == 0)

    def to_dict(self) -> dict:
        out = {
            "convergence": self.convergence.to_dict(),
            "audit_clean": self.audit.clean,
            "pending_measurements": self.pending,
        }
        if self.repair is not None:
            out["repair"] = self.repair.to_dict()
        if self.trace is not None:
            out["trace_clean"] = self.trace.clean
            out["trace_checked"] = self.trace.checked
            out["trace_findings"] = [str(f) for f in self.trace.findings]
        return out

    def render(self) -> str:
        lines = ["dead-letter drain: " + self.convergence.render(),
                 f"quiescent audit ({self.pending} pending measurement(s)):",
                 self.audit.render()]
        if self.first_scan is not None and self.first_scan is not self.repair:
            lines.append(self.first_scan.render())
        if self.repair is not None:
            lines.append(self.repair.render())
        if self.trace is not None:
            lines.append(self.trace.render())
        return "\n".join(lines)


def verify(service: AReplicaService, *, repair: bool = False,
           scrub: bool = False, reap_uploads: bool = False,
           after_convergence: Optional[Callable[[], None]] = None) -> Verdict:
    """Drain ``service`` to quiescence and judge the outcome.

    ``repair`` adds an anti-entropy scan that re-drives whatever it
    finds; repairs flow through the normal orchestration path, so the
    gate then converges and audits again and proves the diff is gone
    with a detect-only rescan.  ``scrub`` makes both scans byte-level;
    ``reap_uploads`` lets the first one abort abandoned multipart
    uploads (safe only here, at quiescence).  ``after_convergence`` runs
    once between the first drain and the audit — the slot for a
    disturbance that must hit settled state, such as durable bit rot.

    Audits and the trace oracle are read-only, but every scan is
    metered, so the number and order of scans is part of the outcome.
    """
    convergence = service.run_to_convergence()
    if after_convergence is not None:
        after_convergence()
    auditor = ReplicationAuditor(service)
    audit = auditor.audit(quiescent=True)
    first_scan = final_scan = None
    if repair:
        scanner = AntiEntropyScanner(service)
        first_scan = final_scan = scanner.scan(
            redrive=True, scrub=scrub, reap_uploads=reap_uploads)
        if first_scan.redriven:
            convergence = service.run_to_convergence()
            audit = auditor.audit(quiescent=True)
            final_scan = scanner.scan(redrive=False, scrub=scrub)
    trace = (TraceChecker(service).check()
             if service.tracer is not None else None)
    return Verdict(convergence, audit, first_scan, final_scan, trace,
                   service.pending_count())
