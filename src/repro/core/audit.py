"""Replication consistency auditor — ``fsck`` for a rule.

After (or during) a workload, the auditor walks a rule's buckets and
control state and reports every violated invariant:

* **divergence** — a source object missing or byte-different at the
  destination, or a destination object surviving its source's deletion;
* **silent-divergence** — the destination *reports* the source's ETag
  but its stored bytes differ (bit rot lying to HEAD): the corruption
  an ETag-only diff cannot see, checked here against the stores' true
  content hashes;
* **stale locks** — replication locks still held past their lease
  (a dead task nobody superseded yet);
* **done-marker drift** — a done marker recording a sequencer above
  anything the source ever issued (bookkeeping corruption);
* **upload leaks** — multipart uploads on the destination bucket that
  were neither completed nor aborted (real money on real clouds);
* **measurement gaps** — source writes with no resolved measurement.

The first two read :func:`diff`, the end-state diff the anti-entropy
scanner reads too.  A healthy, quiescent rule audits clean; the test
suite asserts this after every adversarial workload, and operators
would run it after an incident before trusting a replica for fail-over.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional

from repro.core.service import AReplicaService, ReplicationRule

__all__ = ["DETAIL", "Finding", "Findings", "AuditReport",
           "ReplicationAuditor", "diff"]

#: How each end-state difference reads, for the auditor and the scanner
#: alike (``corrupt`` is the one :func:`diff` cannot see by itself).
DETAIL = {"missing": "missing at destination",
          "stale": "destination content differs",
          "lingering": "lingers at destination after delete",
          "corrupt": "destination bytes differ behind a matching reported ETag"}


def diff(rule: ReplicationRule) -> Iterator[tuple[str, str]]:
    """What ``rule``'s destination must hold — the source's current
    listing — against what it does, by reported ETag.

    Yields ``(kind, key)``: per source key, in listing order,
    ``missing``, ``stale`` or ``same``; then every destination key whose
    source is gone, ``lingering``.  Only cached metadata is read, so the
    diff costs nothing; callers meter what they do with it.
    """
    src, dst = rule.src_bucket, rule.dst_bucket
    for key in src.keys():
        etag = src.head(key).etag
        if key not in dst:
            yield "missing", key
        else:
            yield ("stale" if dst.head(key).etag != etag else "same"), key
    for key in dst.keys():
        if key not in src:
            yield "lingering", key


@dataclass(frozen=True)
class Finding:
    """One violated invariant, from any oracle: the auditor, the
    anti-entropy scanner or the trace checker."""

    kind: str
    key: str     # object key, lock key, upload id, task id or backlog id
    detail: str

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"[{self.kind}] {self.key}: {self.detail}"


class Findings:
    """What every oracle's report shares: a list of :class:`Finding`."""

    findings: list[Finding]

    @property
    def clean(self) -> bool:
        return not self.findings

    def by_kind(self, kind: str) -> list[Finding]:
        return [f for f in self.findings if f.kind == kind]


@dataclass
class AuditReport(Findings):
    """All findings for one rule; kinds are divergence,
    silent-divergence, stale-lock, leaked-lock, done-drift, upload-leak
    and gap."""

    rule_id: str
    findings: list[Finding] = field(default_factory=list)

    def render(self) -> str:
        if self.clean:
            return f"rule {self.rule_id}: clean"
        lines = [f"rule {self.rule_id}: {len(self.findings)} finding(s)"]
        lines += [f"  {f}" for f in self.findings]
        return "\n".join(lines)


class ReplicationAuditor:
    """Audits the rules of one service."""

    def __init__(self, service: AReplicaService):
        self.service = service

    def audit(self, rule: Optional[ReplicationRule] = None,
              quiescent: bool = False) -> AuditReport:
        """Audit ``rule`` (or all rules).

        With ``quiescent=True`` the workload is declared over: every
        surviving lock record is a leak (a correct engine releases all
        locks once traffic stops and retries drain), not just those past
        their lease — this is the convergence check the chaos harness
        runs after the fault storm.
        """
        rules = [rule] if rule is not None else list(self.service.rules.values())
        report = AuditReport("+".join(r.rule_id for r in rules))
        for r in rules:
            self._audit_rule(r, report, quiescent)
        return report

    # -- checks ------------------------------------------------------------

    def _audit_rule(self, rule: ReplicationRule, report: AuditReport,
                    quiescent: bool = False) -> None:
        src, dst = rule.src_bucket, rule.dst_bucket
        # 1. content divergence
        for kind, key in diff(rule):
            if kind != "same":
                report.findings.append(Finding("divergence", key, DETAIL[kind]))
            elif dst.head(key).blob.etag != src.head(key).blob.etag:
                # Reported ETags agree but the stored bytes do not:
                # exactly what deep scrub exists to catch.  Both sides
                # are cached hashes, so the check is free.
                report.findings.append(Finding(
                    "silent-divergence", key, DETAIL["corrupt"]))
        # 2. stale locks & 3. done-marker drift
        locks = rule.engine.locks
        max_seq = src.last_sequencer
        for key, owner, _, _, lease_left_s, held_s in locks.stranded():
            if quiescent:
                report.findings.append(Finding(
                    "leaked-lock", key,
                    f"survives quiescence, held {held_s:.0f}s by {owner!r}"))
            elif not lease_left_s:
                report.findings.append(Finding(
                    "stale-lock", key, f"held {held_s:.0f}s by {owner!r}"))
        for key, seq in locks.markers():
            if seq > max_seq:
                report.findings.append(Finding(
                    "done-drift", key,
                    f"marker seq {seq} exceeds source seq {max_seq}"))
        # 4. multipart upload leaks at the destination
        for upload_id in dst.pending_uploads():
            report.findings.append(Finding(
                "upload-leak", upload_id,
                "multipart upload never completed or aborted"))
        # 5. measurement gaps
        for key, waiting in rule.outstanding.items():
            for seq, event_time, kind in waiting:
                report.findings.append(Finding(
                    "gap", key,
                    f"{kind} seq {seq} from t={event_time:.1f} never measured"))
