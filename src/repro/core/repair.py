"""Anti-entropy repair — the last line of defense behind at-least-once.

Every recovery mechanism upstream of this module assumes the *event*
survived somewhere: the notification bus redelivers drops, platforms
retry crashes into dead-letter queues, the engine parks no-route tasks
in a durable backlog.  An event lost beyond all of that (operator
deleted a DLQ entry, a backlog mirror write raced a KV outage and the
process died) would leave the destination silently diverged forever.

The :class:`AntiEntropyScanner` closes that hole the way production
replicators do (DynamoDB global tables, Cassandra repair): it reads the
auditor's listing diff (:func:`repro.core.audit.diff`) and re-drives the
differences as synthetic events through the normal orchestration path —
so repairs take locks, respect done markers, and are idempotent just
like live traffic.  Four divergence kinds are detected:

* **missing** — a source object absent at the destination;
* **stale** — present but byte-different (ETag mismatch);
* **lingering** — a destination object whose source was deleted;
* **corrupt** — (deep scrub only) the destination *reports* the right
  ETag but its stored bytes differ from the source: silent bit rot that
  lies to HEAD and therefore to the shallow diff above.  Scrub re-reads
  every ETag-matching destination object byte-for-byte, re-reading once
  on anomaly so a transient medium fault (injected read rot) is not
  escalated to a repair.

Re-driven deletes are stamped with the source's current top sequencer,
so a repaired marker can never exceed anything the source issued (the
auditor's done-drift invariant holds across repairs).

Anti-entropy is not free, and the cost model says so: every scan
charges its LIST pages and per-finding done-marker reads to the
ledger, and deep scrub additionally pays the GET request plus egress
for each destination object it re-reads — so cost reports reflect the
repair overhead instead of pretending background verification rides
for free.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.core.audit import DETAIL, Finding, Findings, diff
from repro.core.service import AReplicaService, ReplicationRule
from repro.simcloud.cost import CostCategory

__all__ = ["RepairReport", "AntiEntropyScanner"]

#: Keys returned per metered LIST page (the S3/GCS/Azure page size).
_LIST_PAGE = 1000


@dataclass
class RepairReport(Findings):
    """Outcome of one anti-entropy scan; kinds are missing, stale,
    lingering and corrupt."""

    rule_id: str
    #: Source + destination keys examined.
    scanned: int = 0
    findings: list[Finding] = field(default_factory=list)
    #: Synthetic events dispatched to heal the findings (0 when the
    #: scan ran in detect-only mode).
    redriven: int = 0
    #: Destination objects byte-verified by deep scrub.
    scrubbed: int = 0
    #: Scrub anomalies that vanished on re-read (transient medium
    #: faults, not durable rot) — observed, but not repair findings.
    transient_anomalies: int = 0
    #: Abandoned destination multipart uploads aborted by the scan
    #: (the lifecycle-rule cleanup; 0 unless ``reap_uploads=True``).
    aborted_uploads: int = 0

    def to_dict(self) -> dict:
        return {
            "rule_id": self.rule_id,
            "scanned": self.scanned,
            "missing": len(self.by_kind("missing")),
            "stale": len(self.by_kind("stale")),
            "lingering": len(self.by_kind("lingering")),
            "corrupt": len(self.by_kind("corrupt")),
            "scrubbed": self.scrubbed,
            "transient_anomalies": self.transient_anomalies,
            "aborted_uploads": self.aborted_uploads,
            "redriven": self.redriven,
            "clean": self.clean,
        }

    def render(self) -> str:
        if self.clean:
            scrub = (f", {self.scrubbed} scrubbed" if self.scrubbed else "")
            reaped = (f", {self.aborted_uploads} upload(s) reaped"
                      if self.aborted_uploads else "")
            return (f"repair scan {self.rule_id}: clean "
                    f"({self.scanned} key(s) examined{scrub}{reaped})")
        lines = [f"repair scan {self.rule_id}: {len(self.findings)} "
                 f"divergence(s), {self.redriven} re-driven"]
        lines += [f"  {f}" for f in self.findings]
        return "\n".join(lines)


class AntiEntropyScanner:
    """Diff a rule's buckets and re-drive the differences."""

    def __init__(self, service: AReplicaService):
        self.service = service

    def scan(self, rule: Optional[ReplicationRule] = None,
             redrive: bool = True, scrub: bool = False,
             reap_uploads: bool = False) -> RepairReport:
        """Scan ``rule`` (or every rule) and return a :class:`RepairReport`.

        With ``redrive=True`` each finding is handed back to the
        engine as a synthetic event (parked like live traffic if the
        route is still down); run the simulation afterwards to let the
        repairs complete.  The scan itself consumes no simulated time —
        it is the operator-side listing pass, not a workload — but its
        metered operations (LIST pages, done-marker reads, and scrub
        GETs/egress) are charged to the ledger.

        With ``scrub=True`` every destination object whose reported
        ETag matches the source is additionally re-read byte-for-byte:
        the deep pass that catches silent bit rot hiding behind a
        truthful-looking HEAD (finding kind ``corrupt``).

        With ``reap_uploads=True`` every destination multipart upload
        still pending at scan time is aborted — the lifecycle-rule
        cleanup for uploads abandoned by crashed tasks.  Only safe when
        the system is quiescent (an in-flight task's live upload is
        indistinguishable from an abandoned one), so it is opt-in.
        """
        rules = [rule] if rule is not None else list(self.service.rules.values())
        report = RepairReport("+".join(r.rule_id for r in rules))
        for r in rules:
            self._scan_rule(r, report, redrive, scrub)
            if reap_uploads:
                self._reap_uploads(r, report)
        return report

    def _reap_uploads(self, rule: ReplicationRule, report: RepairReport) -> None:
        """Abort abandoned destination uploads (metered, like LIST)."""
        cloud = self.service.cloud
        dst = rule.dst_bucket
        price = cloud.prices.store[dst.region.provider]
        for upload_id in dst.pending_uploads():
            dst.abort_multipart(upload_id)
            cloud.ledger.charge(CostCategory.STORAGE_REQUESTS, price.put)
            report.aborted_uploads += 1

    # -- metered-operation charging ----------------------------------------

    def _charge_list(self, bucket, num_keys: int) -> None:
        cloud = self.service.cloud
        pages = max(1, -(-num_keys // _LIST_PAGE))
        price = cloud.prices.store[bucket.region.provider]
        # LIST bills at the PUT/mutating request tier on all three clouds.
        cloud.ledger.charge(CostCategory.STORAGE_REQUESTS, pages * price.put)

    def _charge_marker_read(self, rule: ReplicationRule) -> None:
        cloud = self.service.cloud
        price = cloud.prices.kv[rule.dst_bucket.region.provider]
        cloud.ledger.charge(CostCategory.KV_OPS, price.read)

    def _scrub_read(self, rule: ReplicationRule, key: str):
        """One metered byte-level read of a destination object."""
        cloud = self.service.cloud
        dst = rule.dst_bucket
        price = cloud.prices.store[dst.region.provider]
        payload, obj = dst.get_object(key)
        cloud.ledger.charge(CostCategory.STORAGE_REQUESTS, price.get)
        cloud.ledger.charge(
            CostCategory.EGRESS,
            cloud.prices.egress_cost(dst.region, rule.src_bucket.region,
                                     payload.size))
        return payload, obj

    def _scrub_key(self, rule: ReplicationRule, key: str,
                   report: RepairReport) -> bool:
        """Byte-verify one ETag-matching destination object.

        Reads pass through the bucket's chaos layer, so a transient
        medium fault can surface here too; one verifying re-read keeps
        those from being escalated to (harmless but costly) repairs.
        True only when the anomaly persists: the object is corrupt.
        """
        current = rule.src_bucket.head(key)
        report.scrubbed += 1
        for attempt in range(2):
            payload, dst_obj = self._scrub_read(rule, key)
            if (payload.size == current.size
                    and payload.segments == current.blob.segments
                    and dst_obj.etag == current.etag):
                if attempt:
                    report.transient_anomalies += 1
                return False
        return True

    # -- the diff itself ----------------------------------------------------

    def _scan_rule(self, rule: ReplicationRule, report: RepairReport,
                   redrive: bool, scrub: bool) -> None:
        src, dst = rule.src_bucket, rule.dst_bucket
        now = self.service.cloud.now
        engine = rule.engine
        self._charge_list(src, len(src.keys()))
        self._charge_list(dst, len(dst.keys()))
        for kind, key in diff(rule):
            report.scanned += 1
            if kind == "same":
                if not (scrub and self._scrub_key(rule, key, report)):
                    continue
                kind = "corrupt"
            self._charge_marker_read(rule)
            report.findings.append(Finding(kind, key, DETAIL[kind]))
            if not redrive:
                continue
            if kind == "lingering":
                # The source's top sequencer bounds the repaired done
                # marker (the auditor's done-drift invariant); ordering
                # is safe because the key verifiably no longer exists.
                engine.redrive_event({
                    "kind": "deleted", "key": key,
                    "etag": dst.head(key).etag,
                    "seq": src.last_sequencer, "size": 0,
                    "event_time": now,
                })
            else:
                # The "repair" flag bypasses the engine's done-marker
                # short-circuit: the marker is exactly what masks this
                # divergence (the version *was* replicated once).
                current = src.head(key)
                engine.redrive_event({
                    "kind": "created", "key": key, "etag": current.etag,
                    "seq": current.sequencer, "size": current.size,
                    "event_time": now, "repair": True,
                })
            report.redriven += 1
