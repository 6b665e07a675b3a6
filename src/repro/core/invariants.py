"""Trace-invariant oracle — ``fsck`` for a causal trace.

Where the :class:`~repro.core.audit.ReplicationAuditor` inspects the
*end state* of a rule (buckets, lock tables, measurements), the
:class:`TraceChecker` validates the *execution itself*, from the spans
and events a :class:`~repro.core.tracing.Tracer` emits.  The tracer
feeds each record, as it is emitted, into one index — the lock holder
per (lock domain, key), each task's lifecycle facts, the cordon windows
per (substrate, region) — and every invariant reads that index, so the
check needs no kept records.  What a legal task lifecycle is comes
from the vocabulary in :mod:`repro.core.task`;
docs/observability.md lists every finding kind and the invariant
behind it.

A clean report turns every chaos/outage scenario into a *checked
execution*: the oracle is the property, not a per-scenario assert.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Optional

from repro.core.audit import Finding, Findings
from repro.core.task import (ACQUIRE_MODES, LIFECYCLE, SCHEMAS,
                             SUBSTRATE_READS, WRITING_KINDS)
from repro.core.tracing import _EPS, Tracer

__all__ = ["TraceReport", "TraceChecker"]

#: The checks, in the order a report lists their findings.
_CHECKS = ("clock", "event-clock", "locks", "lifecycle", "backlog", "done",
           "integrity", "costs", "hedges", "switchover", "cordons", "tenants",
           "autopilot")

#: ``lock-order`` details per acquire mode: (wrong holder, wrong fence).
_BAD_ACQUIRE = {
    "fresh": ("fresh acquire by {owner!r} while {held[0]!r} holds fence "
              "{held[1]}", "fresh acquire with fence {fence} != 1"),
    "reentrant": ("re-entrant acquire by {owner!r} fence {fence} but "
                  "holder is {held!r}",) * 2,
    "takeover": ("takeover by {owner!r} of an unheld lock",
                 "takeover fence {fence} does not supersede {held[1]}"),
}


def _lock_domain(owner: str) -> str:
    """The lock table a task's locks live in.  Lock tables are per rule
    (areplica-state-{rule_id}), and task-id owners
    ({rule}:{key}:{seq}:{kind}) carry the rule as their prefix; opaque
    owners (synthetic traces, tooling) share one anonymous domain."""
    return owner.split(":", 1)[0] if ":" in owner else ""


def _subject(ref: tuple) -> str:     # how a finding names a lock
    return f"{ref[0]}/{ref[1]}" if ref[0] else ref[1]


def _add(facts: dict, task, row) -> None:
    """Hold ``row`` under ``task``: alone, or in a list from the second."""
    rows = facts.get(task)
    if rows is None:
        facts[task] = row
    elif type(rows) is list:
        rows.append(row)
    else:
        facts[task] = [rows, row]


def _rows(facts: dict, task) -> list:
    """The rows :func:`_add` held under ``task``, oldest first."""
    rows = facts.get(task)
    return rows if type(rows) is list else [] if rows is None else [rows]


@dataclass
class TraceReport(Findings):
    """All findings from one checker pass; docs/observability.md lists
    the kinds.  A finding's key is a task id, object key or backlog id."""

    findings: list[Finding] = field(default_factory=list)
    #: How much work the pass validated (for "did it even look" asserts).
    checked: dict[str, int] = field(default_factory=dict)

    def render(self) -> str:
        head = (f"trace: {len(self.findings)} finding(s), "
                + ", ".join(f"{k}={v}" for k, v in sorted(self.checked.items())))
        if self.clean:
            return f"trace: clean ({head.split(', ', 1)[-1]})"
        return "\n".join([head] + [f"  {f}" for f in self.findings])


class _Index:
    """The facts the invariants read, fed one record at a time by the
    tracer as it emits it.

    A check that needs only what came before a record — clock order,
    the lock state machine, drains, hedge resolutions — flags as the
    record is fed; the others, tenant claims included, read the facts
    when a report is asked for.  Findings collect per check, in feeding
    order.  Each record name in ``task.SCHEMAS`` has one handler,
    ``handler(task, t, values)``, that reads ``values`` by position in
    the name's schema (``t`` is a span's end; a tenant scope's value
    comes after the schema's), and so has each ``SUBSTRATE_READS`` name,
    reading none.  The tracer calls it for every such record, built or
    not, and records any tenant claim itself.
    """

    def __init__(self):
        self.found: dict[str, list[Finding]] = defaultdict(list)
        self.n_spans = self.n_events = self.detections = 0
        self.last_span = self.last_event = -math.inf
        # Each task id to the first object seen for it, in order of first
        # appearance; every per-task fact is keyed by that one object.
        self.tasks: dict[Optional[str], Optional[str]] = {}
        self.lock_acquires = self.visibles = self.verified = 0
        self.integrity = {"injected": 0, "detected": 0, "quarantined": 0,
                          "verify_ok": 0, "verify_failed": 0}
        # Per (lock domain, key): the holder as (owner, fence), and the
        # fences above 1 issued, as (time, fence) — only those can
        # supersede a valid fence.
        self.holders: dict[tuple, tuple] = {}
        self.high_fences: dict[tuple, list] = {}
        # Per task: acquire times, first plan end, finalizes as (time,
        # fence, key, op, verified, loc), last corruption detected,
        # handed to recovery.  Acquires and finalizes are held by _add.
        self.acquires: dict[str, object] = {}
        self.plan_end: dict[str, float] = {}
        self.finalizes: dict[str, object] = {}
        self.last_corrupt: dict[str, float] = {}
        self.surfaced: set[str] = set()
        # Tenant-tagged records as (name, subjects, tenant), per kind.
        self.span_claims, self.event_claims = [], []
        # Per (substrate, region): cordon windows as [start, end].
        self.windows: dict[tuple, list[list[float]]] = {}
        self.writes: list = []        # destination writes: (task, time, kind)
        # What an open cordon may forbid: (name, task, time, region).
        self.admissions: list = []
        # Autopilot actuations: (time, knob, old, new, lo, hi, cooldown).
        self.actuations: list = []
        self.parked: dict[tuple, str] = {}
        self.drained: set = set()
        self.done: dict[tuple, tuple] = {}    # (rule, key): (seq, etag, op)
        self.hedges: dict[tuple, float] = {}
        self.resolved: dict[tuple, int] = {}
        self.first_writers: dict[tuple, int] = {}
        #: ``task.SCHEMAS`` or ``SUBSTRATE_READS`` name -> its handler.
        self.readers = {name: getattr(self, name.replace("-", "_"))
                        for name in (*SCHEMAS, *SUBSTRATE_READS)}

    def flag(self, check: str, kind: str, key: str, detail: str) -> None:
        self.found[check].append(Finding(kind, key, detail))

    def claim(self, claims: list, name: str, task, keys: tuple,
              values: tuple) -> None:
        """Hold a tenant-tagged record's claim for ``_tenants``."""
        tenant = values[keys.index("tenant")]
        if tenant is None:
            return
        subjects = (task,) if task is not None else ()
        if "owner" in keys:
            owner = values[keys.index("owner")]
            if isinstance(owner, str) and ":" in owner:
                subjects += (owner,)
        claims.append((name, subjects, tenant))

    # -- the handlers, one per name in SCHEMAS and SUBSTRATE_READS ----------

    def plan(self, task, end, values) -> None:
        if task is not None:
            self.plan_end.setdefault(task, end)

    def verify(self, task, end, values) -> None:
        self.integrity["verify_ok" if values[3] else "verify_failed"] += 1

    def lock_acquire(self, task, t, values) -> None:
        key, owner, fence, mode = values[:4]
        owner = task if owner == task else owner     # one id object
        ref = (_lock_domain(owner), key)
        held = self.holders.get(ref)
        self.lock_acquires += 1
        _add(self.acquires, owner, t)
        if isinstance(fence, int) and fence > 1:
            self.high_fences.setdefault(ref, []).append((t, fence))
        if mode in ACQUIRE_MODES:
            holder, step = ACQUIRE_MODES[mode]
            base, bad = held[1] if held else 0, None
            if (held is None) != (holder is None) or \
                    holder == "self" and held[0] != owner:
                bad = _BAD_ACQUIRE[mode][0]
            elif not isinstance(base, int) or fence != base + step:
                bad = _BAD_ACQUIRE[mode][1]
            if bad:
                self.flag("locks", "lock-order", _subject(ref), bad.format(
                    owner=owner, held=held, fence=fence))
        self.holders[ref] = (owner, fence)

    def lock_release(self, task, t, values) -> None:
        key, owner, released = values[:3]
        owner = task if owner == task else owner     # one id object
        ref = (_lock_domain(owner), key)
        held = self.holders.get(ref)
        if released:
            if held is None or held[0] != owner:
                self.flag("locks", "lock-order", _subject(ref),
                          f"{owner!r} released a lock held by "
                          f"{held and held[0]!r}")
            self.holders.pop(ref, None)
        elif held is not None and held[0] == owner:
            self.flag("locks", "lock-order", _subject(ref),
                      f"holder {owner!r} failed to release its own lock")

    def finalize(self, task, t, values) -> None:
        key, _, _, fence, op, loc = values[:6]
        # Only a put carries a verdict: a tenant-scoped delete's seventh
        # value is its tenant.
        verified = values[6] if op == "put" else None
        if op == "put" and verified:
            self.verified += 1
        elif op == "put":
            self.flag("integrity", "unverified-finalize", task or "?",
                      f"put finalize at t={t:.3f} without a "
                      f"destination verification verdict")
        if task is not None:
            _add(self.finalizes, task, (t, fence, key, op, verified, loc))

    def visible(self, task, t, values) -> None:
        self.visibles += 1
        kind = values[2]
        if task is not None and kind in WRITING_KINDS:
            self.writes.append((task, t, kind))

    def done_marker(self, task, t, values) -> None:
        rule, key, seq, etag, op = values[:5]
        cur = self.done.get((rule, key))
        if cur is None or seq >= cur[0]:
            self.done[(rule, key)] = (seq, etag, op)

    def actuate(self, task, end, values) -> None:
        # An actuation is an instant: its span opens where it closes.
        self.actuations.append((end, *values[:6]))

    def cordon(self, task, t, values) -> None:
        self.windows.setdefault(values[1:3], []).append([t, math.inf])

    def uncordon(self, task, t, values) -> None:
        windows = self.windows.get(values[1:3])
        if windows and windows[-1][1] == math.inf:
            windows[-1][1] = t

    def _admit(self, name: str, task, t, region) -> None:
        """Hold an admission only if a cordon window seen so far (opened
        earlier) contains it."""
        if self.windows and any(
                start + _EPS < t < end - _EPS for start, end in
                self.windows.get(("faas", region), ())):
            self.admissions.append((name, task, t, region))

    def dispatch(self, task, t, values) -> None:
        self._admit("dispatch", task, t, values[1])

    def probe(self, task, t, values) -> None:
        self._admit("probe", task, t, values[2])

    def drain(self, task, t, values) -> None:
        ref = values[:2]
        if ref in self.drained:
            self.flag("backlog", "park-leak", str(ref[1]),
                      "backlog entry drained twice")
        if ref not in self.parked:
            self.flag("backlog", "park-leak", str(ref[1]),
                      "drain of a backlog entry never parked")
        self.drained.add(ref)
        self._admit("drain", task, t, values[2])

    def part_complete(self, task, t, values) -> None:
        if values[1] and task is not None:
            ref = (task, values[0])
            self.first_writers[ref] = self.first_writers.get(ref, 0) + 1

    def hedge_start(self, task, t, values) -> None:
        self.hedges[(task, *values[1:3])] = t

    def hedge_resolved(self, task, t, values) -> None:
        ref = (task, *values[1:3])
        self.resolved[ref] = self.resolved.get(ref, 0) + 1
        outcome = values[3]
        if outcome not in ("won", "lost", "cancelled"):
            self.flag("hedges", "hedge-outcome", str(task),
                      f"hedge of part {ref[1]} seq {ref[2]} resolved "
                      f"with invalid outcome {outcome!r}")
        if ref not in self.hedges:
            self.flag("hedges", "hedge-unresolved", str(task),
                      f"hedge of part {ref[1]} seq {ref[2]} resolved "
                      f"but never started")

    def chaos_corrupt(self, task, t, values) -> None:
        self.integrity["injected"] += 1

    def corrupt_detected(self, task, t, values) -> None:
        self.integrity["detected"] += 1
        if task is not None:
            self.detections += 1
            self.last_corrupt[task] = max(
                self.last_corrupt.get(task, -math.inf), t)

    # The recovery facts (``task.RECOVERY_FACTS``) hand a task to recovery.

    def _surface(self, task, t, values) -> None:
        if task is not None:
            self.surfaced.add(task)

    abort = retrigger = lock_lost = dead_letter = _surface

    def quarantine(self, task, t, values) -> None:
        self.integrity["quarantined"] += 1
        self._surface(task, t, values)

    def park(self, task, t, values) -> None:
        self.parked[values[:2]] = values[2]
        self._surface(task, t, values)


class TraceChecker:
    """Validates lifecycle invariants over the records a tracer has
    emitted.

    Built on a service so the done-marker check can compare against the
    live destination buckets and the tenant check against its rule
    registry; the trace itself defaults to the service's installed
    tracer.
    """

    def __init__(self, service, tracer: Optional[Tracer] = None):
        self.service = service
        self.tracer = tracer if tracer is not None else service.tracer
        if self.tracer is None:
            raise ValueError("service has no tracer installed "
                             "(ReplicaConfig.tracing_enabled)")

    def check(self) -> TraceReport:
        """Report on every record emitted so far.  It changes nothing,
        so it may run at any point of a run, and twice."""
        ix = self.tracer.index
        found = defaultdict(list, {k: list(v) for k, v in ix.found.items()})

        def flag(check: str, kind: str, key: str, detail: str) -> None:
            found[check].append(Finding(kind, key, detail))

        checked = {"spans": ix.n_spans, "events": ix.n_events,
                   "lock_acquires": ix.lock_acquires}
        for check in (self._lifecycle, self._backlog, self._done_markers,
                      self._integrity, self._costs, self._hedges,
                      self._switchover, self._cordons, self._autopilot,
                      self._tenants):
            check(ix, checked, flag)
        return TraceReport([f for name in _CHECKS for f in found[name]],
                           checked)

    # -- fenced finalize before visible, in lifecycle order -----------------

    def _lifecycle(self, ix: _Index, checked: dict, flag) -> None:
        checked["visibles"] = ix.visibles
        for task, t, kind in ix.writes:
            # A finalize recorded after the visible at the same instant
            # still counts.
            fin = next((f for f in reversed(_rows(ix.finalizes, task))
                        if f[0] <= t + _EPS), None)
            if fin is None:
                flag("lifecycle", "unfenced-visible", task,
                     f"{kind} visible at t={t:.3f} with no prior "
                     f"finalize")
                continue
            t_fin, fence, key = fin[:3]
            if not isinstance(fence, int) or fence < 1:
                flag("lifecycle", "unfenced-visible", task,
                     f"finalize carries invalid fence {fence!r}")
                continue
            # The zombie-writer interleaving: someone acquired this key,
            # in this task's lock domain, with a higher token before our
            # finalize ran.  The scan is bounded below by our own first
            # acquire: fences restart at 1 whenever a release deletes
            # the lock record, so an earlier *generation's* takeover
            # token says nothing about ours.
            acquired = _rows(ix.acquires, task)
            first = acquired[0] if acquired else -math.inf
            for at, f2 in ix.high_fences.get((_lock_domain(task), key), ()):
                if f2 > fence and first - _EPS <= at < t_fin - _EPS:
                    flag("lifecycle", "superseded-fence", task,
                         f"finalize with fence {fence} at "
                         f"t={t_fin:.3f} after fence {f2} was issued "
                         f"at t={at:.3f}")
                    break
            # The facts LIFECYCLE orders before the finalize, each at
            # its first time.
            for fact, at in zip(LIFECYCLE, (
                    first, ix.plan_end.get(task, -math.inf))):
                if at > t_fin + _EPS:
                    flag("lifecycle", "lifecycle", task,
                         f"finalize precedes the task's "
                         f"{LIFECYCLE[fact]}")

    def _backlog(self, ix: _Index, checked: dict, flag) -> None:
        checked["parked"] = len(ix.parked)
        for ref, key in sorted(ix.parked.items(), key=lambda kv: str(kv[0])):
            if ref not in ix.drained:
                flag("backlog", "park-leak", str(ref[1]),
                     f"task for key {key!r} parked but never drained")

    def _done_markers(self, ix: _Index, checked: dict, flag) -> None:
        """The newest done marker per key agrees with the destination."""
        checked["done_markers"] = len(ix.done)
        for (rule_id, key), (seq, etag, op) in ix.done.items():
            rule = self.service.rules.get(rule_id)
            if rule is None:
                continue
            dst = rule.dst_bucket
            if op == "delete":
                if key in dst:
                    flag("done", "done-mismatch", key,
                         f"marker records deletion (seq {seq}) but key "
                         f"survives at destination")
            elif key not in dst:
                flag("done", "done-mismatch", key,
                     f"marker seq {seq} but key missing at destination")
            elif dst.head(key).etag != etag:
                flag("done", "done-mismatch", key,
                     f"marker etag {etag} != destination etag "
                     f"{dst.head(key).etag}")

    def _integrity(self, ix: _Index, checked: dict, flag) -> None:
        """No corruption goes silent: each detection is resolved by a
        later finalize of the task that leaves nothing unverified (a
        verified put, or a delete) or by a recovery fact
        (``task.RECOVERY_FACTS``)."""
        checked["verified_finalizes"] = ix.verified
        checked["corruption_detections"] = ix.detections
        for task in sorted(ix.last_corrupt):
            t_corrupt = ix.last_corrupt[task]
            t_fin = next((f[0] for f in reversed(_rows(ix.finalizes, task))
                          if f[3] != "put" or f[4]), -math.inf)
            if t_fin < t_corrupt - _EPS and task not in ix.surfaced:
                flag("integrity", "silent-corruption", task,
                     f"corruption detected at t={t_corrupt:.3f} was "
                     f"neither re-verified by a later finalize nor "
                     f"surfaced")

    def _costs(self, ix: _Index, checked: dict, flag) -> None:
        tr = self.tracer
        recorded, billed = tr.recorded_cost(), tr.billed_delta()
        checked["cost_records"] = tr.cost_count()
        if not math.isclose(recorded, billed, rel_tol=1e-9, abs_tol=1e-9):
            flag("costs", "cost-gap", "ledger",
                 f"trace mirrors ${recorded:.9f} but the ledger grew "
                 f"${billed:.9f} since install")
        for task in sorted(task for task in tr.attributed_cost()
                           if task is not None and task not in ix.tasks):
            flag("costs", "cost-orphan", task,
                 "charge attributed to a task the trace never saw")

    def _hedges(self, ix: _Index, checked: dict, flag) -> None:
        """Every hedge resolves exactly once; no part admits two first
        writers to its done-set (the double-finalize hazard)."""
        checked["hedges"] = len(ix.hedges)
        for ref, t in sorted(ix.hedges.items(), key=lambda kv: str(kv[0])):
            n = ix.resolved.get(ref, 0)
            if n == 0:
                flag("hedges", "hedge-unresolved", str(ref[0]),
                     f"hedge of part {ref[1]} seq {ref[2]} fired at "
                     f"t={t:.3f} but never resolved")
            elif n > 1:
                flag("hedges", "hedge-double-resolve", str(ref[0]),
                     f"hedge of part {ref[1]} seq {ref[2]} resolved "
                     f"{n} times")
        for (task, idx), n in sorted(ix.first_writers.items(),
                                     key=lambda kv: str(kv[0])):
            if n > 1:
                flag("hedges", "double-finalize", str(task),
                     f"part {idx} admitted {n} first writers to the "
                     f"done-set")

    def _switchover(self, ix: _Index, checked: dict, flag) -> None:
        """One orchestrator location finalizes per task epoch.

        An epoch is (the task's last own acquire at or before the
        finalize, fence): fences restart at 1 whenever a release
        deletes the lock record, so the acquire time names the lock
        generation.  Same-location duplicates (a platform-retried
        finalizer) are benign.
        """
        epochs, split = 0, []
        for task in ix.finalizes:
            acquired = _rows(ix.acquires, task)
            locs: dict[tuple, set] = {}
            for t, fence, _, _, _, loc in _rows(ix.finalizes, task):
                if loc is not None:
                    gen = max((at for at in acquired if at <= t + _EPS),
                              default=-math.inf)
                    locs.setdefault((task, gen, fence), set()).add(loc)
            epochs += len(locs)
            split += [kv for kv in locs.items() if len(kv[1]) > 1]
        checked["finalize_epochs"] = epochs
        for (task, gen, fence), locs in sorted(split,
                                               key=lambda kv: str(kv[0])):
            flag("switchover", "switchover-discipline", str(task),
                 f"epoch (acquire t={gen:.3f}, fence {fence}) was "
                 f"finalized from {len(locs)} locations: {sorted(locs)}")

    def _cordons(self, ix: _Index, checked: dict, flag) -> None:
        """No admission into a FaaS region strictly inside one of its
        cordon windows (the uncordon instant itself re-admits)."""
        faas = {region: w for (substrate, region), w in ix.windows.items()
                if substrate == "faas"}
        checked["cordon_windows"] = sum(len(w) for w in faas.values())
        for name, task, t, region in ix.admissions:
            for start, end in faas.get(region, ()):
                if start + _EPS < t < end - _EPS:
                    flag("cordons", "cordon-violation", task or "?",
                         f"{name} admitted into cordoned faas region "
                         f"{region!r} at t={t:.3f} (window "
                         f"[{start:.3f}, {end:.3f}))")
                    break

    def _autopilot(self, ix: _Index, checked: dict, flag) -> None:
        """Actuations stay inside their declared ``[lo, hi]``, respect
        the cooldown per knob, and never land strictly inside a cordon
        window of any substrate."""
        acts = ix.actuations
        checked["autopilot_actuations"] = len(acts)
        last_by_knob: dict[str, float] = {}
        for t, knob, old, new, lo, hi, cooldown in acts:
            for label, value in (("old", old), ("new", new)):
                if value is None or lo is None or hi is None or \
                        lo - _EPS <= value <= hi + _EPS:
                    continue
                flag("autopilot", "autopilot-bounds", knob,
                     f"actuation at t={t:.3f} has {label} value "
                     f"{value!r} outside declared [{lo}, {hi}]")
            prev = last_by_knob.get(knob)
            if prev is not None and t - prev < cooldown - _EPS:
                flag("autopilot", "autopilot-cooldown", knob,
                     f"actuations at t={prev:.3f} and t={t:.3f} "
                     f"violate the {cooldown:g}s cooldown")
            last_by_knob[knob] = t
        for t, knob, *_ in acts:
            for ref, windows in ix.windows.items():
                hit = next((w for w in windows
                            if w[0] + _EPS < t < w[1] - _EPS), None)
                if hit is not None:
                    flag("autopilot", "autopilot-cordon", knob,
                         f"actuation at t={t:.3f} inside cordon "
                         f"window [{hit[0]:.3f}, {hit[1]:.3f}) on "
                         f"{ref[1]!r}")
                    break

    def _tenants(self, ix: _Index, checked: dict, flag) -> None:
        """Tenant-tagged records agree with the rule registry (as it
        stands now) about who owns the task, and no task has two owners."""
        svc, tenant_of = self.service, {}
        rule_owner = {rid: getattr(rule, "tenant", None)
                      for rid, rule in svc.rules.items()}
        tenant_ids = set(getattr(svc, "tenants", ()) or ())
        claims = ix.span_claims + ix.event_claims
        checked["tenant_records"] = len(claims)
        for name, subjects, tenant in claims:
            for task in subjects:
                # A rule id (engine records) or a bare tenant id (the
                # admission router's records) owns the task id.
                prefix = task.split(":", 1)[0]
                expected = rule_owner.get(prefix, prefix if prefix in
                                          tenant_ids else None)
                if expected is not None and expected != tenant:
                    flag("tenants", "tenant-isolation", task,
                         f"record {name!r} tagged tenant {tenant!r} but "
                         f"the registry owns the task's rule under "
                         f"{expected!r}")
                prev = tenant_of.setdefault(task, tenant)
                if prev != tenant:
                    flag("tenants", "tenant-isolation", task,
                         f"task claimed by two tenants: {prev!r} and "
                         f"{tenant!r}")
