"""Trace-invariant oracle — ``fsck`` for a finished causal trace.

Where the :class:`~repro.core.audit.ReplicationAuditor` inspects the
*end state* of a rule (buckets, lock tables, measurements), the
:class:`TraceChecker` validates the *execution itself*, offline, from
the spans and events a :class:`~repro.core.tracing.Tracer` recorded:

* **clock** — the recorder's times must be non-decreasing in record
  order and every span must close after it opens (the kernel never
  runs the clock backwards; a violation means an emission site used a
  stale timestamp);
* **lifecycle** — per task: lock acquisition precedes plan selection's
  outcome, which precedes the fenced finalize, which precedes the
  visibility report;
* **unfenced-visible** — every destination-mutating visibility
  (``created`` / ``changelog`` / ``deleted``) must be preceded by a
  finalize event carrying a valid fencing token;
* **superseded-fence** — no finalize may use a token that a later
  lock acquisition had already superseded *before* the finalize ran
  (the zombie-writer interleaving, §5.2);
* **lock-order** — per key, lock events must replay through a legal
  state machine: fresh acquisitions start at fence 1, re-entrant
  re-acquisitions keep their token, lease takeovers bump it by one,
  and only the current holder can successfully release;
* **park-leak** — every parked task must eventually drain (chaos and
  outage suites call the checker at quiescence);
* **done-mismatch** — the newest done marker per key must agree with
  the destination bucket (PUT ⇒ ETag match, DELETE ⇒ key absent);
* **unverified-finalize** — every destination PUT finalize must carry
  the verify-after-finalize verdict: no visibility without a verified
  finalize;
* **silent-corruption** — every corruption the engine detected must be
  either repaired (a later verified finalize of the task) or surfaced
  (quarantine, dead-letter, abort/retrigger, park) — never silently
  marked done;
* **cost-gap / cost-orphan** — the charges mirrored through the
  tracer's cost sink must sum to the ledger's growth since install,
  and task-attributed charges must reference tasks the trace knows;
* **hedge discipline** — every speculative hedge fired
  (``hedge-start``) must resolve exactly once with a legal outcome
  (``won`` / ``lost`` / ``cancelled``), and no part may admit two
  first writers to its done-set (the double-finalize hazard a hedged
  race must exclude);
* **switchover discipline** — per task epoch (one lock generation and
  fence), every finalize must come from a single orchestrator
  location: a planned switchover hands orchestration over through the
  fencing tokens, and two locations finalizing the same epoch would be
  the split-brain the handoff exists to exclude;
* **cordon discipline** — no new admission (dispatch, probe, or drain
  re-dispatch) may route into a FaaS region while an administrative
  cordon window is open on it (in-flight work finishing there is
  legitimate; *admitting* more is the violation);
* **tenant isolation** — in a multi-tenant service every tenant-tagged
  record must agree with the rule registry about which tenant owns the
  task (one task id maps to exactly one tenant), and lock-domain
  traffic must stay inside the owning tenant's rules — a record
  claiming tenant A on tenant B's rule is control-plane bleed between
  tenants, the failure mode sharding exists to exclude;
* **autopilot discipline** — every ``autopilot`` actuation span must
  keep its knob inside the declared ``[lo, hi]`` guardrails, respect
  the declared post-actuation cooldown against the previous actuation
  of the same knob, and never land strictly inside an administrative
  cordon window (planned operations own the system; a controller
  retuning knobs mid-evacuation is the guarded-rollout violation).

A clean report turns every chaos/outage scenario into a *checked
execution*: the oracle is the property, not a per-scenario assert.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain
from typing import Optional

from repro.core.tracing import Tracer

__all__ = ["TraceFinding", "TraceReport", "TraceChecker"]

_EPS = 1e-9

#: Visibility kinds that actually mutated the destination and therefore
#: require a fenced finalize.  ``already-replicated``, ``content-match``
#: and ``duplicate-delivery`` report visibility of work done earlier.
_WRITING_KINDS = frozenset({"created", "changelog", "deleted"})


@dataclass(frozen=True)
class TraceFinding:
    """One violated trace invariant."""

    kind: str   # clock | lifecycle | unfenced-visible | superseded-fence
                # | lock-order | park-leak | done-mismatch | cost-gap
                # | cost-orphan | unverified-finalize | silent-corruption
                # | hedge-unresolved | hedge-double-resolve
                # | hedge-outcome | double-finalize
                # | switchover-discipline | cordon-violation
                # | tenant-isolation | autopilot-bounds
                # | autopilot-cooldown | autopilot-cordon
    subject: str   # task id, object key, or backlog id
    detail: str

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"[{self.kind}] {self.subject}: {self.detail}"


@dataclass
class TraceReport:
    """All findings from one checker pass."""

    findings: list[TraceFinding] = field(default_factory=list)
    #: How much work the pass validated (for "did it even look" asserts).
    checked: dict[str, int] = field(default_factory=dict)

    @property
    def clean(self) -> bool:
        return not self.findings

    def by_kind(self, kind: str) -> list[TraceFinding]:
        return [f for f in self.findings if f.kind == kind]

    def render(self) -> str:
        head = (f"trace: {len(self.findings)} finding(s), "
                + ", ".join(f"{k}={v}" for k, v in sorted(self.checked.items())))
        if self.clean:
            return f"trace: clean ({head.split(', ', 1)[-1]})"
        return "\n".join([head] + [f"  {f}" for f in self.findings])


class TraceChecker:
    """Validates lifecycle invariants from a finished trace.

    Built on a service so the done-marker check can compare against the
    live destination buckets; the trace itself defaults to the
    service's installed tracer.
    """

    def __init__(self, service, tracer: Optional[Tracer] = None):
        self.service = service
        self.tracer = tracer if tracer is not None else service.tracer
        if self.tracer is None:
            raise ValueError("service has no tracer installed "
                             "(ReplicaConfig.tracing_enabled)")

    def check(self) -> TraceReport:
        report = TraceReport()
        tr = self.tracer
        self._check_clock(tr, report)
        self._check_locks(tr, report)
        self._check_lifecycle(tr, report)
        self._check_backlog(tr, report)
        self._check_done_markers(tr, report)
        self._check_integrity(tr, report)
        self._check_costs(tr, report)
        self._check_hedges(tr, report)
        self._check_switchover(tr, report)
        self._check_cordons(tr, report)
        self._check_tenants(tr, report)
        self._check_autopilot(tr, report)
        return report

    # -- 1. clock sanity ---------------------------------------------------

    def _check_clock(self, tr: Tracer, report: TraceReport) -> None:
        report.checked["spans"] = len(tr.spans)
        report.checked["events"] = len(tr.events)
        prev = -math.inf
        for s in tr.spans:
            if s.end < s.start - _EPS:
                report.findings.append(TraceFinding(
                    "clock", s.task or s.name,
                    f"span {s.name} closes before it opens "
                    f"({s.start:.6f} -> {s.end:.6f})"))
            if s.end < prev - _EPS:
                report.findings.append(TraceFinding(
                    "clock", s.task or s.name,
                    f"span {s.name} recorded out of clock order"))
            prev = max(prev, s.end)
        prev = -math.inf
        for e in tr.events:
            if e.time < prev - _EPS:
                report.findings.append(TraceFinding(
                    "clock", e.task or e.name,
                    f"event {e.name} recorded out of clock order"))
            prev = max(prev, e.time)

    # -- 2/3. fencing and lock state machine -------------------------------

    def _check_locks(self, tr: Tracer, report: TraceReport) -> None:
        # holder per lock *domain*: lock tables are per-rule
        # (areplica-state-{rule_id}), so two rules — e.g. two tenants —
        # may legally hold "the same" object key at once.  The owner is
        # the task id, whose prefix is the rule id, which names the
        # domain.
        holders: dict[tuple[str, str], tuple[str, int]] = {}
        acquires = 0
        for e in tr.events:
            if e.cat != "lock":
                continue
            owner, obj_key = e.get("owner"), e.get("key")
            # Task-id owners ({rule}:{key}:{seq}:{kind}) carry their
            # domain as the rule prefix; opaque owners (synthetic
            # traces, tooling) share one anonymous domain.
            domain = owner.split(":", 1)[0] if ":" in owner else ""
            key = (domain, obj_key)
            subj = f"{domain}/{obj_key}" if domain else obj_key
            if e.name == "lock-acquire":
                acquires += 1
                fence, mode = e.get("fence"), e.get("mode")
                held = holders.get(key)
                if mode == "fresh":
                    if held is not None:
                        report.findings.append(TraceFinding(
                            "lock-order", subj,
                            f"fresh acquire by {owner!r} while "
                            f"{held[0]!r} holds fence {held[1]}"))
                    elif fence != 1:
                        report.findings.append(TraceFinding(
                            "lock-order", subj,
                            f"fresh acquire with fence {fence} != 1"))
                elif mode == "reentrant":
                    if held != (owner, fence):
                        report.findings.append(TraceFinding(
                            "lock-order", subj,
                            f"re-entrant acquire by {owner!r} fence {fence} "
                            f"but holder is {held!r}"))
                elif mode == "takeover":
                    if held is None:
                        report.findings.append(TraceFinding(
                            "lock-order", subj,
                            f"takeover by {owner!r} of an unheld lock"))
                    elif fence != held[1] + 1:
                        report.findings.append(TraceFinding(
                            "lock-order", subj,
                            f"takeover fence {fence} does not supersede "
                            f"{held[1]}"))
                holders[key] = (owner, fence)
            elif e.name == "lock-release":
                released = e.get("released")
                held = holders.get(key)
                if released:
                    if held is None or held[0] != owner:
                        report.findings.append(TraceFinding(
                            "lock-order", subj,
                            f"{owner!r} released a lock held by "
                            f"{held and held[0]!r}"))
                    holders.pop(key, None)
                elif held is not None and held[0] == owner:
                    report.findings.append(TraceFinding(
                        "lock-order", subj,
                        f"holder {owner!r} failed to release its own lock"))
        report.checked["lock_acquires"] = acquires

    # -- lifecycle ordering + fenced finalize before visible ----------------

    def _check_lifecycle(self, tr: Tracer, report: TraceReport) -> None:
        first_acquire: dict[str, float] = {}
        finalizes: dict[str, list] = {}
        acquires_by_key: dict[str, list[tuple[float, int]]] = {}
        plan_end: dict[str, float] = {}
        for e in tr.events:
            if e.cat == "lock" and e.name == "lock-acquire":
                task = e.get("owner")
                first_acquire.setdefault(task, e.time)
                acquires_by_key.setdefault(e.get("key"), []).append(
                    (e.time, e.get("fence")))
            elif e.cat == "engine" and e.name == "finalize":
                if e.task is not None:
                    finalizes.setdefault(e.task, []).append(e)
        for s in tr.spans:
            if s.cat == "engine" and s.name == "plan" and s.task is not None:
                plan_end.setdefault(s.task, s.end)
        visibles = 0
        for e in tr.events:
            if e.cat != "engine" or e.name != "visible":
                continue
            visibles += 1
            task, kind = e.task, e.get("kind")
            if kind not in _WRITING_KINDS or task is None:
                continue
            cands = [f for f in finalizes.get(task, ())
                     if f.time <= e.time + _EPS]
            if not cands:
                report.findings.append(TraceFinding(
                    "unfenced-visible", task,
                    f"{kind} visible at t={e.time:.3f} with no prior "
                    f"finalize"))
                continue
            fin = cands[-1]
            fence = fin.get("fence")
            if not isinstance(fence, int) or fence < 1:
                report.findings.append(TraceFinding(
                    "unfenced-visible", task,
                    f"finalize carries invalid fence {fence!r}"))
                continue
            # The zombie-writer interleaving: someone acquired this key
            # with a higher token before our finalize ran.  The scan is
            # bounded below by our own acquire: fences restart at 1
            # whenever a release deletes the lock record, so an earlier
            # *generation's* takeover token says nothing about ours.
            lo = first_acquire.get(task, -math.inf)
            for at, f2 in acquires_by_key.get(fin.get("key"), ()):
                if f2 > fence and lo - _EPS <= at < fin.time - _EPS:
                    report.findings.append(TraceFinding(
                        "superseded-fence", task,
                        f"finalize with fence {fence} at t={fin.time:.3f} "
                        f"after fence {f2} was issued at t={at:.3f}"))
                    break
            if task in first_acquire and \
                    first_acquire[task] > fin.time + _EPS:
                report.findings.append(TraceFinding(
                    "lifecycle", task,
                    "finalize precedes the task's first lock acquire"))
            if task in plan_end and plan_end[task] > fin.time + _EPS:
                report.findings.append(TraceFinding(
                    "lifecycle", task,
                    "finalize precedes the task's plan selection"))
        report.checked["visibles"] = visibles

    # -- park/drain accounting ---------------------------------------------

    def _check_backlog(self, tr: Tracer, report: TraceReport) -> None:
        parked: dict[object, str] = {}
        drained: set = set()
        for e in tr.events:
            if e.cat != "engine":
                continue
            if e.name == "park":
                parked[(e.get("rule"), e.get("backlog_id"))] = \
                    e.get("key", "?")
            elif e.name == "drain":
                ref = (e.get("rule"), e.get("backlog_id"))
                if ref in drained:
                    report.findings.append(TraceFinding(
                        "park-leak", str(ref[1]),
                        "backlog entry drained twice"))
                if ref not in parked:
                    report.findings.append(TraceFinding(
                        "park-leak", str(ref[1]),
                        "drain of a backlog entry never parked"))
                drained.add(ref)
        report.checked["parked"] = len(parked)
        for ref, key in sorted(parked.items(), key=lambda kv: str(kv[0])):
            if ref not in drained:
                report.findings.append(TraceFinding(
                    "park-leak", str(ref[1]),
                    f"task for key {key!r} parked but never drained"))

    # -- done marker vs destination state ----------------------------------

    def _check_done_markers(self, tr: Tracer, report: TraceReport) -> None:
        newest: dict[tuple[str, str], object] = {}
        for e in tr.events:
            if e.cat == "engine" and e.name == "done-marker":
                ref = (e.get("rule"), e.get("key"))
                cur = newest.get(ref)
                if cur is None or e.get("seq") >= cur.get("seq"):
                    newest[ref] = e
        report.checked["done_markers"] = len(newest)
        for (rule_id, key), e in newest.items():
            rule = self.service.rules.get(rule_id)
            if rule is None:
                continue
            dst = rule.dst_bucket
            if e.get("op") == "delete":
                if key in dst:
                    report.findings.append(TraceFinding(
                        "done-mismatch", key,
                        f"marker records deletion (seq {e.get('seq')}) "
                        f"but key survives at destination"))
            else:
                if key not in dst:
                    report.findings.append(TraceFinding(
                        "done-mismatch", key,
                        f"marker seq {e.get('seq')} but key missing at "
                        f"destination"))
                elif dst.head(key).etag != e.get("etag"):
                    report.findings.append(TraceFinding(
                        "done-mismatch", key,
                        f"marker etag {e.get('etag')} != destination "
                        f"etag {dst.head(key).etag}"))

    # -- end-to-end integrity: verified finalizes, surfaced corruption ------

    def _check_integrity(self, tr: Tracer, report: TraceReport) -> None:
        """No visibility without verification; no corruption goes silent.

        Every destination PUT finalize must carry ``verified=True`` (the
        engine re-read the destination ETag before the done marker).
        Every ``corrupt-detected`` must be *resolved*: either a later
        verified finalize of the same task (the retransfer healed it) or
        an explicit surfacing — quarantine, dead-letter, abort,
        retrigger, lock-lost, or park — that hands the key to recovery.
        A detection with neither is a silent finalize, the exact failure
        mode the integrity machinery exists to rule out.
        """
        verified_finalizes = 0
        last_verified_fin: dict[str, float] = {}
        last_corrupt: dict[str, float] = {}
        surfaced: set[str] = set()
        detections = 0
        for e in tr.events:
            if e.cat == "engine" and e.name == "finalize":
                if e.get("op") == "put":
                    if e.get("verified"):
                        verified_finalizes += 1
                        if e.task is not None:
                            last_verified_fin[e.task] = e.time
                    else:
                        report.findings.append(TraceFinding(
                            "unverified-finalize", e.task or "?",
                            f"put finalize at t={e.time:.3f} without a "
                            f"destination verification verdict"))
                elif e.task is not None:
                    # Deletes leave nothing to verify; their finalize
                    # still resolves any corruption the task observed.
                    last_verified_fin[e.task] = e.time
            elif (e.cat == "engine" and e.name == "corrupt-detected"
                    and e.task is not None):
                detections += 1
                last_corrupt[e.task] = max(
                    last_corrupt.get(e.task, -math.inf), e.time)
            elif (e.name in ("quarantine", "abort", "retrigger",
                             "lock-lost", "park") and e.task is not None):
                surfaced.add(e.task)
            elif e.name == "dead-letter" and e.task is not None:
                surfaced.add(e.task)
        report.checked["verified_finalizes"] = verified_finalizes
        report.checked["corruption_detections"] = detections
        for task in sorted(last_corrupt):
            t_corrupt = last_corrupt[task]
            t_fin = last_verified_fin.get(task)
            if t_fin is not None and t_fin >= t_corrupt - _EPS:
                continue
            if task in surfaced:
                continue
            report.findings.append(TraceFinding(
                "silent-corruption", task,
                f"corruption detected at t={t_corrupt:.3f} was neither "
                f"re-verified by a later finalize nor surfaced"))

    # -- speculative-hedging discipline ------------------------------------

    def _check_hedges(self, tr: Tracer, report: TraceReport) -> None:
        """Every hedge resolves exactly once; no part double-finalizes.

        A ``hedge-start`` (task, part, seq) with no matching
        ``hedge-resolved`` is a leaked race (a clone nobody ever
        settled); more than one resolution means two coordination paths
        both claimed the hedge; an outcome outside
        {won, lost, cancelled} is a protocol bug.  Independently, the
        part pool's done-set must admit at most one ``first=True``
        completion per (task, part) — two first writers would mean two
        contenders both believed their bytes won, the exact
        double-finalize hazard first-writer-wins exists to exclude.
        """
        started: dict[tuple, float] = {}
        resolved: dict[tuple, int] = {}
        first_writers: dict[tuple, int] = {}
        for e in tr.events:
            if e.cat == "engine" and e.name == "hedge-start":
                started[(e.task, e.get("part"), e.get("seq"))] = e.time
            elif e.cat == "engine" and e.name == "hedge-resolved":
                ref = (e.task, e.get("part"), e.get("seq"))
                resolved[ref] = resolved.get(ref, 0) + 1
                outcome = e.get("outcome")
                if outcome not in ("won", "lost", "cancelled"):
                    report.findings.append(TraceFinding(
                        "hedge-outcome", str(e.task),
                        f"hedge of part {ref[1]} seq {ref[2]} resolved "
                        f"with invalid outcome {outcome!r}"))
                if ref not in started:
                    report.findings.append(TraceFinding(
                        "hedge-unresolved", str(e.task),
                        f"hedge of part {ref[1]} seq {ref[2]} resolved "
                        f"but never started"))
            elif (e.cat == "pool" and e.name == "part-complete"
                    and e.get("first") and e.task is not None):
                ref = (e.task, e.get("idx"))
                first_writers[ref] = first_writers.get(ref, 0) + 1
        report.checked["hedges"] = len(started)
        for ref, t in sorted(started.items(), key=lambda kv: str(kv[0])):
            n = resolved.get(ref, 0)
            if n == 0:
                report.findings.append(TraceFinding(
                    "hedge-unresolved", str(ref[0]),
                    f"hedge of part {ref[1]} seq {ref[2]} fired at "
                    f"t={t:.3f} but never resolved"))
            elif n > 1:
                report.findings.append(TraceFinding(
                    "hedge-double-resolve", str(ref[0]),
                    f"hedge of part {ref[1]} seq {ref[2]} resolved "
                    f"{n} times"))
        for (task, idx), n in sorted(first_writers.items(),
                                     key=lambda kv: str(kv[0])):
            if n > 1:
                report.findings.append(TraceFinding(
                    "double-finalize", str(task),
                    f"part {idx} admitted {n} first writers to the "
                    f"done-set"))

    # -- planned-operations discipline --------------------------------------

    def _check_switchover(self, tr: Tracer, report: TraceReport) -> None:
        """Exactly one orchestrator *location* finalizes per task epoch.

        Finalize events carry ``loc`` (the region whose FaaS platform
        ran the finalizing orchestrator).  A task's finalizes are
        grouped into epochs keyed by (last own lock-acquire at or
        before the finalize, fence): fences restart at 1 whenever a
        release deletes the lock record, so the acquire time — not the
        bare fence — identifies the lock generation, and a repair task
        re-acquiring fresh months later is a *new* epoch, not a
        split-brain.  Within one epoch, two distinct locations both
        finalizing means the switchover handoff failed to fence off the
        old orchestrator — the exact hazard the fencing tokens exist to
        exclude.  Same-location duplicates (a platform-retried
        finalizer redoing its own idempotent finalize) are benign.
        """
        own_acquires: dict[str, list[float]] = {}
        for e in tr.events:
            if e.cat == "lock" and e.name == "lock-acquire":
                own_acquires.setdefault(e.get("owner"), []).append(e.time)
        epochs: dict[tuple, set] = {}
        for e in tr.events:
            if e.cat != "engine" or e.name != "finalize":
                continue
            loc = e.get("loc")
            if loc is None or e.task is None:
                continue
            gen = max((t for t in own_acquires.get(e.task, ())
                       if t <= e.time + _EPS), default=-math.inf)
            epochs.setdefault(
                (e.task, gen, e.get("fence")), set()).add(loc)
        report.checked["finalize_epochs"] = len(epochs)
        for (task, gen, fence), locs in sorted(
                epochs.items(), key=lambda kv: str(kv[0])):
            if len(locs) > 1:
                report.findings.append(TraceFinding(
                    "switchover-discipline", str(task),
                    f"epoch (acquire t={gen:.3f}, fence {fence}) was "
                    f"finalized from {len(locs)} locations: "
                    f"{sorted(locs)}"))

    def _check_cordons(self, tr: Tracer, report: TraceReport) -> None:
        """No admission into a FaaS region while its cordon is open.

        Builds cordon windows per region from the lifecycle
        cordon/uncordon events and flags any engine admission —
        ``dispatch`` (new orchestration), ``probe`` (half-open
        re-dispatch), or ``drain`` (backlog re-dispatch) — whose
        ``region`` lands strictly inside a window.  Events *at* the
        window edges are legal: the uncordon notification triggers the
        re-admission drain at the uncordon instant itself.
        """
        windows: dict[str, list[list[float]]] = {}
        for e in tr.events:
            if e.cat != "lifecycle" or e.get("substrate") != "faas":
                continue
            region = e.get("region")
            if e.name == "cordon":
                windows.setdefault(region, []).append([e.time, math.inf])
            elif e.name == "uncordon":
                open_windows = windows.get(region, ())
                if open_windows and open_windows[-1][1] == math.inf:
                    open_windows[-1][1] = e.time
        report.checked["cordon_windows"] = sum(
            len(w) for w in windows.values())
        if not windows:
            return
        for e in tr.events:
            if e.cat != "engine" or e.name not in ("dispatch", "probe",
                                                   "drain"):
                continue
            region = e.get("region")
            for start, end in windows.get(region, ()):
                if start + _EPS < e.time < end - _EPS:
                    report.findings.append(TraceFinding(
                        "cordon-violation", e.task or "?",
                        f"{e.name} admitted into cordoned faas region "
                        f"{region!r} at t={e.time:.3f} (window "
                        f"[{start:.3f}, {end:.3f}))"))
                    break

    # -- autopilot discipline -----------------------------------------------

    def _check_autopilot(self, tr: Tracer, report: TraceReport) -> None:
        """Actuations stay in-bounds, cooled-down, and outside cordons.

        Every actuation is a zero-width ``autopilot`` span carrying the
        knob's declared guardrails (``lo``/``hi``), the value moved from
        and to, and the controller's ``cooldown_s`` — which makes the
        guarded-rollout contract checkable offline: a value outside the
        declared bounds means a clamp was bypassed; two actuations of
        one knob closer than the cooldown means the rate limit failed;
        an actuation strictly inside *any* administrative cordon window
        (any substrate — the autopilot must hold while planned
        operations own the system) is a controller fighting an
        operator.  Actuations at a window's edges are legal, mirroring
        the admission-cordon rule.
        """
        acts = [s for s in tr.spans if s.cat == "autopilot"]
        report.checked["autopilot_actuations"] = len(acts)
        if not acts:
            return
        last_by_knob: dict[str, float] = {}
        for s in acts:
            knob = s.get("knob", "?")
            lo, hi = s.get("lo"), s.get("hi")
            for label, value in (("old", s.get("old")),
                                 ("new", s.get("new"))):
                if value is None or lo is None or hi is None or \
                        lo - _EPS <= value <= hi + _EPS:
                    continue
                report.findings.append(TraceFinding(
                    "autopilot-bounds", knob,
                    f"actuation at t={s.start:.3f} has {label} value "
                    f"{value!r} outside declared [{lo}, {hi}]"))
            cooldown = s.get("cooldown_s", 0.0)
            prev = last_by_knob.get(knob)
            if prev is not None and s.start - prev < cooldown - _EPS:
                report.findings.append(TraceFinding(
                    "autopilot-cooldown", knob,
                    f"actuations at t={prev:.3f} and t={s.start:.3f} "
                    f"violate the {cooldown:g}s cooldown"))
            last_by_knob[knob] = s.start
        # Cordon windows across every substrate: the autopilot holds
        # globally while any planned operation is in flight.
        windows: dict[tuple, list[list[float]]] = {}
        for e in tr.events:
            if e.cat != "lifecycle" or e.name not in ("cordon", "uncordon"):
                continue
            ref = (e.get("substrate"), e.get("region"))
            if e.name == "cordon":
                windows.setdefault(ref, []).append([e.time, math.inf])
            else:
                open_windows = windows.get(ref, ())
                if open_windows and open_windows[-1][1] == math.inf:
                    open_windows[-1][1] = e.time
        for s in acts:
            for ref, spans in windows.items():
                hit = next((w for w in spans
                            if w[0] + _EPS < s.start < w[1] - _EPS), None)
                if hit is not None:
                    report.findings.append(TraceFinding(
                        "autopilot-cordon", s.get("knob", "?"),
                        f"actuation at t={s.start:.3f} inside cordon "
                        f"window [{hit[0]:.3f}, {hit[1]:.3f}) on "
                        f"{ref[1]!r}"))
                    break

    # -- tenant isolation ---------------------------------------------------

    def _check_tenants(self, tr: Tracer, report: TraceReport) -> None:
        """Tenant-tagged records agree with the rule registry's ownership.

        Engines in a multi-tenant service trace through a scoped
        :class:`~repro.core.tracing.TenantTracer` that stamps
        ``tenant=`` on every record; task ids carry the rule id as their
        prefix; and the registry knows which tenant owns each rule.
        Cross-checking the three catches control-plane bleed: a
        scheduler lane dispatching another tenant's work, a shard engine
        adopted by the wrong tenant, or one task id claimed by two
        tenants.  Untagged records (classic single-tenant rules, infra
        spans) are out of scope by construction.
        """
        svc = self.service
        rule_owner = {rid: getattr(rule, "tenant", None)
                      for rid, rule in svc.rules.items()}
        tenant_ids = set(getattr(svc, "tenants", ()) or ())
        claimed: dict[str, str] = {}   # task id -> tenant attr seen
        tagged = 0

        def owner_of(prefix: str):
            # A task prefix is either a rule id (engine records) or a
            # bare tenant id (the admission router's records).
            if prefix in rule_owner:
                return rule_owner[prefix]
            if prefix in tenant_ids:
                return prefix
            return None

        for rec in chain(tr.spans, tr.events):
            tenant = rec.get("tenant")
            if tenant is None:
                continue
            tagged += 1
            subjects = []
            if rec.task is not None:
                subjects.append(rec.task)
            owner = rec.get("owner")
            if isinstance(owner, str) and ":" in owner:
                subjects.append(owner)
            for task in subjects:
                expected = owner_of(task.split(":", 1)[0])
                if expected is not None and expected != tenant:
                    report.findings.append(TraceFinding(
                        "tenant-isolation", task,
                        f"record {rec.name!r} tagged tenant {tenant!r} "
                        f"but the registry owns the task's rule under "
                        f"{expected!r}"))
                prev = claimed.get(task)
                if prev is None:
                    claimed[task] = tenant
                elif prev != tenant:
                    report.findings.append(TraceFinding(
                        "tenant-isolation", task,
                        f"task claimed by two tenants: {prev!r} and "
                        f"{tenant!r}"))
        report.checked["tenant_records"] = tagged

    # -- attributed cost completeness --------------------------------------

    def _check_costs(self, tr: Tracer, report: TraceReport) -> None:
        recorded = tr.recorded_cost()
        billed = tr.billed_delta()
        report.checked["cost_records"] = tr.cost_count()
        if not math.isclose(recorded, billed, rel_tol=1e-9, abs_tol=1e-9):
            report.findings.append(TraceFinding(
                "cost-gap", "ledger",
                f"trace mirrors ${recorded:.9f} but the ledger grew "
                f"${billed:.9f} since install"))
        known = set(tr.tasks())
        orphans = sorted(task for task in tr.attributed_cost()
                         if task is not None and task not in known)
        for task in orphans:
            report.findings.append(TraceFinding(
                "cost-orphan", task,
                "charge attributed to a task the trace never saw"))
