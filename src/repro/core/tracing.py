"""Causal task tracing on the simulation clock (§3, §5.3, Fig 18-19).

Every replication task — one ``{rule}:{key}:{seq}:{kind}`` lifecycle —
leaves a causal trace: notification delivery, dedup/sequencing, lock
acquisition (with its fencing token), plan selection, FaaS invocation,
per-part transfers, finalize/abort, and visibility.  Spans carry the
paper's delay-decomposition phases as first-class categories:

=====  ==============================================================
phase  meaning
=====  ==============================================================
``N``  notification delivery delay (event time → engine receipt)
``I``  invocation latency (request → platform accept)
``D``  readiness delay (warm resume or cold start of an instance)
``P``  scheduler postponement (waiting for a placement tick)
``S``  client startup inside the function (SDK/auth/session)
``C``  per-chunk transfer legs (download or upload of one part)
=====  ==============================================================

The recorder feeds every span and instant event, timestamped from the
simulation clock, into the trace checker's index as it is emitted, and
keeps running totals of the ledger charges it observes.  It builds and
keeps the records themselves, in execution order (the kernel is
deterministic, so two runs with the same seed produce byte-identical
exports), only for a reader that asked first.  Every emission site in
the engine and substrates is guarded by a single ``tracer is not None``
check — the disabled path costs one attribute read.

Each record is one flat tuple — the fixed fields, then the tuple of
attribute names (shared by every record of that schema), then the
attribute values — because a traced storm emits hundreds of thousands
of them and a dict per record would cost more than the record itself.
Emitters pass that shared tuple themselves, a module-level constant per
schema, followed by the values in its order::

    _PART_KEYS = ("idx",)
    tracer.event("part-claim", "pool", tid, _PART_KEYS, idx)

so recording builds no dict and looks nothing up.  Readers take one
attribute with :meth:`Span.get` / :meth:`Event.get`; ``attrs`` builds
the dict on demand.  Every record the trace checker reads by position
uses a schema declared in :data:`repro.core.task.SCHEMAS`, and its
values go to the checker's one handler for its name.

Beyond the phase letters, the engine emits a ``verify`` span (cat
``engine``) for every verify-after-finalize check, and the integrity
machinery emits ``chaos-corrupt`` (an injected fault),
``corrupt-detected``, and ``quarantine`` events — the records the
TraceChecker's integrity invariants and the corruption drill audit.
The hedging layer adds ``hedge-start`` / ``hedge-resolved`` events and
a ``hedge`` span per fired clone (outcome ``won`` / ``lost`` /
``cancelled``), which the TraceChecker's hedge-discipline invariants
require to pair exactly one-to-one.

Consumers:

* :class:`repro.core.invariants.TraceChecker` — the lifecycle oracle,
  which reads the index;
* of the kept records, :meth:`Tracer.export_chrome` — Chrome
  trace-event JSON, loadable in ``chrome://tracing`` / Perfetto (one
  row per task) — and :meth:`Tracer.delay_breakdown` — the per-phase
  *I/D/P/S/C* split comparable to the paper's Fig 18-19 delay
  decomposition.
"""

from __future__ import annotations

import json
import math
from operator import itemgetter
from typing import Optional

from repro.simcloud.cost import CostCategory

try:    # the C field descriptor collections.namedtuple uses
    from _collections import _tuplegetter
except ImportError:     # pragma: no cover - other interpreters
    def _tuplegetter(index: int, doc: Optional[str]):
        return property(itemgetter(index), doc=doc)

__all__ = ["Span", "Event", "Tracer", "TenantTracer", "PHASES",
           "PHASE_NAMES"]

#: How far apart two simulated times may be and still count as one
#: instant, wherever the trace checker compares them.
_EPS = 1e-9

#: Delay-decomposition phases, in presentation order.
PHASES = ("N", "I", "D", "P", "S", "C")

PHASE_NAMES = {
    "N": "notification delivery",
    "I": "invocation latency",
    "D": "readiness (warm/cold start)",
    "P": "scheduler postponement",
    "S": "client startup",
    "C": "chunk transfer",
}


class _Record(tuple):
    """One flat trace record: ``(*fields, keys, *values)``.

    ``keys`` names the attributes and the values follow it in the same
    order.  Subclasses name the fixed fields in ``_FIELDS``; ``keys``
    sits right after them.
    """

    __slots__ = ()
    _FIELDS: tuple[str, ...] = ()

    name = _tuplegetter(0, "phase letter for cat='phase', else a verb")
    cat = _tuplegetter(1, "phase | engine | faas | lock | pool | kv | net")
    task = _tuplegetter(2, "the task id, or None")

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={v!r}" for f, v in zip(self._FIELDS, self))
        return f"{type(self).__name__}({fields}, attrs={self.attrs!r})"


def _attribute_readers(at: int):
    """``keys``, ``attrs`` and ``get`` for records whose attribute-name
    tuple sits at index ``at``.  The offset is a closure constant, not
    a class attribute, because ``get`` is the checker's hot read."""

    def attrs(self) -> dict:
        """The attributes as a new dict (built on every read)."""
        return dict(zip(self[at], self[at + 1:]))

    def get(self, name: str, default=None):
        """One attribute's value (``default`` when absent), without
        building :attr:`attrs`."""
        keys = self[at]
        return self[at + 1 + keys.index(name)] if name in keys else default

    keys = _tuplegetter(at, "the attribute names, in emission order")
    return keys, property(attrs), get


class Span(_Record):
    """A closed interval of simulated time attributed to one task:
    ``(name, cat, task, start, end, keys, *values)``."""

    __slots__ = ()
    _FIELDS = ("name", "cat", "task", "start", "end")

    start = _tuplegetter(3, "simulated time the interval opened")
    end = _tuplegetter(4, "simulated time the interval closed (recorded)")
    keys, attrs, get = _attribute_readers(5)


class Event(_Record):
    """An instantaneous lifecycle fact (finalize, park, done-marker…):
    ``(name, cat, task, time, keys, *values)``."""

    __slots__ = ()
    _FIELDS = ("name", "cat", "task", "time")

    time = _tuplegetter(3, "simulated time of the fact (recorded)")
    keys, attrs, get = _attribute_readers(4)


class Tracer:
    """Sim-clock span/event recorder and trace-checker feed, with a
    cost mirror.

    One tracer observes one :class:`~repro.simcloud.cloud.Cloud`; the
    service installs it with ``cloud.set_tracer(tracer)`` which also
    hooks the cost ledger's sink so every charge after installation is
    tallied (with task attribution where the charge site knows it).
    """

    def __init__(self, sim):
        # The index module imports the service, which imports this one.
        from repro.core.invariants import _Index
        self.sim = sim
        #: The trace checker's index, fed every record as it is emitted.
        self.index = _Index()
        #: The records emitted since :meth:`keep_records`; empty without.
        self.spans: list[Span] = []
        self.events: list[Event] = []
        self._keep = False
        # The cost mirror keeps totals, not charges.  Each is summed in
        # charge order, so it equals an in-order sum() of the amounts.
        self._cost_total = 0.0
        self._task_cost: dict[Optional[str], float] = {}
        self._category_cost = {c: [0, 0.0] for c in CostCategory.ALL}
        self._ledger = None
        self._cost_baseline = 0.0

    # -- recording ---------------------------------------------------------

    def keep_records(self) -> None:
        """Keep the spans and events emitted from now on in :attr:`spans`
        and :attr:`events`, for a reader of whole records (the Chrome
        export, the delay breakdown); ask before ``add_rule``.  Without
        it no record is built: the index reads each one's values."""
        self._keep = True

    def span(self, name: str, cat: str, task: Optional[str],
             start: float, end: float, keys: tuple = (), *values) -> None:
        """Record ``[start, end]``; ``values`` follow ``keys`` in order."""
        index = self.index
        index.n_spans += 1
        task = index.tasks.setdefault(task, task)
        if end < start - _EPS:
            index.flag("clock", "clock", task or name,
                       f"span {name} closes before it opens "
                       f"({start:.6f} -> {end:.6f})")
        if end < index.last_span - _EPS:
            index.flag("clock", "clock", task or name,
                       f"span {name} recorded out of clock order")
        elif end > index.last_span:
            index.last_span = end
        reader = index.readers.get(name)
        if reader is not None:
            reader(task, end, values)
        if "tenant" in keys:
            index.claim(index.span_claims, name, task, keys, values)
        if self._keep:
            self.spans.append(Span((name, cat, task, start, end, keys)
                                   + values))

    def event(self, name: str, cat: str, task: Optional[str],
              keys: tuple = (), *values) -> None:
        """Record a fact at ``sim.now``; ``values`` follow ``keys``."""
        index, t = self.index, self.sim.now
        index.n_events += 1
        task = index.tasks.setdefault(task, task)
        if t < index.last_event - _EPS:
            index.flag("event-clock", "clock", task or name,
                       f"event {name} recorded out of clock order")
        elif t > index.last_event:
            index.last_event = t
        reader = index.readers.get(name)
        if reader is not None:
            reader(task, t, values)
        if "tenant" in keys:
            index.claim(index.event_claims, name, task, keys, values)
        if self._keep:
            self.events.append(Event((name, cat, task, t, keys) + values))

    def scoped(self, tenant: str) -> "TenantTracer":
        """A view of this tracer adding ``tenant`` to records without one.

        Installed on a tenant's engines (and, through them, their lock
        managers) so the cross-tenant isolation invariant can key lock
        domains, backlog lanes, and task ownership by tenant without
        the engine ever learning about tracing internals.  Records go
        through *this* tracer — the scoped view holds no state.
        """
        return TenantTracer(self, tenant)

    # -- cost sink ---------------------------------------------------------

    def install_cost_sink(self, ledger) -> None:
        """Tally every subsequent ledger charge in the trace.

        The baseline snapshot makes completeness checkable: the total of
        recorded charges must equal the ledger's growth since install
        (see TraceChecker's ``cost-gap`` invariant).
        """
        self._ledger = ledger
        self._cost_baseline = ledger.total()
        ledger.sink = self._on_cost

    def _on_cost(self, category: str, amount: float,
                 task: Optional[str]) -> None:
        self._cost_total += amount
        by_task = self._task_cost
        task = self.index.tasks.get(task, task)   # the index's id object
        by_task[task] = by_task.get(task, 0.0) + amount
        tally = self._category_cost[category]   # [charges, total]
        tally[0] += 1
        tally[1] += amount

    def billed_delta(self) -> float:
        """Ledger growth since the cost sink was installed."""
        if self._ledger is None:
            return 0.0
        return self._ledger.total() - self._cost_baseline

    def cost_count(self) -> int:
        """How many charges the sink has tallied."""
        return sum(n for n, _ in self._category_cost.values())

    def recorded_cost(self) -> float:
        """Total of the tallied charges."""
        return self._cost_total

    def attributed_cost(self) -> dict[Optional[str], float]:
        """Per-task cost totals (unattributed charges under ``None``),
        in order of each task's first charge."""
        return dict(self._task_cost)

    def category_cost(self, category: str) -> tuple[int, float]:
        """``(charges, total)`` tallied under one ledger category."""
        n, total = self._category_cost.get(category, (0, 0.0))
        return n, total

    # -- queries -----------------------------------------------------------

    def integrity_summary(self) -> dict[str, int]:
        """Corruption bookkeeping visible in this trace: injected
        faults, engine detections, quarantines, and verify outcomes."""
        return dict(self.index.integrity)

    # -- delay breakdown (Fig 18-19 shape) ---------------------------------

    def delay_breakdown(self) -> dict[str, dict[str, float]]:
        """Per-phase duration statistics for the *N/I/D/P/S/C* split."""
        buckets: dict[str, list[float]] = {p: [] for p in PHASES}
        for s in self.spans:
            if s.cat == "phase" and s.name in buckets:
                buckets[s.name].append(s.end - s.start)
        out: dict[str, dict[str, float]] = {}
        for phase in PHASES:
            durs = sorted(buckets[phase])
            n = len(durs)
            if n == 0:
                out[phase] = {"count": 0, "total_s": 0.0, "mean_s": 0.0,
                              "p50_s": 0.0, "p99_s": 0.0, "max_s": 0.0}
                continue
            total = sum(durs)
            out[phase] = {
                "count": n,
                "total_s": total,
                "mean_s": total / n,
                "p50_s": _quantile(durs, 0.50),
                "p99_s": _quantile(durs, 0.99),
                "max_s": durs[-1],
            }
        return out

    def render_breakdown(self) -> str:
        """Fixed-width text table of :meth:`delay_breakdown`."""
        rows = self.delay_breakdown()
        lines = [f"{'phase':<7}{'count':>7}{'total_s':>10}{'mean_ms':>10}"
                 f"{'p50_ms':>9}{'p99_ms':>9}{'max_ms':>9}  meaning"]
        for phase in PHASES:
            r = rows[phase]
            lines.append(
                f"{phase:<7}{r['count']:>7}{r['total_s']:>10.3f}"
                f"{r['mean_s'] * 1e3:>10.2f}{r['p50_s'] * 1e3:>9.2f}"
                f"{r['p99_s'] * 1e3:>9.2f}{r['max_s'] * 1e3:>9.2f}"
                f"  {PHASE_NAMES[phase]}")
        return "\n".join(lines)

    # -- Chrome trace-event export -----------------------------------------

    def chrome_trace(self) -> dict:
        """Trace-event JSON (``chrome://tracing`` / Perfetto format).

        Deterministic by construction: thread ids are assigned by first
        appearance, timestamps come from the sim clock in integer
        microseconds, and records are emitted in recording order — the
        golden test serializes this twice and compares bytes.
        """
        tids: dict[Optional[str], int] = {None: 0}
        trace: list[dict] = []

        def tid(task: Optional[str]) -> int:
            if task not in tids:
                tids[task] = len(tids)
            return tids[task]

        for s in self.spans:
            trace.append({
                "name": s.name, "cat": s.cat, "ph": "X", "pid": 1,
                "tid": tid(s.task),
                "ts": _us(s.start), "dur": max(0, _us(s.end) - _us(s.start)),
                "args": s.attrs,
            })
        for e in self.events:
            trace.append({
                "name": e.name, "cat": e.cat, "ph": "i", "s": "t", "pid": 1,
                "tid": tid(e.task), "ts": _us(e.time),
                "args": e.attrs,
            })
        meta = [{"name": "process_name", "ph": "M", "pid": 1, "tid": 0,
                 "args": {"name": "areplica"}}]
        for task, t in tids.items():
            meta.append({"name": "thread_name", "ph": "M", "pid": 1,
                         "tid": t, "args": {"name": task or "(untasked)"}})
        return {"traceEvents": meta + trace, "displayTimeUnit": "ms"}

    def export_chrome(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.chrome_trace(), fh, sort_keys=True,
                      separators=(",", ":"))
            fh.write("\n")


class TenantTracer:
    """Zero-state proxy adding a ``tenant`` attribute to each record.

    Only the recording surface (:meth:`span` / :meth:`event`) is
    proxied — engines emit through those two methods alone.  Everything
    else (queries, exports, the cost sink) lives on the underlying
    :class:`Tracer`, exposed via :attr:`base`.
    """

    __slots__ = ("base", "tenant")

    def __init__(self, base: Tracer, tenant: str):
        self.base = base
        self.tenant = tenant

    def span(self, name: str, cat: str, task: Optional[str],
             start: float, end: float, keys: tuple = (), *values) -> None:
        if "tenant" in keys:
            self.base.span(name, cat, task, start, end, keys, *values)
        else:
            self.base.span(name, cat, task, start, end, _tenanted(keys),
                           *values, self.tenant)

    def event(self, name: str, cat: str, task: Optional[str],
              keys: tuple = (), *values) -> None:
        if "tenant" in keys:
            self.base.event(name, cat, task, keys, *values)
        else:
            self.base.event(name, cat, task, _tenanted(keys), *values,
                            self.tenant)


#: ``keys -> keys + ("tenant",)``, so a schema's tenant-scoped records
#: share one attribute-name tuple too.
_TENANTED: dict[tuple, tuple] = {}


def _tenanted(keys: tuple) -> tuple:
    tenanted = _TENANTED.get(keys)
    if tenanted is None:
        tenanted = _TENANTED[keys] = keys + ("tenant",)
    return tenanted


def _us(t: float) -> int:
    return int(round(t * 1e6))


def _quantile(sorted_vals: list[float], q: float) -> float:
    """Nearest-rank quantile of an ascending list (deterministic): the
    ``ceil(q·n)``-th smallest value."""
    idx = max(0, math.ceil(q * len(sorted_vals)) - 1)
    # Nearest-rank keeps the value drawn from the data itself, so the
    # breakdown stays bit-stable across platforms (no interpolation).
    return sorted_vals[idx]
