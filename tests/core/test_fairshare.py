"""Property suite for the weighted fair-share (DRR) scheduler.

The three guarantees the multi-tenant control plane leans on:

* **liveness / no starvation** — every submitted task is eventually
  dispatched, for *any* adversarial order in which in-flight work
  settles (hypothesis drives the settle order);
* **weighted shares** — under sustained contention the long-run
  dispatch shares converge to the configured DRR weights;
* **budget honesty** — a charge stream that follows the admission rule
  (charge only while ``window_spent < budget``) never produces an
  over-admission, so budget-exhausted tenants cannot have dispatched.

The scheduler is exercised without a simulator: each dispatch returns
a fake invocation future the test settles by hand, firing the
scheduler's slot-release callback, which re-pumps the queues.  The test
*is* the event loop, which keeps every interleaving deterministic and
lets hypothesis pick truly hostile completion orders without running a
DES.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.scheduler import FairShareScheduler
from repro.simcloud.cost import TenantLedger

pytestmark = pytest.mark.tenant


class FakeInvocation:
    """An invocation future that settles only when the test says so."""

    def __init__(self):
        self.callbacks = []

    def add_callback(self, fn) -> None:
        self.callbacks.append(fn)

    def settle(self) -> None:
        for fn in self.callbacks:
            fn(self)


class Harness:
    """A scheduler plus hand-settled dispatch machinery."""

    def __init__(self, max_concurrent: int):
        self.sched = FairShareScheduler(max_concurrent=max_concurrent)
        self.order: list[str] = []  # tenant ids in dispatch order
        self.outstanding: list[FakeInvocation] = []  # dispatch order

    def submit(self, tid: str, n: int = 1) -> None:
        for _ in range(n):
            self.sched.submit(tid, lambda t=tid: self._dispatch(t))

    def _dispatch(self, tid: str) -> FakeInvocation:
        self.order.append(tid)
        invocation = FakeInvocation()
        self.outstanding.append(invocation)
        return invocation

    def settle(self, index: int = 0) -> None:
        """Settle the ``index``-th outstanding invocation: its slot is
        released and the ring re-pumped."""
        self.outstanding.pop(index).settle()

    def drain(self, choose=None) -> None:
        """Settle everything; ``choose(n)`` picks which invocation next."""
        while self.outstanding:
            index = choose(len(self.outstanding)) if choose else 0
            self.settle(index)


# -- liveness: no tenant with pending work starves ----------------------------

@settings(max_examples=60, deadline=None)
@given(
    backlogs=st.lists(st.integers(min_value=0, max_value=12),
                      min_size=1, max_size=6),
    weights=st.lists(st.floats(min_value=0.1, max_value=8.0,
                               allow_nan=False, allow_infinity=False),
                     min_size=6, max_size=6),
    max_concurrent=st.integers(min_value=1, max_value=4),
    settle_picks=st.lists(st.integers(min_value=0, max_value=10 ** 6),
                          max_size=200),
)
def test_every_submitted_task_eventually_dispatches(
        backlogs, weights, max_concurrent, settle_picks):
    """Liveness under adversarial settle orders: whatever order the
    in-flight invocations complete in, every queued task dispatches and
    the queues end empty."""
    h = Harness(max_concurrent=max_concurrent)
    for i, (n, w) in enumerate(zip(backlogs, weights)):
        tid = f"t{i}"
        h.sched.add_tenant(tid, weight=w)
        h.submit(tid, n)
    picks = iter(settle_picks)

    def choose(n):
        return next(picks, 0) % n

    h.drain(choose=choose)
    assert h.sched.pending() == 0
    assert h.sched.in_flight == 0
    for i, n in enumerate(backlogs):
        assert h.sched.dispatched(f"t{i}") == n, f"t{i} starved"
    assert h.sched.total_dispatched == sum(backlogs)


def test_late_arrival_is_served_within_one_round():
    """A tenant that shows up while two others hog the ring still gets
    its first dispatch after at most one full DRR round (the classic
    bounded-wait guarantee)."""
    h = Harness(max_concurrent=1)
    h.sched.add_tenant("busy-a", weight=1.0)
    h.sched.add_tenant("busy-b", weight=1.0)
    h.sched.add_tenant("late", weight=1.0)
    h.submit("busy-a", 50)
    h.submit("busy-b", 50)
    h.submit("late", 1)
    # Settle until "late" dispatches; it must not take more than one
    # visit to each backlogged lane (weight 1, quantum 1 → one task
    # per lane per round) plus the task already in flight.
    for _ in range(4):
        if "late" in h.order:
            break
        h.settle()
    assert "late" in h.order[:4]


# -- weighted shares converge under contention --------------------------------

@pytest.mark.parametrize("weights", [
    {"small": 1.0, "mid": 2.0, "big": 4.0},
    {"a": 1.0, "b": 1.0, "c": 1.0},
    {"x": 0.5, "y": 3.0},
])
def test_longrun_dispatch_shares_converge_to_weights(weights):
    """With every lane permanently backlogged and one concurrency slot,
    the dispatch share of each tenant over a long horizon lands within
    5 percentage points of its weight share."""
    h = Harness(max_concurrent=1)
    rounds = 700
    for tid, w in weights.items():
        h.sched.add_tenant(tid, weight=w)
        h.submit(tid, rounds)  # deep enough to never drain
    observed = 0
    while h.outstanding and observed < rounds:
        h.settle()
        observed = len(h.order)
    total_weight = sum(weights.values())
    counts = {tid: h.order[:rounds].count(tid) for tid in weights}
    for tid, w in weights.items():
        share = counts[tid] / rounds
        expected = w / total_weight
        assert abs(share - expected) <= 0.05, (
            f"{tid}: share {share:.3f} vs weight share {expected:.3f}")


@settings(max_examples=40, deadline=None)
@given(weights=st.lists(st.floats(min_value=0.25, max_value=4.0,
                                  allow_nan=False, allow_infinity=False),
                        min_size=2, max_size=5))
def test_shares_converge_for_random_weight_mixes(weights):
    """Same convergence property, hypothesis-chosen weight vectors.
    The DRR error bound is one max-packet per round per lane, so the
    tolerance scales with the number of lanes over the horizon."""
    h = Harness(max_concurrent=1)
    horizon = 600
    for i, w in enumerate(weights):
        h.sched.add_tenant(f"t{i}", weight=w)
        h.submit(f"t{i}", horizon)
    while h.outstanding and len(h.order) < horizon:
        h.settle()
    total_weight = sum(weights)
    tolerance = 0.05 + len(weights) * math.ceil(max(weights)) / horizon
    for i, w in enumerate(weights):
        share = h.order[:horizon].count(f"t{i}") / horizon
        assert abs(share - w / total_weight) <= tolerance


def test_empty_lane_forfeits_deficit():
    """An idle tenant must not bank credit while away (DRR rule): after
    its lane drains and others run for a while, its next burst gets no
    catch-up beyond the normal per-round quantum."""
    h = Harness(max_concurrent=1)
    h.sched.add_tenant("idler", weight=4.0)
    h.sched.add_tenant("worker", weight=1.0)
    h.submit("idler", 1)
    h.drain()
    h.submit("worker", 100)
    for _ in range(50):
        h.settle()
    h.submit("idler", 100)
    for _ in range(12):
        h.settle()
    # After re-joining, the idler's longest consecutive service run is
    # one round's credit (quantum × weight = 4) — not the ~200 tasks
    # that 50 rounds of banked credit would buy.
    tail = h.order[51:]
    longest = run = 0
    for tid in tail:
        run = run + 1 if tid == "idler" else 0
        longest = max(longest, run)
    assert 1 <= longest <= 4, f"idler banked credit while idle: {tail}"


def test_slot_held_until_invocation_settles():
    """Concurrency accounting: a dispatched task occupies a slot until
    its invocation settles; a ``None`` result (fire and forget)
    releases the slot synchronously."""
    h = Harness(max_concurrent=2)
    h.sched.add_tenant("t", weight=1.0)
    h.submit("t", 3)
    assert h.sched.in_flight == 2 and h.sched.pending("t") == 1
    h.settle()
    assert h.sched.in_flight == 2 and h.sched.pending("t") == 0
    h.drain()
    assert h.sched.in_flight == 0

    none_sched = FairShareScheduler(max_concurrent=1)
    none_sched.add_tenant("t")
    none_sched.submit("t", lambda: None)
    assert none_sched.in_flight == 0 and none_sched.total_dispatched == 1


def test_fairshare_waits_counter_lands_in_tenant_stats():
    """Submissions that cannot dispatch synchronously bump the bound
    tenant-stats dict (the service's per-tenant counters)."""
    h = Harness(max_concurrent=1)
    stats = {"fairshare_waits": 0}
    h.sched.add_tenant("t", weight=1.0, stats=stats)
    h.submit("t", 3)
    assert stats["fairshare_waits"] == 2
    assert h.sched.total_waits == 2


def test_scheduler_rejects_bad_parameters():
    with pytest.raises(ValueError):
        FairShareScheduler(max_concurrent=0)
    with pytest.raises(ValueError):
        FairShareScheduler().add_tenant("t", weight=0.0)


# -- budget honesty: exhausted tenants never dispatch -------------------------

@settings(max_examples=80, deadline=None)
@given(
    budget=st.floats(min_value=0.5, max_value=20.0,
                     allow_nan=False, allow_infinity=False),
    window_s=st.floats(min_value=1.0, max_value=600.0,
                       allow_nan=False, allow_infinity=False),
    steps=st.lists(
        st.tuples(st.floats(min_value=0.0, max_value=50.0,
                            allow_nan=False, allow_infinity=False),
                  st.floats(min_value=0.01, max_value=5.0,
                            allow_nan=False, allow_infinity=False)),
        max_size=120),
)
def test_admission_rule_never_over_admits(budget, window_s, steps):
    """Replaying any arrival stream through the service's admission
    rule — charge iff the synced window spend is strictly below the
    budget — yields a ledger whose self-audit finds zero entries charged
    into an exhausted window.  This is the 'budget-exhausted tenants
    never dispatch' property: dispatch is gated on exactly this charge."""
    ledger = TenantLedger("t", budget_usd=budget, window_s=window_s)
    now = 0.0
    dispatched_when_exhausted = 0
    for dt, amount in steps:
        now += dt
        ledger.sync(now)
        if ledger.exhausted:
            dispatched_when_exhausted += 0  # admission refuses: no charge
            continue
        ledger.charge(now, amount)
    assert ledger.over_admissions() == 0
    assert dispatched_when_exhausted == 0


def test_over_admission_audit_actually_detects_violations():
    """Sanity: the self-audit is not vacuous — charging past exhaustion
    (what a buggy controller would do) is flagged."""
    ledger = TenantLedger("t", budget_usd=1.0, window_s=60.0)
    ledger.charge(0.0, 1.0)
    assert ledger.exhausted
    ledger.charge(1.0, 0.5)  # a correct controller would have refused
    assert ledger.over_admissions() == 1


def test_unlimited_budget_never_exhausts():
    ledger = TenantLedger("t", budget_usd=None, window_s=60.0)
    for i in range(50):
        ledger.charge(float(i), 10.0)
    assert not ledger.exhausted
    assert ledger.over_admissions() == 0
    assert ledger.lifetime_spent == pytest.approx(500.0)


def test_window_roll_resets_window_spend_but_not_lifetime():
    ledger = TenantLedger("t", budget_usd=2.0, window_s=10.0)
    ledger.charge(0.0, 2.0)
    assert ledger.exhausted
    ledger.sync(10.0)
    assert not ledger.exhausted and ledger.window_index == 1
    assert ledger.window_spent == 0.0
    assert ledger.lifetime_spent == pytest.approx(2.0)


@pytest.mark.parametrize("amount", [math.nan, math.inf, -math.inf, -1.0])
def test_a_non_finite_or_negative_reservation_is_refused(amount):
    """A NaN reservation would make ``exhausted`` read False for good
    (every comparison with NaN is False): a 1-USD budget then admits
    without limit and the self-audit counts nothing."""
    ledger = TenantLedger("t", budget_usd=1.0, window_s=60.0)
    ledger.charge(0.0, 0.5)
    with pytest.raises(ValueError):
        ledger.charge(1.0, amount)
    assert ledger.window_spent == 0.5 and ledger.admissions == 1
    ledger.charge(2.0, 0.5)
    assert ledger.exhausted


def _replayed_over_admissions(budget, window_s, ops):
    """The per-entry rule the ledger once replayed: each charge is
    filed under the window the ledger stood in when it landed (after
    syncing to its time), and over-admits when that window's earlier
    charges already summed to the budget.  Returns (over-admissions,
    charges, distinct windows charged)."""
    now, index = 0.0, 0
    entries = []
    for op in ops:
        if op[0] == "roll":
            index = max(index, int(now // window_s) + op[1])
            continue
        now += op[1]
        index = max(index, int(now // window_s))
        if op[0] == "charge":
            entries.append((index, op[2]))
    over, running = 0, {}
    for window, amount in entries:
        before = running.get(window, 0.0)
        if budget is not None and before >= budget:
            over += 1
        running[window] = before + amount
    return over, len(entries), len(running)


_LEDGER_OPS = st.lists(st.one_of(
    st.tuples(st.just("sync"), st.floats(0.0, 30.0)),
    st.tuples(st.just("charge"), st.floats(0.0, 30.0),
              st.floats(0.0, 3.0)),
    # roll(target) for target = the current time's window + k; k <= 0
    # is a no-op, and a charge right after k = 1 lands at a time still
    # inside window target - 1 (the service's boundary timer does this
    # when the boundary's float quotient rounds down).
    st.tuples(st.just("roll"), st.integers(-1, 2)),
), max_size=80)


@settings(max_examples=150, deadline=None)
@given(budget=st.one_of(st.none(), st.floats(0.0, 8.0)),
       window_s=st.floats(1.0, 60.0), ops=_LEDGER_OPS)
@example(budget=1.0, window_s=10.0,
         ops=[("charge", 5.0, 1.0), ("roll", 1), ("charge", 0.0, 0.2),
              ("charge", 0.0, 0.9), ("charge", 0.0, 0.1)])
def test_over_admission_counter_matches_the_per_entry_replay(
        budget, window_s, ops):
    """Charges here ignore ``exhausted`` (a buggy controller), so the
    counter is exercised on streams that do over-admit."""
    ledger = TenantLedger("t", budget_usd=budget, window_s=window_s)
    now = 0.0
    for op in ops:
        if op[0] == "roll":
            ledger.roll(ledger.window_of(now) + op[1])
            continue
        now += op[1]
        if op[0] == "sync":
            ledger.sync(now)
        else:
            ledger.charge(now, op[2])
    assert (ledger.over_admissions(), ledger.admissions,
            ledger.windows) == _replayed_over_admissions(budget, window_s,
                                                         ops)
