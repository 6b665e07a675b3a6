"""Model-based test of the part pool under random worker interleavings,
duplications, and reclaims — the Algorithm 1 state machine."""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.core.partpool import PartPool
from repro.simcloud.cloud import build_default_cloud

NUM_PARTS = 8


class PartPoolMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.cloud = build_default_cloud(seed=77)
        self.table = self.cloud.kv_table("aws:us-east-1", "state")
        self.pool = PartPool(self.table, "task", NUM_PARTS)
        self.cloud.sim.run_process(self.pool.create())
        self.claimed: list[int] = []          # indices handed out
        self.completed: set[int] = set()
        self.finish_signals = 0
        self.pool_exhausted = False

    def _run(self, gen):
        return self.cloud.sim.run_process(gen)

    @rule()
    def claim(self):
        idx = self._run(self.pool.claim())
        if idx is None:
            self.pool_exhausted = True
            assert len(self.claimed) == NUM_PARTS
        else:
            assert 0 <= idx < NUM_PARTS
            assert idx not in self.claimed   # allocator never repeats
            self.claimed.append(idx)

    @rule(data=st.data())
    def complete_claimed(self, data):
        outstanding = [i for i in self.claimed if i not in self.completed]
        if not outstanding:
            return
        idx = data.draw(st.sampled_from(outstanding))
        finished = self._run(self.pool.complete(idx))
        self.completed.add(idx)
        if finished:
            self.finish_signals += 1

    @rule(data=st.data())
    def duplicate_complete(self, data):
        """A retried worker redoing a part must not double-count."""
        if not self.completed:
            return
        idx = data.draw(st.sampled_from(sorted(self.completed)))
        finished = self._run(self.pool.complete(idx))
        assert not finished or self.finish_signals == 0

    @rule(data=st.data(), worker=st.integers(0, 3))
    def reclaim_attempt(self, data, worker):
        idx = data.draw(st.integers(0, NUM_PARTS - 1))
        self._run(self.pool.try_reclaim(idx, f"w{worker}"))

    # -- invariants ----------------------------------------------------------

    @invariant()
    def progress_counters_consistent(self):
        state = self.pool.peek_progress()
        assert state["completed"] == len(self.completed)
        done_map = state.get("done_map", b"")
        assert {i for i, d in enumerate(done_map) if d} == self.completed

    @invariant()
    def at_most_one_finish_signal(self):
        assert self.finish_signals <= 1
        if self.finish_signals == 1:
            assert self.completed == set(range(NUM_PARTS))

    @invariant()
    def missing_parts_complement_done(self):
        missing = self._run(self.pool.missing_parts())
        assert set(missing) == set(range(NUM_PARTS)) - self.completed


TestPartPoolStateMachine = PartPoolMachine.TestCase
TestPartPoolStateMachine.settings = settings(
    max_examples=30, stateful_step_count=40, deadline=None)
