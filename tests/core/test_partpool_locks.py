"""Tests for the decentralized part pool (Algorithm 1) and the
replication lock (Algorithm 2)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.locks import ReplicationLockManager, claim
from repro.core.partpool import FairAssignment, PartPool
from repro.simcloud.cloud import build_default_cloud


@pytest.fixture
def cloud():
    return build_default_cloud(seed=9)


@pytest.fixture
def table(cloud):
    return cloud.kv_table("aws:us-east-1", "state")


def run(cloud, gen):
    return cloud.sim.run_process(gen)


class TestPartPool:
    def test_claims_are_unique_and_complete(self, cloud, table):
        pool = PartPool(table, "t1", 10)
        claimed = []

        def worker():
            while True:
                idx = yield from pool.claim()
                if idx is None:
                    return
                claimed.append(idx)
                yield from pool.complete(idx)

        def main():
            yield from pool.create()
            yield cloud.sim.all_of([cloud.sim.spawn(worker()) for _ in range(4)])

        run(cloud, main())
        assert sorted(claimed) == list(range(10))

    def test_exactly_one_finisher(self, cloud, table):
        pool = PartPool(table, "t2", 7)
        finishers = []

        def worker(i):
            while True:
                idx = yield from pool.claim()
                if idx is None:
                    return
                done = yield from pool.complete(idx)
                if done:
                    finishers.append(i)

        def main():
            yield from pool.create()
            yield cloud.sim.all_of([cloud.sim.spawn(worker(i)) for i in range(3)])

        run(cloud, main())
        assert len(finishers) == 1

    def test_fast_workers_claim_more(self, cloud, table):
        """The point of decentralized scheduling: throughput-proportional
        part counts (Fig 12)."""
        pool = PartPool(table, "t3", 12)
        counts = {"fast": 0, "slow": 0}

        def worker(name, per_part_s):
            while True:
                idx = yield from pool.claim()
                if idx is None:
                    return
                yield cloud.sim.sleep(per_part_s)
                counts[name] += 1
                yield from pool.complete(idx)

        def main():
            yield from pool.create()
            yield cloud.sim.all_of([
                cloud.sim.spawn(worker("fast", 0.25)),
                cloud.sim.spawn(worker("slow", 0.5)),
            ])

        run(cloud, main())
        assert counts["fast"] > counts["slow"]
        assert counts["fast"] + counts["slow"] == 12

    def test_two_kv_ops_per_part(self, cloud, table):
        """§5.1: decentralized scheduling triggers only two external
        storage accesses per data part."""
        pool = PartPool(table, "t4", 5)

        def worker():
            while True:
                idx = yield from pool.claim()
                if idx is None:
                    return
                yield from pool.complete(idx)

        def main():
            yield from pool.create()
            yield cloud.sim.spawn(worker())

        run(cloud, main())
        # 1 create + (5+1) claims (last returns None) + 5 completes.
        assert table.op_counts["write"] == 1 + 6 + 5

    @pytest.mark.parametrize("kind", ["part-reclaim", "finalize"])
    def test_reclaim_lease_judged_and_stamped_at_admission_time(self, cloud,
                                                                table, kind):
        """Regression: ``try_reclaim`` took the caller's pre-round-trip
        ``now``, so under injected admission delay the new lease was
        backdated to the call instant and expiry was judged on a stale
        clock.  A delayed KV write answers at the instant it is
        admitted, so the stored ``at`` must equal the clock on return.

        Both record kinds :func:`~repro.core.locks.claim` serves follow
        that rule: the part reclaim and the re-entrant finalize/janitor
        claim.  Only the re-entrant kind lets the holder win its own
        live lease again."""
        from repro.simcloud.chaos import ChaosConfig

        table.set_chaos(ChaosConfig(kv_delay_prob=0.999, kv_delay_mean_s=5.0),
                        cloud.rngs.stream("test-reclaim-delay"))
        pool = PartPool(table, "t-delay", 4)
        sim = cloud.sim
        reentrant = kind == "finalize"
        key = "finalize:t-delay" if reentrant else "reclaim:t-delay:0"

        def take(owner, lease_s):
            if reentrant:
                return claim(table, key, owner, lease_s, reentrant=True)
            return pool.try_reclaim(0, owner, lease_s=lease_s)

        def main():
            called = sim.now
            assert (yield from take("w0", 1.0))
            admitted = sim.now
            assert admitted > called + 0.1, "chaos injected no delay"
            assert table.peek(key)["at"] == admitted
            # Issued inside the lease, admitted past it: the takeover
            # must be granted on the admission clock.
            called = sim.now
            won = yield from take("w1", 1.0)
            assert sim.now - called > 1.0, "second round trip too short"
            assert won
            held = {"owner": "w1", "at": sim.now}
            assert table.peek(key) == held
            # A lease no round trip outlives: another owner never wins
            # it, and its holder wins it again only when re-entrant.
            assert not (yield from take("w0", 1e9))
            assert (yield from take("w1", 1e9)) is reentrant
            assert table.peek(key) == (
                {"owner": "w1", "at": sim.now} if reentrant else held)

        run(cloud, main())

    def test_abort_first_claimer_only(self, cloud, table):
        pool = PartPool(table, "t5", 4)
        results = []

        def aborter():
            first = yield from pool.abort()
            results.append(first)

        def main():
            yield from pool.create()
            yield cloud.sim.all_of([cloud.sim.spawn(aborter()) for _ in range(3)])

        run(cloud, main())
        assert sorted(results) == [False, False, True]

    def test_is_aborted_flag(self, cloud, table):
        pool = PartPool(table, "t6", 4)

        def main():
            yield from pool.create()
            before = yield from pool.is_aborted()
            yield from pool.abort()
            after = yield from pool.is_aborted()
            return before, after

        assert run(cloud, main()) == (False, True)

    def test_zero_parts_rejected(self, table):
        with pytest.raises(ValueError):
            PartPool(table, "t", 0)


class _ListPool:
    """The list-based done-set the done map replaced, as the oracle."""

    def __init__(self, num_parts):
        self.num_parts, self.done, self.completed = num_parts, [], 0
        self.duplicates = 0

    def complete(self, idx):
        if idx in self.done:
            self.duplicates += 1
            return False, False
        self.done.append(idx)
        self.completed += 1
        return True, self.completed == self.num_parts

    def missing(self):
        return [i for i in range(self.num_parts) if i not in self.done]


class TestDoneMap:
    @settings(max_examples=60, deadline=None)
    @given(num_parts=st.integers(1, 12), data=st.data())
    def test_matches_the_list_reference(self, num_parts, data):
        """Any completion order, duplicates included: ``first``,
        ``finished``, ``duplicates``, ``missing_parts`` and
        ``part_state`` agree with the list-based done-set."""
        order = data.draw(st.lists(st.integers(0, num_parts - 1),
                                   max_size=3 * num_parts))
        cloud = build_default_cloud(seed=9)
        pool = PartPool(cloud.kv_table("aws:us-east-1", "state"), "t",
                        num_parts)
        oracle = _ListPool(num_parts)
        run(cloud, pool.create())
        assert run(cloud, pool.missing_parts()) == oracle.missing()
        for idx in order:
            outcome = run(cloud, pool.complete_part(idx))
            assert (outcome.first, outcome.finished) == oracle.complete(idx)
            assert run(cloud, pool.missing_parts()) == oracle.missing()
            probe = data.draw(st.integers(0, num_parts - 1))
            state = run(cloud, pool.part_state(probe))
            assert state.exists and not state.aborted
            assert state.done == (probe in oracle.done)
        assert pool.peek_progress().get("duplicates", 0) == oracle.duplicates

    def test_read_in_flight_sees_a_later_completion(self, cloud, table):
        """KV reads are shallow copies and the done map is flipped in
        place, so a read admitted before a completion but delivered
        after it already sees that completion — as the list did
        (docs/operations.md, known finding 8).  A fresh map per write
        would change what in-flight reads see, hence the outcomes."""
        pool = PartPool(table, "t7", 3)
        seen = {}

        def missing():
            seen["missing"] = yield from pool.missing_parts()

        def state():
            seen["state"] = yield from pool.part_state(1)

        def writer():
            yield cloud.sim.sleep(1e-4)
            yield from pool.complete(1)

        def main():
            yield from pool.create()
            yield from pool.complete(0)
            yield cloud.sim.all_of([cloud.sim.spawn(missing()),
                                    cloud.sim.spawn(state()),
                                    cloud.sim.spawn(writer())])

        run(cloud, main())
        assert seen["missing"] == [2]
        assert seen["state"].done


class TestFairAssignment:
    def test_even_split(self):
        fa = FairAssignment(8, 4)
        assert fa.all_assignments() == [[0, 1], [2, 3], [4, 5], [6, 7]]

    def test_uneven_split_front_loaded(self):
        fa = FairAssignment(10, 4)
        sizes = [len(p) for p in fa.all_assignments()]
        assert sizes == [3, 3, 2, 2]

    def test_covers_all_parts_exactly_once(self):
        fa = FairAssignment(13, 5)
        flat = [i for parts in fa.all_assignments() for i in parts]
        assert sorted(flat) == list(range(13))

    def test_more_workers_than_parts(self):
        fa = FairAssignment(2, 5)
        sizes = [len(p) for p in fa.all_assignments()]
        assert sizes == [1, 1, 0, 0, 0]

    def test_bad_index_rejected(self):
        with pytest.raises(IndexError):
            FairAssignment(4, 2).parts_for(2)

    @given(parts=st.integers(1, 200), workers=st.integers(1, 64))
    @settings(max_examples=50, deadline=None)
    def test_partition_property(self, parts, workers):
        fa = FairAssignment(parts, workers)
        flat = sorted(i for p in fa.all_assignments() for i in p)
        assert flat == list(range(parts))
        sizes = [len(p) for p in fa.all_assignments()]
        assert max(sizes) - min(sizes) <= 1


class TestReplicationLock:
    def test_acquire_release(self, cloud, table):
        mgr = ReplicationLockManager(table)

        def main():
            outcome = yield from mgr.lock("k", "e1", 1, owner="a")
            assert outcome.acquired
            assert [key for key, *_ in mgr.stranded()] == ["k"]
            pending = (yield from mgr.release("k", owner="a")).pending
            return pending

        assert run(cloud, main()) is None
        assert not table.peek("lock:k")

    def test_contention_registers_pending(self, cloud, table):
        mgr = ReplicationLockManager(table)

        def main():
            yield from mgr.lock("k", "e1", 1, owner="a")
            second = yield from mgr.lock("k", "e2", 2, owner="b")
            assert not second.acquired
            # The held record now names v2, pending, as its newest.
            assert [(seq, etag) for _, _, seq, etag, *_
                    in mgr.stranded()] == [(2, "e2")]
            pending = (yield from mgr.release("k", owner="a")).pending
            return pending

        pending = run(cloud, main())
        assert pending.etag == "e2"
        assert pending.seq == 2

    def test_only_newest_pending_kept(self, cloud, table):
        mgr = ReplicationLockManager(table)

        def main():
            yield from mgr.lock("k", "e1", 1, owner="a")
            yield from mgr.lock("k", "e3", 3, owner="c")
            older = yield from mgr.lock("k", "e2", 2, owner="b")
            assert not older.acquired  # e3 stays pending; e2 can quit
            pending = (yield from mgr.release("k", owner="a")).pending
            return pending

        pending = run(cloud, main())
        assert pending.etag == "e3"

    def test_unlock_by_non_owner_is_noop(self, cloud, table):
        mgr = ReplicationLockManager(table)

        def main():
            yield from mgr.lock("k", "e1", 1, owner="a")
            outcome = yield from mgr.release("k", owner="z")
            return outcome

        outcome = run(cloud, main())
        assert not outcome.released and outcome.pending is None
        assert table.peek("lock:k") is not None

    def test_expired_lease_stolen(self, cloud, table):
        mgr = ReplicationLockManager(table, lease_s=10.0)

        def main():
            yield from mgr.lock("k", "e1", 1, owner="dead")
            yield cloud.sim.sleep(11.0)
            outcome = yield from mgr.lock("k", "e2", 2, owner="alive")
            return outcome

        outcome = run(cloud, main())
        assert outcome.acquired
        assert table.peek("lock:k")["owner"] == "alive"

    def test_steal_preserves_pending(self, cloud, table):
        mgr = ReplicationLockManager(table, lease_s=10.0)

        def main():
            yield from mgr.lock("k", "e1", 1, owner="dead")
            yield from mgr.lock("k", "e2", 2, owner="waiter")
            yield cloud.sim.sleep(11.0)
            yield from mgr.lock("k", "e3", 3, owner="alive")
            pending = (yield from mgr.release("k", owner="alive")).pending
            return pending

        pending = run(cloud, main())
        assert pending.etag == "e2"

    def test_concurrent_lockers_single_winner(self, cloud, table):
        mgr = ReplicationLockManager(table)
        outcomes = []

        def locker(i):
            outcome = yield from mgr.lock("k", f"e{i}", i, owner=f"o{i}")
            outcomes.append(outcome.acquired)

        def main():
            yield cloud.sim.all_of(
                [cloud.sim.spawn(locker(i)) for i in range(1, 9)]
            )

        run(cloud, main())
        assert sum(outcomes) == 1


class TestFencing:
    def test_fence_bumps_only_on_ownership_change(self, cloud, table):
        mgr = ReplicationLockManager(table, lease_s=10.0)

        def main():
            first = yield from mgr.lock("k", "e1", 1, owner="a")
            # A platform-retried holder re-enters its own lock: same
            # token, even after the lease lapsed (nobody stole it).
            again = yield from mgr.lock("k", "e1", 1, owner="a")
            yield cloud.sim.sleep(11.0)
            expired = yield from mgr.lock("k", "e1", 1, owner="a")
            yield cloud.sim.sleep(11.0)
            stolen = yield from mgr.lock("k", "e2", 2, owner="b")
            return first, again, expired, stolen

        first, again, expired, stolen = run(cloud, main())
        assert first.fence == again.fence == expired.fence == 1
        assert stolen.acquired and stolen.fence == 2

    def test_verify_detects_steal_and_release(self, cloud, table):
        mgr = ReplicationLockManager(table, lease_s=10.0)

        def main():
            a = yield from mgr.lock("k", "e1", 1, owner="a")
            ok_before = yield from mgr.verify("k", "a", a.fence)
            yield cloud.sim.sleep(11.0)
            b = yield from mgr.lock("k", "e2", 2, owner="b")
            ok_after = yield from mgr.verify("k", "a", a.fence)
            ok_thief = yield from mgr.verify("k", "b", b.fence)
            yield from mgr.release("k", owner="b")
            ok_gone = yield from mgr.verify("k", "b", b.fence)
            return ok_before, ok_after, ok_thief, ok_gone

        ok_before, ok_after, ok_thief, ok_gone = run(cloud, main())
        assert ok_before and ok_thief
        assert not ok_after and not ok_gone

    def test_release_reports_loss_and_spares_thief_record(self, cloud, table):
        mgr = ReplicationLockManager(table, lease_s=10.0)

        def main():
            yield from mgr.lock("k", "e1", 1, owner="a")
            yield cloud.sim.sleep(11.0)
            yield from mgr.lock("k", "e2", 2, owner="b")
            zombie = yield from mgr.release("k", owner="a")
            owner = yield from mgr.release("k", owner="b")
            return zombie, owner

        zombie, owner = run(cloud, main())
        assert not zombie.released
        assert owner.released
        assert not table.peek("lock:k")

    def test_lease_expiry_judged_at_admission_time(self, cloud, table):
        """Regression: expiry must be evaluated against the clock at KV
        *admission*, not at the call.  Under injected admission delay a
        steal attempt issued while the lease is young lands after it has
        lapsed; judging it with the stale pre-round-trip timestamp would
        wrongly deny the takeover (and, symmetrically, backdate the new
        holder's own lease)."""
        from repro.simcloud.chaos import ChaosConfig

        table.set_chaos(ChaosConfig(kv_delay_prob=0.95, kv_delay_mean_s=5.0),
                        cloud.rngs.stream("test-lock-delay"))
        mgr = ReplicationLockManager(table, lease_s=0.05)
        steals = []

        def main():
            for i in range(10):
                key = f"k{i}"
                yield from mgr.lock(key, "e1", 1, owner="a")
                # Issued immediately — well inside the lease at call time
                # — but admitted seconds later, far past it.
                outcome = yield from mgr.lock(key, "e2", 2, owner="b")
                steals.append(outcome.acquired)

        run(cloud, main())
        assert any(steals)
        for i, stolen in enumerate(steals):
            if stolen:
                assert table.peek(f"lock:k{i}")["owner"] == "b"
