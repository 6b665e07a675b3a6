"""The lock and done-marker protocol of the inline path, model-checked.

The real ``ReplicationLockManager`` closures, its marker advance rule
among them, run against a dict-backed table (``table.py``), and
``inline.py`` searches every interleaving of a few orchestrator
attempts, source writes and faults.  Scopes without duplicate
notifications are safe, deaths past retries included; finding (1)
(docs/operations.md "Known findings"), twin re-entry, is re-found by the
search alone, from the duplicate it is allowed, and pinned as a strict
xfail until the lock-record fix for it lands.
"""

import pytest

from repro.core.locks import ReplicationLockManager
from tests.protocol.inline import KEY, Scope, explore
from tests.protocol.table import FakeTable, run

pytestmark = pytest.mark.protocol


def test_the_real_lock_closures_run_against_the_fake_table():
    table = FakeTable()
    locks = ReplicationLockManager(table)
    first = run(locks.lock(KEY, "e1", 1, owner="a"))
    assert (first.acquired, first.fence, first.reentrant) == (True, 1, False)
    again = run(locks.lock(KEY, "e1", 1, owner="a"))
    assert (again.acquired, again.fence, again.reentrant) == (True, 1, True)
    # Contention registers the newest version as pending, never an
    # older one.
    assert not run(locks.lock(KEY, "e3", 3, owner="c")).acquired
    assert not run(locks.lock(KEY, "e2", 2, owner="b")).acquired
    assert [seq for _, _, seq, *_ in locks.stranded()] == [3]
    assert run(locks.verify(KEY, "a", 1))
    assert not run(locks.verify(KEY, "b", 1))
    assert not run(locks.release(KEY, owner="b")).released
    out = run(locks.release(KEY, "a", replicated_seq=1))
    assert out.released and (out.pending.etag, out.pending.seq) == ("e3", 3)
    # The handed-back version stays pending on an ownerless record,
    # which the next LOCK takes like an absent one.
    assert list(locks.stranded()) == [(KEY, None, 3, "e3", 0.0, 0.0)]
    newer = run(locks.lock(KEY, "e4", 4, owner="d"))
    assert (newer.acquired, newer.fence, newer.reentrant) == (True, 1, False)
    assert [seq for _, _, seq, *_ in locks.stranded()] == [4]
    assert run(locks.release(KEY, "d", replicated_seq=4)).pending is None
    assert table.frozen() == ()


def test_an_ownerless_record_passes_on_only_a_newer_version():
    locks = ReplicationLockManager(FakeTable())
    run(locks.lock(KEY, "e1", 1, owner="a"))
    run(locks.lock(KEY, "e3", 3, owner="c"))
    run(locks.release(KEY, "a", replicated_seq=1))      # pends v3, ownerless
    run(locks.lock(KEY, "e2", 2, owner="b"))            # an older acquirer
    out = run(locks.release(KEY, "b", replicated_seq=2))
    assert (out.pending.etag, out.pending.seq) == ("e3", 3)


def test_release_hands_back_only_a_version_newer_than_the_replicated():
    locks = ReplicationLockManager(FakeTable())
    run(locks.lock(KEY, "e1", 1, owner="a"))
    run(locks.lock(KEY, "e2", 2, owner="b"))
    assert run(locks.release(KEY, "a", replicated_seq=2)).pending is None
    assert list(locks.stranded()) == []


def test_the_done_marker_advances_only_forward():
    locks = ReplicationLockManager(FakeTable())

    def mark(seq):
        return locks.mark_done(KEY, f"e{seq}", seq, 0.0)

    assert mark(2) is None
    assert mark(1)["seq"] == 2
    assert mark(3) is None
    assert locks.done(KEY)["seq"] == 3
    assert list(locks.markers()) == [(KEY, 3)]


@pytest.mark.parametrize("scope", [Scope(writes=3),
                                   Scope(writes=3, retries=1),
                                   Scope(writes=2, retries=2)],
                         ids=lambda s: f"writes{s.writes}-retries{s.retries}")
def test_the_inline_path_never_loses_the_newest_version(scope):
    """Source writes racing the attempts, and platform retries that
    restart an attempt at LOCK with its own owner, are safe."""
    search = explore(scope)
    assert search.counterexample is None, search.render()
    assert search.states > 400


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "finding (1), twin re-entry: a duplicate notification runs a second "
    "live attempt under one owner, lock.lock admits it as re-entrant "
    "with the same fence, and the twin that read the older version "
    "lands its PUT after the twin that read the newer one, under a done "
    "marker that vouches for the newer"))
def test_a_duplicate_notification_never_loses_the_newest_version():
    search = explore(Scope(writes=2, copies=2))
    assert search.counterexample is None, search.render()


@pytest.mark.parametrize("scope", [Scope(writes=3, deaths=1),
                                   Scope(writes=3, deaths=2),
                                   Scope(writes=3, retries=1, deaths=1)],
                         ids=lambda s: f"retries{s.retries}-deaths{s.deaths}")
def test_a_death_past_retries_never_loses_the_newest_version(scope):
    """Finding (2): a holder that dies after its UNLOCK handed back a
    newer pending version leaves that version pending on an ownerless
    record, which ``reclaim_stranded_locks`` re-drives."""
    search = explore(scope)
    assert search.counterexample is None, search.render()
    assert search.states > 700
