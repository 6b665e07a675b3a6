"""The lock and done-marker protocol of the inline path, model-checked.

The real ``ReplicationLockManager`` closures and the engine's marker
advance rule run against a dict-backed table (``table.py``), and
``inline.py`` searches every interleaving of a few orchestrator
attempts, source writes and faults.  Scopes without duplicate
notifications or deaths are safe; the two known protocol findings
(docs/operations.md "Known findings" 1 and 2) are each re-found by the
search alone, from the fault it is allowed, and pinned as strict
xfails until the lock-record fix lands.
"""

import pytest

from repro.core.engine import ReplicationEngine
from repro.core.locks import ReplicationLockManager
from tests.protocol.inline import KEY, Scope, _Engine, explore
from tests.protocol.table import FakeTable, run

pytestmark = pytest.mark.protocol


def test_the_real_lock_closures_run_against_the_fake_table():
    table = FakeTable()
    locks = ReplicationLockManager(table)
    first = run(locks.lock(KEY, "e1", 1, owner="a"))
    assert (first.acquired, first.fence, first.reentrant) == (True, 1, False)
    again = run(locks.lock(KEY, "e1", 1, owner="a"))
    assert (again.acquired, again.fence, again.reentrant) == (True, 1, True)
    assert run(locks.lock(KEY, "e3", 3, owner="c")).registered_pending
    assert not run(locks.lock(KEY, "e2", 2, owner="b")).registered_pending
    assert run(locks.verify(KEY, "a", 1))
    assert not run(locks.verify(KEY, "b", 1))
    assert not run(locks.release(KEY, owner="b")).released
    out = run(locks.release(KEY, owner="a"))
    assert out.released and (out.pending.etag, out.pending.seq) == ("e3", 3)
    assert table.frozen() == ()


def test_the_done_marker_advances_only_forward():
    engine = _Engine(FakeTable())

    def mark(seq):
        return run(ReplicationEngine._mark_done(
            engine, None, KEY, f"e{seq}", seq, 0.0))

    assert mark(2) is None
    assert mark(1)["seq"] == 2
    assert mark(3) is None
    assert run(ReplicationEngine._done_marker(engine, None, KEY))["seq"] == 3


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


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "finding (2), die after UNLOCK: the holder's UNLOCK returns a newer "
    "pending version and deletes the lock record, and the holder dies "
    "before its retrigger, so nobody replicates that version"))
def test_a_death_past_retries_never_loses_the_newest_version():
    search = explore(Scope(writes=3, deaths=1))
    assert search.counterexample is None, search.render()
