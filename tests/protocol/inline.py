"""An explicit-state search over the orchestrator's inline path.

One attempt is one orchestrator invocation for one notification of a
single key, following ``ReplicationEngine._orchestrator`` →
``transfer.run_single`` → ``_finish_replicated`` → ``_finish`` step for
step::

    LOCK → HEAD → MARKER → GET → FENCE → PUT → MARK → [RECONVERGE]
         → UNLOCK → RETRIGGER

Each step that touches a control record runs the real closure against
a :class:`~tests.protocol.table.FakeTable`: ``ReplicationLockManager``'s
``lock``, ``verify``, ``release``, ``done`` and ``mark_done`` (its
marker advance rule), the one class that owns both records.  The object
stores are two integers, the newest source version and the
destination's version.
Besides attempt steps, the actions are a source write (up to
``Scope.writes``, each notified ``Scope.copies`` times), a platform
retry (the attempt restarts at LOCK with the same owner) and a death
past retries (the attempt vanishes), each within its budget.

Simplifications, each an under-approximation of what can interleave:
the clock never reaches a lease expiry (no takeover), so a fence check
either reads nothing (the lease is young) or runs ``verify``; a
superseded marker's RECONVERGE reads the marker, the destination and
the source in one step; there are no deletes, hedges or changelog.

The property holds at quiescence (no attempt left, every write made):
the destination holds the newest source version, or a surviving lock
record holds or pends it, which ``reclaim_stranded_locks`` re-drives.
The search is breadth first, so the first counterexample is a
shortest one; it prints as the list of actions that reached it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

from repro.core.locks import ReplicationLockManager
from repro.core.task import task_id
from tests.protocol.table import FakeTable, run

KEY = "k"
(LOCK, HEAD, MARKER, GET, FENCE, PUT, MARK, RECONVERGE, UNLOCK,
 RETRIGGER) = range(10)


def etag(version: int) -> str:
    return f"e{version}"


class Attempt(NamedTuple):
    """One live orchestrator attempt: the version it was notified of
    (its task id's and payload's), whether it is a repair re-drive, its
    program counter, and what it learned so far."""

    seq: int
    repair: bool
    pc: int = LOCK
    fence: int = 0
    head: int = 0       # the version HEAD read
    got: int = 0        # the version the snapshot GET adopted
    rep: int = -1       # the replicated seq _finish is handed (-1: None)

    def __str__(self) -> str:
        return f"v{self.seq}" + (" repair" if self.repair else "")


class State(NamedTuple):
    src: int            # newest source version (0: none written yet)
    dst: int            # the destination's version (0: none)
    table: tuple        # the lock table's items, frozen
    attempts: tuple     # live attempts, sorted
    retries: int        # platform retries left
    deaths: int         # deaths past retries left


@dataclass(frozen=True)
class Scope:
    """How far the search reaches."""

    writes: int
    copies: int = 1     # notifications per write; 2 adds a duplicate
    retries: int = 0
    deaths: int = 0


def _step(state: State, a: Attempt) -> list[tuple[str, Optional[Attempt],
                                                  State]]:
    """Each way ``a`` can take its next step: ``(what happened, the
    attempt after it or None if it ended, the state after it)``, where
    the state's ``attempts`` still lacks the attempt itself."""
    table = FakeTable(state.table)
    locks = ReplicationLockManager(table)
    owner = task_id("r", KEY, a.seq, "created")
    pc = a.pc
    if pc == LOCK:
        out = run(locks.lock(KEY, etag(a.seq), a.seq, owner=owner))
        if not out.acquired:
            return [("LOCK held elsewhere", None,
                     state._replace(table=table.frozen()))]
        what = f"LOCK, fence {out.fence}" + (
            " (re-entrant)" if out.reentrant else "")
        return [(what, a._replace(pc=HEAD, fence=out.fence),
                 state._replace(table=table.frozen()))]
    if pc == HEAD:
        return [(f"HEAD v{state.src}", a._replace(pc=MARKER, head=state.src),
                 state)]
    if pc == MARKER:
        done = locks.done(KEY)
        if done is not None and not a.repair and done["seq"] >= a.head:
            return [(f"done marker v{done['seq']}: already replicated",
                     a._replace(pc=UNLOCK, rep=done["seq"]), state)]
        seen = "none" if done is None else f"v{done['seq']}"
        return [(f"done marker {seen}", a._replace(pc=GET), state)]
    if pc == GET:
        return [(f"GET v{state.src}", a._replace(pc=FENCE, got=state.src),
                 state)]
    if pc == FENCE:
        if run(locks.verify(KEY, owner, a.fence)):
            return [("fence check passes", a._replace(pc=PUT), state)]
        return [("fence check reads nothing (lease young)",
                 a._replace(pc=PUT), state),
                ("fence check fails: stands down", None, state)]
    if pc == PUT:
        return [(f"PUT v{a.got}", a._replace(pc=MARK),
                 state._replace(dst=a.got))]
    if pc == MARK:
        newer = locks.mark_done(KEY, etag(a.got), a.got, 0.0)
        state = state._replace(table=table.frozen())
        if newer is None:
            return [(f"done marker advanced to v{a.got}",
                     a._replace(pc=UNLOCK, rep=a.got), state)]
        return [(f"done marker already v{newer['seq']}",
                 a._replace(pc=RECONVERGE, rep=a.got), state)]
    if pc == RECONVERGE:
        done = locks.done(KEY)
        if done is None or done["seq"] == state.dst:
            return [("destination agrees with the marker",
                     a._replace(pc=UNLOCK), state)]
        redrive = Attempt(state.src, True)
        return [(f"destination v{state.dst} is not the marker's "
                 f"v{done['seq']}: repair v{state.src}",
                 a._replace(pc=UNLOCK),
                 state._replace(attempts=state.attempts + (redrive,)))]
    if pc == UNLOCK:
        out = run(locks.release(KEY, owner, None if a.rep < 0 else a.rep))
        state = state._replace(table=table.frozen())
        if not out.released:
            return [("UNLOCK refused: lock lost", None, state)]
        if out.pending is not None:
            return [(f"UNLOCK, pending v{out.pending.seq}",
                     a._replace(pc=RETRIGGER), state)]
        return [("UNLOCK", None, state)]
    assert pc == RETRIGGER
    if a.rep >= 0 and state.src <= a.rep:
        return [(f"HEAD v{state.src}: nothing newer", None, state)]
    return [(f"retrigger v{state.src}", None, state._replace(
        attempts=state.attempts + (Attempt(state.src, False),)))]


def successors(scope: Scope, state: State):
    """``(action, next state)`` for every action enabled in ``state``."""
    if state.src < scope.writes:
        v = state.src + 1
        yield (f"source write v{v}" + (
            f", notified {scope.copies} times" if scope.copies > 1 else ""),
               state._replace(src=v, attempts=tuple(sorted(
                   state.attempts + (Attempt(v, False),) * scope.copies))))
    for i, a in enumerate(state.attempts):
        if i and a == state.attempts[i - 1]:
            continue        # twins in one state step alike
        rest = state._replace(attempts=state.attempts[:i]
                              + state.attempts[i + 1:])
        for what, after, nxt in _step(rest, a):
            attempts = nxt.attempts + ((after,) if after else ())
            yield f"{a}: {what}", nxt._replace(
                attempts=tuple(sorted(attempts)))
        if a.pc == LOCK:
            # A retry before LOCK is the same state; a death there loses
            # the notification itself, which the dead-letter queue
            # reports, not a protocol the search could fault.
            continue
        if state.retries:
            yield f"{a}: platform retry", rest._replace(
                attempts=tuple(sorted(rest.attempts + (
                    Attempt(a.seq, a.repair),))),
                retries=state.retries - 1)
        if state.deaths:
            yield f"{a}: dies past its retries", rest._replace(
                deaths=state.deaths - 1)


def lost(state: State) -> bool:
    """The newest version is neither at the destination nor held or
    pending on a surviving lock record."""
    if state.dst == state.src:
        return False
    lock = dict(dict(state.table).get(f"lock:{KEY}", ()))
    return state.src not in (lock.get("held_seq"), lock.get("pending_seq"))


class Search(NamedTuple):
    states: int
    #: The actions reaching the first quiescent state that lost the
    #: newest version, or None when no reachable one does.
    counterexample: Optional[list[str]]

    def render(self) -> str:
        return "\n".join(f"{n:>3}. {action}" for n, action in
                         enumerate(self.counterexample or (), 1))


def explore(scope: Scope) -> Search:
    """Breadth first over every state ``scope`` reaches."""
    start = State(0, 0, (), (), scope.retries, scope.deaths)
    parent: dict[State, Optional[tuple[State, str]]] = {start: None}
    frontier = [start]
    while frontier:
        following = []
        for state in frontier:
            quiescent = True
            for action, nxt in successors(scope, state):
                quiescent = False
                if nxt not in parent:
                    parent[nxt] = (state, action)
                    following.append(nxt)
            if quiescent and lost(state):
                actions = []
                while parent[state] is not None:
                    state, action = parent[state]
                    actions.append(action)
                return Search(len(parent), actions[::-1])
        frontier = following
    return Search(len(parent), None)
