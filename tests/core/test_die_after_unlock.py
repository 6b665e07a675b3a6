"""Finding (2), end to end: an orchestrator that dies after its UNLOCK
handed back a pending version, and before it re-triggers that version.

A key is written and replicated inline over a slow link.  While the
holder uploads, the source deletes the key, and the delete's
orchestrator registers the delete as pending on the held lock.  The
holder's attempt dies the instant its UNLOCK answers, through the
attempt's own crash path (``FunctionContext._on_crash``, which no
engine ``except`` can catch), and the platform retries it.  Two
requests in all.

While UNLOCK deleted the lock record, the retry found no record, saw
the done marker cover its own version and unlocked: nobody propagated
the delete, so the key lingered at the destination and the delete was
never measured.  Now the record outlives that UNLOCK, ownerless and
pending the delete, so the retry's own UNLOCK hands the delete back.
"""

from repro.core.locks import UnlockOutcome
from repro.core.verify import verify
from repro.simcloud.objectstore import Blob
from tests.core.test_zombie_writer import MB, build_throttled


def _die_after_the_first_handoff(engine) -> list:
    """Crash the first attempt whose UNLOCK hands back a pending
    version, before it takes another step; returns the crashed
    attempts' contexts."""
    kv, crashed = engine._kv, []

    def kv_then_die(ctx, make):
        out = yield from kv(ctx, make)
        if (isinstance(out, UnlockOutcome) and out.pending is not None
                and not crashed):
            crashed.append(ctx)
            ctx._on_crash()
        return out

    engine._kv = kv_then_die
    return crashed


def test_a_death_after_unlock_still_propagates_the_pending_delete():
    cloud, svc, src, dst, rule = build_throttled(seed=5)
    rule.engine.forced_plan = (1, "aws:us-east-1")     # inline, ~6 s
    rule.engine.locks.lease_s = 300.0       # no takeover: the holder lives
    crashed = _die_after_the_first_handoff(rule.engine)
    src.put_object("k", Blob.fresh(30 * MB), cloud.now)
    cloud.sim.call_later(3.0, lambda: src.delete_object("k", cloud.sim.now))

    verdict = verify(svc)

    assert len(crashed) == 1
    assert rule.engine.stats["deferred"] == 1      # the delete pended
    assert verdict.audit.findings == [], verdict.audit.render()
    assert verdict.convergence.converged and verdict.pending == 0
    assert "k" not in dst
    assert list(rule.engine.locks.stranded()) == []
