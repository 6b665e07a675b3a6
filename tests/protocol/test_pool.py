"""The part pool's control records, driven through their real closures.

``core/partpool.py`` writes every pool-side record — ``pool:``,
``finalize:``, ``janitor:`` and ``reclaim:`` — as one ``update_item``
closure, so the pool runs unchanged against the dict-backed table
(``table.py``): the conditional create, the claim counter, completions,
quarantine markers, the abort flag, and the three leased roles.  This
is the first piece of the distributed scope (finding 3); it checks the
closures' answers and the records they leave, and searches nothing yet.
"""

from types import SimpleNamespace

import pytest

from repro.core import partpool
from tests.protocol.table import FakeTable, run

pytestmark = pytest.mark.protocol

TASK = {"task_id": "t", "num_parts": 3, "upload_id": "mpu1", "seq": 1}


class _Ctx:
    """A function running in ``region``: its region and the clock."""

    def __init__(self, region: str, table: FakeTable):
        self.region = SimpleNamespace(key=region)
        self._table = table

    @property
    def now(self) -> float:
        return self._table.sim.now


def _rule(regions=("r1",)):
    """A rule's state tables, one per region, sharing one clock."""
    tables = {region: FakeTable() for region in regions}
    clock = next(iter(tables.values())).sim
    for table in tables.values():
        table.sim = clock
    engine = SimpleNamespace(_state_table=tables.__getitem__)
    return engine, tables, clock


def test_create_claim_complete_and_abort_run_against_the_fake_table():
    engine, tables, _ = _rule()
    ctx = _Ctx("r1", tables["r1"])
    plan = SimpleNamespace(loc_key="r1")
    assert run(partpool.create(engine, plan, TASK)) is None
    # A retried orchestrator's create answers with the persisted
    # descriptor and leaves the record as it is.
    assert run(partpool.create(engine, plan, dict(TASK, upload_id="mpu2"))
               ) == TASK
    pool = partpool.pool_for(engine, ctx, "t", 3)
    assert [run(pool.claim()) for _ in range(4)] == [0, 1, 2, None]
    assert run(pool.complete_part(1)) == (True, False)
    assert run(pool.complete_part(1)) == (False, False)
    assert run(pool.missing_parts()) == [0, 2]
    assert run(pool.mark_quarantined(2))
    assert not run(pool.mark_quarantined(2))
    assert run(pool.quarantined_parts()) == [2]
    assert run(pool.complete_part(0)) == (True, False)
    assert tuple(run(pool.part_state(0))) == (True, False, True)
    assert run(pool.complete_part(2)) == (True, True)
    assert run(pool.missing_parts()) == []
    found, upload_id = run(partpool.orphan(engine, ctx, "t"))
    assert (found.task_id, found.num_parts, upload_id) == ("t", 3, "mpu1")
    assert run(pool.abort()) and not run(pool.abort())
    assert run(pool.is_aborted())
    assert run(partpool.orphan(engine, ctx, "t")) is None
    [(key, record)] = tables["r1"].peek_prefix("pool:")
    assert key == "pool:t"
    assert {k: record[k] for k in ("num_parts", "claimed", "completed",
                                   "duplicates", "abort_claims", "aborted",
                                   "quarantined_parts", "task")} == {
        "num_parts": 3, "claimed": 4, "completed": 3, "duplicates": 1,
        "abort_claims": 2, "aborted": True, "quarantined_parts": [2],
        "task": TASK}


@pytest.mark.parametrize("role", ["finalize", "janitor"])
def test_a_leased_role_is_reentrant_and_superseded_after_its_lease(role):
    engine, tables, clock = _rule()
    ctx = _Ctx("r1", tables["r1"])
    take = getattr(partpool, f"claim_{role}")
    lease_s = (partpool.FINALIZE_LEASE_S if role == "finalize" else
               partpool.RECOVERY_GRACE_S * 3 + partpool.FINALIZE_LEASE_S)
    assert run(partpool.finalize_held(engine, ctx, "t", "w1")) is None
    assert run(take(engine, ctx, "t", "w0"))
    assert not run(take(engine, ctx, "t", "w1"))
    assert run(take(engine, ctx, "t", "w0"))    # a platform retry resumes
    clock.now = lease_s
    assert not run(take(engine, ctx, "t", "w1"))
    clock.now = lease_s + 1.0
    assert run(take(engine, ctx, "t", "w1"))
    assert tables["r1"].items[f"{role}:t"] == {"owner": "w1",
                                               "at": lease_s + 1.0}


def test_finalize_held_stands_down_only_for_a_live_rival():
    engine, tables, clock = _rule()
    ctx = _Ctx("r1", tables["r1"])
    assert run(partpool.claim_finalize(engine, ctx, "t", "w0"))
    assert run(partpool.finalize_held(engine, ctx, "t", "w1")) is True
    assert run(partpool.finalize_held(engine, ctx, "t", "w0")) is False
    clock.now = partpool.FINALIZE_LEASE_S + 1.0
    assert run(partpool.finalize_held(engine, ctx, "t", "w1")) is False


def test_a_part_reclaim_is_not_reentrant():
    engine, tables, clock = _rule()
    pool = partpool.pool_for(engine, _Ctx("r1", tables["r1"]), "t", 3)
    assert run(pool.try_reclaim(1, "w0"))
    assert not run(pool.try_reclaim(1, "w0"))
    assert not run(pool.try_reclaim(1, "w1"))
    assert run(pool.try_reclaim(2, "w1"))       # one claim per part
    clock.now = partpool.RECLAIM_LEASE_S + 1.0
    assert run(pool.try_reclaim(1, "w1"))
    assert sorted(tables["r1"].items) == ["reclaim:t:1", "reclaim:t:2"]


@pytest.mark.xfail(strict=True, reason="known finding 11 "
                   "(docs/operations.md): the orphan lookup reads the "
                   "orchestrator's region, the create wrote the plan's")
def test_the_orphan_lookup_finds_a_pool_the_plan_placed_elsewhere():
    engine, tables, _ = _rule(("src", "dst"))
    run(partpool.create(engine, SimpleNamespace(loc_key="dst"), TASK))
    orphan = run(partpool.orphan(engine, _Ctx("src", tables["src"]), "t"))
    assert orphan is not None and orphan[1] == "mpu1"
