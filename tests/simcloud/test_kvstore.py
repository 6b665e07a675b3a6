"""Tests for the simulated serverless NoSQL database."""

import pytest

from repro.simcloud.cloud import build_default_cloud
from repro.simcloud.cost import CostCategory


@pytest.fixture
def cloud():
    return build_default_cloud(seed=1)


@pytest.fixture
def table(cloud):
    return cloud.kv_table("aws:us-east-1", "state")


def run(cloud, gen):
    return cloud.sim.run_process(gen)


class TestPointOps:
    def test_put_then_get(self, cloud, table):
        def flow():
            yield table.put_item("k", {"x": 1})
            item = yield table.get_item("k")
            return item

        assert run(cloud, flow()) == {"x": 1}

    def test_get_missing_returns_none(self, cloud, table):
        def flow():
            return (yield table.get_item("nope"))

        assert run(cloud, flow()) is None

    def test_get_returns_copy(self, cloud, table):
        def flow():
            yield table.put_item("k", {"x": 1})
            item = yield table.get_item("k")
            item["x"] = 99
            return (yield table.get_item("k"))

        assert run(cloud, flow()) == {"x": 1}

    def test_delete(self, cloud, table):
        def flow():
            yield table.put_item("k", {"x": 1})
            yield table.delete_item("k")
            return (yield table.get_item("k"))

        assert run(cloud, flow()) is None

    def test_operations_take_time(self, cloud, table):
        def flow():
            yield table.put_item("k", {"x": 1})
            yield table.get_item("k")

        run(cloud, flow())
        assert cloud.now > 0.0
        assert cloud.now < 0.1  # single-digit-ms latencies

    @pytest.mark.xfail(strict=True, reason="known finding 8 "
                       "(docs/operations.md): reads are shallow copies, so "
                       "a nested value updated in place by a later write "
                       "shows through a read still in flight")
    def test_read_is_a_snapshot_of_its_admission_instant(self, cloud, table):
        """A read admitted at t = 0 must deliver the item as of t = 0,
        not with an append an ``update_item`` admitted at t = 1e-4 made
        to a nested list while the read was in flight."""
        seen = {}

        def append_one(item):
            item["done_parts"].append(1)
            return item, None

        def reader():
            seen["item"] = yield table.get_item("k")

        def writer():
            yield cloud.sim.sleep(1e-4)
            yield table.update_item("k", append_one)

        def flow():
            yield table.put_item("k", {"done_parts": [0]})
            yield cloud.sim.all_of([cloud.sim.spawn(reader()),
                                    cloud.sim.spawn(writer())])

        run(cloud, flow())
        assert seen["item"] == {"done_parts": [0]}


def put_if_absent(new):
    """A create-if-absent as an ``update_item`` closure: True for the
    creator, and an existing item stays as it is."""
    def put(item):
        return (item, False) if item is not None else (new, True)
    return put


def bump(name):
    """An atomic counter as an ``update_item`` closure: answers the
    count after this bump, creating the item and field at 0."""
    def add(item):
        item = item or {}
        item[name] = item.get(name, 0) + 1
        return item, item[name]
    return add


class TestAtomics:
    """Conditional writes and counters are ``update_item`` closures."""

    def test_put_if_absent(self, cloud, table):
        def flow():
            first = yield table.update_item("k", put_if_absent({"v": 1}))
            second = yield table.update_item("k", put_if_absent({"v": 2}))
            item = yield table.get_item("k")
            return first, second, item

        first, second, item = run(cloud, flow())
        assert first is True and second is False
        assert item == {"v": 1}

    def test_concurrent_put_if_absent_single_winner(self, cloud, table):
        """The lock-acquisition race: exactly one concurrent claimant wins."""
        results = []

        def claimant(i):
            won = yield table.update_item("lock", put_if_absent({"owner": i}))
            results.append((i, won))

        def main():
            procs = [cloud.sim.spawn(claimant(i)) for i in range(10)]
            yield cloud.sim.all_of(procs)

        run(cloud, main())
        winners = [i for i, won in results if won]
        assert len(winners) == 1
        assert table.peek("lock") == {"owner": winners[0]}

    def test_increment_counter(self, cloud, table):
        def flow():
            values = []
            for _ in range(3):
                v = yield table.update_item("task", bump("done"))
                values.append(v)
            return values

        assert run(cloud, flow()) == [1, 2, 3]
        assert table.op_counts == {"read": 0, "write": 3}

    def test_increment_concurrent_no_lost_updates(self, cloud, table):
        def one():
            yield table.update_item("c", bump("n"))

        def main():
            yield cloud.sim.all_of([cloud.sim.spawn(one()) for _ in range(50)])

        run(cloud, main())
        assert table.peek("c")["n"] == 50

    def test_update_item_read_modify_write(self, cloud, table):
        """The request resolves with the closure's outcome, and the
        table holds the closure's new item."""
        def flow():
            yield table.put_item("k", {"n": 1})
            outcome = yield table.update_item(
                "k", lambda cur: ({"n": cur["n"] + 10}, ("was", cur["n"])))
            return outcome, (yield table.get_item("k"))

        assert run(cloud, flow()) == (("was", 1), {"n": 11})

    def test_update_item_delete_via_none(self, cloud, table):
        def flow():
            yield table.put_item("k", {"n": 1})
            outcome = yield table.update_item("k", lambda cur: (None, "gone"))
            return outcome, (yield table.get_item("k"))

        assert run(cloud, flow()) == ("gone", None)


class TestMetering:
    def test_ops_charged(self, cloud, table):
        def flow():
            yield table.put_item("k", {"x": 1})
            yield table.get_item("k")

        run(cloud, flow())
        assert cloud.ledger.total(CostCategory.KV_OPS) > 0
        assert table.op_counts == {"read": 1, "write": 1}

    def test_write_costs_more_than_read(self, cloud):
        t = cloud.kv_table("aws:us-east-1", "t2")

        def writes():
            for _ in range(100):
                yield t.put_item("k", {})

        def reads():
            for _ in range(100):
                yield t.get_item("k")

        before = cloud.ledger.snapshot()
        run(cloud, writes())
        mid = cloud.ledger.snapshot()
        run(cloud, reads())
        after = cloud.ledger.snapshot()
        write_cost = before.delta(mid).total
        read_cost = mid.delta(after).total
        assert write_cost > read_cost

    def test_tables_cached_per_region_name(self, cloud):
        a = cloud.kv_table("aws:us-east-1", "x")
        b = cloud.kv_table("aws:us-east-1", "x")
        c = cloud.kv_table("aws:us-east-2", "x")
        assert a is b
        assert a is not c
