"""Consistent-hash sharding of the replication key-space.

The multi-tenant service splits each tenant's key-space across ``N``
engine workers, one per shard: every shard owns its own lock domain
(a per-``{tenant}-s{shard}`` KV table), outage backlog, and stats, so
shards never contend on control-plane state and a future per-shard
parallel runner needs no further refactoring.

Placement uses a **consistent hash ring** with virtual nodes.  Hashes
come from :mod:`hashlib` (MD5, used purely as a mixer) — never from
Python's ``hash()``, whose per-process randomization would break the
simulator's replay determinism.  With ``V`` virtual nodes per shard,
growing the ring from ``N`` to ``N+1`` shards remaps only ``≈ 1/(N+1)``
of the key-space — the property :meth:`ShardRouter.rebalance` measures
as ``shard_migrations``.

Routing keys are ``"{tenant}:{key}"``, so one object's events always
land on one shard (its lock and done marker live in exactly one lock
domain) while a tenant's keys spread across shards.  A 1-shard ring
routes everything to shard 0; the shard-equivalence tests assert that
the *outcomes* (final objects, done markers, tenant ledger spend) of a
1-shard and an N-shard run are identical even though the interleaving
is not.
"""

from __future__ import annotations

import bisect
import hashlib

__all__ = ["HashRing", "ShardRouter"]


def _ring_hash(value: str) -> int:
    """Stable 64-bit position on the ring (process-independent)."""
    return int.from_bytes(
        hashlib.md5(value.encode("utf-8")).digest()[:8], "big")


#: Virtual nodes per shard on the ring.
VNODES = 64


class HashRing:
    """Consistent hash ring mapping string keys to shard indices."""

    def __init__(self, shards: int):
        if shards < 1:
            raise ValueError("shards must be >= 1")
        self.shards = shards
        points: list[tuple[int, int]] = []
        for shard in range(shards):
            for replica in range(VNODES):
                points.append((_ring_hash(f"shard-{shard}#{replica}"), shard))
        points.sort()
        self._positions = [p for p, _ in points]
        self._owners = [s for _, s in points]

    def shard_of(self, key: str) -> int:
        """The shard owning ``key`` (first vnode clockwise)."""
        if self.shards == 1:
            return 0
        index = bisect.bisect_right(self._positions, _ring_hash(key))
        if index == len(self._positions):
            index = 0
        return self._owners[index]


class ShardRouter:
    """Tracks live key → shard assignments over a :class:`HashRing`.

    The router remembers every routing decision so a later
    :meth:`rebalance` can report how many live assignments the new ring
    moved (``shard_migrations`` — per tenant and in total).  Assignments
    are plain dict state; nothing here consumes simulated time.
    """

    def __init__(self, shards: int):
        self.ring = HashRing(shards)
        self._assignments: dict[str, int] = {}

    @property
    def shards(self) -> int:
        return self.ring.shards

    def route(self, tenant_id: str, key: str) -> int:
        """Shard for one (tenant, object-key) pair, recorded."""
        rkey = f"{tenant_id}:{key}"
        shard = self._assignments.get(rkey)
        if shard is None:
            shard = self.ring.shard_of(rkey)
            self._assignments[rkey] = shard
        return shard

    def rebalance(self, shards: int) -> dict[str, int]:
        """Swap in a ``shards``-wide ring; report moved assignments.

        Returns ``{tenant_id: moved_count}`` for every tenant that had
        at least one live assignment change shards (the service folds
        these into the per-tenant ``shard_migrations`` counters).
        Assignments are updated in place: subsequent :meth:`route`
        calls see the new placement.
        """
        new_ring = HashRing(shards)
        moved: dict[str, int] = {}
        for rkey, old_shard in sorted(self._assignments.items()):
            new_shard = new_ring.shard_of(rkey)
            if new_shard != old_shard:
                tenant_id = rkey.split(":", 1)[0]
                moved[tenant_id] = moved.get(tenant_id, 0) + 1
                self._assignments[rkey] = new_shard
        self.ring = new_ring
        return moved
