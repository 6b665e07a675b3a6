"""Changelog propagation (§5.4).

Object storage only sees opaque PUTs, so an object created by copying,
concatenating, appending to, or partially updating *existing* objects
is indistinguishable from fresh data and would normally be replicated
in full.  AReplica lets the user program (or an automated program
analysis) record a **changelog hint** describing how the new version
was derived.  When the orchestrator finds a changelog matching the
created version's ETag, it ships only the changelog to the destination
region, where an applier function reconstructs the object from data
already present there — near-zero cross-cloud traffic for COPY/CONCAT
and tail-only traffic for APPEND/PATCH.

Every changelog carries the ETags of its source objects.  The applier
verifies each ETag against the destination bucket before applying
(AReplica may have already replicated a *newer* version of a source);
on any mismatch the changelog is inapplicable and the engine falls
back to full replication.
"""

from __future__ import annotations

from dataclasses import dataclass
from repro.simcloud.kvstore import KvTable
from repro.simcloud.objectstore import Blob, NoSuchKey

__all__ = ["ChangelogOp", "ChangelogEntry", "ChangelogStore",
           "propagate_changelog", "apply_changelog"]


class ChangelogOp:
    """Operations a changelog can describe."""

    COPY = "copy"        # dst_key := src_key
    CONCAT = "concat"    # dst_key := src_keys[0] + src_keys[1] + ...
    APPEND = "append"    # key := key + new tail bytes
    PATCH = "patch"      # key := key with a byte range overwritten


@dataclass(frozen=True)
class ChangelogEntry:
    """One recorded derivation hint.

    Attributes
    ----------
    op: one of :class:`ChangelogOp`.
    key: the object the hint describes (the newly created version).
    etag: ETag of the new version — the lookup key, ensuring a hint is
        only ever applied to the exact version it describes.
    sources: (source key, expected source ETag) pairs that must already
        exist at the destination.
    data_offset / data_length: for APPEND/PATCH, the byte range of the
        *new* version that contains fresh bytes (fetched from the
        source region; everything else is reused at the destination).
    """

    op: str
    key: str
    etag: str
    sources: tuple[tuple[str, str], ...] = ()
    data_offset: int = 0
    data_length: int = 0

    @property
    def fresh_bytes(self) -> int:
        """Bytes that must still cross the WAN when this hint applies."""
        return self.data_length

    def to_item(self) -> dict:
        """The hint as a plain dict (KV item / applier payload)."""
        return {
            "op": self.op, "key": self.key, "etag": self.etag,
            "sources": [list(s) for s in self.sources],
            "data_offset": self.data_offset,
            "data_length": self.data_length,
        }


class ChangelogStore:
    """Per-bucket changelog hints in a serverless KV table."""

    def __init__(self, table: KvTable):
        self.table = table
        self.recorded = 0

    @staticmethod
    def _key(obj_key: str, etag: str) -> str:
        return f"clog:{obj_key}:{etag}"

    # -- recording (called by the user program as the hint API) ------------

    def record(self, entry: ChangelogEntry):
        """Process: persist a hint (one KV write)."""
        self.recorded += 1
        yield self.table.put_item(self._key(entry.key, entry.etag),
                                  entry.to_item())

    def record_copy(self, src_key: str, src_etag: str, dst_key: str,
                    dst_etag: str):
        """Hint: ``dst_key`` was created by copying ``src_key``."""
        return self.record(ChangelogEntry(
            ChangelogOp.COPY, dst_key, dst_etag, ((src_key, src_etag),),
        ))

    def record_concat(self, sources: list[tuple[str, str]], dst_key: str,
                      dst_etag: str):
        """Hint: ``dst_key`` concatenates existing objects."""
        return self.record(ChangelogEntry(
            ChangelogOp.CONCAT, dst_key, dst_etag, tuple(sources),
        ))

    def record_append(self, key: str, old_etag: str, new_etag: str,
                      old_size: int, new_size: int):
        """Hint: ``key`` gained ``new_size - old_size`` tail bytes."""
        return self.record(ChangelogEntry(
            ChangelogOp.APPEND, key, new_etag, ((key, old_etag),),
            data_offset=old_size, data_length=new_size - old_size,
        ))

    def record_patch(self, key: str, old_etag: str, new_etag: str,
                     offset: int, length: int):
        """Hint: ``key`` had bytes ``[offset, offset+length)`` rewritten."""
        return self.record(ChangelogEntry(
            ChangelogOp.PATCH, key, new_etag, ((key, old_etag),),
            data_offset=offset, data_length=length,
        ))

    # -- lookup (called by the orchestrator) ---------------------------------

    def lookup(self, obj_key: str, etag: str):
        """Process: fetch the hint for an exact (key, version); or None."""
        item = yield self.table.get_item(self._key(obj_key, etag))
        if item is None:
            return None
        return ChangelogEntry(
            op=item["op"],
            key=item["key"],
            etag=item["etag"],
            sources=tuple((k, e) for k, e in item["sources"]),
            data_offset=item["data_offset"],
            data_length=item["data_length"],
        )


# -- the engine's changelog fast path (Fig 15) --------------------------------
#
# Stateless process functions over a ReplicationEngine, driven with
# ``yield from`` by the orchestrator and applier handlers in engine.py.

def propagate_changelog(engine, ctx, task):
    """Process: ship ``task``'s changelog hint, if one exists, to an
    applier function at the destination; True when that completed the
    task (False = no hint, or inapplicable: replicate in full)."""
    entry = yield from engine._kv(
        ctx, lambda: engine.changelog.lookup(task["key"], task["etag"]))
    if entry is None:
        return False
    invocation = yield from ctx.invoke(
        engine.cloud.faas(engine.dst_bucket.region.key),
        engine._applier_name,
        {"task": dict(task), "entry": entry.to_item()})
    result = yield invocation
    if result["applied"]:
        engine.stats["changelog_applied"] += 1
        return True
    engine.stats["changelog_fallback"] += 1
    return False


def apply_changelog(engine, ctx, task, entry):
    """Process: the applier function's body.

    Verifies every source ETag against the destination bucket, then
    reconstructs the object from local data (server-side copy /
    compose) plus — for APPEND/PATCH — a ranged GET of only the fresh
    bytes from the source region.  On success it finishes the task
    (done marker, unlock, pending re-trigger) itself.
    """
    dst, key = engine.dst_bucket, task["key"]
    ok = yield from engine._fence_ok(ctx, task)
    if not ok:
        return {"applied": False}
    for src_key, src_etag in entry["sources"]:
        if dst.current_etag(src_key) != src_etag:
            return {"applied": False}
    version = yield from _reconstruct(engine, ctx, task, entry)
    if version is None:
        return {"applied": False}
    if version.etag != task["etag"]:
        # The reconstruction did not reproduce the replicated version
        # byte-for-byte; do not trust the hint.
        dst.delete_object(key, ctx.now, notify=False)
        return {"applied": False}
    yield from engine._finish_replicated(ctx, task, version, kind="changelog")
    return {"applied": True}


def _reconstruct(engine, ctx, task, entry):
    """Process: write ``task``'s object at the destination as ``entry``
    derives it; the written version, or None when it cannot apply."""
    dst, key, op = engine.dst_bucket, task["key"], entry["op"]
    sources = entry["sources"]
    if op == ChangelogOp.COPY:
        return (yield from ctx.copy_object(dst, sources[0][0], key))
    if op == ChangelogOp.CONCAT:
        yield ctx.sleep(0.0)
        return dst.compose_objects([s for s, _ in sources], key, ctx.now)
    if op not in (ChangelogOp.APPEND, ChangelogOp.PATCH):
        return None
    # APPEND/PATCH: fetch only the fresh byte range from the source.
    offset, length = entry["data_offset"], entry["data_length"]
    try:
        fresh, version = yield from ctx.get_object(engine.src_bucket, key,
                                                   offset, length)
    except (NoSuchKey, ValueError):
        return None
    if version.etag != task["etag"]:
        return None
    base = dst.head(sources[0][0]).blob
    if op == ChangelogOp.APPEND:
        pieces = [base, fresh]
    else:
        tail_start = offset + length
        pieces = [base.slice(0, offset), fresh]
        if tail_start < base.size:
            pieces.append(base.slice(tail_start, base.size - tail_start))
    yield ctx.sleep(0.0)
    return dst.put_object(key, Blob.concat(pieces), ctx.now)
