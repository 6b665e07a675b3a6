"""User-side client library with automatic changelog hints.

§5.4: "A changelog is generated at the user program as a hint to
AReplica, which can be created by the user or automated by program
analysis."  This module is that user-program layer: a thin wrapper
around a source bucket whose derived-object operations — copy, concat,
append, patch — record the matching changelog hint *before* the write
lands, so the orchestrator always finds the hint when the notification
arrives.  Plain reads/writes pass straight through.

The client is a DES process API: every method is a generator to be
driven with ``yield from`` inside a simulation process (or via
:meth:`run` for one-off calls from test/driver code).

The client is also the *end* of the end-to-end integrity chain: the
checksums the engine verifies per part originate from (and are finally
re-checked against) the user-visible content here.  A write returns
the store's ETag, which :meth:`put` compares against the local blob's
hash before reporting success, and :meth:`verified_get` re-reads an
object byte-for-byte — retrying once through a transient read fault —
raising :class:`ClientIntegrityError` when the bytes the store serves
do not match what it claims to hold.
"""

from __future__ import annotations

from repro.core.changelog import ChangelogStore
from repro.simcloud.cloud import Cloud
from repro.simcloud.objectstore import Blob, Bucket, ObjectVersion

__all__ = ["ReplicatedBucketClient", "ClientIntegrityError"]


class ClientIntegrityError(RuntimeError):
    """The store's content or ETag failed client-side verification."""


class ReplicatedBucketClient:
    """Derived-object writes with automatic replication hints."""

    def __init__(self, cloud: Cloud, bucket: Bucket, changelog: ChangelogStore):
        self.cloud = cloud
        self.bucket = bucket
        self.changelog = changelog
        self.stats = {"puts": 0, "copies": 0, "concats": 0, "appends": 0,
                      "patches": 0, "verified_gets": 0,
                      "integrity_retries": 0, "integrity_failures": 0}

    # -- driving helper ----------------------------------------------------

    def run(self, gen):
        """Execute one client operation to completion (drains the sim)."""
        return self.cloud.sim.run_process(gen)

    # -- plain operations ----------------------------------------------------

    def put(self, key: str, blob: Blob):
        """Process: ordinary PUT (no hint — full replication).

        The returned ETag is checked against the local blob's hash —
        the write-side anchor of the end-to-end integrity chain (a
        store acknowledging a mangled write must not look like
        success).  Free on the clean path: both sides are cached hash
        strings.
        """
        self.stats["puts"] += 1
        yield self.cloud.sim.sleep(0.0)
        version = self.bucket.put_object(key, blob, self.cloud.now)
        if version.etag != blob.etag:
            self.stats["integrity_failures"] += 1
            raise ClientIntegrityError(
                f"PUT {key}: store acknowledged etag {version.etag}, "
                f"client computed {blob.etag}")
        return version

    def get(self, key: str) -> ObjectVersion:
        """Zero-cost metadata read (client-side)."""
        return self.bucket.head(key)

    def verified_get(self, key: str):
        """Process: byte-verified read of the current version.

        Reads the full object through the store's (possibly
        chaos-wrapped) data path and checks both the payload bytes and
        the reported ETag against each other.  One re-read absorbs a
        transient medium fault; a persistent mismatch raises
        :class:`ClientIntegrityError` — the caller-facing surfacing of
        silent corruption (never a quietly-wrong payload).
        """
        self.stats["verified_gets"] += 1
        yield self.cloud.sim.sleep(0.0)
        for attempt in range(2):
            payload, version = self.bucket.get_object(key)
            if (payload.size == version.size
                    and payload.etag == version.etag):
                return payload, version
            if attempt == 0:
                self.stats["integrity_retries"] += 1
        self.stats["integrity_failures"] += 1
        raise ClientIntegrityError(
            f"GET {key}: payload hash {payload.etag} != reported etag "
            f"{version.etag} after re-read")

    def delete(self, key: str):
        yield self.cloud.sim.sleep(0.0)
        self.bucket.delete_object(key, self.cloud.now)

    # -- derived-object operations (hint + write) --------------------------------

    def copy(self, src_key: str, dst_key: str):
        """Process: server-side copy, hinted as a COPY changelog."""
        self.stats["copies"] += 1
        source = self.bucket.head(src_key)
        yield from self.changelog.record_copy(src_key, source.etag, dst_key,
                                              source.blob.etag)
        return self.bucket.put_object(dst_key, source.blob, self.cloud.now)

    def concat(self, src_keys: list[str], dst_key: str):
        """Process: concatenation of existing objects, hinted as CONCAT."""
        if not src_keys:
            raise ValueError("concat needs at least one source")
        self.stats["concats"] += 1
        sources = [(k, self.bucket.head(k)) for k in src_keys]
        blob = Blob.concat([v.blob for _, v in sources])
        yield from self.changelog.record_concat(
            [(k, v.etag) for k, v in sources], dst_key, blob.etag)
        return self.bucket.put_object(dst_key, blob, self.cloud.now)

    def append(self, key: str, tail: Blob):
        """Process: append fresh bytes to an object, hinted as APPEND."""
        self.stats["appends"] += 1
        base = self.bucket.head(key)
        blob = Blob.concat([base.blob, tail])
        yield from self.changelog.record_append(
            key, base.etag, blob.etag, base.size, blob.size)
        return self.bucket.put_object(key, blob, self.cloud.now)

    def patch(self, key: str, offset: int, fresh: Blob):
        """Process: overwrite a byte range of an object, hinted as PATCH.

        This is the object-storage-as-block-storage pattern (§5.4):
        the whole object is rewritten at the source, but only the fresh
        range needs to cross the WAN.
        """
        self.stats["patches"] += 1
        base = self.bucket.head(key)
        if offset < 0 or offset + fresh.size > base.size:
            raise ValueError(
                f"patch [{offset}, {offset + fresh.size}) outside "
                f"{base.size}-byte object"
            )
        pieces = [base.blob.slice(0, offset), fresh]
        tail_start = offset + fresh.size
        if tail_start < base.size:
            pieces.append(base.blob.slice(tail_start, base.size - tail_start))
        blob = Blob.concat(pieces)
        yield from self.changelog.record_patch(
            key, base.etag, blob.etag, offset, fresh.size)
        return self.bucket.put_object(key, blob, self.cloud.now)
