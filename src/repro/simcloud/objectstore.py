"""Simulated object storage (S3 / Blob Storage / GCS).

Implements the API surface AReplica depends on (§2 of the paper):

* a simple ``PUT``/``DELETE`` write interface — objects are immutable,
  an update overwrites the whole object;
* flexible ranged ``GET``;
* multipart upload for writing a large object in parallel parts;
* platform-generated **ETags** (content hashes);
* optional versioning (required by the proprietary replication
  baselines);
* event notifications on object creation/deletion.

Object *content* is symbolic: a :class:`Blob` is a size plus a content
identifier, and slices/concatenations derive new identifiers.  This
lets the simulation replicate 100 GB objects without allocating bytes
while still detecting consistency bugs — an object assembled from parts
of two different source versions yields a different content id (and
hence ETag) than either source version, exactly the corruption the
paper's Figure 14 race produces.

State changes here are instantaneous; request latency, transfer time,
and cost metering are applied by the caller (the function/VM runtime
contexts in :mod:`repro.simcloud.faas` / :mod:`repro.simcloud.vm`),
because they depend on where the caller executes.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Optional

from repro.simcloud.regions import Region

__all__ = [
    "Blob",
    "ObjectVersion",
    "ObjectEvent",
    "Bucket",
    "NoSuchKey",
    "NoSuchUpload",
    "PreconditionFailed",
    "ServiceUnavailable",
]


class NoSuchKey(KeyError):
    """GET/DELETE/COPY on a key that does not exist."""


class ServiceUnavailable(RuntimeError):
    """The bucket's region is suffering an outage (injected fault)."""


class NoSuchUpload(KeyError):
    """Operation on an unknown or already-completed multipart upload."""


class PreconditionFailed(RuntimeError):
    """A conditional request (If-Match etc.) failed."""


_fresh_counter = itertools.count()

#: One contiguous run of bytes from an original content source:
#: (source id, offset within the source, length).
Segment = tuple[str, int, int]


@dataclass(frozen=True, slots=True)
class Blob:
    """Symbolic object content.

    Content is a sequence of *segments*, each referencing a byte range
    of some originally-written content source.  Slicing and
    concatenation are exact segment arithmetic, and adjacent contiguous
    segments merge, so content identity is fully normalized:
    reassembling the parts of an object — in any partition — reproduces
    the original identity (and hence ETag), slices of concatenations
    behave like real byte ranges, and an object assembled from parts of
    two different versions matches neither (the Figure 14 corruption is
    detectable by ETag).
    """

    size: int
    segments: tuple[Segment, ...]
    #: The ETag, once :attr:`etag` has computed it.
    _etag: Optional[str] = field(default=None, init=False, repr=False,
                                 compare=False)

    @staticmethod
    def fresh(size: int, tag: str = "") -> "Blob":
        """New, globally unique content of ``size`` bytes."""
        if size < 0:
            raise ValueError("blob size must be non-negative")
        if size == 0:
            return Blob(0, ())
        return Blob(size, ((f"c{next(_fresh_counter)}:{tag}", 0, size),))

    def slice(self, offset: int, length: int) -> "Blob":
        """The sub-range ``[offset, offset+length)`` of this content."""
        if offset < 0 or length < 0 or offset + length > self.size:
            raise ValueError(
                f"invalid range [{offset}, {offset + length}) of {self.size}-byte blob"
            )
        if offset == 0 and length == self.size:
            return self
        if len(self.segments) == 1:
            source, seg_off, _ = self.segments[0]
            return Blob(length, ((source, seg_off + offset, length),)
                        if length else ())
        out: list[Segment] = []
        remaining = length
        cursor = offset
        pos = 0
        for source, seg_off, seg_len in self.segments:
            if remaining == 0:
                break
            seg_end = pos + seg_len
            if cursor < seg_end:
                take_off = seg_off + (cursor - pos)
                take_len = min(seg_end - cursor, remaining)
                out.append((source, take_off, take_len))
                cursor += take_len
                remaining -= take_len
            pos = seg_end
        return Blob(length, _merge_segments(out))

    @staticmethod
    def concat(parts: Iterable["Blob"]) -> "Blob":
        """Content formed by concatenating ``parts`` in order."""
        parts = [p for p in parts if p.size > 0]
        if not parts:
            return Blob(0, ())
        if len(parts) == 1:
            return parts[0]
        segments: list[Segment] = []
        for p in parts:
            segments.extend(p.segments)
        return Blob(sum(p.size for p in parts), _merge_segments(segments))

    @property
    def content_id(self) -> str:
        """Canonical string identity of the content."""
        return "+".join(f"{s}@{o}#{n}" for s, o, n in self.segments) or "empty"

    @property
    def etag(self) -> str:
        """Platform-generated content hash (like the S3 ETag).

        Computed once per blob and kept in the ``_etag`` slot, written
        past the ``frozen`` guard; the slot is outside eq, hash and repr,
        so a blob compares the same before and after.  Not
        ``functools.cached_property``: that needs an instance dict, and
        on Python 3.11 takes an RLock on every first access while the
        data path makes a fresh slice — one first access — per part.
        """
        etag = self._etag
        if etag is None:
            etag = hashlib.md5(self.content_id.encode()).hexdigest()
            object.__setattr__(self, "_etag", etag)
        return etag


def _merge_segments(segments: list[Segment]) -> tuple[Segment, ...]:
    """Coalesce adjacent segments that are contiguous in one source."""
    merged: list[Segment] = []
    for source, off, length in segments:
        if length == 0:
            continue
        if merged:
            prev_source, prev_off, prev_len = merged[-1]
            if prev_source == source and prev_off + prev_len == off:
                merged[-1] = (source, prev_off, prev_len + length)
                continue
        merged.append((source, off, length))
    return tuple(merged)


@dataclass(frozen=True, slots=True)
class ObjectVersion:
    """One immutable version of an object."""

    key: str
    blob: Blob
    put_time: float
    sequencer: int
    #: Injected-fault override: a store that misreports an ETag on a
    #: read hands back metadata whose hash does not match the payload.
    reported_etag: Optional[str] = None

    @property
    def size(self) -> int:
        return self.blob.size

    @property
    def etag(self) -> str:
        return self.reported_etag if self.reported_etag is not None \
            else self.blob.etag


@dataclass(frozen=True, slots=True)
class ObjectEvent:
    """A cloud notification payload (JSON-equivalent metadata)."""

    kind: str                  # "created" | "deleted"
    bucket: str
    region: Region
    key: str
    size: int
    etag: str
    sequencer: int
    event_time: float          # when the triggering request completed


@dataclass
class _MultipartUpload:
    key: str
    upload_id: str
    base_etag: Optional[str]   # If-Match guard captured at initiation
    parts: dict[int, Blob] = field(default_factory=dict)
    completed: bool = False


class Bucket:
    """A bucket in one region of one provider."""

    def __init__(self, name: str, region: Region, injected: dict[str, int],
                 versioning: bool = False):
        self.name = name
        self.region = region
        self.versioning = versioning
        self._objects: dict[str, ObjectVersion] = {}
        self._noncurrent: dict[str, list[ObjectVersion]] = {}
        self._uploads: dict[str, _MultipartUpload] = {}
        self._seq = itertools.count(1)
        self._upload_seq = itertools.count(1)
        #: The most recently issued sequencer (0 before any write).
        self.last_sequencer = 0
        self._listeners: list[Callable[[ObjectEvent], None]] = []
        self._listeners_snapshot: tuple[Callable[[ObjectEvent], None], ...] = ()
        #: Injected-fault flag: while True, every data-plane operation
        #: raises :class:`ServiceUnavailable` (a region-wide outage).
        self.in_outage = False
        #: Optional HealthTracker told about every outage rejection;
        #: healthy calls are not recorded here (the data plane is too
        #: hot) — store breakers close via the engine's transfer-success
        #: reports instead.
        self.health_sink = None
        #: Silent-corruption fault injection (see :meth:`set_chaos`).
        self._chaos = None
        self._chaos_rng = None
        #: Injected-fault counts (``chaos.INJECTED_KEYS``); the
        #: substrates of one Cloud share the dict.
        self.injected = injected

    def set_chaos(self, chaos, rng) -> None:
        """Install (or clear) at-rest corruption faults on this bucket.

        ``chaos`` is a :class:`~repro.simcloud.chaos.ChaosConfig` (or
        None); ``rng`` a dedicated seeded stream.  Only the at-rest
        knobs apply here — in-flight flips live on the FaaS client data
        path — and a config without them installs nothing, keeping the
        clean read path a single ``is None`` check.
        """
        active = chaos is not None and chaos.corruption_at_rest_enabled
        self._chaos = chaos if active else None
        self._chaos_rng = rng if active else None

    def _chaos_read(self, key: str, payload: Blob,
                    obj: ObjectVersion) -> tuple[Blob, ObjectVersion]:
        """Apply injected read faults: rot, truncation, wrong ETag.

        Rot and truncation are *medium* faults — the stored bytes stay
        good, this read returned bad data — so a verified re-read
        recovers.  Durable rot is injected via :meth:`rot_object`.
        """
        chaos, rng = self._chaos, self._chaos_rng
        # One draw, cumulative thresholds: at most one fault per read,
        # so every injected corruption maps to exactly one detectable
        # anomaly (the accounting the corruption drill audits).
        draw = rng.random()
        if draw < chaos.corrupt_at_rest_prob:
            self.injected["corrupt_at_rest"] += 1
            payload = Blob.fresh(payload.size, tag=f"rot:{key}")
            return payload, obj
        draw -= chaos.corrupt_at_rest_prob
        if draw < chaos.corrupt_truncate_prob and payload.size > 1:
            self.injected["corrupt_truncated"] += 1
            return payload.slice(0, max(1, payload.size // 2)), obj
        draw -= chaos.corrupt_truncate_prob
        if draw < chaos.corrupt_wrong_etag_prob:
            self.injected["corrupt_wrong_etag"] += 1
            obj = replace(
                obj, reported_etag=f"bogus{int(rng.integers(1 << 32)):08x}")
        return payload, obj

    def rot_object(self, key: str) -> tuple[str, str]:
        """Durably rot the current version's stored content (bit rot).

        The object silently now holds garbage of the original size — no
        event, no new sequencer, and HEAD keeps reporting the *pre-rot*
        ETag (object-store ETags are computed at write time, so decayed
        media lies until something re-reads the bytes).  Only a
        byte-level deep scrub can catch this — exactly the divergence
        the shallow ETag diff cannot.  Deterministic hook for scrub
        drills and tests.  Returns ``(reported_etag, true_etag)``.
        """
        obj = self.head(key)
        if obj.size == 0:
            return obj.etag, obj.etag
        rotten = Blob.fresh(obj.size, tag=f"rot:{key}")
        self._objects[key] = replace(obj, blob=rotten,
                                     reported_etag=obj.etag)
        self.injected["corrupt_at_rest"] += 1
        return obj.etag, rotten.etag

    def _check_available(self) -> None:
        if self.in_outage:
            if self.health_sink is not None:
                self.health_sink.record(("store", self.region.key), False)
            raise ServiceUnavailable(
                f"{self.region.key}/{self.name} is unavailable (outage)")

    # -- introspection ---------------------------------------------------

    def __contains__(self, key: str) -> bool:
        return key in self._objects

    def keys(self) -> list[str]:
        return sorted(self._objects)

    def head(self, key: str) -> ObjectVersion:
        """Metadata lookup; raises :class:`NoSuchKey` if absent."""
        self._check_available()
        try:
            return self._objects[key]
        except KeyError:
            raise NoSuchKey(key) from None

    def current_etag(self, key: str) -> Optional[str]:
        obj = self._objects.get(key)
        return obj.etag if obj is not None else None

    def total_bytes(self, include_noncurrent: bool = False) -> int:
        total = sum(o.size for o in self._objects.values())
        if include_noncurrent:
            total += sum(o.size for vs in self._noncurrent.values() for o in vs)
        return total

    def noncurrent_versions(self, key: str) -> list[ObjectVersion]:
        return list(self._noncurrent.get(key, []))

    def noncurrent_bytes(self) -> int:
        return sum(o.size for vs in self._noncurrent.values() for o in vs)

    def expire_noncurrent(self, now: float, older_than_s: float) -> int:
        """Lifecycle sweep: drop non-current versions superseded more
        than ``older_than_s`` ago (day-granularity in real clouds — the
        reason §5.2 says versioning at least doubles the storage cost of
        a daily-updated object).  Returns bytes reclaimed.

        A version's supersession time is approximated by the put time of
        the next version; the current version is never expired.
        """
        reclaimed = 0
        for key, versions in list(self._noncurrent.items()):
            timeline = versions + ([self._objects[key]] if key in self._objects
                                   else [])
            keep = []
            for i, version in enumerate(versions):
                if i + 1 < len(timeline):
                    superseded_at = timeline[i + 1].put_time
                else:
                    # The key was deleted and this was its final version;
                    # the exact delete time is not retained, so date the
                    # supersession from the version's own write.
                    superseded_at = version.put_time
                if now - superseded_at > older_than_s:
                    reclaimed += version.size
                else:
                    keep.append(version)
            if keep:
                self._noncurrent[key] = keep
            else:
                del self._noncurrent[key]
        return reclaimed

    # -- event wiring ------------------------------------------------------

    def subscribe(self, listener: Callable[[ObjectEvent], None]) -> None:
        """Register for creation/deletion events (raw, undelayed)."""
        self._listeners.append(listener)
        self._listeners_snapshot = tuple(self._listeners)

    def _emit(self, event: ObjectEvent) -> None:
        # Iterate the subscribe-time snapshot: no per-event list copy,
        # and listeners registered mid-emit only see later events.
        # Writers build the event only when this snapshot is non-empty
        # (a destination bucket has no listener); the sequencer is drawn
        # either way.
        for listener in self._listeners_snapshot:
            listener(event)

    # -- write path ---------------------------------------------------------

    def put_object(
        self,
        key: str,
        blob: Blob,
        time: float,
        if_match: Optional[str] = None,
        notify: bool = True,
    ) -> ObjectVersion:
        """Create/overwrite ``key`` with ``blob``.

        ``if_match`` enforces a conditional write on the current ETag
        (used by changelog application to guard against stale sources).
        """
        self._check_available()
        if if_match is not None:
            current = self.current_etag(key)
            if current != if_match:
                raise PreconditionFailed(
                    f"If-Match {if_match} != current {current} for {key!r}"
                )
        seq = next(self._seq)
        self.last_sequencer = seq
        version = ObjectVersion(key, blob, time, seq)
        prior = self._objects.get(key)
        if prior is not None and self.versioning:
            self._noncurrent.setdefault(key, []).append(prior)
        self._objects[key] = version
        if notify and self._listeners_snapshot:
            self._emit(
                ObjectEvent(
                    "created", self.name, self.region, key, blob.size,
                    blob.etag, seq, time,
                )
            )
        return version

    def delete_object(self, key: str, time: float, notify: bool = True) -> None:
        self._check_available()
        prior = self._objects.pop(key, None)
        if prior is None:
            # Object storage DELETE is idempotent; deleting a missing
            # key succeeds without an event.
            return
        if self.versioning:
            self._noncurrent.setdefault(key, []).append(prior)
        if notify:
            seq = next(self._seq)
            self.last_sequencer = seq
            if self._listeners_snapshot:
                self._emit(ObjectEvent(
                    "deleted", self.name, self.region, key, prior.size,
                    prior.etag, seq, time,
                ))

    def copy_object(self, src_key: str, dst_key: str, time: float,
                    notify: bool = True) -> ObjectVersion:
        """Server-side copy within this bucket (no WAN traffic)."""
        src = self.head(src_key)
        return self.put_object(dst_key, src.blob, time, notify=notify)

    def compose_objects(self, src_keys: list[str], dst_key: str, time: float,
                        notify: bool = True) -> ObjectVersion:
        """Server-side concatenation of existing objects (GCS ``compose``
        / S3 multipart ``UploadPartCopy``) — no WAN traffic."""
        blobs = [self.head(k).blob for k in src_keys]
        return self.put_object(dst_key, Blob.concat(blobs), time, notify=notify)

    # -- read path ----------------------------------------------------------

    def get_object(self, key: str, offset: int = 0,
                   length: Optional[int] = None) -> tuple[Blob, ObjectVersion]:
        """Ranged GET: returns the requested slice and version metadata."""
        obj = self.head(key)
        if length is None:
            length = obj.size - offset
        payload = obj.blob.slice(offset, length)
        if self._chaos is not None and payload.size > 0:
            payload, obj = self._chaos_read(key, payload, obj)
        return payload, obj

    # -- multipart upload -----------------------------------------------------

    def initiate_multipart(self, key: str, if_match: Optional[str] = None) -> str:
        self._check_available()
        upload_id = f"mpu{next(self._upload_seq)}"
        self._uploads[upload_id] = _MultipartUpload(key, upload_id, if_match)
        return upload_id

    def upload_part(self, upload_id: str, part_number: int, blob: Blob) -> str:
        """Store one part; returns the part's ETag."""
        self._check_available()
        upload = self._uploads.get(upload_id)
        if upload is None or upload.completed:
            raise NoSuchUpload(upload_id)
        if part_number < 1:
            raise ValueError("part numbers start at 1")
        upload.parts[part_number] = blob
        return blob.etag

    def complete_multipart(self, upload_id: str, time: float,
                           notify: bool = True) -> ObjectVersion:
        upload = self._uploads.get(upload_id)
        if upload is None or upload.completed:
            raise NoSuchUpload(upload_id)
        if not upload.parts:
            raise ValueError("multipart upload has no parts")
        ordered = [upload.parts[n] for n in sorted(upload.parts)]
        blob = Blob.concat(ordered)
        upload.completed = True
        del self._uploads[upload_id]
        return self.put_object(upload.key, blob, time, if_match=upload.base_etag,
                               notify=notify)

    def abort_multipart(self, upload_id: str) -> None:
        self._uploads.pop(upload_id, None)

    def pending_uploads(self) -> list[str]:
        """Upload ids initiated but neither completed nor aborted.

        Real clouds keep billing the parts of abandoned multipart
        uploads until a lifecycle rule cleans them up; the replication
        auditor flags such leaks.
        """
        return sorted(u for u, s in self._uploads.items() if not s.completed)
