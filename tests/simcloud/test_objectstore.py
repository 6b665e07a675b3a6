"""Tests for the simulated object storage."""

import dataclasses
import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simcloud.chaos import injected_ledger
from repro.simcloud.objectstore import (
    Blob,
    Bucket,
    NoSuchKey,
    NoSuchUpload,
    PreconditionFailed,
    _merge_segments,
)
from repro.simcloud.regions import get_region

US_EAST = get_region("aws:us-east-1")


def make_bucket(versioning=False):
    return Bucket("b", US_EAST, injected_ledger(), versioning=versioning)


class TestBlob:
    def test_fresh_blobs_are_distinct(self):
        a, b = Blob.fresh(100), Blob.fresh(100)
        assert a.content_id != b.content_id
        assert a.etag != b.etag

    def test_etag_is_content_hash(self):
        blob = Blob(10, (("fixed", 0, 10),))
        assert blob.etag == Blob(10, (("fixed", 0, 10),)).etag
        assert blob.etag != Blob(10, (("other", 0, 10),)).etag

    def test_full_slice_is_identity(self):
        blob = Blob.fresh(1000)
        assert blob.slice(0, 1000) == blob

    def test_partial_slice_changes_identity(self):
        blob = Blob.fresh(1000)
        part = blob.slice(0, 500)
        assert part.size == 500
        assert part.etag != blob.etag

    def test_slice_out_of_range_rejected(self):
        blob = Blob.fresh(100)
        with pytest.raises(ValueError):
            blob.slice(50, 100)
        with pytest.raises(ValueError):
            blob.slice(-1, 10)

    def test_concat_of_consecutive_slices_restores_identity(self):
        """Multipart re-assembly of one object's parts must reproduce the
        source ETag — the invariant behind optimistic validation."""
        blob = Blob.fresh(100)
        parts = [blob.slice(0, 30), blob.slice(30, 30), blob.slice(60, 40)]
        assert Blob.concat(parts) == blob

    def test_concat_of_mixed_versions_differs(self):
        """Parts from two different versions assemble into content that
        matches neither — the Figure 14 inconsistency is detectable."""
        v1, v2 = Blob.fresh(100), Blob.fresh(100)
        mixed = Blob.concat([v1.slice(0, 50), v2.slice(50, 50)])
        assert mixed.etag not in (v1.etag, v2.etag)
        assert mixed.size == 100

    def test_concat_out_of_order_slices_differs(self):
        blob = Blob.fresh(100)
        swapped = Blob.concat([blob.slice(50, 50), blob.slice(0, 50)])
        assert swapped.etag != blob.etag

    def test_concat_empty_and_single(self):
        assert Blob.concat([]).size == 0
        one = Blob.fresh(5)
        assert Blob.concat([one]) == one

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            Blob.fresh(-1)

    @given(
        size=st.integers(1, 10_000),
        cuts=st.lists(st.integers(1, 9_999), min_size=0, max_size=8),
    )
    @settings(max_examples=60, deadline=None)
    def test_any_full_partition_reassembles(self, size, cuts):
        blob = Blob.fresh(size)
        offsets = sorted({c for c in cuts if c < size})
        bounds = [0, *offsets, size]
        parts = [
            blob.slice(lo, hi - lo) for lo, hi in zip(bounds, bounds[1:]) if hi > lo
        ]
        assert Blob.concat(parts) == blob


class TestSlotCachedEtag:
    """The ETag is cached in a slot outside eq, hash and repr."""

    def test_cached_and_uncached_blobs_compare_and_hash_equal(self):
        cached = Blob(10, (("fixed", 0, 10),))
        assert cached.etag
        fresh = Blob(10, (("fixed", 0, 10),))
        assert cached == fresh
        assert hash(cached) == hash(fresh)
        assert {cached: 1}[fresh] == 1

    def test_repr_hides_the_cache(self):
        blob = Blob(10, (("fixed", 0, 10),))
        assert blob.etag
        assert "_etag" not in repr(blob)
        assert blob.etag not in repr(blob)

    def test_md5_runs_once_per_blob(self, monkeypatch):
        calls = []
        md5 = hashlib.md5

        def counting_md5(data):
            calls.append(data)
            return md5(data)

        monkeypatch.setattr(hashlib, "md5", counting_md5)
        blob, other = Blob.fresh(100), Blob.fresh(100)
        assert blob.etag == blob.etag == blob.etag
        assert len(calls) == 1
        assert other.etag
        assert len(calls) == 2

    def test_frozen_guard_still_holds(self):
        blob = Blob.fresh(10)
        assert blob.etag
        with pytest.raises(dataclasses.FrozenInstanceError):
            blob._etag = "forged"
        with pytest.raises(dataclasses.FrozenInstanceError):
            blob.size = 11

    def test_replace_keeps_working_on_versions(self):
        b = make_bucket()
        blob = Blob.fresh(10)
        version = b.put_object("k", blob, 1.0)
        lying = dataclasses.replace(version, reported_etag="bogus")
        assert (lying.etag, lying.blob.etag) == ("bogus", blob.etag)
        assert (lying.key, lying.sequencer) == (version.key, version.sequencer)
        # rot_object replaces the blob and pins the pre-rot ETag.
        reported, true = b.rot_object("k")
        assert reported == blob.etag != true
        assert b.head("k").etag == blob.etag
        assert b.head("k").blob.etag == true


def _walk_slice(blob, offset, length):
    """The general segment walk ``Blob.slice`` takes for any source."""
    out, remaining, cursor, pos = [], length, offset, 0
    for source, seg_off, seg_len in blob.segments:
        if remaining == 0:
            break
        seg_end = pos + seg_len
        if cursor < seg_end:
            take = min(seg_end - cursor, remaining)
            out.append((source, seg_off + (cursor - pos), take))
            cursor += take
            remaining -= take
        pos = seg_end
    return Blob(length, _merge_segments(out))


@st.composite
def _blob_and_range(draw):
    """A one- or many-segment blob and any range of it, empty and full
    ranges included."""
    sources = draw(st.integers(1, 4))
    pieces = []
    for _ in range(sources):
        base = Blob.fresh(draw(st.integers(1, 500)))
        lo = draw(st.integers(0, base.size - 1))
        pieces.append(base.slice(lo, draw(st.integers(1, base.size - lo))))
    blob = Blob.concat(pieces)
    offset = draw(st.integers(0, blob.size))
    length = draw(st.sampled_from([0, blob.size - offset])
                  | st.integers(0, blob.size - offset))
    return blob, offset, length


class TestSliceFastPath:
    @given(case=_blob_and_range())
    @settings(max_examples=200, deadline=None)
    def test_slice_matches_the_general_walk(self, case):
        blob, offset, length = case
        assert blob.slice(offset, length) == _walk_slice(blob, offset, length)

    def test_single_segment_sub_range(self):
        blob = Blob(100, (("src", 40, 100),))
        assert blob.slice(10, 5).segments == (("src", 50, 5),)
        assert blob.slice(100, 0) == Blob(0, ())


class TestBucketBasics:
    def test_put_then_head(self):
        b = make_bucket()
        blob = Blob.fresh(123)
        version = b.put_object("k", blob, time=1.0)
        assert b.head("k").etag == blob.etag
        assert version.size == 123
        assert "k" in b

    def test_get_missing_raises(self):
        with pytest.raises(NoSuchKey):
            make_bucket().head("nope")

    def test_overwrite_replaces_current(self):
        b = make_bucket()
        b.put_object("k", Blob.fresh(10), time=1.0)
        v2 = b.put_object("k", Blob.fresh(20), time=2.0)
        assert b.head("k").etag == v2.etag
        assert b.head("k").size == 20

    def test_sequencers_increase(self):
        b = make_bucket()
        v1 = b.put_object("a", Blob.fresh(1), 1.0)
        v2 = b.put_object("b", Blob.fresh(1), 2.0)
        assert v2.sequencer > v1.sequencer

    def test_delete_removes(self):
        b = make_bucket()
        b.put_object("k", Blob.fresh(10), 1.0)
        b.delete_object("k", 2.0)
        assert "k" not in b

    def test_delete_missing_is_idempotent(self):
        b = make_bucket()
        b.delete_object("k", 1.0)  # must not raise

    def test_ranged_get(self):
        b = make_bucket()
        blob = Blob.fresh(100)
        b.put_object("k", blob, 1.0)
        part, version = b.get_object("k", offset=10, length=20)
        assert part.size == 20
        assert version.etag == blob.etag

    def test_full_get_defaults(self):
        b = make_bucket()
        blob = Blob.fresh(100)
        b.put_object("k", blob, 1.0)
        part, _ = b.get_object("k")
        assert part == blob

    def test_copy_object_preserves_content(self):
        b = make_bucket()
        blob = Blob.fresh(50)
        b.put_object("src", blob, 1.0)
        b.copy_object("src", "dst", 2.0)
        assert b.head("dst").etag == blob.etag

    def test_total_bytes(self):
        b = make_bucket()
        b.put_object("a", Blob.fresh(10), 1.0)
        b.put_object("b", Blob.fresh(20), 1.0)
        assert b.total_bytes() == 30

    def test_keys_sorted(self):
        b = make_bucket()
        b.put_object("z", Blob.fresh(1), 1.0)
        b.put_object("a", Blob.fresh(1), 1.0)
        assert b.keys() == ["a", "z"]

    def test_current_etag_none_when_missing(self):
        assert make_bucket().current_etag("k") is None


class TestConditionalWrites:
    def test_if_match_success(self):
        b = make_bucket()
        v1 = b.put_object("k", Blob.fresh(10), 1.0)
        b.put_object("k", Blob.fresh(11), 2.0, if_match=v1.etag)

    def test_if_match_failure(self):
        b = make_bucket()
        b.put_object("k", Blob.fresh(10), 1.0)
        with pytest.raises(PreconditionFailed):
            b.put_object("k", Blob.fresh(11), 2.0, if_match="wrong")

    def test_if_match_on_missing_key_fails(self):
        b = make_bucket()
        with pytest.raises(PreconditionFailed):
            b.put_object("k", Blob.fresh(1), 1.0, if_match="anything")


class TestVersioning:
    def test_noncurrent_versions_retained(self):
        b = make_bucket(versioning=True)
        v1 = b.put_object("k", Blob.fresh(10), 1.0)
        b.put_object("k", Blob.fresh(20), 2.0)
        old = b.noncurrent_versions("k")
        assert [o.etag for o in old] == [v1.etag]

    def test_versioned_storage_grows(self):
        b = make_bucket(versioning=True)
        b.put_object("k", Blob.fresh(10), 1.0)
        b.put_object("k", Blob.fresh(10), 2.0)
        assert b.total_bytes() == 10
        assert b.total_bytes(include_noncurrent=True) == 20

    def test_unversioned_bucket_discards_old(self):
        b = make_bucket(versioning=False)
        b.put_object("k", Blob.fresh(10), 1.0)
        b.put_object("k", Blob.fresh(20), 2.0)
        assert b.noncurrent_versions("k") == []
        assert b.total_bytes(include_noncurrent=True) == 20

    def test_versioned_delete_keeps_noncurrent(self):
        b = make_bucket(versioning=True)
        v1 = b.put_object("k", Blob.fresh(10), 1.0)
        b.delete_object("k", 2.0)
        assert "k" not in b
        assert [o.etag for o in b.noncurrent_versions("k")] == [v1.etag]


class TestMultipart:
    def test_roundtrip_preserves_etag(self):
        b = make_bucket()
        src = Blob.fresh(96)
        upload = b.initiate_multipart("k")
        for i, off in enumerate(range(0, 96, 32), start=1):
            b.upload_part(upload, i, src.slice(off, 32))
        version = b.complete_multipart(upload, time=3.0)
        assert version.etag == src.etag

    def test_parts_ordered_by_number_not_upload_order(self):
        b = make_bucket()
        src = Blob.fresh(60)
        upload = b.initiate_multipart("k")
        b.upload_part(upload, 2, src.slice(30, 30))
        b.upload_part(upload, 1, src.slice(0, 30))
        version = b.complete_multipart(upload, time=1.0)
        assert version.etag == src.etag

    def test_complete_unknown_upload_rejected(self):
        b = make_bucket()
        with pytest.raises(NoSuchUpload):
            b.complete_multipart("mpu999", time=1.0)

    def test_double_complete_rejected(self):
        b = make_bucket()
        upload = b.initiate_multipart("k")
        b.upload_part(upload, 1, Blob.fresh(10))
        b.complete_multipart(upload, time=1.0)
        with pytest.raises(NoSuchUpload):
            b.complete_multipart(upload, time=2.0)

    def test_empty_complete_rejected(self):
        b = make_bucket()
        upload = b.initiate_multipart("k")
        with pytest.raises(ValueError):
            b.complete_multipart(upload, time=1.0)

    def test_part_numbers_start_at_one(self):
        b = make_bucket()
        upload = b.initiate_multipart("k")
        with pytest.raises(ValueError):
            b.upload_part(upload, 0, Blob.fresh(1))

    def test_abort_discards(self):
        b = make_bucket()
        upload = b.initiate_multipart("k")
        b.abort_multipart(upload)
        with pytest.raises(NoSuchUpload):
            b.upload_part(upload, 1, Blob.fresh(1))

    def test_if_match_guard_checked_at_completion(self):
        """The Figure 14 defence: completing a multipart replication whose
        source changed mid-flight must fail."""
        b = make_bucket()
        v1 = b.put_object("k", Blob.fresh(10), 1.0)
        upload = b.initiate_multipart("k", if_match=v1.etag)
        b.upload_part(upload, 1, Blob.fresh(10))
        b.put_object("k", Blob.fresh(10), 2.0)  # concurrent overwrite
        with pytest.raises(PreconditionFailed):
            b.complete_multipart(upload, time=3.0)


class TestEvents:
    def test_put_emits_created_event(self):
        b = make_bucket()
        events = []
        b.subscribe(events.append)
        blob = Blob.fresh(42)
        b.put_object("k", blob, time=7.0)
        assert len(events) == 1
        ev = events[0]
        assert (ev.kind, ev.key, ev.size, ev.etag) == ("created", "k", 42, blob.etag)
        assert ev.event_time == 7.0

    def test_delete_emits_deleted_event(self):
        b = make_bucket()
        events = []
        b.subscribe(events.append)
        b.put_object("k", Blob.fresh(1), 1.0)
        b.delete_object("k", 2.0)
        assert [e.kind for e in events] == ["created", "deleted"]

    def test_notify_false_suppresses_event(self):
        b = make_bucket()
        events = []
        b.subscribe(events.append)
        b.put_object("k", Blob.fresh(1), 1.0, notify=False)
        assert events == []

    def test_listenerless_bucket_still_draws_sequencers(self):
        """No event is built without a listener, but the sequencer is
        drawn exactly as if one were listening."""
        quiet, loud = make_bucket(), make_bucket()
        events = []
        loud.subscribe(events.append)
        for b in (quiet, loud):
            b.put_object("a", Blob.fresh(1), 1.0)
            assert b.last_sequencer == 1
            b.put_object("b", Blob.fresh(1), 2.0)
            b.delete_object("a", 3.0)
            assert b.last_sequencer == 3
        assert [e.sequencer for e in events] == [1, 2, 3]
        assert quiet.put_object("c", Blob.fresh(1), 4.0).sequencer == 4

    def test_multipart_complete_emits_single_event(self):
        b = make_bucket()
        events = []
        b.subscribe(events.append)
        upload = b.initiate_multipart("k")
        b.upload_part(upload, 1, Blob.fresh(10))
        b.complete_multipart(upload, time=1.0)
        assert [e.kind for e in events] == ["created"]
