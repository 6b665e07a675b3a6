"""Model-based (stateful hypothesis) test of the object store.

Drives a :class:`Bucket` with random interleavings of PUT / DELETE /
COPY / ranged GET / multipart operations while maintaining a reference
model (a plain dict of key → Blob), asserting after every step that the
bucket's visible state, ETags, byte totals, and event stream match the
model.  This is the consistency bedrock the replication engine builds
on.
"""

import math

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.simcloud.chaos import injected_ledger
from repro.simcloud.objectstore import Blob, Bucket
from repro.simcloud.regions import get_region

KEYS = [f"k{i}" for i in range(6)]


class BucketMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.bucket = Bucket("b", get_region("aws:us-east-1"),
                             injected_ledger())
        self.model: dict[str, Blob] = {}
        self.clock = 0.0
        self.events: list[tuple[str, str]] = []
        self.bucket.subscribe(lambda ev: self.events.append((ev.kind, ev.key)))
        self.expected_events: list[tuple[str, str]] = []

    def _tick(self) -> float:
        self.clock += 1.0
        return self.clock

    @rule(key=st.sampled_from(KEYS), size=st.integers(1, 10_000))
    def put(self, key, size):
        blob = Blob.fresh(size)
        self.bucket.put_object(key, blob, self._tick())
        self.model[key] = blob
        self.expected_events.append(("created", key))

    @rule(key=st.sampled_from(KEYS))
    def delete(self, key):
        self.bucket.delete_object(key, self._tick())
        if key in self.model:
            del self.model[key]
            self.expected_events.append(("deleted", key))

    @rule(src=st.sampled_from(KEYS), dst=st.sampled_from(KEYS))
    def copy(self, src, dst):
        if src not in self.model:
            return
        self.bucket.copy_object(src, dst, self._tick())
        self.model[dst] = self.model[src]
        self.expected_events.append(("created", dst))

    @rule(key=st.sampled_from(KEYS), data=st.data())
    def ranged_get_matches_model(self, key, data):
        if key not in self.model:
            return
        blob = self.model[key]
        off = data.draw(st.integers(0, blob.size - 1))
        length = data.draw(st.integers(1, blob.size - off))
        piece, version = self.bucket.get_object(key, off, length)
        assert piece == blob.slice(off, length)
        assert version.etag == blob.etag

    @rule(key=st.sampled_from(KEYS), parts=st.integers(1, 5),
          size=st.integers(5, 5_000))
    def multipart_roundtrip(self, key, parts, size):
        blob = Blob.fresh(size)
        upload = self.bucket.initiate_multipart(key)
        part_size = math.ceil(size / parts)
        for i, off in enumerate(range(0, size, part_size), start=1):
            self.bucket.upload_part(upload, i,
                                    blob.slice(off, min(part_size, size - off)))
        self.bucket.complete_multipart(upload, self._tick())
        self.model[key] = blob
        self.expected_events.append(("created", key))

    @rule(key=st.sampled_from(KEYS))
    def concat_self(self, key):
        if key not in self.model:
            return
        base = self.model[key]
        doubled = Blob.concat([base, base])
        self.bucket.put_object(key, doubled, self._tick())
        self.model[key] = doubled
        self.expected_events.append(("created", key))

    # -- invariants -----------------------------------------------------------

    @invariant()
    def keys_match_model(self):
        assert set(self.bucket.keys()) == set(self.model)

    @invariant()
    def etags_match_model(self):
        for key, blob in self.model.items():
            assert self.bucket.head(key).etag == blob.etag

    @invariant()
    def total_bytes_match_model(self):
        assert self.bucket.total_bytes() == sum(b.size for b in self.model.values())

    @invariant()
    def event_stream_matches(self):
        assert self.events == self.expected_events

    @invariant()
    def sequencers_strictly_increase(self):
        seqs = [self.bucket.head(k).sequencer for k in self.bucket.keys()]
        assert len(seqs) == len(set(seqs))


TestBucketStateMachine = BucketMachine.TestCase
TestBucketStateMachine.settings = settings(
    max_examples=40, stateful_step_count=30, deadline=None)
