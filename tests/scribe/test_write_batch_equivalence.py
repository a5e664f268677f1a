"""Equivalence: ``ScribeWriter.write_batch`` against per-record ``write``.

The batch path groups payloads by bucket and appends each group once.
Whatever the grouping, the bus must end up exactly where a loop of
single writes leaves it: the same offsets, messages, visibility stamps,
byte totals and counters — and, on a gated category, the same refused
record, the same appended prefix and the same credit counters.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import Backpressure
from repro.runtime.clock import SimClock
from repro.runtime.metrics import MetricsRegistry
from repro.scribe.reader import ScribeReader
from repro.scribe.store import ScribeStore
from repro.scribe.writer import ScribeWriter

CATEGORY = "events"
NUM_BUCKETS = 4

pages = st.sampled_from([f"p{i}" for i in range(7)])
rounds = st.lists(
    st.lists(st.tuples(pages, st.integers(0, 10 ** 6)), max_size=12),
    min_size=1, max_size=5,
)


def make_writer(limit=None):
    store = ScribeStore(clock=SimClock(), delivery_delay=0.5,
                        metrics=MetricsRegistry())
    store.create_category(CATEGORY, NUM_BUCKETS)
    if limit is not None:
        store.enable_backpressure(CATEGORY, max_outstanding=limit)
    return ScribeWriter(store, CATEGORY)


def records_of(batch):
    return [{"page": page, "n": n, "tags": (page, n % 3)}
            for page, n in batch]


def bus_state(store):
    """Everything a writer can change, readers' view included."""
    category = store.category(CATEGORY)
    return {
        "entries": [bucket.entries() for bucket in category.buckets],
        "messages": [bucket.read(bucket.first_retained_offset, 10 ** 6,
                                 now=float("inf"))
                     for bucket in category.buckets],
        "bytes_appended": [bucket.bytes_appended
                           for bucket in category.buckets],
        # scribe.<category>.messages/bytes, scribe.credits.granted/blocked
        "counters": store.metrics.snapshot(),
    }


def write_each(writer, records, keys):
    return [writer.write(record, key=key)
            for record, key in zip(records, keys)]


class _Outcome:
    """Captures a write's result or the Backpressure it raised."""

    def __init__(self):
        self.value = None
        self.error = None

    def __enter__(self):
        return self

    def __exit__(self, kind, error, traceback):
        if isinstance(error, Backpressure):
            self.error = error
            return True
        return False

    def refusal(self):
        if self.error is None:
            return None
        return (self.error.category, self.error.bucket,
                self.error.outstanding, self.error.max_outstanding)


@pytest.mark.parametrize("form", ["keys", "key", "no-key"])
@settings(max_examples=60, deadline=None)
@given(batches=rounds)
def test_batch_matches_per_record_writes(form, batches):
    batched, single = make_writer(), make_writer()
    for batch in batches:
        records = records_of(batch)
        if form == "keys":
            keys = [page for page, _ in batch]
            offsets = batched.write_batch(records, keys=keys)
        else:
            key = batch[0][0] if form == "key" and batch else None
            keys = [key] * len(records)
            offsets = batched.write_batch(records, key=key)
        assert offsets == write_each(single, records, keys)
        for writer in (batched, single):
            writer.store.clock.advance(0.25)
    assert bus_state(batched.store) == bus_state(single.store)


@settings(max_examples=80, deadline=None)
@given(batches=rounds, limit=st.integers(1, 4),
       drained=st.lists(st.integers(0, NUM_BUCKETS - 1), max_size=5))
def test_backpressure_fires_at_the_same_record(batches, limit, drained):
    batched, single = make_writer(limit), make_writer(limit)
    readers = {
        writer: [ScribeReader(writer.store, CATEGORY, bucket)
                 for bucket in range(NUM_BUCKETS)]
        for writer in (batched, single)
    }
    for index, batch in enumerate(batches):
        records = records_of(batch)
        keys = [page for page, _ in batch]
        with _Outcome() as got:
            got.value = batched.write_batch(records, keys=keys)
        with _Outcome() as expected:
            expected.value = write_each(single, records, keys)
        assert got.refusal() == expected.refusal()
        if got.error is None:
            assert got.value == expected.value
        assert bus_state(batched.store) == bus_state(single.store)
        # Consumers drain some buckets between rounds, granting credits.
        if index < len(drained):
            for writer in (batched, single):
                writer.store.clock.advance(1.0)
                readers[writer][drained[index]].read_batch(2)


def test_key_count_mismatch_is_checked_before_encoding():
    writer = make_writer()
    unencodable = [{"bad": object()}]
    with pytest.raises(ValueError, match="1 records but 2 keys"):
        writer.write_batch(unencodable, keys=["a", "b"])
    assert bus_state(writer.store) == bus_state(make_writer().store)
