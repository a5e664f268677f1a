"""Property test: batch-native writes match a mutation-at-a-time model.

Random interleavings of ``put``/``delete``/``merge``/``write_batch``
(merges over tombstones included, rejected batches mixed in) must agree
with a dict model on every read path, before and after a crash-recover
and a backup round-trip. Each write batch is one WAL record, yet flush
points, memtable byte totals and the mutation count ``recover()``
returns must equal what the same mutations, sized one by one, produce.
"""

import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro.runtime.clock import SimClock
from repro.storage.backup import BackupEngine
from repro.storage.hdfs import HdfsBlobStore
from repro.storage.lsm import LsmStore
from repro.storage.merge import CounterMergeOperator
from repro.stylus.state import LocalDbStateBackend

KEYS = [f"k{i}" for i in range(5)]
keys = st.sampled_from(KEYS)
values = st.integers(-1000, 1000)

operations = st.lists(
    st.one_of(
        st.tuples(st.just("put"), keys, values),
        st.tuples(st.just("delete"), keys),
        st.tuples(st.just("merge"), keys, values),
        st.tuples(st.just("batch"),
                  st.dictionaries(keys, values, max_size=3),
                  st.lists(keys, max_size=3),
                  st.lists(st.tuples(keys, values), max_size=6)),
        # A batch whose last put is None: rejected whole.
        st.tuples(st.just("bad_batch"),
                  st.dictionaries(keys, values, max_size=3),
                  st.lists(st.tuples(keys, values), max_size=3)),
    ),
    min_size=1, max_size=50,
)


def entry_size(key, value):
    """The memtable's per-mutation size estimate, restated."""
    return len(key) + (8 if value is None
                       else max(8, sys.getsizeof(value) // 4))


class Model:
    """Dict semantics plus the flush schedule of one-by-one sizing."""

    def __init__(self, flush_bytes):
        self.flush_bytes = flush_bytes
        self.values = {}
        self.memtable_bytes = 0
        self.unflushed = 0  # mutations since the last flush
        self.flushes = 0

    def apply(self, puts, deletes, merges):
        mutations = 0
        for key, value in puts.items():
            self.values[key] = value
            self.memtable_bytes += entry_size(key, value)
            mutations += 1
        for key in deletes:
            self.values.pop(key, None)
            self.memtable_bytes += entry_size(key, None)
            mutations += 1
        for key, operand in merges:
            self.values[key] = self.values.get(key, 0) + operand
            self.memtable_bytes += entry_size(key, operand)
            mutations += 1
        self.unflushed += mutations
        if mutations and self.memtable_bytes >= self.flush_bytes:
            self.flushes += 1
            self.memtable_bytes = 0
            self.unflushed = 0


def drive(store, ops, model):
    for op in ops:
        kind = op[0]
        if kind == "put":
            store.put(op[1], op[2])
            model.apply({op[1]: op[2]}, [], [])
        elif kind == "delete":
            store.delete(op[1])
            model.apply({}, [op[1]], [])
        elif kind == "merge":
            store.merge(op[1], op[2])
            model.apply({}, [], [(op[1], op[2])])
        elif kind == "batch":
            store.write_batch(puts=op[1], deletes=op[2], merges=op[3])
            model.apply(op[1], op[2], op[3])
        else:
            puts = dict(op[1])
            puts["k-none"] = None
            with pytest.raises(ValueError):
                store.write_batch(puts=puts, merges=op[2])
        assert store.stats.flushes == model.flushes
        assert store._memtable.approximate_bytes == model.memtable_bytes


def assert_reads(store, model):
    expected = {key: model.values.get(key) for key in KEYS}
    assert {key: store.get(key) for key in KEYS} == expected
    assert store.multi_get(KEYS) == expected
    assert dict(store.scan()) == model.values
    assert [key for key, _ in store.scan()] == sorted(model.values)


@settings(max_examples=120, deadline=None)
@given(ops=operations, flush_bytes=st.integers(20, 400))
def test_batches_match_one_by_one_model(ops, flush_bytes):
    disk = {}
    backend = LocalDbStateBackend("task", disk,
                                  merge_operator=CounterMergeOperator())
    store = backend.store
    store.memtable_flush_bytes = flush_bytes
    model = Model(flush_bytes)
    drive(store, ops, model)
    assert_reads(store, model)

    store.drop_memory()
    cost = backend.recover_after_process_crash()
    assert cost.entries == model.unflushed
    assert cost.seconds == (model.unflushed
                            * LocalDbStateBackend.WAL_REPLAY_PER_RECORD)
    assert store._memtable.approximate_bytes == model.memtable_bytes
    assert_reads(store, model)

    engine = BackupEngine(HdfsBlobStore(clock=SimClock()))
    assert engine.create_backup(store) is not None
    restored = engine.restore("task", {},
                              merge_operator=CounterMergeOperator())
    assert_reads(restored, model)


@settings(max_examples=60, deadline=None)
@given(ops=operations)
def test_recover_counts_mutations_not_records(ops):
    store = LsmStore(merge_operator=CounterMergeOperator(),
                     memtable_flush_bytes=1 << 30)
    model = Model(1 << 30)
    drive(store, ops, model)
    store.drop_memory()
    assert store.recover() == model.unflushed
    assert_reads(store, model)
