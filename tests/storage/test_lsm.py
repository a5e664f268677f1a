"""Tests for the LSM store: reads, merges, flush, compaction, recovery."""

import pytest

from repro.errors import StoreClosed
from repro.storage.lsm import LsmStore
from repro.storage.merge import CounterMergeOperator, DictSumMergeOperator


@pytest.fixture
def store():
    return LsmStore(merge_operator=CounterMergeOperator(),
                    memtable_flush_bytes=1 << 30)  # manual flushing


class TestBasicOps:
    def test_put_get_delete(self, store):
        store.put("a", 1)
        assert store.get("a") == 1
        store.delete("a")
        assert store.get("a") is None

    def test_missing_key_is_none(self, store):
        assert store.get("never") is None

    def test_none_values_are_reserved(self, store):
        with pytest.raises(ValueError):
            store.put("a", None)

    def test_multi_get(self, store):
        store.put("a", 1)
        store.put("b", 2)
        assert store.multi_get(["a", "b", "c"]) == {"a": 1, "b": 2, "c": None}

    def test_closed_store_rejects_ops(self, store):
        store.close()
        with pytest.raises(StoreClosed):
            store.get("a")


class TestMergeResolution:
    def test_merge_without_base_uses_identity(self, store):
        store.merge("c", 5)
        store.merge("c", 3)
        assert store.get("c") == 8

    def test_merge_over_put(self, store):
        store.put("c", 100)
        store.merge("c", 1)
        assert store.get("c") == 101

    def test_merge_over_delete_restarts(self, store):
        store.put("c", 100)
        store.delete("c")
        store.merge("c", 1)
        assert store.get("c") == 1

    def test_merge_chain_across_flushes(self, store):
        store.merge("c", 1)
        store.flush()
        store.merge("c", 2)
        store.flush()
        store.merge("c", 3)
        assert store.get("c") == 6

    def test_put_in_old_run_merge_in_new(self, store):
        store.put("c", 10)
        store.flush()
        store.merge("c", 5)
        assert store.get("c") == 15

    def test_delete_shadows_older_put_across_runs(self, store):
        store.put("c", 10)
        store.flush()
        store.delete("c")
        store.flush()
        assert store.get("c") is None

    def test_merge_requires_operator(self):
        plain = LsmStore()
        with pytest.raises(ValueError):
            plain.merge("a", 1)

    def test_dict_sum_operator(self):
        store = LsmStore(merge_operator=DictSumMergeOperator())
        store.merge("k", {"a": 1})
        store.merge("k", {"a": 2, "b": 1})
        assert store.get("k") == {"a": 3, "b": 1}


class TestFlushAndCompaction:
    def test_flush_moves_memtable_to_sstable(self, store):
        store.put("a", 1)
        assert store.memtable_size == 1
        store.flush()
        assert store.memtable_size == 0
        assert store.num_sstables == 1
        assert store.get("a") == 1

    def test_flush_empty_memtable_is_noop(self, store):
        store.flush()
        assert store.num_sstables == 0

    def test_auto_flush_on_size(self):
        store = LsmStore(memtable_flush_bytes=100)
        for i in range(50):
            store.put(f"key{i}", "v" * 20)
        assert store.num_sstables >= 1

    def test_compaction_folds_everything(self, store):
        for round_number in range(6):
            store.merge("counter", 1)
            store.put(f"k{round_number}", round_number)
            store.flush()
        store.compact()
        assert store.num_sstables == 1
        assert store.get("counter") == 6
        assert store.get("k3") == 3

    def test_compaction_drops_tombstones(self, store):
        store.put("dead", 1)
        store.flush()
        store.delete("dead")
        store.flush()
        store.compact()
        assert store.get("dead") is None
        assert store.approximate_key_count() == 0

    def test_auto_compaction_trigger(self):
        store = LsmStore(compaction_trigger=2,
                         memtable_flush_bytes=1 << 30)
        for i in range(5):
            store.put(f"k{i}", i)
            store.flush()
        assert store.num_sstables <= 2


class TestScan:
    def test_scan_merges_all_levels(self, store):
        store.put("a", 1)
        store.flush()
        store.put("b", 2)
        store.delete("a")
        assert list(store.scan()) == [("b", 2)]

    def test_scan_range(self, store):
        for key in ["a", "b", "c", "d"]:
            store.put(key, key)
        assert [k for k, _ in store.scan("b", "d")] == ["b", "c"]


class TestRecovery:
    def test_process_crash_recovers_from_wal(self):
        disk = {}
        store = LsmStore(disk=disk, merge_operator=CounterMergeOperator())
        store.put("a", 1)
        store.merge("a", 4)
        store.delete("gone")
        store.drop_memory()  # crash: memtable lost
        assert store.get("a") is None
        replayed = store.recover()
        assert replayed == 3
        assert store.get("a") == 5

    def test_recovery_after_flush_replays_only_tail(self):
        disk = {}
        store = LsmStore(disk=disk, merge_operator=CounterMergeOperator())
        store.put("a", 1)
        store.flush()
        store.put("b", 2)
        store.drop_memory()
        assert store.recover() == 1  # only "b" was unflushed
        assert store.get("a") == 1
        assert store.get("b") == 2

    def test_fresh_store_on_same_disk_sees_data(self):
        disk = {}
        first = LsmStore(disk=disk, name="app")
        first.put("a", 1)
        first.flush()
        second = LsmStore(disk=disk, name="app")
        assert second.get("a") == 1

    def test_write_batch_is_atomic_unit(self, store):
        store.write_batch(puts={"a": 1, "b": 2}, merges=[("c", 3)])
        assert store.get("a") == 1
        assert store.get("c") == 3

    def test_write_batch_is_one_wal_record(self, store):
        store.write_batch(puts={"a": 1, "b": 2}, deletes=["x"],
                          merges=[("c", 3), ("c", 4)])
        assert len(store._wal) == 1
        store.drop_memory()
        assert store.recover() == 5  # mutations, not records
        assert store.get("c") == 7

    @pytest.mark.parametrize("merge_operator, batch", [
        (CounterMergeOperator(), {"puts": {"a": 1, "b": None}}),
        (CounterMergeOperator(),
         {"puts": {"a": 1, "z": None}, "deletes": ["old"],
          "merges": [("c", 1)]}),
        (None, {"puts": {"a": 1}, "deletes": ["old"], "merges": [("c", 1)]}),
    ], ids=["none-put", "none-put-in-mixed-batch", "merges-without-operator"])
    def test_rejected_batch_changes_nothing(self, merge_operator, batch):
        store = LsmStore(merge_operator=merge_operator,
                         memtable_flush_bytes=1 << 30)
        store.put("old", 1)
        store.put("a", 0)
        assert store.get("a") == 0  # warm the row cache
        wal_records = len(store._wal)
        memtable = (store.memtable_size, store._memtable.approximate_bytes)
        with pytest.raises(ValueError):
            store.write_batch(**batch)
        assert len(store._wal) == wal_records
        assert (store.memtable_size,
                store._memtable.approximate_bytes) == memtable
        assert store.get("a") == 0
        assert store.get("old") == 1
        assert store.get("c") is None
        store.drop_memory()
        assert store.recover() == 2
        assert dict(store.scan()) == {"a": 0, "old": 1}


class TestIncrementalCompaction:
    def make(self, **kwargs):
        kwargs.setdefault("merge_operator", CounterMergeOperator())
        kwargs.setdefault("memtable_flush_bytes", 1 << 30)
        return LsmStore(**kwargs)

    def fill(self, store, runs, keys_per_run=4):
        for run in range(runs):
            for i in range(keys_per_run):
                store.put(f"k{run:02d}-{i}", run)
            store.flush()

    def test_step_merges_bounded_group(self):
        store = self.make(compaction_trigger=4, max_compact_runs=2)
        self.fill(store, 4)  # a full level-0 tier, no auto step yet
        merged = store.compact_step()
        # The tier reached its fanout (= compaction_trigger), but a step
        # only eats max_compact_runs of it, promoted one level up.
        assert merged == 2
        assert store.levels == [1, 0, 0]

    def test_step_is_noop_when_no_tier_is_full(self):
        store = self.make(compaction_trigger=4)
        self.fill(store, 3)
        assert store.compact_step() == 0
        assert store.num_sstables == 3

    def test_levels_stay_nonincreasing_under_steps(self):
        store = self.make(compaction_trigger=2, max_compact_runs=2)
        self.fill(store, 12)
        while store.compact_step():
            levels = store.levels
            assert levels == sorted(levels, reverse=True)

    def test_step_bound_caps_single_call_work(self):
        store = self.make(compaction_trigger=4, max_compact_runs=4,
                          row_cache_size=0)
        self.fill(store, 8, keys_per_run=8)  # 64 distinct keys
        total = sum(len(run) for run in store._sstables)
        while store.compact_step():
            pass
        # No single call (auto or manual) touched anything close to the
        # whole store — the point of incremental compaction.
        assert store.stats.compact_steps > 0
        assert store.stats.max_step_entries <= 4 * 8 < total

    def test_step_collapses_merge_operands(self):
        store = self.make(compaction_trigger=4, max_compact_runs=4)
        for _ in range(4):
            store.merge("c", 1)
            store.flush()
        assert store.compact_step() == 4
        [run] = store._sstables
        entry = run.get("c")
        assert len(entry.operands) == 1  # collapsed via partial_merge
        assert store.get("c") == 4

    def test_tombstones_survive_non_bottom_steps(self):
        store = self.make(compaction_trigger=2, max_compact_runs=2)
        store.put("a", 1)
        store.flush()
        store.put("pad", 0)
        store.flush()
        assert store.compact_step() == 2  # "a" now lives in a level-1 run
        store.delete("a")
        store.flush()
        store.put("y", 2)
        store.flush()  # run-count pressure auto-steps the two newest runs
        assert store.levels == [1, 1]
        # That merge excluded the oldest run, so the tombstone had to
        # survive it — otherwise the old "a" would resurrect here.
        assert store.get("a") is None
        store.compact()
        assert store.get("a") is None

    def test_scheduled_compaction_converges(self):
        from repro.runtime.scheduler import Scheduler

        store = self.make(compaction_trigger=2, max_compact_runs=4)
        self.fill(store, 9)
        scheduler = Scheduler()
        handle = store.schedule_compaction(scheduler, interval=5.0)
        scheduler.run_until(500.0)
        assert store.num_sstables <= 2
        assert store.stats.compact_steps > 0
        handle.cancel()

    def test_multi_get_walks_each_run_once(self):
        store = self.make(compaction_trigger=10_000, row_cache_size=0)
        self.fill(store, 5, keys_per_run=6)
        store.stats.multi_get_run_walks = 0
        keys = [f"k{run:02d}-{i}" for run in range(5) for i in range(6)]
        result = store.multi_get(keys)
        assert all(result[key] is not None for key in keys)
        # One monotone walk per run, not one probe-sequence per key.
        assert store.stats.multi_get_run_walks <= store.num_sstables
