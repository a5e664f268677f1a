"""Tests for the write-ahead log and the memtable."""

from repro.storage.memtable import EntryKind, Memtable
from repro.storage.wal import WriteAheadLog


class TestWriteAheadLog:
    def test_sequence_numbers_are_dense(self):
        wal = WriteAheadLog()
        records = [wal.append(puts={f"k{i}": i}) for i in range(5)]
        assert [r.sequence for r in records] == [0, 1, 2, 3, 4]
        assert wal.next_sequence == 5

    def test_records_since(self):
        wal = WriteAheadLog()
        for i in range(6):
            wal.append(puts={f"k{i}": i})
        tail = list(wal.records_since(4))
        assert [list(r.puts) for r in tail] == [["k4"], ["k5"]]

    def test_truncate_keeps_sequence_numbering(self):
        wal = WriteAheadLog()
        for i in range(5):
            wal.append(puts={f"k{i}": i})
        assert wal.truncate_before(3) == 3
        assert len(wal) == 2
        record = wal.append(deletes=("x",))
        assert record.sequence == 5

    def test_one_record_carries_a_whole_batch(self):
        wal = WriteAheadLog()
        record = wal.append({"a": 1}, ("b",), (("c", 2), ("c", 3)))
        assert record.sequence == 0
        assert record.mutations == 4
        assert len(wal) == 1 and wal.next_sequence == 1

    def test_truncate_is_idempotent(self):
        wal = WriteAheadLog()
        wal.append(puts={"a": 1})
        wal.truncate_before(1)
        assert wal.truncate_before(1) == 0


class TestMemtable:
    def test_put_then_get(self):
        table = Memtable()
        table.put("a", 1)
        entry = table.get("a")
        assert entry.kind == EntryKind.PUT
        assert entry.value == 1

    def test_put_overwrites(self):
        table = Memtable()
        table.put("a", 1)
        table.put("a", 2)
        assert table.get("a").value == 2
        assert len(table) == 1

    def test_delete_leaves_tombstone(self):
        table = Memtable()
        table.put("a", 1)
        table.delete("a")
        assert table.get("a").kind == EntryKind.TOMBSTONE

    def test_merge_chains_accumulate(self):
        table = Memtable()
        table.merge("a", 1)
        table.merge("a", 2)
        entry = table.get("a")
        assert entry.kind == EntryKind.MERGE
        assert entry.operands == [1, 2]
        assert not entry.is_terminal()

    def test_merge_after_put_appends_to_put(self):
        table = Memtable()
        table.put("a", 10)
        table.merge("a", 1)
        entry = table.get("a")
        assert entry.kind == EntryKind.PUT
        assert entry.value == 10
        assert entry.operands == [1]
        assert entry.is_terminal()

    def test_merge_after_delete_starts_fresh_chain(self):
        table = Memtable()
        table.put("a", 10)
        table.delete("a")
        table.merge("a", 3)
        entry = table.get("a")
        assert entry.is_terminal()  # must not fall through to older runs
        assert entry.value is None
        assert entry.operands == [3]

    def test_items_sorted_by_key(self):
        table = Memtable()
        for key in ["c", "a", "b"]:
            table.put(key, key)
        assert [k for k, _ in table.items()] == ["a", "b", "c"]

    def test_approximate_bytes_grows(self):
        table = Memtable()
        before = table.approximate_bytes
        table.put("key", "value" * 100)
        assert table.approximate_bytes > before
