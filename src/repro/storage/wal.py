"""Write-ahead log for the embedded LSM store.

Every write batch is appended to the WAL before it touches the memtable,
so a process crash loses nothing that was acknowledged. Like a RocksDB
``WriteBatch``, one call to :meth:`LsmStore.write_batch
<repro.storage.lsm.LsmStore.write_batch>` is logged as **one** record
under one sequence number, carrying every put, delete and merge operand
of the batch; a single ``put``/``delete``/``merge`` is a batch of one. On
restart the LSM replays the records that postdate the last flushed
memtable, through the same apply function live writes use.

The log lives in a machine's ``disk`` namespace (see
:mod:`repro.runtime.cluster`): it survives process crashes and is lost
with the machine — exactly the recovery ladder of the paper's Figure 10.
"""

from __future__ import annotations

from typing import Any, Iterator, NamedTuple


class WalRecord(NamedTuple):
    """One logged write batch, stamped with a global sequence number.

    Replay applies ``puts``, then ``deletes``, then ``merges`` — the
    order :meth:`LsmStore.write_batch
    <repro.storage.lsm.LsmStore.write_batch>` applies them live. A named
    tuple: immutable, and cheap enough to build once per single-key
    write.
    """

    sequence: int
    puts: dict[str, Any]
    deletes: tuple[str, ...] = ()
    merges: tuple[tuple[str, Any], ...] = ()

    @property
    def mutations(self) -> int:
        """How many individual puts, deletes and merges the batch holds."""
        return len(self.puts) + len(self.deletes) + len(self.merges)


class WriteAheadLog:
    """Append-only write-batch log with truncation at flush points."""

    def __init__(self) -> None:
        self._records: list[WalRecord] = []
        self._next_sequence = 0

    def append(self, puts: dict[str, Any] | None = None,
               deletes: tuple[str, ...] = (),
               merges: tuple[tuple[str, Any], ...] = ()) -> WalRecord:
        """Log one batch under the next sequence number.

        The record owns ``puts``: callers pass a dict nothing else holds.
        """
        record = WalRecord(self._next_sequence,
                           puts if puts is not None else {}, deletes, merges)
        self._records.append(record)
        self._next_sequence += 1
        return record

    def records_since(self, sequence: int) -> Iterator[WalRecord]:
        """Yield records with sequence number >= ``sequence``."""
        for record in self._records:
            if record.sequence >= sequence:
                yield record

    def truncate_before(self, sequence: int) -> int:
        """Drop records below ``sequence`` (they are in a flushed run)."""
        keep_from = 0
        while (keep_from < len(self._records)
               and self._records[keep_from].sequence < sequence):
            keep_from += 1
        dropped = keep_from
        del self._records[:keep_from]
        return dropped

    @property
    def next_sequence(self) -> int:
        return self._next_sequence

    def __len__(self) -> int:
        return len(self._records)
