"""State-saving backends for Stylus (paper Section 4.4).

Three backends, matching the paper's inventory:

- :class:`InMemoryStateBackend` — a reliable checkpoint service (think
  HBase row per task); the baseline used by the semantics experiments.
- :class:`LocalDbStateBackend` — RocksDB embedded in the process
  (Figure 10): fast local writes, WAL recovery after a process crash,
  asynchronous HDFS backups for machine failure.
- :class:`RemoteDbStateBackend` — ZippyDB (Figure 11): state that can
  exceed one machine's memory and fast failover, at per-operation network
  cost; supports the read-modify-write and the append-only (merge
  operator) write modes compared in Figure 12.

The engine drives backends through two-phase primitives (``save_state``
then ``save_offset``, or the reverse, or ``save_atomic``) so that the
checkpoint *ordering* — which is what defines the semantics, Section
4.3.1 — is explicit and crash-injectable between the phases.
"""

from __future__ import annotations

import copy
import enum
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, Mapping

from repro.errors import CheckpointError
from repro.storage.backup import BackupEngine
from repro.storage.lsm import LsmStore
from repro.storage.merge import MergeOperator
from repro.storage.zippydb import ZippyDb


class RemoteWriteMode(enum.Enum):
    """How monoid partial states reach the remote database (Figure 12)."""

    READ_MODIFY_WRITE = "read-modify-write"
    APPEND_ONLY = "append-only"


@dataclass(frozen=True)
class RecoveryCost:
    """What a recovery cost, in modeled seconds and entries replayed."""

    seconds: float
    entries: int
    source: str


class StateBackend(ABC):
    """Durable storage for a task's state, offset, and monoid partials."""

    # -- two-phase checkpoint primitives -------------------------------------

    @abstractmethod
    def save_state(self, state: Any) -> None:
        """Persist the in-memory state snapshot."""

    @abstractmethod
    def save_offset(self, offset: int) -> None:
        """Persist the input-stream offset."""

    @abstractmethod
    def save_atomic(self, state: Any, offset: int) -> None:
        """Persist state and offset atomically (exactly-once support)."""

    @abstractmethod
    def load(self) -> tuple[Any, int | None]:
        """Return (state, offset) as last persisted; (None, None) if new."""

    # -- monoid partial-state flushing ------------------------------------------

    def flush_partials(self, partials: Mapping[str, Any],
                       operator: MergeOperator) -> None:
        """Merge per-key partial states into the durable full state."""
        raise CheckpointError(
            f"{type(self).__name__} does not support monoid partials"
        )

    def read_value(self, key: str) -> Any:
        """Read one key of the merged durable state (serving / joins)."""
        raise CheckpointError(
            f"{type(self).__name__} does not support keyed reads"
        )

    # -- exactly-once support ------------------------------------------------
    #
    # Exactly-once output semantics require the receiver to be a
    # transactional data store (Section 4.3.1): the output value(s) commit
    # in the same transaction as the state and offset. Outputs are keyed
    # by checkpoint index so a replayed commit is idempotent.

    def save_atomic_with_outputs(self, state: Any, offset: int,
                                 outputs: list, checkpoint_index: int) -> None:
        """Atomically persist state, offset, and the pending output."""
        raise CheckpointError(
            f"{type(self).__name__} does not support transactional output"
        )

    def flush_partials_atomic(self, partials: Mapping[str, Any],
                              operator: MergeOperator, offset: int,
                              outputs: list, checkpoint_index: int) -> None:
        """Atomically merge partials and persist offset plus output."""
        raise CheckpointError(
            f"{type(self).__name__} does not support transactional "
            "monoid flushes"
        )

    def last_checkpoint_index(self) -> int:
        """Index of the newest durable checkpoint (0 when none).

        Tasks resume numbering from here after a restart or a shard
        adoption. A backend that stores committed output keyed by
        checkpoint index MUST derive this from durable data, not from
        instance memory: a freshly adopted task that restarted at index
        0 would overwrite the previous owner's committed output rows.
        """
        return 0

    def committed_outputs(self) -> list:
        """Every output committed transactionally, in checkpoint order."""
        raise CheckpointError(
            f"{type(self).__name__} does not store transactional output"
        )


class InMemoryStateBackend(StateBackend):
    """A plain reliable checkpoint slot (survives process crashes).

    Stands in for "save checkpoints to a database" when the experiment
    does not care which database: the semantics experiments of Figure 7
    use it so the only variable is the checkpoint *ordering*.
    """

    def __init__(self, name: str = "task") -> None:
        self.name = name
        self._state: Any = None
        self._offset: int | None = None
        self._values: dict[str, Any] = {}
        self._outputs: dict[int, list] = {}

    def save_state(self, state: Any) -> None:
        self._state = copy.deepcopy(state)

    def save_offset(self, offset: int) -> None:
        self._offset = offset

    def save_atomic(self, state: Any, offset: int) -> None:
        self._state = copy.deepcopy(state)
        self._offset = offset

    def load(self) -> tuple[Any, int | None]:
        return copy.deepcopy(self._state), self._offset

    def flush_partials(self, partials: Mapping[str, Any],
                       operator: MergeOperator) -> None:
        for key, delta in partials.items():
            base = self._values.get(key)
            self._values[key] = operator.full_merge(base, [delta])

    def read_value(self, key: str) -> Any:
        return copy.deepcopy(self._values.get(key))

    def save_atomic_with_outputs(self, state: Any, offset: int,
                                 outputs: list, checkpoint_index: int) -> None:
        self._state = copy.deepcopy(state)
        self._offset = offset
        self._outputs[checkpoint_index] = [o.record for o in outputs]

    def flush_partials_atomic(self, partials: Mapping[str, Any],
                              operator: MergeOperator, offset: int,
                              outputs: list, checkpoint_index: int) -> None:
        self.flush_partials(partials, operator)
        self._offset = offset
        self._outputs[checkpoint_index] = [o.record for o in outputs]

    def committed_outputs(self) -> list:
        result = []
        for index in sorted(self._outputs):
            result.extend(self._outputs[index])
        return result

    def last_checkpoint_index(self) -> int:
        return max(self._outputs, default=0)


class LocalDbStateBackend(StateBackend):
    """State in an embedded LSM store with asynchronous HDFS backups.

    The LSM's disk namespace should be the owning machine's ``disk`` dict
    so the failure model composes: a process crash keeps the local DB
    (recovery replays only the WAL tail), a machine failure loses it
    (recovery restores the last HDFS snapshot, losing the delta — which
    at-least-once replay from Scribe then regenerates).
    """

    #: Modeled recovery costs (seconds): WAL replay is per replayed
    #: mutation (not per batch record); an HDFS restore pays a fixed
    #: mount plus per-entry transfer. Used only for reporting, never for
    #: control flow.
    WAL_REPLAY_PER_RECORD = 1e-5
    HDFS_RESTORE_FIXED = 2.0
    HDFS_RESTORE_PER_ENTRY = 1e-4

    def __init__(self, name: str, disk: dict[str, Any],
                 backup_engine: BackupEngine | None = None,
                 merge_operator: MergeOperator | None = None) -> None:
        self.name = name
        self.backup_engine = backup_engine
        self.merge_operator = merge_operator
        self._store = LsmStore(disk=disk, name=name,
                               merge_operator=merge_operator)
        self.last_recovery: RecoveryCost | None = None

    @property
    def store(self) -> LsmStore:
        return self._store

    @classmethod
    def adopt(cls, name: str, disk: dict[str, Any],
              backup_engine: BackupEngine,
              merge_operator: MergeOperator | None = None,
              backup_id: int | None = None) -> "LocalDbStateBackend":
        """Build a backend on a (possibly new) machine from an HDFS backup.

        The shard-handoff path: the releasing owner snapshotted the
        store, the adopter materializes it here. Same mechanics as
        :meth:`recover_after_machine_failure`, but as a constructor —
        the adopter never had a store object to begin with. Raises
        :class:`~repro.errors.BackupNotFound` when no snapshot exists.
        """
        backend = cls(name, disk, backup_engine=backup_engine,
                      merge_operator=merge_operator)
        backend._store = backup_engine.restore(
            name, disk, backup_id=backup_id, merge_operator=merge_operator
        )
        entries = backend._store.approximate_key_count()
        backend.last_recovery = RecoveryCost(
            cls.HDFS_RESTORE_FIXED + entries * cls.HDFS_RESTORE_PER_ENTRY,
            entries, "hdfs-backup",
        )
        return backend

    # -- checkpoint primitives --------------------------------------------------

    def save_state(self, state: Any) -> None:
        self._store.put("__state__", copy.deepcopy(state))

    def save_offset(self, offset: int) -> None:
        self._store.put("__offset__", offset)

    def save_atomic(self, state: Any, offset: int) -> None:
        self._store.write_batch(puts={
            "__state__": copy.deepcopy(state),
            "__offset__": offset,
        })

    def load(self) -> tuple[Any, int | None]:
        return (copy.deepcopy(self._store.get("__state__")),
                self._store.get("__offset__"))

    # -- monoid partials ------------------------------------------------------------

    def flush_partials(self, partials: Mapping[str, Any],
                       operator: MergeOperator) -> None:
        self._store.write_batch(
            merges=[(f"v:{key}", delta) for key, delta in partials.items()]
        )

    def read_value(self, key: str) -> Any:
        return self._store.get(f"v:{key}")

    # -- exactly-once (write_batch is atomic at our failure granularity) --------

    def save_atomic_with_outputs(self, state: Any, offset: int,
                                 outputs: list, checkpoint_index: int) -> None:
        self._store.write_batch(puts={
            "__state__": copy.deepcopy(state),
            "__offset__": offset,
            f"out:{checkpoint_index:012d}": [o.record for o in outputs],
        })

    def flush_partials_atomic(self, partials: Mapping[str, Any],
                              operator: MergeOperator, offset: int,
                              outputs: list, checkpoint_index: int) -> None:
        self._store.write_batch(
            puts={
                "__offset__": offset,
                f"out:{checkpoint_index:012d}": [o.record for o in outputs],
            },
            merges=[(f"v:{key}", delta) for key, delta in partials.items()],
        )

    def committed_outputs(self) -> list:
        result = []
        for _, records in self._store.scan("out:", "out:￿"):
            result.extend(records)
        return result

    def last_checkpoint_index(self) -> int:
        # Derived from the durable rows, so an adopter resumes numbering
        # where the releasing owner stopped instead of overwriting.
        return max((int(key[4:]) for key, _ in
                    self._store.scan("out:", "out:￿")), default=0)

    # -- backup & recovery ----------------------------------------------------------

    def maybe_backup(self) -> bool:
        """Snapshot to HDFS; False if no engine or HDFS unavailable."""
        if self.backup_engine is None:
            return False
        return self.backup_engine.create_backup(self._store) is not None

    def recover_after_process_crash(self) -> RecoveryCost:
        """Restart on the same machine: local DB + WAL replay (fast)."""
        replayed = self._store.recover()
        cost = RecoveryCost(replayed * self.WAL_REPLAY_PER_RECORD,
                            replayed, "local-wal")
        self.last_recovery = cost
        return cost

    def recover_after_machine_failure(self, new_disk: dict[str, Any]) -> RecoveryCost:
        """Re-home onto a new machine: restore the last HDFS snapshot."""
        if self.backup_engine is None:
            raise CheckpointError(
                f"{self.name}: machine lost and no backup engine configured"
            )
        self._store = self.backup_engine.restore(
            self.name, new_disk, merge_operator=self.merge_operator
        )
        entries = self._store.approximate_key_count()
        cost = RecoveryCost(
            self.HDFS_RESTORE_FIXED + entries * self.HDFS_RESTORE_PER_ENTRY,
            entries, "hdfs-backup",
        )
        self.last_recovery = cost
        return cost


class RemoteDbStateBackend(StateBackend):
    """State in a remote ZippyDB-style database (Figure 11).

    "A remote database can hold states that do not fit in memory" and
    "provides faster machine failover time since we do not need to load
    the complete state to the machine upon restart" (Section 4.4.2).
    Failover here is therefore (modeled) constant time.

    ``write_mode`` selects the Figure 12 comparison arm: read-modify-write
    fetches, merges client-side, and writes back; append-only sends merge
    operands and lets the database fold them.
    """

    FAILOVER_FIXED = 0.05  # reconnect; no state transfer needed

    def __init__(self, name: str, db: ZippyDb,
                 write_mode: RemoteWriteMode = RemoteWriteMode.APPEND_ONLY) -> None:
        self.name = name
        self.db = db
        self.write_mode = write_mode
        self.last_recovery: RecoveryCost | None = None

    def _key(self, suffix: str) -> str:
        return f"{self.name}:{suffix}"

    # -- checkpoint primitives ------------------------------------------------------

    def save_state(self, state: Any) -> None:
        self.db.put(self._key("state"), copy.deepcopy(state))

    def save_offset(self, offset: int) -> None:
        self.db.put(self._key("offset"), offset)

    def save_atomic(self, state: Any, offset: int) -> None:
        self.db.commit_transaction(puts={
            self._key("state"): copy.deepcopy(state),
            self._key("offset"): offset,
        })

    def load(self) -> tuple[Any, int | None]:
        state = self.db.get(self._key("state"))
        offset = self.db.get(self._key("offset"))
        return copy.deepcopy(state), offset

    # -- monoid partials --------------------------------------------------------------

    def flush_partials(self, partials: Mapping[str, Any],
                       operator: MergeOperator) -> None:
        if not partials:
            return
        if self.write_mode == RemoteWriteMode.APPEND_ONLY:
            self.db.multi_merge(
                [(self._key(f"v:{key}"), delta)
                 for key, delta in partials.items()]
            )
            return
        # Read-merge-write: fetch current values, fold client-side, write.
        db_keys = {key: self._key(f"v:{key}") for key in partials}
        current = self.db.multi_get(list(db_keys.values()))
        merged = {
            db_key: operator.full_merge(current.get(db_key), [partials[key]])
            for key, db_key in db_keys.items()
        }
        self.db.multi_put(merged)

    def read_value(self, key: str) -> Any:
        return self.db.get(self._key(f"v:{key}"))

    # -- exactly-once (distributed transaction, Section 4.3.2) --------------------

    def save_atomic_with_outputs(self, state: Any, offset: int,
                                 outputs: list, checkpoint_index: int) -> None:
        self.db.commit_transaction(puts={
            self._key("state"): copy.deepcopy(state),
            self._key("offset"): offset,
            self._key("ckpt_index"): checkpoint_index,
            self._key(f"out:{checkpoint_index:012d}"): [
                o.record for o in outputs
            ],
        })

    def flush_partials_atomic(self, partials: Mapping[str, Any],
                              operator: MergeOperator, offset: int,
                              outputs: list, checkpoint_index: int) -> None:
        # Transactions cannot carry merge operands, so exactly-once monoid
        # flushes take the read-merge-write path regardless of write_mode.
        db_keys = {key: self._key(f"v:{key}") for key in partials}
        current = self.db.multi_get(list(db_keys.values())) if db_keys else {}
        puts = {
            db_key: operator.full_merge(current.get(db_key), [partials[key]])
            for key, db_key in db_keys.items()
        }
        puts[self._key("offset")] = offset
        puts[self._key("ckpt_index")] = checkpoint_index
        puts[self._key(f"out:{checkpoint_index:012d}")] = [
            o.record for o in outputs
        ]
        self.db.commit_transaction(puts=puts)

    def committed_outputs(self) -> list:
        # Checkpoint indexes are assigned contiguously from 1, and the
        # newest one rides in every commit, so the rows are enumerable
        # from durable data alone — a failed-over instance sees the same
        # output history its predecessor committed.
        result = []
        for index in range(1, self.last_checkpoint_index() + 1):
            records = self.db.get(self._key(f"out:{index:012d}"))
            if records:
                result.extend(records)
        return result

    def last_checkpoint_index(self) -> int:
        stored = self.db.get(self._key("ckpt_index"))
        return int(stored) if stored is not None else 0

    # -- recovery ---------------------------------------------------------------------

    def recover_failover(self) -> RecoveryCost:
        """Move to a new machine: nothing to load, state stayed remote."""
        cost = RecoveryCost(self.FAILOVER_FIXED, 0, "remote-db")
        self.last_recovery = cost
        return cost
