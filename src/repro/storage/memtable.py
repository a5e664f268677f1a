"""In-memory write buffer for the LSM store.

The memtable absorbs puts, deletes (as tombstones), and merge operands.
A lookup can resolve entirely here (a put or delete wins outright) or
only partially (a chain of merge operands needs the value from older
runs underneath) — :class:`Entry` encodes both cases.
"""

from __future__ import annotations

import enum
import sys
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, Mapping


class EntryKind(enum.Enum):
    """How an entry combines with older data for the same key."""

    PUT = "put"          # full value: shadows everything older
    TOMBSTONE = "delete"  # deletion: shadows everything older
    MERGE = "merge"       # operand chain: folds into the older value


@dataclass
class Entry:
    """The newest state for a key within one memtable or run."""

    kind: EntryKind
    value: Any = None
    operands: list[Any] = field(default_factory=list)

    @classmethod
    def put(cls, value: Any) -> "Entry":
        return cls(EntryKind.PUT, value=value)

    @classmethod
    def tombstone(cls) -> "Entry":
        return cls(EntryKind.TOMBSTONE)

    @classmethod
    def merge(cls, operand: Any) -> "Entry":
        return cls(EntryKind.MERGE, operands=[operand])

    def is_terminal(self) -> bool:
        """True if this entry fully determines the key's value."""
        return self.kind != EntryKind.MERGE


# Module-level aliases: an enum member lookup per mutation is measurable
# on the write path.
_PUT, _TOMBSTONE, _MERGE = EntryKind.PUT, EntryKind.TOMBSTONE, EntryKind.MERGE


class Memtable:
    """Mutable key -> :class:`Entry` buffer with approximate sizing."""

    def __init__(self) -> None:
        self._entries: dict[str, Entry] = {}
        self._approximate_bytes = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def approximate_bytes(self) -> int:
        return self._approximate_bytes

    def put(self, key: str, value: Any) -> None:
        self.apply({key: value}, (), ())

    def delete(self, key: str) -> None:
        self.apply({}, (key,), ())

    def merge(self, key: str, operand: Any) -> None:
        self.apply({}, (), ((key, operand),))

    def apply(self, puts: Mapping[str, Any], deletes: Iterable[str],
              merges: Iterable[tuple[str, Any]]) -> None:
        """Apply one write batch: its puts, then deletes, then operands.

        Merge operands fold into their key's entry in one loop, and the
        batch's size estimate — the sum of the same per-entry sizes a
        mutation-at-a-time memtable would add — is accounted once.
        """
        entries = self._entries
        existing_entry = entries.get
        added = 0
        for key, value in puts.items():
            entries[key] = Entry(_PUT, value, [])
            added += len(key) + _sizeof(value)
        for key in deletes:
            entries[key] = Entry(_TOMBSTONE, None, [])
            added += len(key) + _NONE_SIZE
        for key, operand in merges:
            existing = existing_entry(key)
            if existing is None:
                entries[key] = Entry(_MERGE, None, [operand])
            elif existing.kind is _TOMBSTONE:
                # A merge over a deletion starts a fresh chain whose base
                # is the operator's identity: a PUT of None with trailing
                # operands, terminal so reads never fall through to the
                # older (deleted) value.
                entries[key] = Entry(_PUT, None, [operand])
            else:  # MERGE chain, or PUT with trailing operands
                existing.operands.append(operand)
            added += len(key) + _sizeof(operand)
        self._approximate_bytes += added

    def get(self, key: str) -> Entry | None:
        return self._entries.get(key)

    def items(self) -> Iterator[tuple[str, Entry]]:
        """Entries in sorted key order (for flushing to a sorted run)."""
        for key in sorted(self._entries):
            yield key, self._entries[key]

    def keys(self) -> list[str]:
        return sorted(self._entries)


#: Size estimate of a value-less entry (a tombstone).
_NONE_SIZE = 8


#: Ints inside this range hold at most two 30-bit digits, so
#: ``sys.getsizeof`` is at most 32 and their estimate is the floor of 8.
_SMALL_INT = 1 << 60


def _sizeof(value: Any) -> int:
    """Cheap size estimate; exactness doesn't matter, monotonicity does."""
    if value is None:
        return _NONE_SIZE
    if value.__class__ is int and -_SMALL_INT < value < _SMALL_INT:
        return 8  # the common counter operand, without sys.getsizeof
    if isinstance(value, str):
        return len(value)
    if isinstance(value, (list, tuple, set)):
        return 16 + 8 * len(value)
    if isinstance(value, dict):
        return 16 + 16 * len(value)
    return max(8, sys.getsizeof(value) // 4)
