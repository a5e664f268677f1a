"""A Scribe bucket: the append-only log that backs one partition.

A bucket is "the basic processing unit for stream processing systems"
(Section 2.1). It stores messages densely by offset, supports reading any
retained range, and trims data older than the retention window. Offsets
are never reused: after trimming, the first retained offset moves forward
but the numbering is stable, so checkpointed offsets stay meaningful.

Messages are materialized as reader-facing :class:`Message` objects once,
at append time, so a read is a bounds check plus one list slice — no
per-message wrapping on the (much hotter) read path. Visibility stamps
live in a parallel array: they are the bus's delivery bookkeeping, not
part of what a reader sees.
"""

from __future__ import annotations

from repro.errors import OffsetOutOfRange
from repro.scribe.message import Message


class Bucket:
    """Append-only message log with retention trimming."""

    def __init__(self, category: str, index: int) -> None:
        self.category = category
        self.index = index
        self._messages: list[Message] = []
        self._visible_at: list[float] = []  # parallel to _messages
        self._base_offset = 0  # offset of _messages[0]
        self._bytes_appended = 0

    # -- writes -------------------------------------------------------------

    def append(self, payload: bytes, write_time: float,
               visible_at: float) -> int:
        """Store a message; return its offset."""
        offset = self._base_offset + len(self._messages)
        self._messages.append(
            Message(self.category, self.index, offset, write_time, payload)
        )
        self._visible_at.append(visible_at)
        self._bytes_appended += len(payload)
        return offset

    def append_many(self, payloads: list[bytes], write_time: float,
                    visible_at: float) -> int:
        """Store messages sharing one write stamp; return the first offset.

        The batch form of :meth:`append`: the messages get consecutive
        offsets, and the log, the visibility array and the byte count
        each grow once per call instead of once per message.
        """
        first = self._base_offset + len(self._messages)
        category, index = self.category, self.index
        self._messages.extend([
            Message(category, index, offset, write_time, payload)
            for offset, payload in enumerate(payloads, first)
        ])
        self._visible_at.extend([visible_at] * len(payloads))
        self._bytes_appended += sum(map(len, payloads))
        return first

    # -- reads --------------------------------------------------------------

    @property
    def end_offset(self) -> int:
        """One past the last stored offset (the next offset to be written)."""
        return self._base_offset + len(self._messages)

    @property
    def first_retained_offset(self) -> int:
        return self._base_offset

    @property
    def retained_count(self) -> int:
        return len(self._messages)

    @property
    def bytes_appended(self) -> int:
        """Total payload bytes ever appended (not reduced by trimming)."""
        return self._bytes_appended

    def read(self, offset: int, max_messages: int, now: float,
             max_bytes: int | None = None) -> list[Message]:
        """Read up to ``max_messages`` starting at ``offset``.

        Only messages whose ``visible_at`` is at or before ``now`` are
        returned (modeling Scribe's delivery latency). Reading exactly at
        ``end_offset`` returns an empty list — that is a caught-up tailer,
        not an error. Reading below the retained window raises
        :class:`OffsetOutOfRange` so the caller can decide whether to skip
        forward (data loss) or fail.
        """
        if offset < self._base_offset or offset > self.end_offset:
            raise OffsetOutOfRange(
                self.category, self.index, offset,
                self._base_offset, self.end_offset,
            )
        if max_messages <= 0:
            return []
        position = offset - self._base_offset
        visible = self._visible_at
        if max_bytes is None:
            # Fast path: clamp at the visibility horizon (visible_at is
            # non-decreasing: the bus stamps it from its monotone clock
            # plus a constant delay), then one slice.
            stop = min(position + max_messages, len(self._messages))
            if stop > position and visible[stop - 1] > now:
                lo, hi = position, stop
                while lo < hi:
                    mid = (lo + hi) // 2
                    if visible[mid] <= now:
                        lo = mid + 1
                    else:
                        hi = mid
                stop = lo
            return self._messages[position:stop]
        result: list[Message] = []
        budget = max_bytes
        while position < len(self._messages) and len(result) < max_messages:
            if visible[position] > now:
                break  # later messages are even less visible
            message = self._messages[position]
            if result and message.size > budget:
                break
            result.append(message)
            budget -= message.size
            position += 1
        return result

    def entries(self) -> list[tuple[int, float, float, bytes]]:
        """Every retained ``(offset, write_time, visible_at, payload)``.

        The durability hook for snapshots, which must persist the
        visibility stamps that readers never see.
        """
        return [(message.offset, message.write_time, visible, message.payload)
                for message, visible in zip(self._messages, self._visible_at)]

    def first_offset_at_or_after(self, write_time: float) -> int:
        """The first retained offset written at or after ``write_time``.

        Write times are non-decreasing within a bucket (the bus stamps
        them from its clock), so this is a binary search — the primitive
        behind "we can replay a stream from a given (recent) time
        period" (Section 6.2). Returns ``end_offset`` if everything
        retained is older.
        """
        lo, hi = 0, len(self._messages)
        while lo < hi:
            mid = (lo + hi) // 2
            if self._messages[mid].write_time < write_time:
                lo = mid + 1
            else:
                hi = mid
        return self._base_offset + lo

    def visible_end_offset(self, now: float) -> int:
        """One past the last offset visible to readers at time ``now``."""
        # Visibility is monotone in offset, so scan back from the end.
        position = len(self._visible_at)
        while position > 0 and self._visible_at[position - 1] > now:
            position -= 1
        return self._base_offset + position

    # -- retention ------------------------------------------------------------

    def trim_older_than(self, cutoff_time: float) -> int:
        """Drop messages written before ``cutoff_time``; return count dropped."""
        keep = 0
        while (keep < len(self._messages)
               and self._messages[keep].write_time < cutoff_time):
            keep += 1
        if keep:
            del self._messages[:keep]
            del self._visible_at[:keep]
            self._base_offset += keep
        return keep

    def trim_to_offset(self, offset: int) -> int:
        """Drop messages below ``offset``; return count dropped."""
        if offset <= self._base_offset:
            return 0
        drop = min(offset, self.end_offset) - self._base_offset
        del self._messages[:drop]
        del self._visible_at[:drop]
        self._base_offset += drop
        return drop
