"""The Scribe service: category registry plus write/read entry points."""

from __future__ import annotations

import zlib
from typing import Any, Mapping

from repro import serde
from repro.errors import Backpressure, BackupNotFound, ConfigError, \
    StoreUnavailable, UnknownCategory
from repro.runtime.clock import Clock, WallClock
from repro.runtime.metrics import Counter, MetricsRegistry
from repro.runtime.retry import Retrier, RetryPolicy
from repro.scribe.bucket import Bucket
from repro.scribe.category import Category
from repro.scribe.flow import CreditGate
from repro.scribe.message import Message


def default_bucketer(key: str, num_buckets: int) -> int:
    """Stable hash partitioning of a shard key onto a bucket index.

    Uses crc32 rather than ``hash()`` so results are stable across
    processes and Python releases (``PYTHONHASHSEED`` does not apply).
    """
    return zlib.crc32(key.encode("utf-8")) % num_buckets


class ScribeStore:
    """An in-process Scribe deployment.

    One store instance plays the role of the whole Scribe tier: it owns
    every category, applies retention, and models the bus's delivery
    latency (messages become visible ``delivery_delay`` seconds after they
    are written — the paper's "minimum latency of about a second per
    stream", Section 4.2.2).
    """

    def __init__(self, clock: Clock | None = None,
                 delivery_delay: float = 0.0,
                 metrics: MetricsRegistry | None = None) -> None:
        if delivery_delay < 0:
            raise ConfigError("delivery_delay must be >= 0")
        self.clock = clock if clock is not None else WallClock()
        self.delivery_delay = delivery_delay
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._categories: dict[str, Category] = {}
        # Per-category (messages, bytes) counter handles, resolved once:
        # the write path must not pay an f-string + registry lookup per
        # message (Figure 9 is about exactly this kind of per-event tax).
        self._write_counters: dict[str, tuple[Counter, Counter]] = {}
        # Credit gates for categories with backpressure enabled. Empty
        # for most stores; the write path guards on the dict itself so
        # ungated deployments pay nothing.
        self._gates: dict[str, CreditGate] = {}

    # -- category management -------------------------------------------------

    def create_category(self, name: str, num_buckets: int = 1,
                        retention_seconds: float = 3 * 24 * 3600.0) -> Category:
        if name in self._categories:
            raise ConfigError(f"category {name!r} already exists")
        category = Category(name, num_buckets, retention_seconds)
        self._categories[name] = category
        return category

    def ensure_category(self, name: str,
                        num_buckets: int | None = None) -> Category:
        """Create the category if missing, else return the existing one.

        When the category already exists and the caller asked for a
        specific ``num_buckets``, a mismatch raises
        :class:`~repro.errors.ConfigError`: silently handing back a
        category with a different bucket count would scatter the
        caller's shard keys onto buckets it never reads.
        """
        existing = self._categories.get(name)
        if existing is not None:
            if num_buckets is not None and existing.num_buckets != num_buckets:
                raise ConfigError(
                    f"category {name!r} exists with "
                    f"{existing.num_buckets} buckets, not {num_buckets}"
                )
            return existing
        return self.create_category(
            name, num_buckets if num_buckets is not None else 1
        )

    def category(self, name: str) -> Category:
        if name not in self._categories:
            raise UnknownCategory(f"category {name!r} does not exist")
        return self._categories[name]

    def has_category(self, name: str) -> bool:
        return name in self._categories

    def categories(self) -> list[str]:
        return sorted(self._categories)

    # -- backpressure (credit-based flow control) ----------------------------

    def enable_backpressure(self, category_name: str,
                            max_outstanding: int) -> CreditGate:
        """Gate writes to ``category_name`` behind per-bucket credits.

        Each bucket may hold at most ``max_outstanding`` messages that no
        consumer has read yet; further writes raise
        :class:`~repro.errors.Backpressure` until reads grant credits
        back. Enabling twice reconfigures the limit but keeps the
        outstanding accounting.
        """
        self.category(category_name)  # validate eagerly
        gate = self._gates.get(category_name)
        if gate is not None:
            if max_outstanding < 1:
                raise ConfigError("max_outstanding must be >= 1")
            gate.max_outstanding = max_outstanding
            return gate
        gate = CreditGate(
            category_name, max_outstanding,
            granted=self.metrics.counter("scribe.credits.granted"),
            blocked=self.metrics.counter("scribe.credits.blocked"),
            reconciled=self.metrics.counter("scribe.credits.reconciled"),
        )
        self._gates[category_name] = gate
        return gate

    def gate_for(self, category_name: str) -> CreditGate | None:
        """The category's credit gate, or None when ungated."""
        return self._gates.get(category_name) if self._gates else None

    def reconcile_credits(self, category_name: str, bucket: int,
                          consumer_position: int) -> int:
        """Reset a gated bucket's outstanding count from its consumer.

        ``consumer_position`` is the surviving consumer's read position
        after a discontinuity (bucket handoff, retention skip): the true
        unread tail is everything written past it, including messages
        not yet visible. No-op for ungated categories; returns the
        credit adjustment applied (see :meth:`CreditGate.reconcile`).
        """
        gate = self.gate_for(category_name)
        if gate is None:
            return 0
        end = self.category(category_name).bucket(bucket).end_offset
        return gate.reconcile(bucket, max(0, end - consumer_position))

    # -- writes ---------------------------------------------------------------

    def _counters_for(self, category_name: str) -> tuple[Counter, Counter]:
        handles = self._write_counters.get(category_name)
        if handles is None:
            handles = (
                self.metrics.counter(f"scribe.{category_name}.messages"),
                self.metrics.counter(f"scribe.{category_name}.bytes"),
            )
            self._write_counters[category_name] = handles
        return handles

    def write(self, category_name: str, payload: bytes,
              key: str | None = None, bucket: int | None = None) -> int:
        """Append raw bytes; return the assigned offset.

        The bucket is chosen by, in priority order: the explicit ``bucket``
        argument, hashing ``key``, or bucket 0.
        """
        return self.write_to(self.category(category_name), payload,
                             key=key, bucket=bucket)

    def write_to(self, category: Category, payload: bytes,
                 key: str | None = None, bucket: int | None = None) -> int:
        """Append via a pre-resolved :class:`Category` handle.

        The fast path for writer clients that already hold the category
        (see :class:`~repro.scribe.writer.ScribeWriter`): no name lookup.
        """
        if bucket is None:
            if key is not None:
                bucket = default_bucketer(key, category.num_buckets)
            else:
                bucket = 0
        if self._gates:
            gate = self._gates.get(category.name)
            if gate is not None and not gate.try_acquire(bucket):
                raise Backpressure(category.name, bucket,
                                   gate.outstanding(bucket),
                                   gate.max_outstanding)
        now = self.clock.now()
        offset = category.bucket(bucket).append(
            payload, write_time=now, visible_at=now + self.delivery_delay
        )
        messages, nbytes = self._counters_for(category.name)
        messages.increment()
        nbytes.increment(len(payload))
        return offset

    def write_batch_to(self, category: Category, payloads: list[bytes],
                       buckets: list[int]) -> list[int]:
        """Append many payloads via a pre-resolved handle; return offsets.

        ``buckets`` holds each payload's bucket. The batch form of
        :meth:`write_to`, with the same results message for message: the
        clock is read once, payloads are grouped by bucket and appended
        with one :meth:`Bucket.append_many` per bucket (keeping their
        order within each bucket), and the category's write counters move
        once. On a gated category credits are acquired record by record
        in order; the prefix that got one is appended and counted, then
        :class:`~repro.errors.Backpressure` is raised for the first
        record that did not — where a loop of :meth:`write_to` raises.
        """
        refused = None
        if self._gates:
            gate = self._gates.get(category.name)
            if gate is not None:
                for accepted, bucket in enumerate(buckets):
                    if not gate.try_acquire(bucket):
                        refused = Backpressure(category.name, bucket,
                                               gate.outstanding(bucket),
                                               gate.max_outstanding)
                        payloads = payloads[:accepted]
                        buckets = buckets[:accepted]
                        break
        groups: dict[int, list[bytes]] = {}
        for payload, bucket in zip(payloads, buckets):
            group = groups.get(bucket)
            if group is None:
                groups[bucket] = group = []
            group.append(payload)
        now = self.clock.now()
        visible_at = now + self.delivery_delay
        next_offset = {
            bucket: category.bucket(bucket).append_many(group, now, visible_at)
            for bucket, group in groups.items()
        }
        offsets = []
        for bucket in buckets:
            offset = next_offset[bucket]
            offsets.append(offset)
            next_offset[bucket] = offset + 1
        if payloads:
            messages, nbytes = self._counters_for(category.name)
            messages.increment(len(payloads))
            nbytes.increment(sum(map(len, payloads)))
        if refused is not None:
            raise refused
        return offsets

    def write_record(self, category_name: str, record: Mapping[str, Any],
                     key: str | None = None, bucket: int | None = None) -> int:
        """Serialize a record (see :mod:`repro.serde`) and append it."""
        return self.write(category_name, serde.encode(record), key, bucket)

    # -- reads ------------------------------------------------------------------

    def read(self, category_name: str, bucket: int, offset: int,
             max_messages: int = 100,
             max_bytes: int | None = None) -> list[Message]:
        """Read visible messages from one bucket starting at ``offset``."""
        return self.read_from(self.category(category_name).bucket(bucket),
                              offset, max_messages, max_bytes)

    def read_from(self, bucket: Bucket, offset: int,
                  max_messages: int = 100,
                  max_bytes: int | None = None) -> list[Message]:
        """Read via a pre-resolved :class:`Bucket` handle.

        The fast path for reader clients (see
        :class:`~repro.scribe.reader.ScribeReader`): per-batch work is one
        visibility-bounded slice of pre-built messages, with no category
        or bucket dict lookups and no per-message wrapping.
        """
        return bucket.read(
            offset, max_messages, now=self.clock.now(), max_bytes=max_bytes
        )

    def end_offset(self, category_name: str, bucket: int) -> int:
        return self.category(category_name).bucket(bucket).end_offset

    def visible_end_offset(self, category_name: str, bucket: int) -> int:
        return self.category(category_name).bucket(bucket).visible_end_offset(
            self.clock.now()
        )

    def first_retained_offset(self, category_name: str, bucket: int) -> int:
        return self.category(category_name).bucket(bucket).first_retained_offset

    # -- maintenance ---------------------------------------------------------

    def run_retention(self) -> int:
        """Trim every category to its retention window; return drops."""
        return sum(
            category.trim(self.clock.now())
            for category in self._categories.values()
        )

    # -- durability ("Scribe provides data durability by storing it in
    # HDFS", Section 2.1) -------------------------------------------------------

    def snapshot_to(self, hdfs, name: str = "scribe",
                    retry: RetryPolicy | None = None) -> int | None:
        """Persist every category's retained messages to the blob store.

        Returns the number of messages persisted. With no ``retry``
        policy, an HDFS outage raises
        :class:`~repro.errors.StoreUnavailable` and the caller retries
        on the next cycle. With a policy, the put is retried under it;
        exhausting the budget skips the snapshot, counts it in
        ``scribe.snapshot.skipped``, and returns None — the degraded
        mode matching the backup engine's.
        """
        blob: dict[str, Any] = {"categories": {}}
        count = 0
        for category_name, category in self._categories.items():
            buckets = []
            for bucket in category.buckets:
                messages = bucket.entries()
                buckets.append({
                    "base": bucket.first_retained_offset,
                    "end": bucket.end_offset,
                    "messages": messages,
                })
                count += len(messages)
            blob["categories"][category_name] = {
                "retention": category.retention_seconds,
                "buckets": buckets,
            }
        if retry is None:
            hdfs.put(f"{name}/state", blob)
            return count
        retrier = Retrier(retry, clock=self.clock, metrics=self.metrics,
                          scope="scribe.snapshot")
        try:
            retrier.call(hdfs.put, f"{name}/state", blob)
        except StoreUnavailable:
            self.metrics.counter("scribe.snapshot.skipped").increment()
            return None
        return count

    @classmethod
    def restore_from(cls, hdfs, name: str = "scribe",
                     clock: Clock | None = None,
                     delivery_delay: float = 0.0) -> "ScribeStore":
        """Rebuild a store (offsets included) from a snapshot."""
        try:
            blob = hdfs.get(f"{name}/state")
        except KeyError:
            raise BackupNotFound(f"no scribe snapshot named {name!r}") from None
        store = cls(clock=clock, delivery_delay=delivery_delay)
        for category_name, data in blob["categories"].items():
            category = store.create_category(
                category_name, num_buckets=len(data["buckets"]),
                retention_seconds=data["retention"],
            )
            for index, bucket_data in enumerate(data["buckets"]):
                bucket = category.bucket(index)
                # Re-establish the offset numbering, then the messages.
                bucket._base_offset = bucket_data["base"]
                for offset, write_time, visible_at, payload in \
                        bucket_data["messages"]:
                    bucket.append(payload, write_time, visible_at)
                assert bucket.end_offset == bucket_data["end"]
        return store
