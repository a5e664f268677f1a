"""Writer client bound to one category."""

from __future__ import annotations

from typing import Any, Mapping

from repro import serde
from repro.core.sharding import shards_for_keys
from repro.errors import Backpressure
from repro.scribe.store import ScribeStore, default_bucketer


class ScribeWriter:
    """Appends records to a category, sharding by an optional key.

    Processors re-shard their output by writing with a different shard key
    than the one their input was sharded by (e.g. the Filterer in Figure 3
    shards its output by dimension id).

    The category handle is resolved once at construction (handles are
    stable across resizes), so the per-write cost is encode + append —
    no registry lookups on the hot path.
    """

    def __init__(self, store: ScribeStore, category: str) -> None:
        self.store = store
        self.category = category
        # Fail fast on typos rather than on the first write; keep the
        # resolved handle for every subsequent append.
        self._category = store.category(category)

    def write(self, record: Mapping[str, Any], key: str | None = None) -> int:
        """Serialize and append ``record``; return the assigned offset."""
        return self.store.write_to(self._category, serde.encode(record),
                                   key=key)

    def try_write(self, record: Mapping[str, Any],
                  key: str | None = None) -> int | None:
        """Like :meth:`write`, but returns None when backpressured.

        The polling form of producer blocking: a scheduled producer that
        gets None keeps the record and retries next tick, so the
        simulated process blocks without exception control flow in its
        steady-state loop.
        """
        try:
            return self.write(record, key=key)
        except Backpressure:
            return None

    def write_batch(self, records: list[Mapping[str, Any]],
                    key: str | None = None,
                    keys: list[str] | None = None) -> list[int]:
        """Serialize and append many records; return their offsets.

        One serde call, one handle resolution and one
        :meth:`~repro.scribe.store.ScribeStore.write_batch_to` append for
        the whole batch — the write-side twin of
        :func:`repro.serde.decode_batch`. With ``keys`` (one per record),
        the per-record buckets come from one vectorized
        :func:`~repro.core.sharding.shards_for_keys` pass instead of a
        hash-and-validate call per record; with a single ``key`` (or
        none) every record lands in that key's bucket.
        """
        category = self._category
        if keys is not None:
            if len(keys) != len(records):
                raise ValueError(
                    f"{len(records)} records but {len(keys)} keys"
                )
            buckets = shards_for_keys(keys, category.num_buckets)
        else:
            bucket = (0 if key is None
                      else default_bucketer(key, category.num_buckets))
            buckets = [bucket] * len(records)
        return self.store.write_batch_to(category, serde.encode_batch(records),
                                         buckets)

    def write_bytes(self, payload: bytes, key: str | None = None) -> int:
        return self.store.write_to(self._category, payload, key=key)

    def write_to_bucket(self, record: Mapping[str, Any], bucket: int) -> int:
        return self.store.write_to(self._category, serde.encode(record),
                                   bucket=bucket)

    def bucket_for_key(self, key: str) -> int:
        """Which bucket a key currently lands in (after any resize)."""
        return default_bucketer(key, self._category.num_buckets)

    def encoded_size(self, record: Mapping[str, Any]) -> int:
        return serde.encoded_size(record)
