"""Seeded inputs for the workloads; the program sees only these records.

Generation happens before any timed region and is never measured.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Any

from repro.runtime.rng import make_rng
from repro.workloads.events import EVENT_TYPES, TrendingEventsWorkload
from repro.workloads.zipf import ZipfSampler

#: Every POISON_EVERY-th message is a malformed payload (0.1%).
POISON_EVERY = 1000
#: Truncated JSON: every decoder in the pipeline must count and skip it.
POISON_PAYLOAD = b'{"dim_id":"dim0","event_time":'

NUM_DIMENSIONS = 2000
MAX_DISORDER_SECONDS = 2.0

Record = dict[str, Any]


@dataclass(frozen=True)
class TrendingInput:
    """TrendingEvents-shaped messages plus the Laser dimension rows.

    ``messages[i]`` is a record, or ``None`` where the producer writes
    the poison payload instead (key ``poison_key(i)``).
    """

    messages: list[Record | None]
    dimensions: list[Record]

    @property
    def poison_count(self) -> int:
        return sum(1 for message in self.messages if message is None)


def trending_input(seed: int, count: int,
                   rate_per_second: float) -> TrendingInput:
    """``count`` messages: Zipf over 2000 ``dim_id``s, <= 2 s disorder,
    ~60% posts, and a malformed payload at every 1000th position."""
    workload = TrendingEventsWorkload(
        seed=seed, num_dimensions=NUM_DIMENSIONS,
        rate_per_second=rate_per_second,
        max_disorder_seconds=MAX_DISORDER_SECONDS)
    generated = islice(
        workload.generate(count / rate_per_second + 1.0), count)
    messages: list[Record | None] = [
        None if index % POISON_EVERY == POISON_EVERY - 1 else record
        for index, record in enumerate(generated)
    ]
    dimensions = [{"dim_id": row["dim_id"], "language": row["language"]}
                  for row in workload.dimension_rows()]
    return TrendingInput(messages, dimensions)


def poison_key(index: int) -> str:
    return f"poison{index}"


def keyed_input(seed: int, count: int, rate_per_second: float,
                num_users: int, num_pages: int) -> list[Record]:
    """Page-view records for the keyed-state job: uniform users (a key
    space far beyond any cache), Zipf pages, <= 2 s disorder."""
    rng = make_rng(seed, "perfbench-keyed")
    pages = ZipfSampler(num_pages, 1.05, rng)
    records = []
    for index in range(count):
        arrival = (index + rng.random()) / rate_per_second
        records.append({
            "event_time": round(max(
                0.0, arrival - rng.uniform(0, MAX_DISORDER_SECONDS)), 3),
            "user": f"u{rng.randrange(num_users)}",
            "page": f"p{pages.sample()}",
            "event_type": rng.choice(EVENT_TYPES),
        })
    return records


def state_keys(event_time: float, user: str, page: str,
               event_type: str) -> tuple[str, str, str]:
    """The three counters one page view updates: user, page and type,
    each per minute."""
    minute = int(event_time // 60)
    return (f"user:{user}|{minute}", f"page:{page}|{minute}",
            f"type:{event_type}|{minute}")


def record_state_keys(record: Record) -> tuple[str, str, str]:
    return state_keys(float(record["event_time"]), record["user"],
                      record["page"], record["event_type"])
