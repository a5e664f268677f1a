"""The three workloads: one pipeline run each, checked against a reference.

Each ``*_run`` function builds a fresh pipeline (timed as set-up), drives
it, and returns a :class:`Run`: the end-to-end samples, the count
metrics that must repeat exactly under one seed, the raw inputs of the
per-layer metrics, and any mismatch the correctness check found. The
checks run after the timed region.

- ``fanout`` (closed loop): write a fixed chunk of messages one at a
  time, pump every Figure 1 stage to quiescence, read 20 of the chunk's
  annotated keys back from Laser; repeat over a fixed input.
- ``dashboard`` (open loop): on a fixed wall-clock tick, write a fixed
  number of messages, pump to quiescence, checkpoint Puma so its Laser
  view is current, then refresh a four-panel dashboard.
- ``keyed_state`` (closed loop): batch-write a fixed chunk, pump a
  keyed monoid Stylus job on LSM state, checkpoint, read hot and cold
  keys back; repeat over a fixed input.
"""

from __future__ import annotations

import json
import time
from bisect import bisect_left, insort
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.core.event import Event
from repro.core.semantics import SemanticsPolicy
from repro.core.windows import aligned_start
from repro.errors import ReproError
from repro.runtime.clock import SimClock
from repro.runtime.metrics import MetricsRegistry
from repro.runtime.rng import make_rng
from repro.scribe.store import ScribeStore, default_bucketer
from repro.scribe.writer import ScribeWriter
from repro.scuba.query import ColumnFilter, ScubaQuery
from repro.storage.merge import CounterMergeOperator, MergeOperator
from repro.stylus.checkpointing import CheckpointPolicy
from repro.stylus.engine import StylusJob, StylusTask
from repro.stylus.processor import MonoidProcessor
from repro.stylus.state import LocalDbStateBackend
from repro.workloads.events import EVENT_TYPES

from perfbench import records as inputs
from perfbench.pipeline import (
    ANNOTATED, INPUT, NUM_BUCKETS, PUMA_APP, PUMA_TABLE, PUMP_BATCH,
    WINDOW_SECONDS, Figure1)
from perfbench.tracing import Span, Tracer

perf_counter = time.perf_counter


@dataclass(frozen=True)
class FanoutSize:
    events: int = 24_000
    chunk: int = 200


@dataclass(frozen=True)
class DashboardSize:
    """One round: ``ticks`` ticks, one every ``tick_seconds`` of wall time."""

    ticks: int = 200
    tick_seconds: float = 0.05
    events_per_tick: int = 50
    sim_seconds_per_tick: float = 2.0


@dataclass(frozen=True)
class KeyedSize:
    events: int = 40_000
    checkpoint_every: int = 1000


#: Simulated input rate of the closed loops (events per second).
RATE_PER_SECOND = 200.0
#: Laser gets of the chunk's post keys after each fanout chunk.
PROBE_GETS = 20
#: Set-ups timed before each dashboard round; the last one is driven.
DASHBOARD_SETUPS = 3
#: The Scuba panels' trailing range, in simulated seconds.
TRAILING_SECONDS = 300.0
TOP_K = 10
#: Keyed-state key space: uniform users (far beyond any cache), Zipf pages.
USERS = 200_000
PAGES = 5000
#: Keys read back after each keyed-state checkpoint.
HOT_READS = 16
COLD_READS = 16

#: The dashboard's Laser panel: 20 fixed (event_type, dim_id) keys of
#: the Puma view, hot and lukewarm dimensions, some never counted.
VIEW_KEYS = ([("post", f"dim{index}") for index in range(10)]
             + [("like", f"dim{index}") for index in range(0, 1000, 100)])
#: The dashboard's filtered Scuba panel excludes the largest language.
LANGUAGE_FILTER = ColumnFilter("language", "!=", "en")


@dataclass
class Run:
    """One pipeline run: set-up, the timed region and what it produced."""

    traced: bool
    setup_s: list[float]
    #: Time spent driving each chunk or tick; idle waits excluded.
    work_ms: list[float]
    wall_s: float
    events: int
    freshness_ms: list[float]
    refresh_ms: list[float]
    late_ms: list[float]
    attempted: int
    failed: int
    counts: dict[str, float]
    #: Raw inputs of the per-layer metrics (see :mod:`perfbench.report`).
    layer: dict[str, float]
    spans: list[Span]
    mismatches: list[str] = field(default_factory=list)

    @property
    def busy_s(self) -> float:
        return sum(self.work_ms) / 1e3


# -- shared helpers -----------------------------------------------------------


def _sum_matching(counts: dict[str, float], prefix: str,
                  suffix: str) -> float:
    return sum(value for name, value in counts.items()
               if name.startswith(prefix) and name.endswith(suffix))


def _mismatch(mismatches: list[str], what: str, got: Any,
              expected: Any) -> None:
    if got != expected:
        mismatches.append(f"{what}: got {got!r}, expected {expected!r}")


def _figure1_run(traced: bool, setup_s: list[float], work_ms: list[float],
                 wall_s: float, pipe: Figure1, messages: int, queries: int,
                 query_failures: int, freshness_ms: list[float],
                 refresh_ms: list[float], late_ms: list[float],
                 mismatches: list[str]) -> Run:
    """A Figure 1 run's :class:`Run`, its counts and per-layer numbers."""
    counts = pipe.metrics.snapshot()

    def scuba(name: str) -> float:
        return counts.get(f"scuba.{ANNOTATED}.{name}", 0.0)

    checkpoints, failed = _stylus_checkpoints(counts, "annotator")
    checkpoints += int(counts[f"puma.{PUMA_APP}.checkpoints"])
    layer = {
        "scribe.messages": counts[f"scribe.{INPUT}.messages"],
        "scribe.bytes": counts[f"scribe.{INPUT}.bytes"],
        "scribe.bucket_skew": _bucket_skew(pipe.scribe, INPUT),
        "puma.events": counts[f"puma.{PUMA_APP}.events"]
        + counts[f"puma.{PUMA_APP}.poison"],
        "puma.lag_max": pipe.lag_max["puma"],
        "puma.cells_flushed": counts[f"puma.{PUMA_APP}.state_flushes"],
        "puma.plan_cache_hits": counts["puma.plan_cache.hits"],
        "puma.plan_cache_misses": counts["puma.plan_cache.misses"],
        "stylus.events": messages,
        "stylus.outputs": _sum_matching(counts, "stylus.annotator",
                                        ".outputs"),
        "stylus.lag_max": pipe.lag_max["stylus"],
        "storage.hbase_rows": pipe.puma.hbase.row_count(),
        "laser.lag_max": pipe.lag_max["laser"],
        "laser.get_calls": pipe.laser_gets.calls,
        "laser.get_hits": pipe.laser_gets.hits,
        "scuba.rows": counts[f"scuba.ingest.{ANNOTATED}.rows"],
        "scuba.lag_max": pipe.lag_max["scuba"],
        "scuba.queries": scuba("queries"),
        "scuba.rows_scanned": scuba("rows_scanned"),
        "scuba.rows_cached": scuba("rows_cached"),
        "scuba.rows_pruned": scuba("rows_pruned"),
        "scuba.cache_hits": scuba("cache.hits"),
        "scuba.cache_misses": scuba("cache.misses"),
        "scuba.plan_cache_hits": scuba("plan_cache.hits"),
        "scuba.plan_cache_misses": scuba("plan_cache.misses"),
    }
    return Run(traced=traced, setup_s=setup_s, work_ms=work_ms, wall_s=wall_s,
               events=messages, freshness_ms=freshness_ms,
               refresh_ms=refresh_ms, late_ms=late_ms,
               attempted=messages + queries + checkpoints,
               failed=failed + query_failures, counts=counts, layer=layer,
               spans=pipe.tracer.finished(), mismatches=mismatches)


def _stylus_checkpoints(counts: dict[str, float],
                        job: str) -> tuple[int, int]:
    """(checkpoints attempted, deferred or crashed) for a Stylus job."""
    prefix = f"stylus.{job}"
    deferred = _sum_matching(counts, prefix, ".checkpoints_deferred")
    attempted = _sum_matching(counts, prefix, ".checkpoints") + deferred
    failed = deferred + _sum_matching(counts, prefix, ".crashes")
    return int(attempted), int(failed)


def _work_ms(starts: list[float], end: float) -> list[float]:
    """Each chunk's share of a closed loop: until the next chunk starts,
    the last one until the final checkpoint has returned."""
    return [(stop - start) * 1e3
            for start, stop in zip(starts, starts[1:] + [end])]


def _bucket_skew(scribe: ScribeStore, category: str) -> float:
    """Messages in the fullest bucket over the mean per bucket."""
    sizes = [scribe.end_offset(category, bucket)
             for bucket in range(NUM_BUCKETS)]
    return max(sizes) * NUM_BUCKETS / sum(sizes)


def _cell_of(record: dict[str, Any]) -> tuple[float, str, str]:
    """The Puma cell a record counts toward in the reference."""
    return (aligned_start(float(record["event_time"]), WINDOW_SECONDS),
            record["event_type"], record["dim_id"])


def _check_figure1_final(pipe: Figure1, messages: list[Any],
                         poison: int, mismatches: list[str]) -> None:
    """End state of a drained Figure 1 run against the written records."""
    records = [message for message in messages if message is not None]
    expected = Counter(map(_cell_of, records))
    rows = pipe.app.query(PUMA_TABLE)
    got = Counter({(row["window_start"], row["event_type"], row["dim_id"]):
                   row["n"] for row in rows})
    wrong_cells = sorted(cell for cell in expected.keys() | got.keys()
                         if got[cell] != expected[cell])
    _mismatch(mismatches, "puma cells differing from the records",
              wrong_cells[:3], [])
    view_get = pipe.view.get
    wrong_view = [key for key, n in expected.items()
                  if view_get(*key) != {"n": n}]
    _mismatch(mismatches, "laser view cells differing from puma",
              wrong_view[:3], [])
    posts = [record for record in records if record["event_type"] == "post"]
    _mismatch(mismatches, "scuba rows", pipe.scuba_table.row_count(),
              len(posts))
    post_dims = {record["dim_id"] for record in posts}
    has_lang = {f"dim{index}" for index in range(inputs.NUM_DIMENSIONS)
                if pipe.post_langs.get(f"dim{index}") is not None}
    _mismatch(mismatches, "post_langs keys", has_lang == post_dims, True)
    counts = pipe.metrics.snapshot()
    _mismatch(mismatches, "puma poison",
              counts[f"puma.{PUMA_APP}.poison"], poison)
    _mismatch(mismatches, "stylus poison",
              _sum_matching(counts, "stylus.annotator", ".poison"), poison)


# -- fanout -------------------------------------------------------------------


def fanout_run(data: inputs.TrendingInput, size: FanoutSize,
               traced: bool) -> Run:
    """Closed loop over a fixed input on the Figure 1 topology."""
    tracer = Tracer(traced)
    started = perf_counter()
    pipe = Figure1(data.dimensions, tracer)
    setup_s = perf_counter() - started
    languages = {row["dim_id"]: row["language"] for row in data.dimensions}
    messages = data.messages
    chunks = [(first, messages[first:first + size.chunk])
              for first in range(0, len(messages), size.chunk)]
    probes = [_probe_dims(chunk, PROBE_GETS) for _, chunk in chunks]
    seconds_per_chunk = size.chunk / RATE_PER_SECOND

    def chunk_body(index: int) -> None:
        tracer.unit = index
        first, chunk = chunks[index]
        pipe.clock.advance_to((index + 1) * seconds_per_chunk)
        pipe.produce(chunk, first)
        pipe.drain()

    run_chunk = tracer.wrap("driver.chunk", chunk_body)
    probe_get = pipe.post_langs_get
    freshness: list[float] = []
    refresh: list[float] = []
    answers: list[list[Any]] = []
    starts: list[float] = []
    for index in range(len(chunks)):
        chunk_start = perf_counter()
        starts.append(chunk_start)
        run_chunk(index)
        visible = perf_counter()
        answers.append([probe_get(dim_id) for dim_id in probes[index]])
        done = perf_counter()
        freshness.append((visible - chunk_start) * 1e3)
        refresh.append((done - chunk_start) * 1e3)
    pipe.puma_checkpoint()
    pipe.stylus_checkpoint()
    work = _work_ms(starts, perf_counter())

    mismatches: list[str] = []
    for index, answer in enumerate(answers):
        expected = [{"language": languages[dim_id]}
                    for dim_id in probes[index]]
        if answer != expected:
            mismatches.append(f"probe after chunk {index}: {answer[:3]!r}")
            break
    _check_figure1_final(pipe, messages, data.poison_count, mismatches)
    return _figure1_run(
        traced, [setup_s], work, sum(work) / 1e3, pipe, len(messages),
        sum(len(probe) for probe in probes), 0, freshness, refresh, [],
        mismatches)


def _probe_dims(chunk: list[Any], limit: int) -> list[str]:
    """The first ``limit`` distinct post dimensions written in a chunk."""
    dims: list[str] = []
    for record in chunk:
        if (record is not None and record["event_type"] == "post"
                and record["dim_id"] not in dims):
            dims.append(record["dim_id"])
            if len(dims) == limit:
                break
    return dims


# -- dashboard ----------------------------------------------------------------


def dashboard_input(seed: int, size: DashboardSize) -> inputs.TrendingInput:
    return inputs.trending_input(
        seed, size.ticks * size.events_per_tick,
        size.events_per_tick / size.sim_seconds_per_tick)


def dashboard_run(data: inputs.TrendingInput, size: DashboardSize,
                  traced: bool) -> Run:
    """One open-loop round: a tick every ``tick_seconds`` of wall time."""
    tracer = Tracer(traced)
    setup_s: list[float] = []
    for _ in range(DASHBOARD_SETUPS):
        started = perf_counter()
        pipe = Figure1(data.dimensions, tracer)
        setup_s.append(perf_counter() - started)
    ticks = size.ticks
    wrap = tracer.wrap
    per_tick = size.events_per_tick
    sim_step = size.sim_seconds_per_tick
    trailing = TRAILING_SECONDS
    messages = data.messages
    metrics = pipe.metrics
    table = pipe.scuba_table
    top_k = wrap("puma.query", pipe.app.query_top_k)
    view_get = pipe.view_get
    scuba_run = wrap("scuba.query", ScubaQuery.run)
    scuba_series = wrap("scuba.query", ScubaQuery.run_time_series)
    failures = [0]
    stamps: list[float] = []

    def attempt(fn: Callable[..., Any], *args: Any) -> Any:
        try:
            return fn(*args)
        except ReproError:
            failures[0] += 1
            return None

    def tick_body(index: int) -> list[Any]:
        tracer.unit = index
        now = (index + 1) * sim_step
        pipe.clock.advance_to(now)
        pipe.produce(messages[index * per_tick:(index + 1) * per_tick],
                     index * per_tick)
        pipe.drain()
        pipe.puma_checkpoint()
        stamps.append(perf_counter())
        closed = _latest_closed_window(now)
        grouped = ScubaQuery(table, now - trailing, now,
                             group_by=("language",),
                             filters=(LANGUAGE_FILTER,), metrics=metrics)
        series = ScubaQuery(table, max(0.0, aligned_start(
            now - trailing, WINDOW_SECONDS)), now,
            bucket_seconds=WINDOW_SECONDS, metrics=metrics)
        return [
            attempt(scuba_run, grouped),
            attempt(scuba_series, series),
            attempt(top_k, PUMA_TABLE, "n", TOP_K, closed),
            [attempt(view_get, closed, event_type, dim_id)
             for event_type, dim_id in VIEW_KEYS],
        ]

    run_tick = wrap("driver.tick", tick_body)
    freshness: list[float] = []
    refresh: list[float] = []
    late: list[float] = []
    answers: list[list[Any]] = []
    work: list[float] = []
    origin = perf_counter()
    for index in range(ticks):
        due = origin + index * size.tick_seconds
        wait = due - perf_counter()
        if wait > 0:
            time.sleep(wait)
        begin = perf_counter()
        answers.append(run_tick(index))
        done = perf_counter()
        late.append((begin - due) * 1e3)
        freshness.append((stamps[-1] - due) * 1e3)
        refresh.append((done - due) * 1e3)
        work.append((done - begin) * 1e3)
    wall = perf_counter() - origin

    return _figure1_run(
        traced, setup_s, work, wall, pipe, len(messages),
        ticks * (3 + len(VIEW_KEYS)), failures[0], freshness, refresh, late,
        _check_dashboard(answers, messages, data.dimensions, size))


def _latest_closed_window(now: float) -> float:
    """The newest window whose end the event-time watermark has passed."""
    watermark = now - inputs.MAX_DISORDER_SECONDS
    return aligned_start(watermark, WINDOW_SECONDS) - WINDOW_SECONDS


def _check_dashboard(answers: list[list[Any]], messages: list[Any],
                     dimensions: list[dict[str, Any]],
                     size: DashboardSize) -> list[str]:
    """Every recorded panel against the records written up to its tick."""
    languages = {row["dim_id"]: row["language"] for row in dimensions}
    per_tick = size.events_per_tick
    trailing = TRAILING_SECONDS
    posts: list[tuple[float, int, str]] = []
    cells: dict[float, Counter] = {}
    mismatches: list[str] = []
    for index, (grouped, series, top, gets) in enumerate(answers):
        first = index * per_tick
        for seq, record in enumerate(messages[first:first + per_tick],
                                     start=first):
            if record is None:
                continue
            window, event_type, dim_id = _cell_of(record)
            cells.setdefault(window, Counter())[(event_type, dim_id)] += 1
            if event_type == "post":
                insort(posts, (float(record["event_time"]), seq,
                               languages[dim_id]))
        now = (index + 1) * size.sim_seconds_per_tick
        end = bisect_left(posts, (now,))
        by_language = Counter(
            language for _, _, language in
            posts[bisect_left(posts, (now - trailing,)):end]
            if LANGUAGE_FILTER.passes(language))
        series_start = max(0.0, aligned_start(now - trailing,
                                              WINDOW_SECONDS))
        by_bucket = Counter(
            aligned_start(event_time, WINDOW_SECONDS) for event_time, _, _ in
            posts[bisect_left(posts, (series_start,)):end])
        expected_grouped = [
            {"language": language, "value": n}
            for language, n in sorted(by_language.items(),
                                      key=lambda item: (-item[1], item[0]))
        ][:7]
        expected_series = sorted(by_bucket.items())
        closed = _latest_closed_window(now)
        window = cells.get(closed, Counter())
        ranked = sorted(window.items(),
                        key=lambda item: json.dumps(list(item[0])))
        ranked.sort(key=lambda item: item[1], reverse=True)
        expected_top = [
            {"window_start": closed, "event_type": event_type,
             "dim_id": dim_id, "n": n}
            for (event_type, dim_id), n in ranked[:TOP_K]
        ]
        expected_gets = [
            {"n": window[key]} if key in window else None
            for key in VIEW_KEYS
        ]
        got_series = (None if series is None else
                      [(point.bucket_start, point.value) for point in series
                       if point.group == ()])
        for panel, got, expected in (
                ("scuba grouped", grouped, expected_grouped),
                ("scuba series", got_series, expected_series),
                ("puma top-k", top, expected_top),
                ("laser gets", gets, expected_gets)):
            if got is not None and got != expected:
                mismatches.append(f"tick {index} {panel}: got {got!r:.200},"
                                  f" expected {expected!r:.200}")
        if mismatches:
            break
    return mismatches


# -- keyed_state --------------------------------------------------------------


KEYED_INPUT = "page_views"


class PageViewCounter(MonoidProcessor):
    """Counts views per user, page and event type, each per minute."""

    def __init__(self) -> None:
        self._operator = CounterMergeOperator()

    def merge_operator(self) -> MergeOperator:
        return self._operator

    def extract(self, event: Event) -> list[tuple[str, Any]]:
        return [(key, 1) for key in inputs.state_keys(
            event.event_time, event["user"], event["page"],
            event["event_type"])]


@dataclass(frozen=True)
class KeyedInput:
    records: list[dict[str, Any]]
    #: Per checkpoint: the (task, key) pairs read back after it.
    reads: list[list[tuple[int, str]]]


def keyed_input(seed: int, size: KeyedSize) -> KeyedInput:
    records = inputs.keyed_input(seed, size.events, RATE_PER_SECOND, USERS,
                                 PAGES)
    rng = make_rng(seed, "perfbench-keyed-reads")
    reads = []
    every = size.checkpoint_every
    for first in range(0, len(records), every):
        chunk = records[first:first + every]
        minute = int(float(chunk[-1]["event_time"]) // 60)
        # Hot: every type counter (each task holds a partial) and the
        # top pages, on the task their views are sharded to.
        chosen = [(index % NUM_BUCKETS, f"type:{event_type}|{minute}")
                  for index, event_type in enumerate(EVENT_TYPES)]
        chosen += [(default_bucketer(f"p{page}", NUM_BUCKETS),
                    f"page:p{page}|{minute}")
                   for page in range(HOT_READS - len(chosen))]
        # Cold: one user-minute of an earlier view, on that view's task.
        for _ in range(COLD_READS):
            record = records[rng.randrange(first + len(chunk))]
            chosen.append((default_bucketer(record["page"], NUM_BUCKETS),
                           inputs.record_state_keys(record)[0]))
        reads.append(chosen)
    return KeyedInput(records, reads)


def keyed_run(data: KeyedInput, size: KeyedSize, traced: bool) -> Run:
    """Closed loop: batch writes, keyed monoid job, checkpoint, read back."""
    tracer = Tracer(traced)
    wrap = tracer.wrap
    started = perf_counter()
    clock = SimClock()
    metrics = MetricsRegistry()
    scribe = ScribeStore(clock=clock, metrics=metrics)
    scribe.create_category(KEYED_INPUT, NUM_BUCKETS)
    backends = [
        LocalDbStateBackend(f"page_views[{bucket}]", disk={},
                            merge_operator=CounterMergeOperator())
        for bucket in range(NUM_BUCKETS)
    ]
    job = StylusJob("page_views", [
        StylusTask(f"page_views[{bucket}]", scribe, KEYED_INPUT, bucket,
                   PageViewCounter(),
                   semantics=SemanticsPolicy.exactly_once(),
                   state_backend=backends[bucket],
                   checkpoint_policy=CheckpointPolicy(
                       every_n_events=10 ** 12),
                   clock=clock, metrics=metrics)
        for bucket in range(NUM_BUCKETS)
    ])
    writer = ScribeWriter(scribe, KEYED_INPUT)
    setup_s = perf_counter() - started

    write_batch = wrap("scribe.write", writer.write_batch)
    pump = wrap("stylus.pump", job.pump)
    checkpoint = wrap("stylus.checkpoint", job.checkpoint_now)
    read = [wrap("storage.read", backend.read_value) for backend in backends]
    every = size.checkpoint_every
    records = data.records
    chunks = [records[first:first + every]
              for first in range(0, len(records), every)]
    # Sharded by page: the Zipf skew staggers the tasks' memtable
    # flushes instead of lining them up in the same few chunks.
    chunk_keys = [[record["page"] for record in chunk] for chunk in chunks]
    seconds_per_chunk = every / RATE_PER_SECOND
    lag_max = [0]

    def chunk_body(index: int) -> None:
        tracer.unit = index
        clock.advance_to((index + 1) * seconds_per_chunk)
        write_batch(chunks[index], keys=chunk_keys[index])
        if traced:
            lag_max[0] = max(lag_max[0], job.lag_messages())
        while pump(PUMP_BATCH):
            pass
        checkpoint()

    run_chunk = wrap("driver.chunk", chunk_body)
    freshness: list[float] = []
    refresh: list[float] = []
    answers: list[list[Any]] = []
    starts: list[float] = []
    for index in range(len(chunks)):
        chunk_start = perf_counter()
        starts.append(chunk_start)
        run_chunk(index)
        durable = perf_counter()
        answers.append([read[task](key) for task, key in data.reads[index]])
        done = perf_counter()
        freshness.append((durable - chunk_start) * 1e3)
        refresh.append((done - chunk_start) * 1e3)
    work = _work_ms(starts, perf_counter())

    mismatches = _check_keyed(answers, chunks, data.reads)
    counts = metrics.snapshot()
    stats = Counter()
    for backend in backends:
        stats.update(backend.store.stats.as_dict())
    lsm_keys = sum(backend.store.approximate_key_count()
                   for backend in backends)
    for name, value in stats.items():
        counts[f"lsm.{name}"] = value
    counts["lsm.keys"] = lsm_keys
    checkpoints, failed = _stylus_checkpoints(counts, "page_views")
    queries = sum(len(chunk_reads) for chunk_reads in data.reads)
    layer = {
        "scribe.messages": counts[f"scribe.{KEYED_INPUT}.messages"],
        "scribe.bytes": counts[f"scribe.{KEYED_INPUT}.bytes"],
        "scribe.bucket_skew": _bucket_skew(scribe, KEYED_INPUT),
        "stylus.events": len(records),
        "stylus.outputs": _sum_matching(counts, "stylus.page_views",
                                        ".outputs"),
        "stylus.lag_max": lag_max[0],
        "storage.gets": stats["gets"],
        "storage.sstable_probes": stats["sstable_probes"],
        "storage.cache_hits": stats["cache_hits"],
        "storage.compacted_entries": stats["compacted_entries"],
        "storage.lsm_keys": lsm_keys,
    }
    return Run(
        traced=traced, setup_s=[setup_s], work_ms=work,
        wall_s=sum(work) / 1e3,
        events=len(records), freshness_ms=freshness, refresh_ms=refresh,
        late_ms=[], attempted=len(records) + queries + checkpoints,
        failed=failed, counts=counts, layer=layer, spans=tracer.finished(),
        mismatches=mismatches)


def _task_of(page: str) -> int:
    """The task a page's views are sharded to, for the reference."""
    return default_bucketer(page, NUM_BUCKETS)


def _check_keyed(answers: list[list[Any]], chunks: list[list[Any]],
                 reads: list[list[tuple[int, str]]]) -> list[str]:
    """Each read-back value against the counts its task should hold."""
    expected: Counter = Counter()
    for index, chunk in enumerate(chunks):
        for record in chunk:
            task = _task_of(record["page"])
            for key in inputs.record_state_keys(record):
                expected[(task, key)] += 1
        for (task, key), got in zip(reads[index], answers[index]):
            want = expected.get((task, key)) or None
            if got != want:
                return [f"checkpoint {index}: task {task} key {key!r} "
                        f"read {got!r}, expected {want!r}"]
    return []
