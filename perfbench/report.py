"""Turns runs into the named metrics, each with its unit.

End-to-end metrics come from untraced runs, per-layer metrics from
traced ones (pooled: the traced runs of one process are read as one
long traced run).
"""

from __future__ import annotations

import math
import resource
import statistics
from typing import Any, Callable, Iterable

from perfbench.tracing import Span, closure, durations_ms, self_times_ns
from perfbench.workloads import Run

#: Minimum trace closure: layer self time / busy time.
MIN_CLOSURE = 0.90

END_TO_END = (
    ("events_per_s", "events/s"),
    ("freshness_p50_ms", "ms"),
    ("freshness_p95_ms", "ms"),
    ("refresh_p50_ms", "ms"),
    ("refresh_p95_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

#: Busy-time metrics: (metric prefix, span names whose self time it sums).
BUSY = (
    ("scribe.write", ("scribe.write",)),
    ("puma.pump", ("puma.pump",)),
    ("stylus.pump", ("stylus.pump",)),
    ("stylus.checkpoint", ("stylus.checkpoint",)),
    ("laser.pump", ("laser.pump",)),
    ("scuba.ingest", ("scuba.ingest",)),
)

PER_LAYER = (
    ("scribe.write_s", "s"),
    ("scribe.write_share", "ratio"),
    ("scribe.write_us_per_msg", "us"),
    ("scribe.bytes_per_msg", "bytes"),
    ("scribe.bucket_skew", "ratio"),
    ("puma.pump_s", "s"),
    ("puma.pump_share", "ratio"),
    ("puma.us_per_event", "us"),
    ("puma.lag_max", "count"),
    ("puma.cells_flushed", "count"),
    ("puma.plan_cache_hit_rate", "ratio"),
    ("puma.query_p50_ms", "ms"),
    ("puma.query_p95_ms", "ms"),
    ("stylus.pump_s", "s"),
    ("stylus.pump_share", "ratio"),
    ("stylus.us_per_event", "us"),
    ("stylus.outputs_per_event", "ratio"),
    ("stylus.lag_max", "count"),
    ("stylus.checkpoint_s", "s"),
    ("stylus.checkpoint_share", "ratio"),
    ("stylus.checkpoint_p50_ms", "ms"),
    ("stylus.checkpoint_p95_ms", "ms"),
    ("storage.read_p50_us", "us"),
    ("storage.probes_per_read", "ratio"),
    ("storage.row_cache_hit_rate", "ratio"),
    ("storage.compacted_entries", "count"),
    ("storage.lsm_keys", "count"),
    ("storage.hbase_rows", "count"),
    ("laser.pump_s", "s"),
    ("laser.pump_share", "ratio"),
    ("laser.lag_max", "count"),
    ("laser.get_p50_us", "us"),
    ("laser.get_hit_rate", "ratio"),
    ("scuba.ingest_s", "s"),
    ("scuba.ingest_share", "ratio"),
    ("scuba.rows_per_s", "rows/s"),
    ("scuba.lag_max", "count"),
    ("scuba.query_p50_ms", "ms"),
    ("scuba.query_p95_ms", "ms"),
    ("scuba.cache_hit_rate", "ratio"),
    ("scuba.plan_cache_hit_rate", "ratio"),
    ("scuba.pruned_segment_fraction", "ratio"),
    ("scuba.rows_scanned_per_query", "count"),
    ("trace.closure", "ratio"),
    ("trace.overhead", "ratio"),
    ("driver.late_p95_ms", "ms"),
    ("driver.busy_fraction", "ratio"),
    ("failed_fraction", "ratio"),
)


def percentile(values: list[float], q: int) -> float:
    """Linear-interpolated ``q``-th percentile (1..99); 0.0 without samples."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def fastest_quarter(values: Iterable[Any],
                    key: Callable[[Any], Any] | None = None) -> list[Any]:
    """The quarter (at least one) of ``values`` with the smallest key."""
    ranked = sorted(values, key=key)
    return ranked[:max(1, math.ceil(len(ranked) / 4))]


def end_to_end(runs: list[Run]) -> dict[str, float]:
    """End-to-end metrics, each from the fastest quarter of its samples.

    The runs of a process repeat identical work, so the n-th chunk or
    tick of one run is the same work as the n-th of every other. The
    host's speed, however, flips between two levels about 2x apart on a
    scale of a second. A slowed sample says nothing about the program,
    and a median jumps between the two levels; the fastest quarter of
    the samples of each position (each chunk or tick, the set-ups)
    reports the uncontended host as long as a quarter of the samples saw
    it. Throughput is one run's input over the summed work time of the
    kept chunk or tick samples, per kept sample.
    """
    work_ms = _fastest_per_position([run.work_ms for run in runs])
    freshness = _fastest_per_position([run.freshness_ms for run in runs])
    refresh = _fastest_per_position([run.refresh_ms for run in runs])
    setups = [sample for run in runs for sample in run.setup_s]
    kept_per_position = len(work_ms) / len(runs[0].work_ms)
    values = {
        "events_per_s": (runs[0].events * kept_per_position
                         / (sum(work_ms) / 1e3)),
        "freshness_p50_ms": percentile(freshness, 50),
        "freshness_p95_ms": percentile(freshness, 95),
        "refresh_p50_ms": percentile(refresh, 50),
        "refresh_p95_ms": percentile(refresh, 95),
        "setup_s": statistics.fmean(fastest_quarter(setups)),
        "peak_rss_mb": peak_rss_mb(),
    }
    return {name: values[name] for name, _ in END_TO_END}


def _fastest_per_position(samples: list[list[float]]) -> list[float]:
    """Per position across runs, the fastest quarter of its samples."""
    return [sample for position in zip(*samples)
            for sample in fastest_quarter(position)]


def per_layer(traced: list[Run], untraced: list[Run]) -> dict[str, float]:
    """Per-layer metrics of the traced runs, pooled."""
    spans: list[Span] = [span for run in traced for span in run.spans]
    self_ns = self_times_ns(spans)
    busy = sum(run.busy_s for run in traced)
    raw = traced[-1].layer
    get = raw.get
    values: dict[str, float] = {}
    for prefix, names in BUSY:
        seconds = sum(self_ns.get(name, 0) for name in names) / 1e9
        values[f"{prefix}_s"] = seconds
        values[f"{prefix}_share"] = _ratio(seconds, busy)
    runs = len(traced)
    messages = get("scribe.messages", 0.0) * runs
    values["scribe.write_us_per_msg"] = _ratio(
        values["scribe.write_s"] * 1e6, messages)
    values["scribe.bytes_per_msg"] = _ratio(get("scribe.bytes", 0.0),
                                            get("scribe.messages", 0.0))
    values["scribe.bucket_skew"] = get("scribe.bucket_skew", 0.0)

    values["puma.us_per_event"] = _ratio(values["puma.pump_s"] * 1e6,
                                         get("puma.events", 0.0) * runs)
    values["puma.lag_max"] = get("puma.lag_max", 0.0)
    values["puma.cells_flushed"] = get("puma.cells_flushed", 0.0)
    values["puma.plan_cache_hit_rate"] = _ratio(
        get("puma.plan_cache_hits", 0.0),
        get("puma.plan_cache_hits", 0.0) + get("puma.plan_cache_misses", 0.0))
    puma_query = durations_ms(spans, "puma.query")
    values["puma.query_p50_ms"] = percentile(puma_query, 50)
    values["puma.query_p95_ms"] = percentile(puma_query, 95)

    values["stylus.us_per_event"] = _ratio(values["stylus.pump_s"] * 1e6,
                                           get("stylus.events", 0.0) * runs)
    values["stylus.outputs_per_event"] = _ratio(get("stylus.outputs", 0.0),
                                                get("stylus.events", 0.0))
    values["stylus.lag_max"] = get("stylus.lag_max", 0.0)
    checkpoints = durations_ms(spans, "stylus.checkpoint")
    values["stylus.checkpoint_p50_ms"] = percentile(checkpoints, 50)
    values["stylus.checkpoint_p95_ms"] = percentile(checkpoints, 95)

    reads = durations_ms(spans, "storage.read")
    values["storage.read_p50_us"] = percentile(reads, 50) * 1e3
    values["storage.probes_per_read"] = _ratio(
        get("storage.sstable_probes", 0.0), get("storage.gets", 0.0))
    values["storage.row_cache_hit_rate"] = _ratio(
        get("storage.cache_hits", 0.0), get("storage.gets", 0.0))
    values["storage.compacted_entries"] = get("storage.compacted_entries",
                                              0.0)
    values["storage.lsm_keys"] = get("storage.lsm_keys", 0.0)
    values["storage.hbase_rows"] = get("storage.hbase_rows", 0.0)

    values["laser.lag_max"] = get("laser.lag_max", 0.0)
    values["laser.get_p50_us"] = percentile(
        durations_ms(spans, "laser.get"), 50) * 1e3
    values["laser.get_hit_rate"] = _ratio(get("laser.get_hits", 0.0),
                                          get("laser.get_calls", 0.0))

    values["scuba.rows_per_s"] = _ratio(get("scuba.rows", 0.0) * runs,
                                        values["scuba.ingest_s"])
    values["scuba.lag_max"] = get("scuba.lag_max", 0.0)
    scuba_query = durations_ms(spans, "scuba.query")
    values["scuba.query_p50_ms"] = percentile(scuba_query, 50)
    values["scuba.query_p95_ms"] = percentile(scuba_query, 95)
    hits = get("scuba.cache_hits", 0.0)
    values["scuba.cache_hit_rate"] = _ratio(
        hits, hits + get("scuba.cache_misses", 0.0))
    plan_hits = get("scuba.plan_cache_hits", 0.0)
    values["scuba.plan_cache_hit_rate"] = _ratio(
        plan_hits, plan_hits + get("scuba.plan_cache_misses", 0.0))
    scanned = get("scuba.rows_scanned", 0.0)
    pruned = get("scuba.rows_pruned", 0.0)
    values["scuba.pruned_segment_fraction"] = _ratio(
        pruned, pruned + scanned + get("scuba.rows_cached", 0.0))
    values["scuba.rows_scanned_per_query"] = _ratio(
        scanned, get("scuba.queries", 0.0))

    values["trace.closure"] = closure(self_ns, round(busy * 1e9))
    values["trace.overhead"] = (
        statistics.median(run.busy_s for run in traced)
        / statistics.median(run.busy_s for run in untraced) - 1.0)
    late = [sample for run in traced for sample in run.late_ms]
    values["driver.late_p95_ms"] = percentile(late, 95)
    values["driver.busy_fraction"] = _ratio(
        busy, sum(run.wall_s for run in traced))
    values["failed_fraction"] = _ratio(
        sum(run.failed for run in traced),
        sum(run.attempted for run in traced))
    return {name: values[name] for name, _ in PER_LAYER}

