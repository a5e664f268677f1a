"""The Figure 1 topology that the fanout and dashboard workloads drive.

product logs --Scribe--> Puma (per-minute counts, Laser view attached)
                  \\----> Stylus annotator (Laser lookup, re-shard)
                              --Scribe "annotated"--> Scuba ingest
                                                 \\--> Laser tail

Every call the workloads make into a layer goes through a handle built
by :meth:`Tracer.wrap`, so the traced run and the untraced run execute
the same calls.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.core.event import Event
from repro.laser.service import LaserService, LaserTable
from repro.puma.service import PumaService
from repro.runtime.clock import SimClock
from repro.runtime.metrics import MetricsRegistry
from repro.scribe.store import ScribeStore
from repro.scribe.writer import ScribeWriter
from repro.scuba.ingest import ScubaIngester
from repro.scuba.table import ScubaTable
from repro.stylus.engine import StylusJob
from repro.stylus.processor import Output, StatelessProcessor

from perfbench.records import POISON_PAYLOAD, poison_key
from perfbench.tracing import Tracer

NUM_BUCKETS = 8
INPUT = "product_logs"
ANNOTATED = "annotated"
PUMA_APP = "engagement"
PUMA_TABLE = "counts"
WINDOW_SECONDS = 60.0
#: Upper bound per pump call; stages are pumped until they return 0.
PUMP_BATCH = 5000

PQL = f"""
CREATE APPLICATION {PUMA_APP};
CREATE INPUT TABLE events(event_time, event_type, dim_id, text)
FROM SCRIBE("{INPUT}") TIME event_time;
CREATE TABLE {PUMA_TABLE} AS
SELECT event_type, dim_id, count(*) AS n FROM events [60 seconds];
"""


class Annotator(StatelessProcessor):
    """Looks each post's dimension up in Laser and re-shards it by dim_id."""

    def __init__(self, lookup: Callable[[str], Any]) -> None:
        self.lookup = lookup

    def process(self, event: Event) -> list[Output]:
        if event.get("event_type") != "post":
            return []
        dim_id = event["dim_id"]
        row = self.lookup(dim_id)
        record = event.to_record()
        record["language"] = row["language"] if row is not None else None
        return [Output(record, key=dim_id)]


class _TracedView:
    """A Laser table as Puma's view sink, with ``put_rows`` traced."""

    def __init__(self, table: LaserTable, tracer: Tracer) -> None:
        self.name = table.name
        self.key_columns = table.key_columns
        self.put_rows = tracer.wrap("laser.put_rows", table.put_rows)


class LaserGets:
    """``LaserTable.get`` through the tracer, tallying hits when traced."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.calls = 0
        self.hits = 0

    def handle(self, table: LaserTable) -> Callable[..., Any]:
        get = self.tracer.wrap("laser.get", table.get)
        if not self.tracer.enabled:
            return get

        def counted(*key: Any) -> Any:
            row = get(*key)
            self.calls += 1
            if row is not None:
                self.hits += 1
            return row

        return counted


class Figure1:
    """Stores, categories, the deployed Puma app, the Stylus job, the
    sinks and the Laser dimensions: everything ``setup_s`` times."""

    def __init__(self, dimensions: list[dict[str, Any]],
                 tracer: Tracer) -> None:
        self.tracer = tracer
        wrap = tracer.wrap
        self.clock = SimClock()
        self.metrics = MetricsRegistry()
        clock, metrics = self.clock, self.metrics
        self.scribe = ScribeStore(clock=clock, metrics=metrics)
        self.scribe.create_category(INPUT, NUM_BUCKETS)
        self.scribe.create_category(ANNOTATED, NUM_BUCKETS)

        self.laser = LaserService(self.scribe, clock=clock, metrics=metrics)
        self.dims = self.laser.create_table("dims", ["dim_id"], ["language"])
        for row in dimensions:
            self.dims.put_row(row)
        self.view = self.laser.create_table(
            "puma_counts", ["window_start", "event_type", "dim_id"], ["n"])
        self.post_langs = self.laser.create_table(
            "post_langs", ["dim_id"], ["language"],
            scribe_category=ANNOTATED)
        self.laser_gets = LaserGets(tracer)

        self.puma = PumaService(self.scribe, clock=clock, metrics=metrics)
        self.app = self.puma.deploy(PQL)
        self.app.attach_laser_view(
            PUMA_TABLE,
            _TracedView(self.view, tracer) if tracer.enabled else self.view)

        dims_get = self.laser_gets.handle(self.dims)
        self.stylus = StylusJob.create(
            "annotator", self.scribe, INPUT, lambda: Annotator(dims_get),
            output_category=ANNOTATED, clock=clock, metrics=metrics)

        self.scuba_table = ScubaTable(ANNOTATED)
        self.scuba = ScubaIngester(self.scribe, ANNOTATED, self.scuba_table,
                                   metrics=metrics)

        writer = ScribeWriter(self.scribe, INPUT)
        self.write = wrap("scribe.write", writer.write)
        self.write_bytes = wrap("scribe.write", writer.write_bytes)
        self.puma_checkpoint = wrap("puma.checkpoint", self.app.checkpoint)
        self.stylus_checkpoint = wrap("stylus.checkpoint",
                                      self.stylus.checkpoint_now)
        self.post_langs_get = self.laser_gets.handle(self.post_langs)
        self.view_get = self.laser_gets.handle(self.view)
        # Topological order: both processors read the input, the sinks
        # read what the annotator wrote. One pass drains everything.
        self.stages = [
            ("puma", wrap("puma.pump", self.app.pump),
             self.app.lag_messages),
            ("stylus", wrap("stylus.pump", self.stylus.pump),
             self.stylus.lag_messages),
            ("laser", wrap("laser.pump", self.post_langs.pump),
             self._laser_lag),
            ("scuba", wrap("scuba.ingest", self.scuba.pump),
             self.scuba.lag_messages),
        ]
        #: Largest ``lag_messages()`` seen before a stage's pumps (traced).
        self.lag_max = {name: 0 for name, _, _ in self.stages}

    def _laser_lag(self) -> int:
        """Annotated messages the Laser tail has not ingested yet."""
        written = sum(self.scribe.end_offset(ANNOTATED, bucket)
                      for bucket in range(NUM_BUCKETS))
        ingested = self.metrics.counter("laser.post_langs.writes").value
        return written - int(ingested)

    def drain(self) -> None:
        """Pump every stage until it has nothing left to read."""
        probe_lag = self.tracer.enabled
        lag_max = self.lag_max
        for name, pump, lag in self.stages:
            if probe_lag:
                lag_max[name] = max(lag_max[name], lag())
            while pump(PUMP_BATCH):
                pass

    def produce(self, messages: list[dict[str, Any] | None],
                first_index: int) -> None:
        """Write messages one at a time, poison through ``write_bytes``."""
        write = self.write
        write_bytes = self.write_bytes
        for offset, record in enumerate(messages):
            if record is None:
                write_bytes(POISON_PAYLOAD,
                            key=poison_key(first_index + offset))
            else:
                write(record, key=record["dim_id"])

