"""The dashboard framework of Section 5.2.

Dashboards "run the same queries repeatedly, over a sliding time
window. Once the query is embedded in a dashboard, the aggregations and
metrics are fixed." A :class:`DashboardPanel` holds either a Scuba query
(read-time aggregation) or a Puma app table (write-time aggregation);
refreshing the dashboard re-runs every panel over the slid window. The
framework also tracks per-panel usage so "dead dashboard queries" can be
detected and retired — the third migration challenge the paper lists.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Any, Callable

from repro.errors import ConfigError
from repro.puma.app import PumaApp, metric_rank
from repro.runtime.clock import Clock, WallClock
from repro.runtime.metrics import MetricsRegistry
from repro.scuba.ingest import ScubaIngester
from repro.scuba.query import ScubaQuery

Row = dict[str, Any]

PanelRunner = Callable[[float, float], list[Row]]


@dataclass
class DashboardPanel:
    """One chart: a named query runnable over any time window."""

    name: str
    runner: PanelRunner
    backend: str  # "scuba" | "puma"
    last_viewed_at: float = 0.0
    refresh_count: int = 0

    @classmethod
    def from_scuba(cls, name: str, query: ScubaQuery) -> "DashboardPanel":
        def run(start: float, end: float) -> list[Row]:
            shifted = query.shifted(start - query.start)
            return shifted.run()

        return cls(name, run, backend="scuba")

    @classmethod
    def from_puma(cls, name: str, app: PumaApp, table: str,
                  metric: str, limit: int = 7) -> "DashboardPanel":
        """Serve the panel from Puma's pre-computed windows.

        Reads the aggregation windows overlapping [start, end) and
        combines them — no raw-row scanning.
        """
        def run(start: float, end: float) -> list[Row]:
            rows: list[Row] = []
            for window_start in app.windows(table):
                if start <= window_start < end:
                    rows.extend(app.query_top_k(table, metric, limit,
                                                window_start))
            return heapq.nlargest(limit, rows,
                                  key=lambda row: metric_rank(row[metric]))

        return cls(name, run, backend="puma")

    @classmethod
    def from_query_stats(cls, name: str,
                         query: ScubaQuery) -> "DashboardPanel":
        """Plot what the query engine *spends* beside what it answers.

        Surfaces the per-table cost counters a query charges as it
        runs — ``rows_scanned``, ``rows_cached``, the partial-cache
        ``cache.hits``/``cache.misses``, and the compiled engine's
        ``plan_cache.hits``/``plan_cache.misses`` and
        ``segments_pruned``/``rows_pruned`` — so an operator can see
        whether a dashboard is being served by cached partials and
        zone-map pruning or by raw scans.
        """
        def run(start: float, end: float) -> list[Row]:
            prefix = f"scuba.{query.table.name}."
            snapshot = query.metrics.find(prefix)
            return [{"metric": key[len(prefix):], "value": value}
                    for key, value in sorted(snapshot.items())]

        return cls(name, run, backend="scuba_stats")

    @classmethod
    def from_ingester(cls, name: str,
                      ingester: ScubaIngester) -> "DashboardPanel":
        """Plot ingestion health next to query cost.

        Surfaces the ingester's lag gauge and rows/sec throughput so an
        operator sees "is the data current?" beside every query panel —
        a Scuba query over a lagging table is answering about the past.
        """
        def run(start: float, end: float) -> list[Row]:
            snapshot = ingester.metrics.find(f"{ingester.name}.")
            prefix_len = len(ingester.name) + 1
            rows = [{"metric": key[prefix_len:], "value": value}
                    for key, value in sorted(snapshot.items())]
            rows.append({"metric": "lag_messages",
                         "value": float(ingester.lag_messages())})
            return rows

        return cls(name, run, backend="ingest")


class Dashboard:
    """A set of panels refreshed together over a sliding window."""

    def __init__(self, name: str, window_seconds: float,
                 clock: Clock | None = None,
                 metrics: MetricsRegistry | None = None) -> None:
        if window_seconds <= 0:
            raise ConfigError("window must be positive")
        self.name = name
        self.window_seconds = window_seconds
        self.clock = clock if clock is not None else WallClock()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._refresh_counter = self.metrics.counter(
            f"dashboard.{name}.refreshes")
        self._served_counter = self.metrics.counter(
            f"dashboard.{name}.rows_served")
        self._panels: dict[str, DashboardPanel] = {}

    def add_panel(self, panel: DashboardPanel) -> None:
        if panel.name in self._panels:
            raise ConfigError(f"panel {panel.name!r} already exists")
        self._panels[panel.name] = panel

    def panels(self) -> list[DashboardPanel]:
        return list(self._panels.values())

    def refresh(self) -> dict[str, list[Row]]:
        """Re-run every panel over the current sliding window."""
        now = self.clock.now()
        start = now - self.window_seconds
        results = {}
        for panel in self._panels.values():
            results[panel.name] = panel.runner(start, now)
            panel.refresh_count += 1
            self._served_counter.increment(len(results[panel.name]))
        self._refresh_counter.increment()
        return results

    def view(self, panel_name: str) -> None:
        """Record a human looking at a panel (dead-query detection)."""
        if panel_name not in self._panels:
            raise ConfigError(f"no panel named {panel_name!r}")
        self._panels[panel_name].last_viewed_at = self.clock.now()

    def dead_panels(self, idle_seconds: float) -> list[str]:
        """Panels nobody has viewed recently — candidates for deletion."""
        now = self.clock.now()
        return sorted(
            panel.name for panel in self._panels.values()
            if now - panel.last_viewed_at > idle_seconds
        )
