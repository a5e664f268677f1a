"""Tests for the dashboard framework (Section 5.2)."""

import pytest

from repro.errors import ConfigError
from repro.monitoring.dashboards import Dashboard, DashboardPanel
from repro.puma.app import PumaApp
from repro.puma.parser import parse
from repro.puma.planner import plan
from repro.scuba.query import ScubaQuery
from repro.scuba.table import ScubaTable
from repro.storage.hbase import HBaseTable

PQL = """
CREATE APPLICATION dash;
CREATE INPUT TABLE clicks(event_time, page) FROM SCRIBE("clicks")
TIME event_time;
CREATE TABLE per_page AS
SELECT page, count(*) AS n FROM clicks [1 minute];
"""

AVG_PQL = """
CREATE APPLICATION dash_avg;
CREATE INPUT TABLE clicks(event_time, page, ms) FROM SCRIBE("clicks")
TIME event_time;
CREATE TABLE per_page AS
SELECT page, avg(ms) AS mean FROM clicks [1 minute];
"""

TOPK_PQL = """
CREATE APPLICATION dash_topk;
CREATE INPUT TABLE clicks(event_time, page, ms) FROM SCRIBE("clicks")
TIME event_time;
CREATE TABLE per_page AS
SELECT page, topk(ms, 2) AS worst FROM clicks [1 minute];
"""


def loaded_scuba():
    table = ScubaTable("clicks")
    for i in range(120):
        table.add({"event_time": float(i),
                   "page": "home" if i % 3 else "about"})
    return table


class TestScubaPanels:
    def test_panel_runs_over_window(self, clock):
        table = loaded_scuba()
        query = ScubaQuery(table, 0.0, 60.0, group_by=("page",))
        panel = DashboardPanel.from_scuba("clicks", query)
        rows = panel.runner(0.0, 60.0)
        assert sum(r["value"] for r in rows) == 60

    def test_refresh_slides_the_window(self, clock):
        table = loaded_scuba()
        dashboard = Dashboard("ops", window_seconds=60.0, clock=clock)
        dashboard.add_panel(DashboardPanel.from_scuba(
            "clicks", ScubaQuery(table, 0.0, 60.0, group_by=("page",))))
        clock.advance(60.0)
        first = dashboard.refresh()
        clock.advance(60.0)
        second = dashboard.refresh()
        assert sum(r["value"] for r in first["clicks"]) == 60
        assert sum(r["value"] for r in second["clicks"]) == 60


class TestPumaPanels:
    def test_puma_panel_serves_precomputed_windows(self, scribe, clock):
        scribe.create_category("clicks", 1)
        app = PumaApp(plan(parse(PQL)), scribe, HBaseTable("s"), clock=clock)
        for i in range(120):
            scribe.write_record("clicks", {
                "event_time": float(i), "page": "home" if i % 3 else "about",
            })
        app.pump(1000)
        panel = DashboardPanel.from_puma("clicks", app, "per_page", "n")
        rows = panel.runner(0.0, 120.0)
        assert rows
        assert rows[0]["n"] >= rows[-1]["n"]

    def test_null_average_ranks_last_instead_of_crashing(self, scribe, clock):
        """A group whose every ``ms`` is null averages to None; the panel
        ranks it last, as ``query_top_k`` does, rather than raising."""
        scribe.create_category("clicks", 1)
        app = PumaApp(plan(parse(AVG_PQL)), scribe, HBaseTable("s"),
                      clock=clock)
        for i, (page, ms) in enumerate([("home", 5), ("blank", None),
                                        ("about", 9), ("blank", None),
                                        ("home", 7)]):
            scribe.write_record("clicks", {"event_time": float(i),
                                           "page": page, "ms": ms})
        app.pump(1000)
        panel = DashboardPanel.from_puma("latency", app, "per_page", "mean")
        rows = panel.runner(0.0, 60.0)
        assert [(r["page"], r["mean"]) for r in rows] == [
            ("about", 9.0), ("home", 6.0), ("blank", None)]
        assert rows == app.query_top_k("per_page", "mean", 7, 0.0)

    def test_empty_topk_ranks_last_across_windows(self, scribe, clock):
        """An empty ``topk()`` list ranks after every present value, in
        the panel's cross-window merge as in ``query_top_k``."""
        scribe.create_category("clicks", 1)
        app = PumaApp(plan(parse(TOPK_PQL)), scribe, HBaseTable("s"),
                      clock=clock)
        for event_time, page, ms in [(0.0, "home", -3), (1.0, "blank", None),
                                     (61.0, "about", -1),
                                     (62.0, "home", -2)]:
            scribe.write_record("clicks", {"event_time": event_time,
                                           "page": page, "ms": ms})
        app.pump(1000)
        panel = DashboardPanel.from_puma("slowest", app, "per_page", "worst")
        rows = panel.runner(0.0, 120.0)
        assert [(r["window_start"], r["page"]) for r in rows] == [
            (60.0, "about"), (60.0, "home"), (0.0, "home"), (0.0, "blank")]


class TestDashboard:
    def test_duplicate_panel_rejected(self, clock):
        dashboard = Dashboard("d", 60.0, clock=clock)
        panel = DashboardPanel("p", lambda s, e: [], backend="scuba")
        dashboard.add_panel(panel)
        with pytest.raises(ConfigError):
            dashboard.add_panel(panel)

    def test_dead_panel_detection(self, clock):
        dashboard = Dashboard("d", 60.0, clock=clock)
        dashboard.add_panel(DashboardPanel("hot", lambda s, e: [],
                                           backend="scuba"))
        dashboard.add_panel(DashboardPanel("cold", lambda s, e: [],
                                           backend="scuba"))
        clock.advance(1000.0)
        dashboard.view("hot")
        assert dashboard.dead_panels(idle_seconds=500.0) == ["cold"]

    def test_view_unknown_panel_raises(self, clock):
        dashboard = Dashboard("d", 60.0, clock=clock)
        with pytest.raises(ConfigError):
            dashboard.view("ghost")

    def test_refresh_counts(self, clock):
        dashboard = Dashboard("d", 60.0, clock=clock)
        panel = DashboardPanel("p", lambda s, e: [], backend="scuba")
        dashboard.add_panel(panel)
        dashboard.refresh()
        dashboard.refresh()
        assert panel.refresh_count == 2

    def test_invalid_window(self, clock):
        with pytest.raises(ConfigError):
            Dashboard("d", 0.0, clock=clock)
