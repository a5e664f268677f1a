"""Property test: Puma's window-scoped query path answers exactly as the
whole-table path does.

``query(table, w)`` reads one window's HBase key range and merges only
that window's dirty deltas; ``query(table)`` reads the whole table and
merges every dirty delta. Both must agree with each other and with the
merge-everything oracle below (every HBase row plus every resident
delta, clean or dirty), over random interleavings of writes, pumps,
checkpoints, window eviction, crashes and restarts, under all three
checkpoint semantics and with a Laser view attached. The aggregates are
chosen so that merging a delta is not a trivial addition: ``avg`` keeps
``[sum, count]``, ``min``/``max`` see nulls, ``topk`` keeps a list and
``approx_distinct`` a sketch.
"""

from __future__ import annotations

import json

from hypothesis import given, settings, strategies as st

from repro.core.semantics import StateSemantics
from repro.laser.service import LaserTable
from repro.puma.app import PumaApp, metric_rank
from repro.puma.parser import parse
from repro.puma.planner import plan
from repro.runtime.clock import SimClock
from repro.scribe.store import ScribeStore
from repro.storage.hbase import HBaseTable

SOURCE = """
CREATE APPLICATION winq;
CREATE INPUT TABLE t(event_time, grp, v, u) FROM SCRIBE("cat") TIME event_time;
CREATE TABLE agg AS
SELECT grp, count(*) AS n, avg(v) AS mean, min(v) AS low, max(v) AS high,
       topk(v, 2) AS top, approx_distinct(u) AS users
FROM t [60 seconds];
"""

TABLE = "agg"
METRICS = ("n", "mean", "low", "high", "top", "users")

events = st.tuples(
    st.floats(min_value=-200.0, max_value=200.0, allow_nan=False),
    st.sampled_from(["a", "b|c", "d"]),
    st.one_of(st.none(), st.integers(-5, 5)),
    st.sampled_from(["x", "y", "z"]),
)

operations = st.lists(
    st.one_of(
        st.tuples(st.just("write"), st.lists(events, min_size=1,
                                             max_size=12)),
        st.tuples(st.just("pump"), st.integers(1, 30)),
        st.just(("checkpoint",)),
        st.just(("crash",)),
        st.just(("restart",)),
    ),
    min_size=1, max_size=16,
)


def merge_everything(app: PumaApp, table_name: str) -> list[dict]:
    """The oracle: every HBase row of the table plus every resident
    delta, merged whether dirty or clean, then finalized and sorted."""
    ctable = app._compiled_tables[table_name]
    cells: dict[tuple, dict] = {}
    prefix = f"{app.name}|{table_name}|"
    for row_key, columns in app.hbase.scan(prefix, prefix + "￿"):
        _, _, window_text, key_json = row_key.split("|", 3)
        cells[(float(window_text), tuple(json.loads(key_json)))] = columns
    for (name, start, group_key), delta in sorted(app._state.items()):
        if name != table_name:
            continue
        saved = cells.get((start, group_key))
        cells[(start, group_key)] = delta if saved is None else {
            aggregate.alias: aggregate.merge(saved[aggregate.alias],
                                             delta[aggregate.alias])
            for aggregate in ctable.aggregates
        }
    rows = []
    for (start, group_key), state in cells.items():
        row = {"window_start": start}
        row.update(zip(ctable.group_columns, group_key))
        for aggregate in ctable.aggregates:
            row[aggregate.alias] = aggregate.result(state[aggregate.alias])
        rows.append(row)
    rows.sort(key=lambda r: (r["window_start"], json.dumps(
        [r[column] for column in ctable.group_columns])))
    return rows


def assert_query_paths_agree(app: PumaApp) -> None:
    everything = app.query(TABLE)
    assert everything == merge_everything(app, TABLE)
    windows = app.windows(TABLE)
    assert windows == sorted({row["window_start"] for row in everything})
    stitched = []
    for window in windows:
        one = app.query(TABLE, window)
        assert one == [row for row in everything
                       if row["window_start"] == window]
        stitched.extend(one)
        for metric in METRICS:
            for k in (1, 2, 5):
                expected = sorted(
                    one, key=lambda row: metric_rank(row[metric]),
                    reverse=True)[:k]
                assert app.query_top_k(TABLE, metric, k, window) == expected
    assert stitched == everything
    expected_top = sorted(everything, key=lambda row: metric_rank(row["top"]),
                          reverse=True)[:3]
    assert app.query_top_k(TABLE, "top", 3) == expected_top


def assert_view_is_durable(app: PumaApp, view: LaserTable) -> None:
    """After a completed checkpoint nothing is dirty, so every queried
    row is durable and the Laser view serves the same values."""
    for row in app.query(TABLE):
        served = view.get(row["grp"], row["window_start"])
        assert served == {column: row[column] for column in METRICS}


@settings(max_examples=60, deadline=None)
@given(ops=operations,
       semantics=st.sampled_from(list(StateSemantics)),
       executor=st.sampled_from(["compiled", "batch", "row"]),
       retain=st.sampled_from([None, 1, 2]),
       checkpoint_every=st.integers(1, 40),
       buckets=st.integers(1, 3))
def test_window_query_equals_whole_table_query(ops, semantics, executor,
                                               retain, checkpoint_every,
                                               buckets):
    clock = SimClock()
    scribe = ScribeStore(clock=clock)
    scribe.create_category("cat", buckets)
    app = PumaApp(plan(parse(SOURCE)), scribe, HBaseTable("s"),
                  checkpoint_every_events=checkpoint_every,
                  retain_windows=retain, clock=clock, executor=executor,
                  semantics=semantics)
    view = LaserTable("winq_view", ["grp", "window_start"], list(METRICS),
                      clock=clock)
    app.attach_laser_view(TABLE, view)
    written = 0
    for op in ops:
        if op[0] == "write":
            for event_time, grp, v, u in op[1]:
                scribe.write_record("cat", {"event_time": event_time,
                                            "grp": grp, "v": v, "u": u},
                                    key=str(written))
                written += 1
        elif op[0] == "pump":
            app.pump(op[1])
        elif op[0] == "checkpoint" and not app.crashed:
            app.checkpoint()
            assert_view_is_durable(app, view)
        elif op[0] == "crash":
            app.crash()
        elif op[0] == "restart":
            app.restart()
        assert_query_paths_agree(app)


# -- deterministic edge cases ---------------------------------------------------


def make_app(**kwargs) -> tuple[ScribeStore, PumaApp]:
    clock = SimClock()
    scribe = ScribeStore(clock=clock)
    scribe.create_category("cat", 1)
    app = PumaApp(plan(parse(SOURCE)), scribe, HBaseTable("s"), clock=clock,
                  **kwargs)
    return scribe, app


def write(scribe: ScribeStore, rows) -> None:
    for index, (event_time, grp, v) in enumerate(rows):
        scribe.write_record("cat", {"event_time": event_time, "grp": grp,
                                    "v": v, "u": f"u{index}"})


def test_evicted_window_is_served_from_hbase_alone():
    scribe, app = make_app(retain_windows=1, checkpoint_every_events=1000)
    write(scribe, [(1.0, "a", 1), (2.0, "b|c", 2), (61.0, "a", 3)])
    app.pump(1000)
    assert {start for (_, start, _) in app._state} == {60.0}
    rows = app.query(TABLE, 0.0)
    assert [(row["grp"], row["n"]) for row in rows] == [("a", 1), ("b|c", 1)]
    assert rows == [row for row in app.query(TABLE)
                    if row["window_start"] == 0.0]


def test_negative_windows_sort_numerically():
    """Negative window keys sort as text in HBase (-60 before -120);
    the answer still sorts by window value."""
    scribe, app = make_app(checkpoint_every_events=2)
    write(scribe, [(-61.0, "a", 1), (-1.0, "a", 2), (-119.0, "d", 3),
                   (5.0, "a", None)])
    app.pump(1000)
    everything = app.query(TABLE)
    assert [row["window_start"] for row in everything] == [
        -120.0, -120.0, -60.0, 0.0]
    assert app.windows(TABLE) == [-120.0, -60.0, 0.0]
    for window in (-120.0, -60.0, 0.0):
        assert app.query(TABLE, window) == [
            row for row in everything if row["window_start"] == window]


def test_group_values_containing_the_key_separator():
    scribe, app = make_app(checkpoint_every_events=3)
    write(scribe, [(1.0, "b|c", 1), (2.0, "a", 2), (3.0, "b|c", 3),
                   (4.0, "|", 4), (64.0, "b|c", 5)])
    app.pump(1000)
    rows = app.query(TABLE, 0.0)
    assert [(row["grp"], row["n"]) for row in rows] == [
        ("a", 1), ("b|c", 2), ("|", 1)]
    assert app.windows(TABLE) == [0.0, 60.0]


def test_window_start_off_the_key_grid_returns_nothing():
    scribe, app = make_app(checkpoint_every_events=2)
    write(scribe, [(1.0, "a", 1), (2.0, "d", 2), (3.0, "a", 3)])
    app.pump(1000)
    assert app.query(TABLE, 0.0)
    assert app.query(TABLE, 1e-7) == []
    assert app.query(TABLE, 60.0000001) == []
    assert app.query(TABLE, -0.0) == app.query(TABLE, 0.0)
