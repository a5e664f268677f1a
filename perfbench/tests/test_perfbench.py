"""The benchmark's own checks, at smoke size.

Run from the repository root: ``python -m pytest perfbench/tests``.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import measure as measure_module
from perfbench import report, tracing, workloads
from perfbench.measure import Sizes, measure

ROOT = Path(__file__).resolve().parents[2]

SMOKE = Sizes(
    fanout=workloads.FanoutSize(events=2000, chunk=200),
    dashboard=workloads.DashboardSize(ticks=12, tick_seconds=0.02,
                                      events_per_tick=60,
                                      sim_seconds_per_tick=15.0),
    keyed_state=workloads.KeyedSize(events=3000, checkpoint_every=500))


def _measure(workload: str, trace: bool, seed: int = 3,
             spans_dir: Path | None = None) -> measure_module.Outcome:
    return measure(workload, seed, 0.0, trace, SMOKE, spans_dir=spans_dir)


@pytest.mark.parametrize("workload", measure_module.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_emitted_with_its_unit(workload, trace, tmp_path):
    outcome = _measure(workload, trace, spans_dir=tmp_path)
    assert outcome.problems == []
    expected = report.PER_LAYER if trace else report.END_TO_END
    assert [(name, unit) for name, (_, unit) in outcome.metrics.items()] \
        == list(expected)
    assert all(math.isfinite(value) for value, _ in outcome.metrics.values())
    result = json.loads(outcome.result_line())
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    if trace:
        spans = (tmp_path / f"spans-{workload}-seed3.tsv").read_text()
        assert spans.count("\n") > 1
    else:
        assert all(value > 0 for value, _ in outcome.metrics.values())


def test_counts_repeat_under_one_seed():
    first = _measure("fanout", False)
    second = _measure("fanout", False)
    assert first.counts_digest == second.counts_digest
    assert _measure("fanout", False, seed=4).counts_digest \
        != first.counts_digest


def test_a_count_that_differs_fails_the_check(monkeypatch):
    original = workloads.fanout_run
    calls = []

    def drifting(data, size, traced):
        run = original(data, size, traced)
        calls.append(run)
        run.counts["scribe.product_logs.messages"] += len(calls) - 1
        return run

    monkeypatch.setattr(workloads, "fanout_run", drifting)
    outcome = _measure("fanout", False)
    assert not outcome.correct
    assert any("counts differ" in problem for problem in outcome.problems)


def _shift_dim0(cell_of):
    def corrupted(record):
        window, event_type, dim_id = cell_of(record)
        if dim_id == "dim0":
            window += workloads.WINDOW_SECONDS
        return window, event_type, dim_id
    return corrupted


@pytest.mark.parametrize("workload", ["fanout", "dashboard"])
def test_corrupted_figure1_reference_fails(workload, monkeypatch):
    monkeypatch.setattr(workloads, "_cell_of",
                        _shift_dim0(workloads._cell_of))
    outcome = _measure(workload, False)
    assert not outcome.correct
    assert outcome.problems


def test_corrupted_keyed_reference_fails(monkeypatch):
    task_of = workloads._task_of
    monkeypatch.setattr(workloads, "_task_of",
                        lambda page: (task_of(page) + 1) % 8)
    outcome = _measure("keyed_state", False)
    assert not outcome.correct
    assert any("expected" in problem for problem in outcome.problems)


def test_removed_span_fails_the_closure_check(monkeypatch):
    wrap = tracing.Tracer.wrap

    def without_stylus_pump(self, name, fn):
        return fn if name == "stylus.pump" else wrap(self, name, fn)

    monkeypatch.setattr(tracing.Tracer, "wrap", without_stylus_pump)
    outcome = _measure("fanout", True)
    assert outcome.metrics["trace.closure"][0] < report.MIN_CLOSURE
    assert not outcome.correct
    assert any("trace.closure" in problem for problem in outcome.problems)


def test_self_time_subtracts_children():
    spans = [("driver.chunk", 0, 100, -1, 0), ("stylus.pump", 10, 60, 0, 0),
             ("laser.get", 20, 30, 1, 0)]
    assert tracing.self_times_ns(spans) == {
        "driver.chunk": 50, "stylus.pump": 40, "laser.get": 10}
    assert tracing.closure(tracing.self_times_ns(spans), 100) == 0.5


def test_exits_nonzero_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fanout",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
