"""Runs one workload for a time budget and checks what it measured.

Each workload repeats its fixed input on fresh pipelines until the
budget is spent: closed loops after one warm-up run that is checked but
not reported, the open-loop dashboard in rounds of its tick schedule.
In a traced process untraced and traced runs alternate, so
``trace.overhead`` compares runs of one process.

Every run is checked against its reference, and every count it
produced must equal the first run's: a count that differs under one
seed is a defect, not noise.
"""

from __future__ import annotations

import gc
import hashlib
import json
import time
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable

from perfbench import report, workloads
from perfbench.tracing import write_spans
from perfbench.workloads import DashboardSize, FanoutSize, KeyedSize, Run

WORKLOADS = ("fanout", "dashboard", "keyed_state")


@dataclass(frozen=True)
class Sizes:
    fanout: FanoutSize = FanoutSize()
    dashboard: DashboardSize = DashboardSize()
    keyed_state: KeyedSize = KeyedSize()


#: Closed loops measure at least this many runs, the dashboard at least
#: this many rounds (each of >= 200 ticks, so a p95 has >= 10 beyond it).
MIN_RUNS = 3
MIN_ROUNDS = 2


@dataclass
class Outcome:
    correct: bool
    attempted: int
    failed: int
    #: name -> (value, unit), in the order of report.END_TO_END/PER_LAYER.
    metrics: dict[str, tuple[float, str]]
    counts_digest: str
    problems: list[str] = field(default_factory=list)

    def result_line(self) -> str:
        return json.dumps({
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in self.metrics.items()},
        })


def _fresh(one_run: Callable[[bool], Run]) -> Callable[[bool], Run]:
    """``one_run`` after collecting the previous run's garbage, so no run
    pays for collecting another's pipeline."""
    def run(traced: bool) -> Run:
        gc.collect()
        return one_run(traced)
    return run


def _repeat(one_run: Callable[[bool], Run], seconds: float, trace: bool,
            min_runs: int, warmup: bool) -> tuple[list[Run], list[Run],
                                                  list[Run]]:
    """(every run, the untraced ones, the traced ones) for the budget.

    Untraced processes need ``min_runs`` untraced runs; traced ones need
    ``min_runs`` traced runs and an untraced one to compare against.
    """
    checked = [one_run(False)] if warmup else []
    untraced: list[Run] = []
    traced: list[Run] = []
    needed_untraced, needed_traced = (1, min_runs) if trace else (min_runs, 0)
    deadline = time.perf_counter() + seconds
    while (time.perf_counter() < deadline
           or len(untraced) < needed_untraced
           or len(traced) < needed_traced):
        if trace and len(traced) < len(untraced):
            traced.append(one_run(True))
        else:
            untraced.append(one_run(False))
    return checked + untraced + traced, untraced, traced


def _differing_counts(runs: list[Run]) -> list[str]:
    """Runs whose counts differ from the first run's (the per-layer raw
    numbers only between runs traced alike: lags are probed when traced)."""
    problems = []
    for index, run in enumerate(runs[1:], start=1):
        first = next(other for other in runs if other.traced == run.traced)
        differing = sorted(
            name for name in run.counts.keys() | runs[0].counts.keys()
            if run.counts.get(name) != runs[0].counts.get(name))
        differing += sorted(
            f"layer {name}" for name in run.layer
            if run.layer[name] != first.layer.get(name))
        if differing:
            problems.append(f"run {index}: counts differ under one seed: "
                            f"{differing[:5]}")
    return problems


def _counts_digest(counts: dict[str, float]) -> str:
    canonical = json.dumps(sorted(counts.items()), separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def measure(workload: str, seed: int, seconds: float, trace: bool,
            sizes: Sizes = Sizes(),
            spans_dir: Path | None = None) -> Outcome:
    """Generate the inputs, run the workload, check and report it."""
    if workload == "fanout":
        fanout_input = workloads.inputs.trending_input(
            seed, sizes.fanout.events, workloads.RATE_PER_SECOND)
        one_run = partial(workloads.fanout_run, fanout_input, sizes.fanout)
    elif workload == "keyed_state":
        one_run = partial(workloads.keyed_run, workloads.keyed_input(
            seed, sizes.keyed_state), sizes.keyed_state)
    elif workload == "dashboard":
        one_run = partial(workloads.dashboard_run, workloads.dashboard_input(
            seed, sizes.dashboard), sizes.dashboard)
    else:
        raise ValueError(f"unknown workload {workload!r}; "
                         f"expected one of {WORKLOADS}")
    # The inputs live as long as the runs: keep the collector from
    # re-scanning them, so collections cost what the program allocates.
    gc.collect()
    gc.freeze()
    try:
        # A dashboard round already spans seconds of wall time: no warm-up.
        warmup = workload != "dashboard"
        checked, untraced, traced = _repeat(
            _fresh(one_run), seconds, trace,
            MIN_RUNS if warmup else MIN_ROUNDS, warmup)
    finally:
        gc.unfreeze()

    problems = [f"run {index}: {mismatch}"
                for index, run in enumerate(checked)
                for mismatch in run.mismatches[:3]]
    problems += _differing_counts(checked)

    reported = traced if trace else untraced
    if trace:
        values = report.per_layer(traced, untraced)
        units = dict(report.PER_LAYER)
        if values["trace.closure"] < report.MIN_CLOSURE:
            problems.append(f"trace.closure {values['trace.closure']:.3f} "
                            f"< {report.MIN_CLOSURE}")
        if spans_dir is not None:
            write_spans(spans_dir / f"spans-{workload}-seed{seed}.tsv",
                        [run.spans for run in traced])
    else:
        values = report.end_to_end(untraced)
        units = dict(report.END_TO_END)
    return Outcome(
        correct=not problems,
        attempted=sum(run.attempted for run in reported),
        failed=sum(run.failed for run in reported),
        metrics={name: (value, units[name]) for name, value in values.items()},
        counts_digest=_counts_digest(checked[0].counts),
        problems=problems)
