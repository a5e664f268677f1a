"""Spans recorded from outside the program, around each call into a layer.

A :class:`Tracer` wraps the public functions the workloads call
(``ScribeWriter.write``, ``PumaApp.pump``, ``LaserTable.get`` ...) so
that every call leaves one span: name, start, end, parent span and the
chunk or tick it served. Spans stay in memory until the run ends. A
disabled tracer hands the function back unwrapped, so an untraced run
executes exactly the calls a traced one does and pays nothing for them.

Span names are ``<layer>.<operation>``. The ``driver`` layer is the
benchmark's own loop: its spans are the roots (one per chunk or tick),
and their self time is what no layer span covers.
"""

from __future__ import annotations

import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable

DRIVER = "driver"

#: (name, start_ns, end_ns, parent index or -1, unit id)
Span = tuple[str, int, int, int, int]


class Tracer:
    """Collects spans around wrapped calls; a no-op when disabled."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: list[Span | None] = []
        #: The chunk or tick being driven; stamped on every span.
        self.unit = -1
        self._stack: list[int] = []

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` itself when disabled, else ``fn`` leaving a span per call."""
        if not self.enabled:
            return fn
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args: Any, **kwargs: Any) -> Any:
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.unit)

        return traced

    def finished(self) -> list[Span]:
        """Every span, in start order (all calls have returned)."""
        return [span for span in self.spans if span is not None]


def self_times_ns(spans: list[Span]) -> dict[str, int]:
    """Per span name: total duration minus the time child spans cover."""
    covered = [0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    totals: dict[str, int] = defaultdict(int)
    for index, (name, start, end, _, _) in enumerate(spans):
        totals[name] += end - start - covered[index]
    return dict(totals)


def durations_ms(spans: list[Span], name: str) -> list[float]:
    """Wall durations of every span called ``name``, in milliseconds."""
    return [(end - start) / 1e6 for span_name, start, end, _, _ in spans
            if span_name == name]


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def closure(self_ns: dict[str, int], busy_ns: int) -> float:
    """Share of the busy time covered by layer (non-driver) self time."""
    covered = sum(ns for name, ns in self_ns.items()
                  if layer_of(name) != DRIVER)
    return covered / busy_ns if busy_ns > 0 else 0.0


def write_spans(path: Path, runs: list[list[Span]]) -> None:
    """Tab-separated lines: run, name, start, end, parent, unit."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as out:
        out.write("run\tname\tstart_ns\tend_ns\tparent\tunit\n")
        for run, spans in enumerate(runs):
            for name, start, end, parent, unit in spans:
                out.write(f"{run}\t{name}\t{start}\t{end}\t{parent}\t{unit}\n")
