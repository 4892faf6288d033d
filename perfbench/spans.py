"""Wall-clock spans around the program's public entry points.

The traced run wraps each layer's entry point in a span.  A span records
its name, start, end, the span that was open when it began (its parent)
and the benchmark operation it belongs to.  Spans are kept in memory and
written out as JSON Lines when the run ends.  A layer's self time is its
spans' durations minus the part of each covered by its child spans.

Wrappers are installed by :meth:`SpanRecorder.instrument` and removed when
its block exits, so untraced passes in the same process run the program
unmodified.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Callable, Iterator

from repro.execution import engine, operators, scheduler, vectorized, wire
from repro.optimizer import annotator, compliant, plancache, site_selector, validator
from repro.policy import evaluator
from repro.sql import binder
from repro.trace import recorder


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int


#: (owner, attribute, span name) of every wrapped entry point.  Module
#: functions are wrapped where their callers bind them.
ENTRY_POINTS = [
    (binder.Binder, "bind_sql", "Binder.bind_sql"),
    (compliant, "normalize", "optimizer.normalize"),
    (annotator.PlanAnnotator, "annotate", "PlanAnnotator.annotate"),
    (site_selector.SiteSelector, "select", "SiteSelector.select"),
    (validator, "check_compliance", "validator.check_compliance"),
    (plancache.PlanCache, "prepare", "PlanCache.prepare"),
    (plancache.PlanCache, "lookup", "PlanCache.lookup"),
    (plancache.PlanCache, "rebind", "PlanCache.rebind"),
    (evaluator.PolicyEvaluator, "evaluate", "PolicyEvaluator.evaluate"),
    (engine.ExecutionEngine, "execute", "ExecutionEngine.execute"),
    (operators, "encode_ship", "wire.encode_ship"),
    (vectorized, "encode_ship", "wire.encode_ship"),
    (scheduler, "encode_ship", "wire.encode_ship"),
    (wire.ShipTransfer, "decode_rows", "ShipTransfer.decode_rows"),
    (scheduler.FragmentScheduler, "run", "FragmentScheduler.run"),
    (recorder.TraceRecorder, "emit", "TraceRecorder.emit"),
]


class SpanRecorder:
    """Collects spans in memory; one recorder per benchmark run."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        #: Operation the next spans belong to (set by the workload loop).
        self.op = 0
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        stack = self._stack()
        span_id = len(self.spans) + 1
        parent = stack[-1] if stack else None
        # Reserve the slot now so ids follow start order.
        self.spans.append(Span(span_id, name, 0.0, 0.0, parent, self.op))
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            record = self.spans[span_id - 1]
            record.start, record.end = start, end

    def _wrap(self, function: Callable, name: str) -> Callable:
        def wrapper(*args, **kwargs):
            with self.span(name):
                return function(*args, **kwargs)

        return wrapper

    @contextmanager
    def instrument(self) -> Iterator[None]:
        """Wrap every entry point for the duration of the block."""
        saved = []
        for owner, attribute, name in ENTRY_POINTS:
            original = owner.__dict__[attribute]
            saved.append((owner, attribute, original))
            setattr(owner, attribute, self._wrap(original, name))
        try:
            yield
        finally:
            for owner, attribute, original in reversed(saved):
                setattr(owner, attribute, original)

    def self_seconds(self, start: int, end: int) -> dict[str, float]:
        """Self time per span name over ``spans[start:end]``."""
        spans = self.spans[start:end]
        children: dict[int, list[Span]] = {}
        for span in spans:
            if span.parent is not None:
                children.setdefault(span.parent, []).append(span)
        totals: dict[str, float] = {}
        for span in spans:
            covered = _covered(span, children.get(span.id, ()))
            totals[span.name] = totals.get(span.name, 0.0) + (
                span.end - span.start - covered
            )
        return totals

    def total_seconds(self, name: str) -> float:
        return sum(s.end - s.start for s in self.spans if s.name == name)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(asdict(span), separators=(",", ":")) + "\n")


def _covered(span: Span, children) -> float:
    """Length of the union of the children's intervals inside ``span``."""
    covered = 0.0
    cursor = span.start
    for child in sorted(children, key=lambda c: c.start):
        start = max(child.start, cursor)
        end = min(child.end, span.end)
        if end > start:
            covered += end - start
            cursor = end
    return covered
