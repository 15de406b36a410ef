"""Trace spans measured in cost-model seconds and block counts.

A span brackets one lifecycle step -- an insert, a refresh, a refresh
*phase* (precomputation vs. write pass) -- and records what that step
cost.  Crucially, "duration" here is **not wall-clock time**: it is the
delta of the shared :class:`~repro.storage.cost_model.CostModel` across
the span, i.e. counted block accesses weighted with the paper's Sec. 6.1
access times, plus the categorised block counts themselves.  That keeps
the TIME001 invariant (no wall clocks in cost-accounted paths) true *by
construction*: tracing an algorithm cannot smuggle hardware timing into
its reported numbers.  A tracer without a cost model reads zero.
"""

from __future__ import annotations

from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

from repro.storage.cost_model import AccessStats, CostModel

__all__ = ["Span", "Tracer"]


@dataclass
class Span:
    """One completed (or in-flight) traced step.

    Beyond the legacy ``parent`` *name*, every span carries explicit
    identity: a ``span_id`` unique within its tracer, the ``span_id`` of
    its parent (``parent_id``), and the ``trace_id`` of the request it
    belongs to (None outside any trace context).  All three are assigned
    deterministically -- span ids are a simple counter, trace ids are
    derived by the caller from seed + event index -- so two runs from the
    same seed export byte-identical span files.
    """

    name: str
    parent: str | None = None
    attrs: dict[str, Any] = field(default_factory=dict)
    start_seconds: float = 0.0
    end_seconds: float | None = None
    io: AccessStats | None = None
    span_id: int = 0
    parent_id: int | None = None
    trace_id: str | None = None

    @property
    def duration_seconds(self) -> float:
        """Cost-model seconds spent inside the span (0 while in flight)."""
        if self.end_seconds is None:
            return 0.0
        return self.end_seconds - self.start_seconds

    @property
    def blocks(self) -> int:
        """Total block accesses charged inside the span."""
        return self.io.total_accesses if self.io is not None else 0

    def set(self, key: str, value: Any) -> None:
        self.attrs[key] = value

    def to_dict(self) -> dict:
        out: dict[str, Any] = {
            "span": self.name,
            "parent": self.parent,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "trace_id": self.trace_id,
            "start": round(self.start_seconds, 9),
            "cost_seconds": round(self.duration_seconds, 9),
            **self.attrs,
        }
        if self.io is not None:
            out["blocks"] = {
                "seq_reads": self.io.seq_reads,
                "seq_writes": self.io.seq_writes,
                "random_reads": self.io.random_reads,
                "random_writes": self.io.random_writes,
            }
        return out


class Tracer:
    """Produces and retains spans; nests them via an explicit stack.

    ``max_spans`` bounds retention (oldest finished spans are dropped
    first) so long instrumented runs cannot grow memory without bound.
    Streaming consumers that must see *every* span regardless of the
    retention cap (e.g. the serve-sim ``--trace`` JSONL exporter) attach
    a sink via :meth:`add_span_sink` and receive each span as it
    finishes, in completion order.

    The tracer also carries the current **trace context**: while inside
    :meth:`trace_context`, every span opened is stamped with that trace
    id, linking all work done on behalf of one request -- scheduler
    event, admission decision, session read, triggered refresh, buffer
    pool and device I/O -- into one tree.
    """

    def __init__(
        self,
        cost_model: CostModel | None = None,
        max_spans: int = 10_000,
        event_bus=None,
    ) -> None:
        self._cost_model = cost_model
        self._stack: list[Span] = []
        self._finished: deque[Span] = deque(maxlen=max_spans)
        self._events = event_bus
        self._next_span_id = 1
        self._trace_id: str | None = None
        self._sinks: list[Callable[[Span], None]] = []
        #: Seed-derived run identifier; callers (run_simulation) set it so
        #: trace ids minted from this tracer are stable across runs.
        self.run_id: str = ""

    @property
    def finished(self) -> list[Span]:
        """Completed spans, oldest first."""
        return list(self._finished)

    @property
    def current(self) -> Span | None:
        return self._stack[-1] if self._stack else None

    @property
    def current_trace_id(self) -> str | None:
        return self._trace_id

    def clear(self) -> None:
        self._finished.clear()

    def add_span_sink(self, sink: Callable[[Span], None]) -> Callable[[], None]:
        """Register ``sink`` to receive every finished span; returns an
        unsubscribe callable."""
        self._sinks.append(sink)

        def unsubscribe() -> None:
            if sink in self._sinks:
                self._sinks.remove(sink)

        return unsubscribe

    @contextmanager
    def trace_context(self, trace_id: str) -> Iterator[str]:
        """Stamp every span opened inside the block with ``trace_id``.

        Contexts nest by save/restore, so a refresh job traced under its
        own id inside a query's context reverts cleanly on exit.
        """
        previous = self._trace_id
        self._trace_id = trace_id
        try:
            yield trace_id
        finally:
            self._trace_id = previous

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Span]:
        """Open a span; closes (and records) it when the block exits.

        The span is recorded even when the block raises, so a crash mid
        refresh still leaves the partially accrued cost visible -- the
        failure-analysis case the fault-injection tests exercise.
        """
        parent = self._stack[-1] if self._stack else None
        span = Span(
            name=name,
            parent=parent.name if parent is not None else None,
            attrs=dict(attrs),
            span_id=self._next_span_id,
            parent_id=parent.span_id if parent is not None else None,
            trace_id=self._trace_id,
        )
        self._next_span_id += 1
        cost_model = self._cost_model
        if cost_model is not None:
            span.start_seconds = cost_model.cost_seconds()
            checkpoint = cost_model.checkpoint()
        self._stack.append(span)
        try:
            yield span
        finally:
            self._stack.pop()
            if cost_model is not None:
                span.end_seconds = cost_model.cost_seconds()
                span.io = cost_model.since(checkpoint)
            else:
                span.end_seconds = 0.0
            self._finished.append(span)
            for sink in self._sinks:
                sink(span)
            if self._events is not None:
                self._events.emit(
                    "trace.span_end",
                    cost_seconds=span.duration_seconds,
                    span=span.name,
                    parent=span.parent,
                    blocks=span.blocks,
                )
