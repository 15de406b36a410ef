"""Span files: streaming JSONL export, loading, and tree analysis.

The serve simulator exports every finished span as one JSON line (sorted
keys, floats pre-rounded by :meth:`Span.to_dict`), so two runs from the
same seed produce **byte-identical** trace files.  This module owns both
ends of that artifact:

* :class:`SpanSinkJsonl` -- a tracer sink that writes each span as it
  finishes, independent of the tracer's in-memory retention cap;
* :func:`read_spans_jsonl` -- load a span file back into plain dicts;
* :func:`build_forest` / :func:`self_times` / :func:`critical_path` --
  reconstruct the parent-linked span trees and attribute cost;
* :func:`chrome_trace_dict` -- convert to Chrome trace-event JSON
  (the ``"ph": "X"`` complete-event form), viewable in Perfetto.

All durations remain cost-model seconds; the Chrome export maps them to
microseconds only because the trace-event format requires ``ts``/``dur``
in that unit.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import IO, Any, Iterable

from repro.obs.timeseries import left_to_right_sum
from repro.obs.trace import Span

__all__ = [
    "SpanNode",
    "SpanSinkJsonl",
    "build_forest",
    "chrome_trace_dict",
    "critical_path",
    "read_spans_jsonl",
    "self_times",
]


class SpanSinkJsonl:
    """Tracer sink writing each finished span as one sorted-key JSON line.

    Attach with ``tracer.add_span_sink(sink)``; every span is written the
    moment it finishes, so the export sees the full run even when the
    tracer's ``max_spans`` retention window has long since rolled over.
    """

    def __init__(self, stream: IO[str]) -> None:
        self._stream = stream
        self.count = 0

    def __call__(self, span: Span) -> None:
        self._stream.write(json.dumps(span.to_dict(), sort_keys=True) + "\n")
        self.count += 1


def read_spans_jsonl(stream: IO[str]) -> list[dict[str, Any]]:
    """Load a spans JSONL file (blank lines tolerated) into dicts."""
    spans: list[dict[str, Any]] = []
    for lineno, line in enumerate(stream, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"line {lineno}: not valid JSON: {exc}") from exc
        if not isinstance(record, dict) or "span" not in record:
            raise ValueError(f"line {lineno}: not a span record")
        spans.append(record)
    return spans


@dataclass
class SpanNode:
    """One span dict plus its resolved children, ordered by start time."""

    record: dict[str, Any]
    children: list["SpanNode"] = field(default_factory=list)

    @property
    def name(self) -> str:
        return str(self.record.get("span", ""))

    @property
    def span_id(self) -> int:
        return int(self.record.get("span_id", 0))

    @property
    def trace_id(self) -> str | None:
        value = self.record.get("trace_id")
        return None if value is None else str(value)

    @property
    def start(self) -> float:
        return float(self.record.get("start", 0.0))

    @property
    def duration(self) -> float:
        return float(self.record.get("cost_seconds", 0.0))

    @property
    def self_time(self) -> float:
        """Duration minus children's durations, floored at zero.

        The floor absorbs rounding: child durations are independently
        rounded to 9 decimals, so their sum can exceed the parent's
        rounded duration by an ulp.
        """
        return max(
            0.0, self.duration - left_to_right_sum(c.duration for c in self.children)
        )


def build_forest(spans: list[dict[str, Any]]) -> list[SpanNode]:
    """Reconstruct parent-linked span trees; returns roots in start order.

    A span whose ``parent_id`` is missing from the file (e.g. the parent
    fell outside a truncated export) becomes a root rather than being
    dropped, so partial traces still render.  A ``span_id`` that appears
    twice, or a span no root reaches (its parent chain loops), raises
    :class:`ValueError`: either would silently drop spans from every
    total computed over the forest.
    """
    nodes: dict[int, SpanNode] = {}
    for span in spans:
        if "span_id" in span:
            span_id = int(span["span_id"])
            if span_id in nodes:
                raise ValueError(f"duplicate span_id {span_id}")
            nodes[span_id] = SpanNode(record=span)
    roots: list[SpanNode] = []
    for span in spans:
        if "span_id" not in span:
            roots.append(SpanNode(record=span))
            continue
        node = nodes[int(span["span_id"])]
        parent_id = span.get("parent_id")
        parent = nodes.get(int(parent_id)) if parent_id is not None else None
        if parent is None or parent is node:
            roots.append(node)
        else:
            parent.children.append(node)
    reached = {id(node) for node in _walk(roots)}
    unreached = sorted(i for i, node in nodes.items() if id(node) not in reached)
    if unreached:
        raise ValueError(
            f"span_id {unreached[0]} is not reachable from any root "
            "(its parent chain loops)"
        )
    for node in nodes.values():
        node.children.sort(key=lambda c: (c.start, c.span_id))
    roots.sort(key=lambda r: (r.start, r.span_id))
    return roots


def _walk(roots: list[SpanNode]) -> Iterable[SpanNode]:
    stack = list(reversed(roots))
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(node.children))


def self_times(roots: list[SpanNode]) -> dict[str, dict[str, float]]:
    """Aggregate per-span-name totals: count, total duration, self time."""
    totals: dict[str, dict[str, float]] = {}
    for node in _walk(roots):
        entry = totals.setdefault(
            node.name, {"count": 0, "cost_seconds": 0.0, "self_seconds": 0.0}
        )
        entry["count"] += 1
        entry["cost_seconds"] += node.duration
        entry["self_seconds"] += node.self_time
    return totals


def critical_path(root: SpanNode) -> list[SpanNode]:
    """The chain of maximum-duration children from ``root`` to a leaf.

    In the single-server cost model children execute sequentially, so
    the longest child *is* the step that dominated the request: the path
    tells you where a slow query's cost-clock time actually went.
    """
    path = [root]
    node = root
    while node.children:
        node = max(node.children, key=lambda c: (c.duration, -c.span_id))
        path.append(node)
    return path


def chrome_trace_dict(spans: list[dict[str, Any]]) -> dict[str, Any]:
    """Convert span dicts to Chrome trace-event JSON (Perfetto-viewable).

    Each span becomes a complete event (``"ph": "X"``) with ``ts``/``dur``
    in microseconds of cost-clock time.  Spans sharing a ``trace_id``
    share a ``tid`` lane (assigned in first-seen order) so one query's
    waterfall reads as one track; context-free spans land on lane 0.
    """
    lanes: dict[str, int] = {}
    events: list[dict[str, Any]] = []
    for span in spans:
        trace_id = span.get("trace_id")
        if trace_id is None:
            tid = 0
        else:
            tid = lanes.setdefault(str(trace_id), len(lanes) + 1)
        args = {
            k: v
            for k, v in span.items()
            if k not in ("span", "parent", "start", "cost_seconds")
        }
        events.append(
            {
                "name": str(span.get("span", "")),
                "ph": "X",
                "ts": round(float(span.get("start", 0.0)) * 1e6, 3),
                "dur": round(float(span.get("cost_seconds", 0.0)) * 1e6, 3),
                "pid": 0,
                "tid": tid,
                "cat": "cost",
                "args": args,
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}
