"""Exporters: JSONL event log, Prometheus-style text, JSON snapshot.

Three views of the same telemetry:

* :class:`JsonlEventSink` -- a live subscriber writing one JSON object
  per event (and, via :func:`write_spans_jsonl`, per span) to a stream;
* :func:`prometheus_text` -- the registry's current state in the
  Prometheus text exposition format (dots become underscores);
* :func:`snapshot` / :func:`snapshot_json` -- a single JSON document
  with every instrument and (optionally) every retained span, which is
  what ``repro stats`` prints.
"""

from __future__ import annotations

import json
from typing import IO

from repro.obs.catalogue import INSTRUMENTS
from repro.obs.events import Event
from repro.obs.instruments import Histogram
from repro.obs.registry import MetricsRegistry
from repro.obs.trace import Tracer
from repro.obs.tracefile import SpanSinkJsonl

__all__ = [
    "JsonlEventSink",
    "write_spans_jsonl",
    "prometheus_text",
    "snapshot",
    "snapshot_json",
]


class JsonlEventSink:
    """Event-bus subscriber appending one JSON line per event."""

    def __init__(self, stream: IO[str]) -> None:
        self._stream = stream
        self.events_written = 0

    def __call__(self, event: Event) -> None:
        json.dump(event.to_dict(), self._stream, sort_keys=True)
        self._stream.write("\n")
        self.events_written += 1


def write_spans_jsonl(tracer: Tracer, stream: IO[str]) -> int:
    """Append every retained span as one JSON line; returns the count."""
    sink = SpanSinkJsonl(stream)
    for span in tracer.finished:
        sink(span)
    return sink.count


def _prom_name(name: str) -> str:
    return name.replace(".", "_")


def _prom_labels(labels: tuple[tuple[str, str], ...], extra: str = "") -> str:
    parts = [f'{key}="{value}"' for key, value in labels]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def prometheus_text(registry: MetricsRegistry) -> str:
    """Render the registry in the Prometheus text exposition format."""
    lines: list[str] = []
    seen_headers: set[str] = set()
    for instrument in registry:
        prom = _prom_name(instrument.name)
        if prom not in seen_headers:
            seen_headers.add(prom)
            spec = INSTRUMENTS.get(instrument.name)
            help_text = spec.description if spec else instrument.name
            lines.append(f"# HELP {prom} {help_text}")
            lines.append(f"# TYPE {prom} {instrument.kind}")
        if isinstance(instrument, Histogram):
            cumulative = dict(zip(instrument.boundaries, instrument.bucket_counts))
            for bound, count in cumulative.items():
                labels = _prom_labels(instrument.labels, f'le="{bound:g}"')
                lines.append(f"{prom}_bucket{labels} {count}")
            inf_labels = _prom_labels(instrument.labels, 'le="+Inf"')
            lines.append(f"{prom}_bucket{inf_labels} {instrument.count}")
            base = _prom_labels(instrument.labels)
            lines.append(f"{prom}_sum{base} {instrument.sum:g}")
            lines.append(f"{prom}_count{base} {instrument.count}")
        else:
            labels = _prom_labels(instrument.labels)
            value = instrument.value
            rendered = f"{value:g}" if isinstance(value, float) else str(value)
            lines.append(f"{prom}{labels} {rendered}")
    return "\n".join(lines) + ("\n" if lines else "")


def snapshot(registry: MetricsRegistry, tracer: Tracer | None = None) -> dict:
    """One JSON-ready document: all instruments plus retained spans."""
    doc = registry.snapshot()
    if tracer is not None:
        doc["spans"] = [span.to_dict() for span in tracer.finished]
    return doc


def snapshot_json(registry: MetricsRegistry, tracer: Tracer | None = None) -> str:
    return json.dumps(snapshot(registry, tracer), indent=2, sort_keys=True) + "\n"
