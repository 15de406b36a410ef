"""Observability: metrics, trace spans and events for the maintenance core.

The paper's argument is quantitative -- deferred refresh wins because of
*where* block accesses land (sequential vs. random, online vs. offline).
This package makes that visible while it happens instead of only as
after-the-fact :class:`~repro.storage.cost_model.AccessStats` totals:

* :class:`Instrumentation` -- the facade components accept (optionally);
* :class:`MetricsRegistry` + :class:`Counter`/:class:`Gauge`/:class:`Histogram`
  -- named instruments declared in :mod:`repro.obs.catalogue`;
* :class:`Tracer`/:class:`Span` -- per-phase spans whose "duration" is
  cost-model seconds and block counts, never wall clocks (TIME001 holds
  by construction);
* :class:`EventBus`/:class:`Event` -- structured occurrences (crash
  injections, span ends) with a no-op fast path;
* exporters -- JSONL event log, Prometheus text, JSON snapshot.

See docs/observability.md for the instrument catalogue and formats.
"""

from repro.obs.api import Instrumentation, maybe_span
from repro.obs.catalogue import (
    COUNT_BUCKETS,
    INSTRUMENTS,
    InstrumentSpec,
    SECONDS_BUCKETS,
    SPANS,
)
from repro.obs.events import Event, EventBus
from repro.obs.exporters import (
    JsonlEventSink,
    prometheus_text,
    snapshot,
    snapshot_json,
    write_spans_jsonl,
)
from repro.obs.slo import SLO, SLOTracker, parse_slos
from repro.obs.timeseries import TimeSeriesStore, quantile_nearest_rank
from repro.obs.tracefile import (
    SpanNode,
    SpanSinkJsonl,
    build_forest,
    chrome_trace_dict,
    critical_path,
    read_spans_jsonl,
    self_times,
)
from repro.obs.instruments import (
    Counter,
    DEFAULT_BUCKETS,
    Gauge,
    Histogram,
    INSTRUMENT_NAME_RE,
    Instrument,
    canonical_labels,
    validate_instrument_name,
)
from repro.obs.registry import MetricsRegistry
from repro.obs.trace import Span, Tracer

__all__ = [
    "Instrumentation",
    "maybe_span",
    # instruments
    "Instrument",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
    "INSTRUMENT_NAME_RE",
    "validate_instrument_name",
    "canonical_labels",
    # catalogue
    "INSTRUMENTS",
    "InstrumentSpec",
    "SPANS",
    "COUNT_BUCKETS",
    "SECONDS_BUCKETS",
    # events
    "Event",
    "EventBus",
    # tracing
    "Span",
    "Tracer",
    # trace files
    "SpanNode",
    "SpanSinkJsonl",
    "build_forest",
    "chrome_trace_dict",
    "critical_path",
    "read_spans_jsonl",
    "self_times",
    # time series + SLOs
    "TimeSeriesStore",
    "quantile_nearest_rank",
    "SLO",
    "SLOTracker",
    "parse_slos",
    # exporters
    "JsonlEventSink",
    "prometheus_text",
    "snapshot",
    "snapshot_json",
    "write_spans_jsonl",
]
