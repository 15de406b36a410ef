"""The :class:`Instrumentation` facade wired through the library.

One object bundles the three telemetry primitives -- metrics registry,
tracer, event bus -- plus the cost model that prices span durations.
Every instrumented component (:class:`~repro.core.maintenance.SampleMaintainer`,
the refresh algorithms, the block devices, the baselines) takes an
optional ``instrumentation`` argument; ``None`` (the default) means the
component carries not a single extra branch beyond one ``is None`` test,
and recorded :class:`~repro.storage.cost_model.AccessStats` are
bit-identical with and without telemetry attached (the zero-overhead
property the integration tests assert).
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import Any, Mapping, Sequence

from repro.obs.events import EventBus
from repro.obs.exporters import snapshot as _snapshot
from repro.obs.instruments import Counter, DEFAULT_BUCKETS, Gauge, Histogram
from repro.obs.registry import MetricsRegistry
from repro.obs.trace import Tracer
from repro.storage.cost_model import CostModel

__all__ = ["Instrumentation", "maybe_span"]


def maybe_span(instrumentation: "Instrumentation | None", name: str, **attrs: Any):
    """A span when instrumented, a free ``nullcontext`` otherwise.

    The standard guard for optional tracing in hot paths::

        with maybe_span(self.instrumentation, "refresh.write") as span:
            ...
            if span is not None:
                span.set("displaced", displaced)
    """
    if instrumentation is None:
        return nullcontext()
    return instrumentation.span(name, **attrs)


class Instrumentation:
    """Aggregates a metrics registry, a tracer and an event bus.

    Parameters
    ----------
    cost_model:
        The cost model that span durations and event timestamps read
        their cost-clock from.  Without it spans still nest and count,
        but report zero seconds and no block deltas.
    trace_inserts:
        When True, every insert batch (a single ``insert()`` is a batch
        of one) opens a ``batch_insert`` span (with consumed and accepted
        counts).  Off by default:
        insert volume dwarfs refresh volume, and counters/gauges cover
        the online phase more cheaply.
    trace_storage:
        When True, the buffer pool and block devices open per-block
        ``storage.pool.*`` / ``storage.device.*`` spans, extending each
        request's trace tree down to individual I/O charges.  Off by
        default for the same volume reason as ``trace_inserts``; the
        serve simulator turns it on when exporting a ``--trace`` file.
    """

    def __init__(
        self,
        cost_model: CostModel | None = None,
        trace_inserts: bool = False,
        trace_storage: bool = False,
    ) -> None:
        self.cost_model = cost_model
        self.registry = MetricsRegistry()
        self.events = EventBus()
        self.tracer = Tracer(cost_model=cost_model, event_bus=self.events)
        self.trace_inserts = trace_inserts
        self.trace_storage = trace_storage
        self._device_counters: dict[tuple[str, str, bool], Counter] = {}

    # -- instrument passthrough -------------------------------------------

    def counter(self, name: str, labels: Mapping[str, str] | None = None) -> Counter:
        return self.registry.counter(name, labels)

    def gauge(self, name: str, labels: Mapping[str, str] | None = None) -> Gauge:
        return self.registry.gauge(name, labels)

    def histogram(
        self,
        name: str,
        labels: Mapping[str, str] | None = None,
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        return self.registry.histogram(name, labels, buckets=buckets)

    # -- tracing / events --------------------------------------------------

    def span(self, name: str, **attrs: Any):
        """Open a trace span (context manager); see :class:`Tracer`."""
        return self.tracer.span(name, **attrs)

    def emit(self, name: str, **attrs: Any) -> None:
        """Emit a structured event; free when nobody subscribed."""
        if not self.events.active:
            return
        cost_seconds = (
            self.cost_model.cost_seconds() if self.cost_model is not None else 0.0
        )
        self.events.emit(name, cost_seconds=cost_seconds, **attrs)

    # -- device telemetry --------------------------------------------------

    def record_device_access(
        self, device: str, kind: str, sequential: bool, count: int = 1
    ) -> None:
        """Count one (or ``count``) block accesses for a named device.

        Backed by ``device.accesses`` counters labelled
        ``device= kind=read|write pattern=seq|random`` -- the per-device
        sequential/random histogram of the paper's Sec. 6.1 accounting.
        The per-device counter object is cached, so the per-access cost
        is one dict probe and one integer add.
        """
        key = (device, kind, sequential)
        counter = self._device_counters.get(key)
        if counter is None:
            counter = self.counter(
                "device.accesses",
                labels={
                    "device": device or "unnamed",
                    "kind": kind,
                    "pattern": "seq" if sequential else "random",
                },
            )
            self._device_counters[key] = counter
        counter.inc(count)

    # -- export ------------------------------------------------------------

    def snapshot(self) -> dict:
        """Instruments plus retained spans, JSON-ready."""
        return _snapshot(self.registry, self.tracer)
