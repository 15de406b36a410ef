"""Instrument primitives: counters, gauges and histograms.

Instruments are pure in-memory accumulators: recording never touches a
block device or a cost model, which is what makes instrumentation
side-effect-free with respect to the paper's block-access accounting
(the "zero-overhead" property the integration tests pin down).

Instrument *names* are lowercase dotted identifiers (``maintenance.inserts``)
declared centrally in :mod:`repro.obs.catalogue`; the OBS001 lint rule
rejects emit sites that invent names outside the catalogue.  *Labels*
(``device="sample"``, ``pattern="random"``) distinguish streams of the
same instrument, mirroring how the paper keys its access tables by
device and access pattern.
"""

from __future__ import annotations

import re
from typing import Mapping, Sequence

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Instrument",
    "DEFAULT_BUCKETS",
    "INSTRUMENT_NAME_RE",
    "validate_instrument_name",
    "canonical_labels",
]

#: Lowercase dotted identifier with at least two segments.
INSTRUMENT_NAME_RE = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z][a-z0-9_]*)+$")

#: Default histogram buckets, tuned for cost-model seconds (the dominant
#: observed quantity); counts-valued histograms pass their own boundaries.
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.001, 0.01, 0.1, 1.0, 10.0, 100.0, 1000.0,
)


def validate_instrument_name(name: str) -> str:
    """Return *name* if it is a valid instrument name, else raise."""
    if not INSTRUMENT_NAME_RE.match(name):
        raise ValueError(
            f"instrument name {name!r} must be a lowercase dotted identifier "
            "(e.g. 'maintenance.inserts')"
        )
    return name


def canonical_labels(labels: Mapping[str, str] | None) -> tuple[tuple[str, str], ...]:
    """Normalise a label mapping to a hashable, sorted tuple of pairs."""
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Instrument:
    """Base: a named, optionally labelled accumulator."""

    kind = "instrument"

    __slots__ = ("name", "labels")

    def __init__(self, name: str, labels: Mapping[str, str] | None = None) -> None:
        self.name = validate_instrument_name(name)
        self.labels = canonical_labels(labels)

    @property
    def key(self) -> tuple[str, tuple[tuple[str, str], ...]]:
        return (self.name, self.labels)

    def __repr__(self) -> str:
        labels = ", ".join(f"{k}={v!r}" for k, v in self.labels)
        return f"{type(self).__name__}({self.name!r}{', ' + labels if labels else ''})"


class Counter(Instrument):
    """Monotonically increasing count (inserts, accesses, crashes)."""

    kind = "counter"

    __slots__ = ("value",)

    def __init__(self, name: str, labels: Mapping[str, str] | None = None) -> None:
        super().__init__(name, labels)
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge for deltas")
        self.value += amount

    def restore(self, value: int) -> None:
        """Reset the running total, e.g. when resuming from a checkpoint.

        This is the one sanctioned non-monotonic mutation: recovery
        re-establishes the pre-crash totals so post-recovery series
        continue where the crashed process stopped.
        """
        if value < 0:
            raise ValueError("counter value must be non-negative")
        self.value = value


class Gauge(Instrument):
    """Point-in-time value (pending log elements, buffered candidates)."""

    kind = "gauge"

    __slots__ = ("value",)

    def __init__(self, name: str, labels: Mapping[str, str] | None = None) -> None:
        super().__init__(name, labels)
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount


class Histogram(Instrument):
    """Distribution with fixed bucket boundaries (phase costs, |C|, Psi).

    ``bucket_counts[i]`` counts observations ``<= boundaries[i]``
    (cumulative, Prometheus-style); one implicit ``+Inf`` bucket equals
    ``count``.
    """

    kind = "histogram"

    __slots__ = ("boundaries", "bucket_counts", "count", "sum")

    def __init__(
        self,
        name: str,
        labels: Mapping[str, str] | None = None,
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> None:
        super().__init__(name, labels)
        boundaries = tuple(float(b) for b in buckets)
        if not boundaries:
            raise ValueError("histogram needs at least one bucket boundary")
        if list(boundaries) != sorted(boundaries):
            raise ValueError("bucket boundaries must be sorted ascending")
        self.boundaries = boundaries
        self.bucket_counts = [0] * len(boundaries)
        self.count = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.sum += value
        for idx, bound in enumerate(self.boundaries):
            if value <= bound:
                self.bucket_counts[idx] += 1

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0
