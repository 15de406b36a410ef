"""Synthetic stream sources for workloads and tests.

All sources are deterministic generators over a :class:`RandomSource`, so
experiments are reproducible.  Values are integers (they round-trip
through :class:`~repro.storage.records.IntRecordCodec` unchanged).
"""

from __future__ import annotations

import math
from typing import Iterator, Protocol

from repro.obs.timeseries import left_to_right_sum
from repro.rng.random_source import RandomSource

__all__ = [
    "StreamSource",
    "counter_stream",
    "uniform_stream",
    "zipf_stream",
    "bursty_stream",
    "uniform_batches",
]


class StreamSource(Protocol):
    """An (optionally unbounded) iterator of stream elements."""

    def __iter__(self) -> Iterator[int]:  # pragma: no cover - protocol
        ...


def counter_stream(start: int = 0, count: int | None = None) -> Iterator[int]:
    """Monotonically increasing integers -- the paper's workload shape.

    The experiments only care about arrival *counts*, so distinct,
    recognisable values make verification easy.
    """
    value = start
    emitted = 0
    while count is None or emitted < count:
        yield value
        value += 1
        emitted += 1


def uniform_stream(rng: RandomSource, low: int, high: int, count: int) -> Iterator[int]:
    """``count`` integers uniform over ``[low, high]``."""
    if high < low:
        raise ValueError(f"empty range [{low}, {high}]")
    for _ in range(count):
        yield rng.randint(low, high)


def zipf_stream(
    rng: RandomSource, universe: int, count: int, exponent: float = 1.2
) -> Iterator[int]:
    """Zipf-distributed values over ``[0, universe)`` -- skewed streams.

    Inverse-CDF over precomputed cumulative weights; adequate for the
    moderate universes used in examples and tests.
    """
    if universe <= 0:
        raise ValueError("universe must be positive")
    if exponent <= 0:
        raise ValueError("exponent must be positive")
    weights = [1.0 / math.pow(rank + 1, exponent) for rank in range(universe)]
    total = left_to_right_sum(weights)
    cumulative = []
    running = 0.0
    for weight in weights:
        running += weight / total
        cumulative.append(running)
    for _ in range(count):
        u = rng.random()
        yield _bisect(cumulative, u)


def bursty_stream(
    rng: RandomSource,
    count: int,
    burst_length: int = 100,
    quiet_length: int = 900,
    value_start: int = 0,
) -> Iterator[tuple[int, int]]:
    """``(timestamp, value)`` pairs alternating bursts and quiet periods.

    Used by the load-shedding example: bursts model arrival spikes the
    online phase must absorb cheaply.
    """
    if burst_length <= 0 or quiet_length < 0:
        raise ValueError("invalid burst/quiet lengths")
    timestamp = 0
    value = value_start
    emitted = 0
    while emitted < count:
        for _ in range(min(burst_length, count - emitted)):
            yield timestamp, value
            timestamp += 1  # back-to-back arrivals
            value += 1
            emitted += 1
        timestamp += quiet_length  # idle gap
    return


# ---------------------------------------------------------------------------
# Batched variant: lists of elements, for the skip-based ingestion path
# ---------------------------------------------------------------------------
#
# ``StreamSampleOperator.process_many`` / ``SampleMaintainer.insert_many``
# do O(accepted) work per batch, so per-element generator overhead on the
# *producer* side would dominate.  The batched source yields lists and
# draws exactly the same variates in the same order as its scalar
# counterpart: ``list(chain(*batches))`` equals the scalar stream for the
# same seed.


def uniform_batches(
    rng: RandomSource, low: int, high: int, count: int, batch_size: int
) -> Iterator[list[int]]:
    """Batched :func:`uniform_stream`: same values, one list per batch."""
    if high < low:
        raise ValueError(f"empty range [{low}, {high}]")
    if batch_size <= 0:
        raise ValueError("batch_size must be positive")
    randint = rng.randint
    for start in range(0, count, batch_size):
        n = min(batch_size, count - start)
        yield [randint(low, high) for _ in range(n)]


def _bisect(cumulative: list[float], u: float) -> int:
    lo, hi = 0, len(cumulative) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if cumulative[mid] < u:
            lo = mid + 1
        else:
            hi = mid
    return lo
