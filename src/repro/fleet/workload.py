"""Seeded cross-shard fan-out queries.

A fan-out query names *several* samples and wants one merged aggregate
-- the shape a tenant dashboard or group-by produces.  The router
decomposes it into per-shard sub-queries; this module only generates the
arrival stream, from its own ``spawn("fanout")`` child of the fleet
seed, so the base single-sample workload (shared bit-for-bit with
``serve-sim``) is never perturbed by fan-out knobs.

Fan-out aggregates are restricted to ``count`` and ``sum``: those merge
by addition across shards, so the fleet-level answer is exact.
``fraction`` is a ratio and would need count-weighted merging -- callers
who want it issue count and sum fan-outs and divide at the edge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from repro import specs
from repro.rng.random_source import RandomSource
from repro.serve.session import Freshness

__all__ = ["FanoutQuery", "FANOUT_AGGREGATES", "fanout_workload"]

FANOUT_AGGREGATES = ("count", "sum")  # additive across shards


@dataclass(frozen=True)
class FanoutQuery:
    """One timestamped multi-sample aggregate from one tenant."""

    time: float  # arrival time, cost-model seconds
    seq: int  # global arrival order (after every base event's seq)
    tenant: str
    samples: tuple[str, ...]  # distinct sample names, canonical order
    freshness: Freshness
    aggregate: str  # "count" | "sum"
    threshold: int  # predicate: value >= threshold

    def __post_init__(self) -> None:
        if not self.samples:
            raise ValueError("fan-out query needs at least one sample")
        if len(set(self.samples)) != len(self.samples):
            raise ValueError("fan-out samples must be distinct")
        if self.aggregate not in FANOUT_AGGREGATES:
            raise ValueError(
                f"fan-out aggregate must be one of {FANOUT_AGGREGATES}, "
                f"got {self.aggregate!r}"
            )

    @property
    def width(self) -> int:
        return len(self.samples)


def check_width(low: int, high: int | None = None) -> tuple[int, int]:
    """``(low, high)`` once it is a valid width range (``high`` defaults to ``low``)."""
    high = low if high is None else high
    if not 1 <= low <= high:
        raise ValueError(f"width_range ({low}, {high}) needs 1 <= low <= high")
    return low, high


def parse_width(spec: str) -> tuple[int, int]:
    """A ``LOW:HIGH`` width range; ``N`` alone means ``N:N``."""
    return specs.parse("fan-out width", spec, (int, specs.OPTIONAL, int), check_width)


def fanout_workload(
    rng: RandomSource,
    names: Sequence[str],
    tenants: Sequence[str],
    queries: int,
    mean_gap_seconds: float = 0.2,
    width_range: tuple[int, int] = (2, 8),
    value_range: int = 1 << 30,
    staleness_bound: int = 256,
    seq_base: int = 0,
    freshness_weights: tuple[tuple[str, int], ...] = (
        ("serve_stale", 2),
        ("bounded_staleness", 1),
        ("refresh_on_read", 1),
    ),
) -> list[FanoutQuery]:
    """Generate the fan-out arrival stream from one seeded RNG.

    Widths are uniform in ``width_range`` (clipped to the catalog size);
    each query picks that many *distinct* samples by partial
    Fisher-Yates, then canonicalises them in name order.  Seqs start at
    ``seq_base`` so fan-out events sort strictly after same-time base
    events and per-shard heaps never compare two payloads.
    """
    if not names:
        raise ValueError("need at least one sample name")
    if not tenants:
        raise ValueError("need at least one tenant")
    if queries < 0:
        raise ValueError("queries must be non-negative")
    low, high = check_width(*width_range)
    high = min(high, len(names))
    low = min(low, high)
    modes: list[str] = []
    for mode, weight in freshness_weights:
        modes.extend([mode] * weight)
    pool = list(names)
    out: list[FanoutQuery] = []
    clock = 0.0
    for index in range(queries):
        clock += -mean_gap_seconds * math.log(1.0 - rng.random())
        width = low + rng.randrange(high - low + 1)
        # Partial Fisher-Yates: exactly `width` draws, distinct samples.
        for i in range(width):
            j = i + rng.randrange(len(pool) - i)
            pool[i], pool[j] = pool[j], pool[i]
        samples = tuple(sorted(pool[:width]))
        tenant = tenants[rng.randrange(len(tenants))]
        mode = modes[rng.randrange(len(modes))]
        if mode == "bounded_staleness":
            freshness = Freshness.bounded(staleness_bound)
        else:
            freshness = Freshness(mode)
        aggregate = FANOUT_AGGREGATES[index % len(FANOUT_AGGREGATES)]
        threshold = rng.randrange(value_range // 2)
        out.append(
            FanoutQuery(
                time=clock,
                seq=seq_base + index,
                tenant=tenant,
                samples=samples,
                freshness=freshness,
                aggregate=aggregate,
                threshold=threshold,
            )
        )
    return out
