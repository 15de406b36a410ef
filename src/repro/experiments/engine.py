"""Vectorised cost simulator for the paper's experiments.

The paper's methodology (Sec. 6.1) is to *count* block-level
sequential/random accesses per algorithm and weight them with measured
access times.  The reference implementation in :mod:`repro.core` produces
those counts per element, which is exact but too slow for 100M-insert
sweeps in Python.  This engine produces the same counts at paper scale:

* the **candidate stream is realised exactly**: one uniform per insertion
  against the true acceptance probability ``M/(|R|+i)`` (numpy, chunked);
* **per-refresh block touches are expected values in closed form**, which
  is what the paper's 100-run averages estimate anyway:

  - a sample block of ``e`` elements survives a refresh of ``c``
    candidates untouched with probability ``(1 - e/M)^c``;
  - candidate ``i`` of ``c`` is *final* with probability
    ``(1 - 1/M)^(c-i)``, so a log block is read with probability
    ``1 - prod(1 - p_i)`` over its residents (same for full-log refresh,
    with residents placed at their insert positions).

An integration test pins these formulas against the reference
implementation's realised counts at small scale (they agree to Monte
Carlo noise), so the engine is a fast view of the same model, not a
second model.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.obs.api import Instrumentation
from repro.obs.timeseries import left_to_right_sum
from repro.rng.numpy_source import numpy_generator
from repro.storage.cost_model import AccessStats, DiskParameters, PAPER_DISK

__all__ = [
    "MaintenanceCost",
    "candidate_positions",
    "candidate_counts_per_period",
    "immediate_online_cost",
    "log_online_cost",
    "expected_sample_blocks_written",
    "expected_candidate_log_blocks_read",
    "expected_full_log_blocks_read",
    "refresh_offline_cost",
    "geometric_file_cost",
    "simulate_strategy",
]

_CHUNK = 4_000_000  # uniforms drawn per numpy chunk


@dataclass
class MaintenanceCost:
    """Online/offline cost split of one simulated strategy run."""

    online: AccessStats = field(default_factory=AccessStats)
    offline: AccessStats = field(default_factory=AccessStats)
    candidates: int = 0
    refreshes: int = 0

    def online_seconds(self, disk: DiskParameters = PAPER_DISK) -> float:
        return self.online.cost_seconds(disk)

    def offline_seconds(self, disk: DiskParameters = PAPER_DISK) -> float:
        return self.offline.cost_seconds(disk)

    def total_seconds(self, disk: DiskParameters = PAPER_DISK) -> float:
        return self.online_seconds(disk) + self.offline_seconds(disk)


# ---------------------------------------------------------------------------
# Candidate stream realisation
# ---------------------------------------------------------------------------


def candidate_positions(
    rng: np.random.Generator, sample_size: int, initial_dataset: int, inserts: int
) -> np.ndarray:
    """1-based insert ordinals (within the window) that become candidates.

    Element ``i`` (``i = 1..inserts``) is accepted with the exact reservoir
    probability ``M / (initial_dataset + i)``.
    """
    if sample_size <= 0:
        raise ValueError("sample_size must be positive")
    if initial_dataset < sample_size:
        raise ValueError("dataset must be at least as large as the sample")
    if inserts < 0:
        raise ValueError("inserts must be non-negative")
    chunks: list[np.ndarray] = []
    for start in range(0, inserts, _CHUNK):
        stop = min(start + _CHUNK, inserts)
        ordinals = np.arange(start + 1, stop + 1, dtype=np.float64)
        acceptance = sample_size / (initial_dataset + ordinals)
        uniforms = rng.random(stop - start)
        hits = np.flatnonzero(uniforms < acceptance)
        chunks.append((hits + start + 1).astype(np.int64))
    if not chunks:
        return np.empty(0, dtype=np.int64)
    return np.concatenate(chunks)


def candidate_counts_per_period(
    positions: np.ndarray, inserts: int, period: int
) -> np.ndarray:
    """Candidates landing in each refresh period of ``period`` inserts."""
    if period <= 0:
        raise ValueError("period must be positive")
    n_periods = -(-inserts // period)
    edges = np.arange(1, n_periods + 1, dtype=np.int64) * period
    edges[-1] = inserts
    cuts = np.searchsorted(positions, edges, side="right")
    return np.diff(np.concatenate(([0], cuts)))


# ---------------------------------------------------------------------------
# Online cost
# ---------------------------------------------------------------------------


def immediate_online_cost(
    candidates: int,
    sample_size: int | None = None,
    disk: DiskParameters = PAPER_DISK,
) -> AccessStats:
    """Immediate refresh: one random sample write per accepted insert.

    Consecutive candidates landing in the same sample block coalesce into
    one write (the single-block write cache of the reference
    :class:`~repro.storage.files.SampleFile`): with ``B`` sample blocks the
    expected write count is ``1 + (c-1)(1 - 1/B)``.  Negligible at paper
    scale (B = 7813) but exact at any scale; pass ``sample_size=None`` to
    skip the correction.
    """
    c = int(candidates)
    if c <= 0:
        return AccessStats()
    if sample_size is None:
        return AccessStats(random_writes=c)
    blocks = disk.blocks_for_elements(sample_size)
    expected = 1.0 + (c - 1) * (1.0 - 1.0 / blocks)
    return AccessStats(random_writes=int(round(expected)))


def log_online_cost(
    elements_per_period: np.ndarray, disk: DiskParameters = PAPER_DISK
) -> AccessStats:
    """Log-writing cost: per period, ``ceil(e/epb)`` block writes.

    The first block write of a non-empty period is random (the rewind seek
    after the log was truncated by the previous refresh, Sec. 6.2); the
    rest are sequential.
    """
    counts = np.asarray(elements_per_period, dtype=np.int64)
    if np.any(counts < 0):
        raise ValueError("element counts must be non-negative")
    epb = disk.elements_per_block
    blocks = -(-counts // epb)
    nonempty = blocks > 0
    random_writes = int(np.count_nonzero(nonempty))
    seq_writes = int(blocks.sum() - random_writes)
    return AccessStats(seq_writes=seq_writes, random_writes=random_writes)


# ---------------------------------------------------------------------------
# Refresh (offline) cost -- closed-form expected block touches
# ---------------------------------------------------------------------------


def expected_sample_blocks_written(
    sample_size: int, candidates: np.ndarray, disk: DiskParameters = PAPER_DISK
) -> np.ndarray:
    """E[sample blocks containing >= 1 displaced element], per refresh.

    ``P(block of e elements untouched) = (1 - e/M)^c``; the last block may
    be partial.
    """
    c = np.asarray(candidates, dtype=np.float64)
    epb = disk.elements_per_block
    full_blocks, tail = divmod(sample_size, epb)
    expected = full_blocks * (1.0 - np.power(1.0 - epb / sample_size, c))
    if tail:
        expected = expected + (1.0 - np.power(1.0 - tail / sample_size, c))
    return expected


def expected_candidate_log_blocks_read(
    sample_size: int, candidates: np.ndarray, disk: DiskParameters = PAPER_DISK
) -> np.ndarray:
    """E[candidate-log blocks holding >= 1 final candidate], per refresh.

    Candidate ``i`` of ``c`` is final with ``p_i = (1-1/M)^(c-i)``; the
    candidates sit densely in the log, 128 to a block.  Uses a prefix sum
    of ``log(1 - q^k)`` so each block costs O(1).
    """
    counts = np.asarray(candidates, dtype=np.int64)
    if counts.size == 0:
        return np.zeros(0)
    max_c = int(counts.max())
    if max_c == 0:
        return np.zeros(counts.shape)
    epb = disk.elements_per_block
    q = 1.0 - 1.0 / sample_size
    # survive[k] = log P(candidate with k later candidates is NOT final)
    #           = log(1 - q^k); k = 0 gives -inf (the last candidate is
    #           always final), handled by treating its block as read.
    k = np.arange(1, max_c, dtype=np.float64)
    with np.errstate(divide="ignore"):
        survive = np.log1p(-np.power(q, k))
    prefix = np.concatenate(([0.0], np.cumsum(survive)))  # prefix[j] = sum k<j+1

    expected = np.zeros(counts.shape)
    for idx, c in enumerate(counts):
        if c == 0:
            continue
        n_blocks = -(-int(c) // epb)
        # Block b (1-based) holds candidates i in [(b-1)*epb+1, min(b*epb, c)],
        # i.e. k = c - i in [c - min(b*epb, c), c - (b-1)*epb - 1].
        total = 1.0  # last block: contains k = 0, always read
        for b in range(1, n_blocks):
            k_hi = int(c) - (b - 1) * epb - 1
            k_lo = int(c) - b * epb
            log_surv = prefix[k_hi] - prefix[k_lo - 1]
            total += 1.0 - np.exp(log_surv)
        expected[idx] = total
    return expected


def expected_full_log_blocks_read(
    sample_size: int,
    positions_in_period: np.ndarray,
    disk: DiskParameters = PAPER_DISK,
) -> float:
    """E[full-log blocks holding >= 1 final candidate] for one refresh.

    ``positions_in_period`` are 1-based insert positions of this period's
    candidates within its full log.  Candidates are sparse in the full
    log, so final candidates spread over many more blocks (Sec. 5).
    """
    positions = np.asarray(positions_in_period, dtype=np.int64)
    c = positions.size
    if c == 0:
        return 0.0
    epb = disk.elements_per_block
    q = 1.0 - 1.0 / sample_size
    ranks = np.arange(1, c + 1, dtype=np.float64)
    p_final = np.power(q, c - ranks)  # last candidate: p = 1
    blocks = (positions - 1) // epb
    with np.errstate(divide="ignore"):
        weights = np.log1p(-p_final)  # -inf for the final candidate: read for sure
    # Group by block: unique blocks + summed log-survival.
    unique_blocks, inverse = np.unique(blocks, return_inverse=True)
    summed = np.zeros(unique_blocks.size)
    np.add.at(summed, inverse, weights)
    return float(np.sum(1.0 - np.exp(summed)))


def refresh_offline_cost(
    sample_size: int,
    candidates_per_period: np.ndarray,
    disk: DiskParameters = PAPER_DISK,
    cached_fraction: float = 0.0,
    full_log_positions: list[np.ndarray] | None = None,
) -> AccessStats:
    """Deferred refresh cost over all periods (Array/Stack/Nomem -- equal I/O).

    ``Psi`` sequential log-block reads plus ``Psi`` sequential sample-block
    writes, in expectation.  ``cached_fraction`` scales *sample* accesses
    down, modelling the Fig. 14 pinned-prefix memory grant.  When
    ``full_log_positions`` is given (one position array per period) the
    log reads use the sparse full-log layout instead of the dense
    candidate log.
    """
    if not 0.0 <= cached_fraction < 1.0:
        raise ValueError("cached_fraction must be in [0, 1)")
    counts = np.asarray(candidates_per_period, dtype=np.int64)
    sample_writes = expected_sample_blocks_written(sample_size, counts, disk)
    if full_log_positions is None:
        log_reads = expected_candidate_log_blocks_read(sample_size, counts, disk)
        total_reads = float(np.sum(log_reads))
    else:
        if len(full_log_positions) != counts.size:
            raise ValueError("need one position array per period")
        total_reads = left_to_right_sum(
            expected_full_log_blocks_read(sample_size, pos, disk)
            for pos in full_log_positions
        )
    total_writes = float(np.sum(sample_writes)) * (1.0 - cached_fraction)
    return AccessStats(
        seq_reads=int(round(total_reads)),
        seq_writes=int(round(total_writes)),
    )


# ---------------------------------------------------------------------------
# Geometric file cost (Sec. 6.5 mechanics; see baselines.geometric_file)
# ---------------------------------------------------------------------------


def geometric_file_cost(
    sample_size: int,
    candidates: int,
    buffer_capacity: int,
    disk: DiskParameters = PAPER_DISK,
    boundary_ios: int = 2,
    min_segment: int = 16_384,
) -> tuple[AccessStats, int]:
    """Expected GF cost for ``candidates`` accepted inserts; returns (stats, flushes).

    Buffer fills roughly once per ``buffer_capacity`` candidates (the
    buffer-resident victim correction is second-order); each flush pays
    one seek, a sequential segment write, and per-segment boundary
    read/write pairs.  Mirrors
    :class:`repro.baselines.geometric_file.GeometricFile`.
    """
    if buffer_capacity <= 0:
        raise ValueError("buffer_capacity must be positive")
    flushes = candidates // buffer_capacity
    epb = disk.elements_per_block
    segment_elements = max(buffer_capacity, min_segment)
    segments = max(1, round(sample_size / segment_elements))
    per_flush_seq_writes = -(-buffer_capacity // epb)
    ios = segments * boundary_ios
    stats = AccessStats(
        seq_writes=flushes * per_flush_seq_writes,
        random_writes=flushes * (1 + ios),
        random_reads=flushes * ios,
    )
    return stats, flushes


# ---------------------------------------------------------------------------
# Whole-strategy simulation
# ---------------------------------------------------------------------------


def simulate_strategy(
    strategy: str,
    sample_size: int,
    initial_dataset: int,
    inserts: int,
    refresh_period: int | None,
    seed: int = 0,
    disk: DiskParameters = PAPER_DISK,
    cached_fraction: float = 0.0,
    instrumentation: Instrumentation | None = None,
) -> MaintenanceCost:
    """Simulate one maintenance strategy end to end.

    ``strategy`` is ``"immediate"``, ``"candidate"`` or ``"full"``;
    ``refresh_period`` of ``None`` means log-only (the Fig. 6/8 setting,
    no intermediate refresh).  With ``instrumentation``, the run's
    realised candidate/refresh counts and cost split are recorded under
    the ``engine.*`` instruments (labelled by strategy).
    """
    cost = _simulate(
        strategy,
        sample_size,
        initial_dataset,
        inserts,
        refresh_period,
        seed,
        disk,
        cached_fraction,
    )
    if instrumentation is not None:
        labels = {"strategy": strategy}
        instrumentation.counter("engine.candidates", labels).inc(cost.candidates)
        instrumentation.counter("engine.refreshes", labels).inc(cost.refreshes)
        instrumentation.gauge("engine.online_seconds", labels).set(
            cost.online_seconds(disk)
        )
        instrumentation.gauge("engine.offline_seconds", labels).set(
            cost.offline_seconds(disk)
        )
        instrumentation.emit(
            "engine.simulated",
            strategy=strategy,
            inserts=inserts,
            candidates=cost.candidates,
            refreshes=cost.refreshes,
            online_seconds=cost.online_seconds(disk),
            offline_seconds=cost.offline_seconds(disk),
        )
    return cost


def _simulate(
    strategy: str,
    sample_size: int,
    initial_dataset: int,
    inserts: int,
    refresh_period: int | None,
    seed: int,
    disk: DiskParameters,
    cached_fraction: float,
) -> MaintenanceCost:
    if strategy not in ("immediate", "candidate", "full"):
        raise ValueError(f"unknown strategy: {strategy!r}")
    rng = numpy_generator(seed)
    positions = candidate_positions(rng, sample_size, initial_dataset, inserts)
    cost = MaintenanceCost(candidates=int(positions.size))

    if strategy == "immediate":
        cost.online = immediate_online_cost(positions.size, sample_size, disk)
        return cost

    if refresh_period is None:
        # Log only: one long "period".
        if strategy == "candidate":
            cost.online = log_online_cost([positions.size], disk)
        else:
            cost.online = log_online_cost([inserts], disk)
        return cost

    counts = candidate_counts_per_period(positions, inserts, refresh_period)
    n_periods = counts.size
    cost.refreshes = n_periods
    if strategy == "candidate":
        cost.online = log_online_cost(counts, disk)
        cost.offline = refresh_offline_cost(
            sample_size, counts, disk, cached_fraction
        )
        return cost

    # Full logging: every insert is logged; refresh candidates are sparse
    # within each period's log.
    period_sizes = np.full(n_periods, refresh_period, dtype=np.int64)
    period_sizes[-1] = inserts - refresh_period * (n_periods - 1)
    cost.online = log_online_cost(period_sizes, disk)
    boundaries = np.arange(n_periods, dtype=np.int64) * refresh_period
    splits = np.searchsorted(positions, boundaries[1:], side="right")
    per_period = np.split(positions, splits)
    full_positions = [
        pos - boundaries[idx] for idx, pos in enumerate(per_period)
    ]
    cost.offline = refresh_offline_cost(
        sample_size, counts, disk, cached_fraction, full_log_positions=full_positions
    )
    return cost
