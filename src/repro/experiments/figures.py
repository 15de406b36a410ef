"""One experiment definition per figure of the paper's evaluation (Sec. 6).

Each ``figN(scale, seed)`` function regenerates the series the paper
plots, at the requested scale, and returns a :class:`SeriesResult`.  The
registry :data:`FIGURES` maps experiment ids (``"fig6"`` .. ``"fig14"``,
plus ``"access-times"``) to their runners; the CLI and the benchmark
suite both dispatch through it.

Conventions: costs are in seconds under the paper's disk parameters
(:data:`repro.storage.cost_model.PAPER_DISK`); the series names match the
paper's legends (``Immediate``, ``Full``, ``Cand.``, plus ``GF`` where it
appears).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.core.refresh.array import ArrayRefresh
from repro.core.refresh.math import expected_displaced
from repro.core.refresh.nomem import span_of_gaps
from repro.core.refresh.stack import select_final_indexes
from repro.experiments import engine
from repro.experiments.scaling import Scale, resolve_scale
from repro.obs.timeseries import left_to_right_sum
from repro.rng.numpy_source import numpy_generator
from repro.rng.random_source import RandomSource
from repro.storage.cost_model import AccessStats, PAPER_DISK, DiskParameters
from repro.storage.memory import MT19937_STATE_BYTES, INDEX_BYTES

__all__ = ["SeriesResult", "FIGURES", "get_figure"]


@dataclass
class SeriesResult:
    """One figure's regenerated data."""

    figure: str
    title: str
    x_label: str
    y_label: str
    x: list[float]
    series: dict[str, list[float]]
    notes: str = ""
    scale: str = ""
    log_log: bool = True
    extra: dict = field(default_factory=dict)

    def column(self, name: str) -> list[float]:
        return self.series[name]


def _checkpoints(inserts: int) -> list[int]:
    """Log-spaced operation counts, 0.1% .. 100% of the insert volume.

    At paper scale this is the paper's x-axis (0.1M .. 100M operations).
    """
    fractions = [0.001, 0.00316, 0.01, 0.0316, 0.1, 0.316, 1.0]
    return sorted({max(1, int(round(f * inserts))) for f in fractions})


# ---------------------------------------------------------------------------
# Fig. 6 / Fig. 7 -- cost over time
# ---------------------------------------------------------------------------


def fig6(scale: "str | Scale" = "default", seed: int = 0) -> SeriesResult:
    """Online cost over time, no intermediate refresh (Fig. 6)."""
    s = resolve_scale(scale)
    rng = numpy_generator(seed)
    positions = engine.candidate_positions(
        rng, s.sample_size, s.initial_dataset, s.inserts
    )
    epb = PAPER_DISK.elements_per_block
    xs = _checkpoints(s.inserts)
    immediate, full, cand = [], [], []
    for x in xs:
        c = int(np.searchsorted(positions, x, side="right"))
        immediate.append(
            engine.immediate_online_cost(c, s.sample_size).cost_seconds()
        )
        full_blocks = -(-x // epb)
        full.append(
            AccessStats(seq_writes=full_blocks - 1, random_writes=1).cost_seconds()
        )
        cand_blocks = -(-c // epb) if c else 0
        cand.append(
            AccessStats(
                seq_writes=max(0, cand_blocks - 1),
                random_writes=1 if cand_blocks else 0,
            ).cost_seconds()
        )
    return SeriesResult(
        figure="fig6",
        title="Online cost over time",
        x_label="No. of Operations",
        y_label="Online Cost (seconds)",
        x=[float(x) for x in xs],
        series={"Immediate": immediate, "Full": full, "Cand.": cand},
        scale=s.name,
        notes="no intermediate refreshes; cumulative log-phase cost",
    )


def fig7(scale: "str | Scale" = "default", seed: int = 0) -> SeriesResult:
    """Total cost over time, refresh every base period (Fig. 7)."""
    s = resolve_scale(scale)
    rng = numpy_generator(seed)
    positions = engine.candidate_positions(
        rng, s.sample_size, s.initial_dataset, s.inserts
    )
    counts = engine.candidate_counts_per_period(
        positions, s.inserts, s.refresh_period
    )
    n_periods = counts.size
    boundaries = np.arange(n_periods, dtype=np.int64) * s.refresh_period
    splits = np.searchsorted(positions, boundaries[1:], side="right")
    per_period_positions = [
        pos - boundaries[idx]
        for idx, pos in enumerate(np.split(positions, splits))
    ]

    # Per-period costs for each strategy.
    imm_per_period = [
        engine.immediate_online_cost(int(c), s.sample_size).cost_seconds()
        for c in counts
    ]
    cand_per_period = _candidate_period_costs(s, counts)
    period_sizes = np.full(n_periods, s.refresh_period, dtype=np.int64)
    period_sizes[-1] = s.inserts - s.refresh_period * (n_periods - 1)
    full_per_period = _full_period_costs(
        s, counts, per_period_positions, period_sizes
    )

    xs = _checkpoints(s.inserts)
    series = {"Immediate": [], "Full": [], "Cand.": []}
    epb = PAPER_DISK.elements_per_block
    for x in xs:
        done = int(min(n_periods, x // s.refresh_period))
        tail_inserts = x - done * s.refresh_period
        tail_candidates = int(
            np.searchsorted(positions, x, side="right")
        ) - int(np.searchsorted(positions, done * s.refresh_period, side="right"))
        series["Immediate"].append(
            left_to_right_sum(imm_per_period[:done])
            + engine.immediate_online_cost(
                tail_candidates, s.sample_size
            ).cost_seconds()
        )
        series["Full"].append(
            left_to_right_sum(full_per_period[:done])
            + engine.log_online_cost([tail_inserts]).cost_seconds()
        )
        series["Cand."].append(
            left_to_right_sum(cand_per_period[:done])
            + engine.log_online_cost([tail_candidates]).cost_seconds()
        )
    return SeriesResult(
        figure="fig7",
        title="Total cost over time",
        x_label="No. of Operations",
        y_label="Total Cost (seconds)",
        x=[float(x) for x in xs],
        series=series,
        scale=s.name,
        notes=f"refresh every {s.refresh_period} inserts",
    )


def _candidate_period_costs(s: Scale, counts: np.ndarray) -> list[float]:
    online = [
        engine.log_online_cost([int(c)]).cost_seconds() for c in counts
    ]
    log_reads = engine.expected_candidate_log_blocks_read(s.sample_size, counts)
    sample_writes = engine.expected_sample_blocks_written(s.sample_size, counts)
    offline = [
        AccessStats(
            seq_reads=int(round(r)), seq_writes=int(round(w))
        ).cost_seconds()
        for r, w in zip(log_reads, sample_writes)
    ]
    return [a + b for a, b in zip(online, offline)]


def _full_period_costs(
    s: Scale,
    counts: np.ndarray,
    per_period_positions: list[np.ndarray],
    period_sizes: np.ndarray,
) -> list[float]:
    sample_writes = engine.expected_sample_blocks_written(s.sample_size, counts)
    costs = []
    for idx, pos in enumerate(per_period_positions):
        online = engine.log_online_cost([int(period_sizes[idx])]).cost_seconds()
        reads = engine.expected_full_log_blocks_read(s.sample_size, pos)
        offline = AccessStats(
            seq_reads=int(round(reads)), seq_writes=int(round(sample_writes[idx]))
        ).cost_seconds()
        costs.append(online + offline)
    return costs


# ---------------------------------------------------------------------------
# Fig. 8 / Fig. 9 -- cost vs. sample size
# ---------------------------------------------------------------------------


def _sample_size_sweep(s: Scale) -> list[int]:
    return [s.sample_size * k for k in range(1, 11)]


def fig8(scale: "str | Scale" = "default", seed: int = 0) -> SeriesResult:
    """Online cost vs. sample size, no refresh (Fig. 8)."""
    s = resolve_scale(scale)
    xs = _sample_size_sweep(s)
    series = {"Immediate": [], "Full": [], "Cand.": []}
    for idx, m in enumerate(xs):
        initial = max(s.initial_dataset, m)
        cost_imm = engine.simulate_strategy(
            "immediate", m, initial, s.inserts, None, seed=seed + idx
        )
        cost_full = engine.simulate_strategy(
            "full", m, initial, s.inserts, None, seed=seed + idx
        )
        cost_cand = engine.simulate_strategy(
            "candidate", m, initial, s.inserts, None, seed=seed + idx
        )
        series["Immediate"].append(cost_imm.total_seconds())
        series["Full"].append(cost_full.total_seconds())
        series["Cand."].append(cost_cand.total_seconds())
    return SeriesResult(
        figure="fig8",
        title="Online cost and sample sizes",
        x_label="Sample Size",
        y_label="Online Cost (seconds)",
        x=[float(m) for m in xs],
        series=series,
        scale=s.name,
        notes="initial dataset grows with the sample when needed",
        log_log=False,
    )


def fig9(scale: "str | Scale" = "default", seed: int = 0) -> SeriesResult:
    """Total cost vs. sample size, refresh every base period (Fig. 9)."""
    s = resolve_scale(scale)
    xs = _sample_size_sweep(s)
    series = {"Immediate": [], "Full": [], "Cand.": []}
    for idx, m in enumerate(xs):
        initial = max(s.initial_dataset, m)
        for name, strategy in (
            ("Immediate", "immediate"),
            ("Full", "full"),
            ("Cand.", "candidate"),
        ):
            cost = engine.simulate_strategy(
                strategy, m, initial, s.inserts, s.refresh_period, seed=seed + idx
            )
            series[name].append(cost.total_seconds())
    return SeriesResult(
        figure="fig9",
        title="Total cost and sample sizes",
        x_label="Sample Size",
        y_label="Total Cost (seconds)",
        x=[float(m) for m in xs],
        series=series,
        scale=s.name,
        notes=f"refresh every {s.refresh_period} inserts",
        log_log=False,
    )


# ---------------------------------------------------------------------------
# Fig. 10 / Fig. 11 -- cost vs. refresh period
# ---------------------------------------------------------------------------


def _period_sweep(s: Scale) -> list[int]:
    """Periods spanning 1e-5 .. 1e-1 of the insert volume (1k..10M at paper scale)."""
    fractions = [1e-5, 1e-4, 1e-3, 1e-2, 1e-1]
    return sorted({max(1, int(round(f * s.inserts))) for f in fractions})


def fig10(scale: "str | Scale" = "default", seed: int = 0) -> SeriesResult:
    """Online cost vs. refresh period (Fig. 10)."""
    s = resolve_scale(scale)
    xs = _period_sweep(s)
    series = {"Immediate": [], "Full": [], "Cand.": []}
    for idx, period in enumerate(xs):
        for name, strategy in (
            ("Immediate", "immediate"),
            ("Full", "full"),
            ("Cand.", "candidate"),
        ):
            cost = engine.simulate_strategy(
                strategy, s.sample_size, s.initial_dataset, s.inserts, period,
                seed=seed + idx,
            )
            series[name].append(cost.online_seconds())
    return SeriesResult(
        figure="fig10",
        title="Online cost and refresh period",
        x_label="Refresh Period",
        y_label="Online Cost (seconds)",
        x=[float(p) for p in xs],
        series=series,
        scale=s.name,
        notes="log reuse costs one random I/O per refresh (Sec. 6.2)",
    )


def fig11(scale: "str | Scale" = "default", seed: int = 0) -> SeriesResult:
    """Total cost vs. refresh period (Fig. 11)."""
    s = resolve_scale(scale)
    xs = _period_sweep(s)
    series = {"Immediate": [], "Full": [], "Cand.": []}
    for idx, period in enumerate(xs):
        for name, strategy in (
            ("Immediate", "immediate"),
            ("Full", "full"),
            ("Cand.", "candidate"),
        ):
            cost = engine.simulate_strategy(
                strategy, s.sample_size, s.initial_dataset, s.inserts, period,
                seed=seed + idx,
            )
            series[name].append(cost.total_seconds())
    return SeriesResult(
        figure="fig11",
        title="Total cost and refresh period",
        x_label="Refresh Period",
        y_label="Total Cost (seconds)",
        x=[float(p) for p in xs],
        series=series,
        scale=s.name,
    )


# ---------------------------------------------------------------------------
# Fig. 12 / Fig. 13 -- memory and CPU of the refresh implementations
# ---------------------------------------------------------------------------


def _candidate_sweep(s: Scale) -> list[int]:
    fractions = [0.1, 0.25, 0.5, 1.0, 1.5, 2.0, 2.5]
    return sorted({max(1, int(round(f * s.sample_size))) for f in fractions})


def fig12(scale: "str | Scale" = "default", seed: int = 0) -> SeriesResult:
    """Memory consumption vs. number of candidates (Fig. 12).

    Array: ``4M`` bytes always.  Stack: 4 bytes per final candidate
    (``E(Psi)``).  Nomem: one PRNG state.  GF: its buffer must hold the
    deferred candidates as full elements (``E(Psi)`` of them survive
    buffer-internal replacement).
    """
    s = resolve_scale(scale)
    element = PAPER_DISK.element_size
    xs = _candidate_sweep(s)
    array_mb, stack_mb, nomem_mb, gf_mb = [], [], [], []
    for c in xs:
        psi = expected_displaced(s.sample_size, c)
        array_mb.append(s.sample_size * INDEX_BYTES / 1e6)
        stack_mb.append(psi * INDEX_BYTES / 1e6)
        nomem_mb.append(MT19937_STATE_BYTES / 1e6)
        gf_mb.append(psi * element / 1e6)
    return SeriesResult(
        figure="fig12",
        title="Memory consumption",
        x_label="Number of Candidates",
        y_label="Memory Consumption (MB)",
        x=[float(c) for c in xs],
        series={"Array": array_mb, "Stack": stack_mb, "Nomem": nomem_mb, "GF": gf_mb},
        scale=s.name,
        log_log=False,
    )


def fig13(scale: "str | Scale" = "default", seed: int = 0) -> SeriesResult:
    """CPU cost of the refresh precomputation phases (Fig. 13).

    Times the *actual implementations* (Python, so absolute values differ
    from the paper's Java numbers; the ordering is the claim).

    Nomem's series times Algorithm 3 as the paper states it: two full
    passes of ``M - 1`` gaps (:func:`span_of_gaps` twice).  A refresh's
    :func:`~repro.core.refresh.nomem.survivor_indexes` computes only
    ``2 min(M-1, |C|)`` gaps and jumps over the rest, which puts its
    small-``|C|`` points within noise of Stack's: timed that way, the
    Stack-below-Nomem ordering of
    ``tests/experiments/test_figures.py::TestFig13Cpu::test_orderings``
    failed in 3 of 29 runs over two sets, against 0 of 34 with the two
    full passes.
    """
    s = resolve_scale(scale)
    xs = _candidate_sweep(s)
    m = s.sample_size
    array_s, stack_s, nomem_s = [], [], []
    for idx, c in enumerate(xs):
        rng = RandomSource(seed=seed + idx)
        start = time.perf_counter()
        ArrayRefresh.final_candidates(ArrayRefresh.assign_slots(rng, m, c))
        array_s.append(time.perf_counter() - start)

        rng = RandomSource(seed=seed + idx)
        start = time.perf_counter()
        select_final_indexes(rng, m, c)
        stack_s.append(time.perf_counter() - start)

        rng = RandomSource(seed=seed + idx)
        start = time.perf_counter()
        span_of_gaps(rng, m)  # pass 1
        span_of_gaps(rng, m)  # pass 2 regenerates the same count of draws
        nomem_s.append(time.perf_counter() - start)
    return SeriesResult(
        figure="fig13",
        title="Computational cost",
        x_label="Number of Candidates",
        y_label="CPU Time (seconds)",
        x=[float(c) for c in xs],
        series={"Array": array_s, "Stack": stack_s, "Nomem": nomem_s},
        scale=s.name,
        log_log=False,
        notes="Python timings; paper timed Java -- compare ordering, not values",
    )


# ---------------------------------------------------------------------------
# Fig. 14 -- geometric file buffer fraction vs. total cost
# ---------------------------------------------------------------------------


def fig14(scale: "str | Scale" = "default", seed: int = 0) -> SeriesResult:
    """GF buffer size vs. total cost (Fig. 14).

    Refresh cadence for Full/Cand. equals the GF's flush cadence (every
    ``B`` candidates), and both are granted the same memory to pin a
    sample prefix (cost scaled by ``1 - f``, the paper's own accounting).
    """
    s = resolve_scale(scale)
    rng = numpy_generator(seed)
    positions = engine.candidate_positions(
        rng, s.sample_size, s.initial_dataset, s.inserts
    )
    total_candidates = int(positions.size)
    fractions = [0.005, 0.01, 0.02, 0.03, 0.04, 0.05, 0.06, 0.08]
    full_s, cand_s, gf_s = [], [], []
    # Segment floor calibrated to the paper's Fig. 14 crossovers (footnote 5
    # fixes the GF segment parameter beta); proportional across scales.
    min_segment = max(1, round(16_384 * s.sample_size / 1_000_000))
    for f in fractions:
        buffer_capacity = max(1, int(round(f * s.sample_size)))
        flushes = max(1, total_candidates // buffer_capacity)
        # Candidate counts per GF-cadence period: B each, remainder last.
        counts = np.full(flushes, buffer_capacity, dtype=np.int64)
        remainder = total_candidates - flushes * buffer_capacity
        if remainder > 0:
            counts = np.concatenate([counts, [remainder]])
        # Candidate strategy.
        cand_online = engine.log_online_cost(counts)
        cand_offline = engine.refresh_offline_cost(
            s.sample_size, counts, cached_fraction=f
        )
        cand_s.append((cand_online + cand_offline).cost_seconds())
        # Full strategy: periods in insert-space bounded by every B-th candidate.
        boundary_idx = np.arange(buffer_capacity, total_candidates, buffer_capacity)
        boundaries = np.concatenate(
            ([0], positions[boundary_idx - 1], [s.inserts])
        ).astype(np.int64)
        period_sizes = np.diff(boundaries)
        splits = np.searchsorted(positions, boundaries[1:-1], side="right")
        per_period = np.split(positions, splits)
        full_pos = [pos - boundaries[i] for i, pos in enumerate(per_period)]
        counts_full = np.array([p.size for p in full_pos], dtype=np.int64)
        full_online = engine.log_online_cost(period_sizes)
        full_offline = engine.refresh_offline_cost(
            s.sample_size, counts_full, cached_fraction=f,
            full_log_positions=full_pos,
        )
        full_s.append((full_online + full_offline).cost_seconds())
        # Geometric file.
        gf_stats, _ = engine.geometric_file_cost(
            s.sample_size, total_candidates, buffer_capacity,
            min_segment=min_segment,
        )
        gf_s.append(gf_stats.cost_seconds())
    return SeriesResult(
        figure="fig14",
        title="GF buffer size & total cost",
        x_label="Buffer Fraction",
        y_label="Total Cost (seconds)",
        x=fractions,
        series={"Full": full_s, "Cand.": cand_s, "GF": gf_s},
        scale=s.name,
        log_log=False,
    )


# ---------------------------------------------------------------------------
# Sec. 6.1 -- access-time calibration table
# ---------------------------------------------------------------------------


def access_times(scale: "str | Scale" = "default", seed: int = 0) -> SeriesResult:
    """The Sec. 6.1 access-time table, re-measured on this machine.

    Falls back to the paper's published values as the reference row; the
    measured row reflects the hardware the reproduction runs on.
    """
    import tempfile
    import os

    from repro.storage.real_disk import calibrate_disk

    s = resolve_scale(scale)
    blocks = {"smoke": 256, "default": 2048, "paper": 16384}.get(s.name, 2048)
    with tempfile.TemporaryDirectory() as tmp:
        result = calibrate_disk(os.path.join(tmp, "calibration.bin"), blocks)
    paper = PAPER_DISK
    return SeriesResult(
        figure="access-times",
        title="Per-block access times (ms)",
        x_label="measurement",
        y_label="milliseconds per block",
        x=[0.0, 1.0],
        series={
            "seq read": [paper.seq_read_ms, result.seq_read_ms],
            "seq write": [paper.seq_write_ms, result.seq_write_ms],
            "random read": [paper.random_read_ms, result.random_read_ms],
            "random write": [paper.random_write_ms, result.random_write_ms],
        },
        scale=s.name,
        log_log=False,
        notes="row 0 = paper's IDE disk; row 1 = this machine",
        extra={"calibration": result},
    )


FIGURES: dict[str, Callable[..., SeriesResult]] = {
    "fig6": fig6,
    "fig7": fig7,
    "fig8": fig8,
    "fig9": fig9,
    "fig10": fig10,
    "fig11": fig11,
    "fig12": fig12,
    "fig13": fig13,
    "fig14": fig14,
    "access-times": access_times,
}


def all_experiments() -> dict[str, Callable[..., SeriesResult]]:
    """Paper figures plus the extension experiments."""
    from repro.experiments.extra import EXTRAS

    combined = dict(FIGURES)
    combined.update(EXTRAS)
    return combined


def get_figure(name: str) -> Callable[..., SeriesResult]:
    experiments = all_experiments()
    try:
        return experiments[name]
    except KeyError:
        raise ValueError(
            f"unknown experiment {name!r}; available: {sorted(experiments)}"
        ) from None
