"""Engine-vs-reference validation harness.

The figures are produced by the vectorised engine
(:mod:`repro.experiments.engine`); their credibility rests on the engine
counting the *same* block accesses as the per-element reference
implementation (:mod:`repro.core`).  This module runs both at identical
parameters and reports the agreement -- usable as a library call, from
the CLI (``python -m repro.cli validate``), and by the integration tests.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.maintenance import SampleMaintainer
from repro.core.policies import PeriodicPolicy
from repro.core.refresh.stack import StackRefresh
from repro.core.reservoir import build_reservoir
from repro.experiments import engine
from repro.rng.random_source import RandomSource
from repro.storage.block_device import SimulatedBlockDevice
from repro.storage.cost_model import CostModel
from repro.storage.files import LogFile, SampleFile
from repro.storage.records import IntRecordCodec

__all__ = ["StrategyAgreement", "ValidationReport", "validate_engine"]


@dataclass(frozen=True)
class StrategyAgreement:
    """Mean costs of one strategy under both implementations."""

    strategy: str
    reference_online: float
    reference_offline: float
    engine_online: float
    engine_offline: float
    trials: int

    @property
    def reference_total(self) -> float:
        return self.reference_online + self.reference_offline

    @property
    def engine_total(self) -> float:
        return self.engine_online + self.engine_offline

    @property
    def relative_error(self) -> float:
        """|engine - reference| / reference on the total cost."""
        if self.reference_total == 0:
            return 0.0 if self.engine_total == 0 else float("inf")
        return abs(self.engine_total - self.reference_total) / self.reference_total


@dataclass(frozen=True)
class ValidationReport:
    """Agreement across all strategies at one parameter point."""

    sample_size: int
    initial_dataset: int
    inserts: int
    refresh_period: int
    agreements: tuple[StrategyAgreement, ...]

    @property
    def worst_relative_error(self) -> float:
        return max(a.relative_error for a in self.agreements)

    def passed(self, tolerance: float = 0.10) -> bool:
        return self.worst_relative_error <= tolerance

    def summary(self) -> str:
        lines = [
            f"engine validation: M={self.sample_size}, |R0|={self.initial_dataset}, "
            f"{self.inserts} inserts, period {self.refresh_period}",
            f"  {'strategy':<10} | {'ref total s':>11} | {'engine total s':>14} "
            f"| {'rel err':>8}",
        ]
        for a in self.agreements:
            lines.append(
                f"  {a.strategy:<10} | {a.reference_total:>11.4f} "
                f"| {a.engine_total:>14.4f} | {a.relative_error:>7.2%}"
            )
        lines.append(
            f"  worst relative error: {self.worst_relative_error:.2%}"
        )
        return "\n".join(lines)


def _reference_run(
    strategy: str,
    sample_size: int,
    initial_dataset: int,
    inserts: int,
    refresh_period: int,
    seed: int,
) -> tuple[float, float]:
    rng = RandomSource(seed=seed)
    cost = CostModel()
    codec = IntRecordCodec()
    sample = SampleFile(SimulatedBlockDevice(cost, "sample"), codec, sample_size)
    initial, seen = build_reservoir(range(initial_dataset), sample_size, rng)
    sample.initialize(initial)
    maintainer = SampleMaintainer(
        sample, rng, strategy=strategy, initial_dataset_size=seen,
        log=LogFile(SimulatedBlockDevice(cost, "log"), codec),
        algorithm=StackRefresh(), policy=PeriodicPolicy(refresh_period),
        cost_model=cost,
    )
    maintainer.insert_many(range(initial_dataset, initial_dataset + inserts))
    return (
        maintainer.stats.online.cost_seconds(),
        maintainer.stats.offline.cost_seconds(),
    )


def validate_engine(
    sample_size: int = 256,
    initial_dataset: int = 512,
    inserts: int = 8192,
    refresh_period: int = 1024,
    trials: int = 20,
    seed: int = 0,
) -> ValidationReport:
    """Run reference and engine at identical parameters; report agreement.

    Costs are averaged over ``trials`` independent seeds per
    implementation (both are stochastic realisations of the same model).
    The reference runs use the skip-based batch insert path.
    """
    agreements = []
    for strategy in ("immediate", "candidate", "full"):
        ref_online = ref_offline = 0.0
        for t in range(trials):
            online, offline = _reference_run(
                strategy, sample_size, initial_dataset, inserts,
                refresh_period, seed=seed + 1000 + t,
            )
            ref_online += online
            ref_offline += offline
        eng_online = eng_offline = 0.0
        for t in range(trials):
            cost = engine.simulate_strategy(
                strategy, sample_size, initial_dataset, inserts,
                refresh_period, seed=seed + t,
            )
            eng_online += cost.online_seconds()
            eng_offline += cost.offline_seconds()
        agreements.append(
            StrategyAgreement(
                strategy=strategy,
                reference_online=ref_online / trials,
                reference_offline=ref_offline / trials,
                engine_online=eng_online / trials,
                engine_offline=eng_offline / trials,
                trials=trials,
            )
        )
    return ValidationReport(
        sample_size=sample_size,
        initial_dataset=initial_dataset,
        inserts=inserts,
        refresh_period=refresh_period,
        agreements=tuple(agreements),
    )
