"""Maintaining many samples at once.

The paper motivates disk-based samples partly by fleet effects: "the
overall memory consumption increases with the number of samples maintained
in-memory" (Sec. 1), and rejects the geometric file partly because "each
maintained sample requires its own buffer, the GF does not scale well with
the number of samples" (Sec. 2).  A system typically keeps one sample per
table, per group, or per materialized view -- so the *aggregate* refresh
memory across samples is what matters, and it is where Nomem Refresh's
zero-memory property pays off.

:class:`MultiSampleManager` coordinates many maintainers over one shared
cost model: broadcast or routed insertion, collective refresh, and
aggregate memory/I-O reporting.  The ``bench_ablation_many_samples``
benchmark uses it to show aggregate refresh memory growing linearly with
the fleet for Array Refresh and staying flat for Nomem.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.maintenance import SampleMaintainer
from repro.core.refresh.base import RefreshResult
from repro.storage.cost_model import AccessStats, CostModel
from repro.storage.memory import MemoryReport

__all__ = ["MultiSampleManager", "FleetReport"]


@dataclass
class FleetReport:
    """Aggregate view over one collective refresh."""

    results: dict[str, RefreshResult] = field(default_factory=dict)

    @property
    def total_displaced(self) -> int:
        return sum(r.displaced for r in self.results.values())

    @property
    def total_candidates(self) -> int:
        return sum(r.candidates for r in self.results.values())

    @property
    def peak_refresh_memory_bytes(self) -> int:
        """Sum of per-sample refresh memory peaks.

        Collective refreshes run one after another, so a scheduler could
        get away with the *max* instead; the sum is the honest number for
        systems refreshing samples concurrently (and matches the paper's
        "each sample requires its own buffer" framing for the GF).
        """
        return sum(r.memory.peak_bytes for r in self.results.values())

    def memory_by_sample(self) -> dict[str, MemoryReport]:
        return {name: r.memory for name, r in self.results.items()}


class MultiSampleManager:
    """A fleet of maintainers over one shared cost model.

    Samples are registered under unique names.  ``insert`` broadcasts to
    every sample by default; pass ``only=`` to route (e.g. per-group
    samples where each element belongs to one group).
    """

    def __init__(self, cost_model: CostModel | None = None) -> None:
        self._cost_model = cost_model if cost_model is not None else CostModel()
        self._maintainers: dict[str, SampleMaintainer] = {}

    @property
    def cost_model(self) -> CostModel:
        return self._cost_model

    def __len__(self) -> int:
        return len(self._maintainers)

    def __contains__(self, name: str) -> bool:
        return name in self._maintainers

    def names(self) -> list[str]:
        return list(self._maintainers)

    def add(self, name: str, maintainer: SampleMaintainer) -> None:
        """Register a maintainer under a unique name."""
        if name in self._maintainers:
            raise ValueError(f"sample {name!r} already registered")
        self._maintainers[name] = maintainer

    def get(self, name: str) -> SampleMaintainer:
        try:
            return self._maintainers[name]
        except KeyError:
            raise KeyError(f"no sample named {name!r}") from None

    def insert(self, element, only: "str | list[str] | None" = None) -> None:
        """Feed one element to all (or the named) samples."""
        for maintainer in self._targets(only):
            maintainer.insert(element)

    def insert_many(self, elements, only: "str | list[str] | None" = None) -> None:
        """Feed a batch to all (or the named) samples via the batch path.

        Delegates the whole batch to each maintainer's skip-based
        :meth:`~repro.core.maintenance.SampleMaintainer.insert_many`, so a
        fleet ingest pays O(accepted) Python-level work per sample instead
        of O(batch x fleet).  Processing maintainer-major instead of
        element-major changes nothing observable: every maintainer owns
        its PRNG and its devices, so it sees the same elements in the same
        order and makes bit-identical decisions, and the shared cost model
        only accumulates (order-independent) counters.
        """
        targets = self._targets(only)
        if len(targets) > 1 and not isinstance(elements, (list, tuple, range)):
            # One-shot iterables must be materialised before the fan-out.
            elements = list(elements)
        for maintainer in targets:
            maintainer.insert_many(elements)

    def refresh_all(self) -> FleetReport:
        """Refresh every sample; returns the aggregate report."""
        report = FleetReport()
        for name, maintainer in self._maintainers.items():
            result = maintainer.refresh()
            if result is not None:
                report.results[name] = result
        return report

    def pending_log_elements(self) -> dict[str, int]:
        return {
            name: maintainer.pending_log_elements
            for name, maintainer in self._maintainers.items()
        }

    def online_stats(self) -> AccessStats:
        """Aggregate online I/O across the fleet."""
        total = AccessStats()
        for maintainer in self._maintainers.values():
            total.add(maintainer.stats.online)
        return total

    def offline_stats(self) -> AccessStats:
        total = AccessStats()
        for maintainer in self._maintainers.values():
            total.add(maintainer.stats.offline)
        return total

    def _targets(self, only: "str | list[str] | None") -> list[SampleMaintainer]:
        if only is None:
            return list(self._maintainers.values())
        names = [only] if isinstance(only, str) else list(only)
        return [self.get(name) for name in names]
