"""Immediate (eager) reservoir maintenance of the disk sample.

The baseline every figure compares against: each accepted insertion is
written to a uniformly random sample slot at once, paying one random block
write per candidate.  It is a thin, self-contained convenience over
``SampleMaintainer(strategy="immediate")`` so experiments can treat all
baselines uniformly.
"""

from __future__ import annotations

from repro.core.reservoir import ReservoirSampler
from repro.obs.api import Instrumentation
from repro.rng.random_source import RandomSource
from repro.storage.files import SampleFile

__all__ = ["ImmediateMaintainer"]


class ImmediateMaintainer:
    """Keeps the on-disk sample exactly up to date, one insert at a time."""

    name = "immediate"

    def __init__(
        self,
        sample: SampleFile,
        rng: RandomSource,
        initial_dataset_size: int,
        instrumentation: Instrumentation | None = None,
    ) -> None:
        if initial_dataset_size < sample.size:
            raise ValueError(
                "immediate maintenance needs an existing full sample: dataset "
                f"size {initial_dataset_size} < sample size {sample.size}"
            )
        self._sample = sample
        self._reservoir = ReservoirSampler(
            sample.size, rng, initial_size=initial_dataset_size
        )
        self.accepted = 0
        self._instr = instrumentation
        if instrumentation is not None:
            labels = {"strategy": self.name}
            self._c_inserts = instrumentation.counter("maintenance.inserts", labels)
            self._c_accepted = instrumentation.counter("maintenance.accepted", labels)
            self._c_rejected = instrumentation.counter("maintenance.rejected", labels)

    @property
    def sample(self) -> SampleFile:
        return self._sample

    @property
    def dataset_size(self) -> int:
        return self._reservoir.seen

    def insert(self, element) -> bool:
        """Process one insertion; True if it entered the sample."""
        slot = self._reservoir.offer(element)
        if slot is None:
            if self._instr is not None:
                self._c_inserts.inc()
                self._c_rejected.inc()
            return False
        self._sample.write_random(slot, element)
        self.accepted += 1
        if self._instr is not None:
            self._c_inserts.inc()
            self._c_accepted.inc()
        return True

    def insert_many(self, elements) -> None:
        for element in elements:
            self.insert(element)
