"""Helpers shared by the refresh-algorithm tests."""

from __future__ import annotations

import pytest

from repro.core.kinds import UniformKind
from repro.core.logs import CandidateLogSource
from repro.rng.random_source import RandomSource
from repro.storage.block_device import SimulatedBlockDevice
from repro.storage.cost_model import CostModel
from repro.storage.files import LogFile, SampleFile
from repro.storage.records import IntRecordCodec


class RefreshHarness:
    """A prepared sample + candidate log, ready for one refresh call."""

    def __init__(self, sample_size: int, candidates: int, seed: int = 1) -> None:
        self.cost = CostModel()
        codec = IntRecordCodec()
        self.sample = SampleFile(
            SimulatedBlockDevice(self.cost, "sample"), codec, sample_size
        )
        # Sample holds 0..M-1; candidates are numbered from max(1000, M)
        # up, so provenance of every final element is unambiguous.
        self.sample.initialize(list(range(sample_size)))
        self.first_candidate = max(1000, sample_size)
        self.log = LogFile(SimulatedBlockDevice(self.cost, "log"), codec)
        self.log.append_many(
            range(self.first_candidate, self.first_candidate + candidates)
        )
        self.source = CandidateLogSource(self.log)
        self.rng = RandomSource(seed=seed)
        self.sample_size = sample_size
        self.candidates = candidates

    def run(self, algorithm):
        mark = self.cost.checkpoint()
        result = algorithm.refresh(
            self.sample, self.source, self.rng, UniformKind(self.sample_size)
        )
        self.refresh_stats = self.cost.since(mark)
        return result

    def final_sample(self) -> list[int]:
        return self.sample.peek_all()

    def check_sample_integrity(self, result) -> None:
        """Post-refresh invariants common to every algorithm."""
        values = self.final_sample()
        assert len(values) == self.sample_size
        first = self.first_candidate
        originals = [v for v in values if v < first]
        candidates = [v for v in values if v >= first]
        # Displaced count matches what the algorithm reported.
        assert len(candidates) == result.displaced
        # No element duplicated: stable originals and final candidates are
        # distinct individuals.
        assert len(set(values)) == len(values)
        # Every candidate value really was in the log.
        assert all(first <= v < first + self.candidates for v in candidates)
        assert all(0 <= v < self.sample_size for v in originals)


@pytest.fixture
def harness_factory():
    return RefreshHarness
