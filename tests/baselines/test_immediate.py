"""Immediate maintenance baseline: ``SampleMaintainer(strategy="immediate")``."""

import pytest
from scipy import stats

from repro.core.maintenance import SampleMaintainer
from repro.core.refresh.math import expected_candidates_exact
from repro.rng.random_source import RandomSource
from repro.storage.block_device import SimulatedBlockDevice
from repro.storage.cost_model import CostModel
from repro.storage.files import SampleFile
from repro.storage.records import IntRecordCodec
from tests.conftest import make_sample


def make(sample_size=50, initial=200, seed=1):
    rng = RandomSource(seed=seed)
    cost = CostModel()
    sample, seen = make_sample(cost, sample_size, initial, rng)
    maintainer = SampleMaintainer(
        sample, rng, strategy="immediate", initial_dataset_size=seen
    )
    return maintainer, sample, cost


class TestImmediateMaintainer:
    def test_acceptance_count_matches_reservoir_law(self):
        maintainer, _, _ = make()
        maintainer.insert_many(range(200, 1200))
        expected = expected_candidates_exact(50, 200, 1000)
        assert abs(maintainer.stats.candidates_logged - expected) < 5 * expected**0.5

    def test_sample_stays_consistent(self):
        maintainer, sample, _ = make()
        maintainer.insert_many(range(200, 2200))
        values = sample.peek_all()
        assert len(set(values)) == 50
        assert all(0 <= v < 2200 for v in values)

    def test_every_acceptance_is_a_random_write(self):
        maintainer, _, cost = make(sample_size=128 * 4, initial=1000)
        mark = cost.checkpoint()
        maintainer.insert_many(range(1000, 3000))
        delta = cost.since(mark)
        assert delta.seq_writes == 0
        assert delta.random_reads == 0
        # coalescing can only reduce the count
        assert 0 < delta.random_writes <= maintainer.stats.candidates_logged

    def test_dataset_size_tracks(self):
        maintainer, _, _ = make()
        maintainer.insert_many(range(200, 300))
        assert maintainer.dataset_size == 300

    def test_requires_existing_sample(self):
        rng = RandomSource(seed=2)
        cost = CostModel()
        sample = SampleFile(
            SimulatedBlockDevice(cost, "s"), IntRecordCodec(), 10
        )
        with pytest.raises(ValueError):
            SampleMaintainer(
                sample, rng, strategy="immediate", initial_dataset_size=5
            )

    def test_inclusion_uniform(self):
        m, r0, inserts, trials = 10, 20, 80, 2000
        universe = r0 + inserts
        counts = [0] * universe
        for seed in range(trials):
            maintainer, sample, _ = make(sample_size=m, initial=r0, seed=seed)
            maintainer.insert_many(range(r0, universe))
            for value in sample.peek_all():
                counts[value] += 1
        expected = trials * m / universe
        chi2 = sum((c - expected) ** 2 / expected for c in counts)
        assert stats.chi2.sf(chi2, df=universe - 1) > 1e-4
