"""Point estimates of mean, sum and fraction through SampleQuery."""

import pytest

from repro.analysis.query import SampleQuery
from repro.core.reservoir import build_reservoir
from repro.rng.random_source import RandomSource


class TestMeanAndSum:
    def test_sum_rejects_small_population(self):
        with pytest.raises(ValueError):
            SampleQuery([1, 2, 3], dataset_size=2).sum()

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            SampleQuery([], dataset_size=10).avg()

    def test_mean_estimate_converges_on_uniform_sample(self):
        # Draw a reservoir sample from 0..9999 and estimate the mean.
        population = range(10_000)
        sample, _ = build_reservoir(population, 500, RandomSource(seed=1))
        estimate = SampleQuery(sample, dataset_size=len(population)).avg()
        assert estimate.value == pytest.approx(4999.5, rel=0.08)


class TestFractionAndQuantile:
    def test_fraction(self):
        query = SampleQuery([1, 2, 3, 4], dataset_size=4)
        assert query.where(lambda v: v % 2 == 0).fraction().value == 0.5
