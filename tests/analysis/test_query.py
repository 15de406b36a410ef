"""Approximate query layer over samples."""

import pytest

from repro.analysis.query import Estimate, SampleQuery
from repro.core.reservoir import build_reservoir
from repro.rng.random_source import RandomSource

POPULATION = list(range(10_000))  # values 0..9999


@pytest.fixture(scope="module")
def sample():
    rows, _ = build_reservoir(POPULATION, 800, RandomSource(seed=1))
    return rows


@pytest.fixture
def query(sample):
    return SampleQuery(sample, dataset_size=len(POPULATION))


class TestConstruction:
    def test_validation(self, sample):
        with pytest.raises(ValueError):
            SampleQuery(sample, dataset_size=10)
        with pytest.raises(ValueError):
            SampleQuery(sample, dataset_size=len(POPULATION), confidence=1.5)
        with pytest.raises(ValueError):
            SampleQuery([], dataset_size=100)

    def test_with_confidence_widens_interval(self, sample):
        narrow = SampleQuery(sample, len(POPULATION), confidence=0.80).avg()
        wide = SampleQuery(sample, len(POPULATION), confidence=0.99).avg()
        assert wide.interval.half_width > narrow.interval.half_width


class TestCount:
    def test_unfiltered_count_is_population(self, query):
        estimate = query.count()
        assert estimate.value == len(POPULATION)
        assert estimate.high == len(POPULATION)
        # Wilson keeps a sliver of downward uncertainty at p = 1.
        assert estimate.low > 0.99 * len(POPULATION)

    def test_filtered_count_near_truth(self, query):
        estimate = query.where(lambda v: v < 2_500).count()
        assert estimate.low <= 2_500 <= estimate.high
        assert estimate.value == pytest.approx(2_500, rel=0.2)

    def test_empty_filter_count(self, query):
        estimate = query.where(lambda v: v < 0).count()
        assert estimate.value == 0
        assert estimate.high > 0  # Wilson: zero hits != zero possibility


class TestSum:
    def test_sum_scales_by_population(self):
        assert SampleQuery([1, 2, 3], dataset_size=300).sum().value == 600.0

    def test_unfiltered_sum(self, query):
        estimate = query.sum()
        truth = sum(POPULATION)
        assert estimate.value == pytest.approx(truth, rel=0.1)
        assert estimate.low <= truth <= estimate.high

    def test_filtered_sum_uses_domain_estimator(self, query):
        truth = sum(v for v in POPULATION if v >= 9_000)
        estimate = query.where(lambda v: v >= 9_000).sum()
        assert estimate.value == pytest.approx(truth, rel=0.35)
        assert estimate.low <= truth <= estimate.high

    def test_sum_interval_coverage(self):
        # 95% CIs over many independent samples cover the truth ~95%.
        truth = sum(v for v in POPULATION if v % 7 == 0)
        covered = 0
        trials = 200
        for seed in range(trials):
            rows, _ = build_reservoir(POPULATION, 500, RandomSource(seed=seed))
            est = (
                SampleQuery(rows, len(POPULATION))
                .where(lambda v: v % 7 == 0)
                .sum()
            )
            covered += est.low <= truth <= est.high
        assert covered > trials * 0.88


class TestAvgAndFraction:
    def test_avg_of_small_sample(self):
        assert SampleQuery([1, 2, 3, 4], dataset_size=100).avg().value == 2.5

    def test_avg(self, query):
        estimate = query.where(lambda v: v >= 5_000).avg()
        assert estimate.value == pytest.approx(7_500, rel=0.05)
        assert estimate.low <= 7_499.5 <= estimate.high

    def test_avg_requires_matches(self, query):
        with pytest.raises(ValueError):
            query.where(lambda v: v < 0).avg()

    def test_fraction(self, query):
        estimate = query.where(lambda v: v % 2 == 0).fraction()
        assert estimate.value == pytest.approx(0.5, abs=0.06)
        assert 0 <= estimate.low <= estimate.high <= 1

    def test_chained_filters(self, query):
        estimate = (
            query.where(lambda v: v >= 1_000)
            .where(lambda v: v < 2_000)
            .count()
        )
        assert estimate.value == pytest.approx(1_000, rel=0.35)


class TestEstimate:
    def test_relative_half_width(self):
        from repro.analysis.bounds import ConfidenceInterval

        estimate = Estimate(10.0, ConfidenceInterval(10.0, 8.0, 12.0, 0.95))
        assert estimate.relative_half_width == pytest.approx(0.2)
        assert estimate.low == 8.0 and estimate.high == 12.0
        zero = Estimate(0.0, ConfidenceInterval(0.0, 0.0, 0.0, 0.95))
        assert zero.relative_half_width == 0.0
