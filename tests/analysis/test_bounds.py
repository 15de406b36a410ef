"""Confidence intervals for sample-based estimates."""

import math

import pytest
from scipy import stats

from repro.analysis.bounds import (
    ConfidenceInterval,
    fraction_confidence_interval,
    mean_confidence_interval,
)
from repro.analysis.bounds import _z_score
from repro.core.reservoir import build_reservoir
from repro.rng.random_source import RandomSource


class TestZScore:
    def test_matches_scipy(self):
        for confidence in (0.5, 0.8, 0.9, 0.95, 0.99, 0.999):
            ours = _z_score(confidence)
            theirs = stats.norm.ppf(0.5 + confidence / 2)
            assert ours == pytest.approx(theirs, abs=1e-8), confidence

    def test_validation(self):
        with pytest.raises(ValueError):
            _z_score(0.0)
        with pytest.raises(ValueError):
            _z_score(1.0)


class TestConfidenceInterval:
    def test_invariants(self):
        ci = ConfidenceInterval(5.0, 4.0, 6.0, 0.95)
        assert ci.half_width == 1.0
        assert ci.contains(4.5)
        assert not ci.contains(7.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            ConfidenceInterval(3.0, 4.0, 6.0, 0.95)
        with pytest.raises(ValueError):
            ConfidenceInterval(5.0, 4.0, 6.0, 1.5)


class TestMeanInterval:
    def test_width_shrinks_with_sample_size(self):
        rng = RandomSource(seed=1)
        small = [rng.random() for _ in range(50)]
        large = [rng.random() for _ in range(5000)]
        assert (
            mean_confidence_interval(large).half_width
            < mean_confidence_interval(small).half_width
        )

    def test_fpc_narrows_interval(self):
        sample = list(range(100))
        without = mean_confidence_interval(sample)
        with_fpc = mean_confidence_interval(sample, population_size=150)
        assert with_fpc.half_width < without.half_width

    def test_full_census_has_zero_width(self):
        sample = list(range(50))
        ci = mean_confidence_interval(sample, population_size=50)
        assert ci.half_width == pytest.approx(0.0)

    def test_coverage_on_reservoir_samples(self):
        # 95% CIs over many reservoir samples should cover the true mean
        # ~95% of the time.
        population = list(range(2000))
        truth = sum(population) / len(population)
        covered = 0
        trials = 400
        for seed in range(trials):
            sample, _ = build_reservoir(population, 100, RandomSource(seed=seed))
            ci = mean_confidence_interval(
                sample, confidence=0.95, population_size=len(population)
            )
            covered += ci.contains(truth)
        assert covered > trials * 0.90  # generous: CLT + discrete population

    def test_float_mean_is_the_loop_from_zero(self):
        # ``t = 0.0; t += v`` over negative zeros ends at +0.0, and a
        # left-to-right total is not pairwise: 1e16 + 1.0 rounds away.
        assert math.copysign(1.0, mean_confidence_interval([-0.0, -0.0]).estimate) == 1.0
        assert mean_confidence_interval([1e16] + [1.0] * 20 + [-1e16]).estimate == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            mean_confidence_interval([1.0])
        with pytest.raises(ValueError):
            mean_confidence_interval([1.0, 2.0], population_size=1)


class TestFractionInterval:
    def test_wilson_properties(self):
        ci = fraction_confidence_interval(5, 100)
        assert 0.0 <= ci.low < ci.estimate < ci.high <= 1.0
        assert ci.estimate == 0.05

    def test_zero_hits_still_gives_interval(self):
        ci = fraction_confidence_interval(0, 50)
        assert ci.low == 0.0
        assert ci.high > 0.0

    def test_all_hits(self):
        ci = fraction_confidence_interval(50, 50)
        assert ci.high == 1.0
        assert ci.low < 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            fraction_confidence_interval(5, 0)
        with pytest.raises(ValueError):
            fraction_confidence_interval(11, 10)
