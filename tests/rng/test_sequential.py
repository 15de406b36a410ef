"""Sequential sampling: Methods S, A, D and the incremental sampler."""

import pytest
from scipy import stats

from repro.rng.random_source import RandomSource
from repro.rng.sequential import (
    SequentialSampler,
    selection_skips_a,
    selection_skips_d,
    selection_skips_s,
    sequential_sample,
)

METHODS = ("s", "a", "d")


class TestSequentialSample:
    @pytest.mark.parametrize("method", METHODS)
    def test_returns_sorted_distinct_in_range(self, method):
        rng = RandomSource(seed=1)
        for n, total in ((0, 10), (1, 1), (5, 100), (50, 60), (100, 100)):
            positions = sequential_sample(rng, n, total, method=method)
            assert len(positions) == n
            assert positions == sorted(set(positions))
            assert all(0 <= p < total for p in positions)

    @pytest.mark.parametrize("method", METHODS)
    def test_select_all_is_identity(self, method):
        rng = RandomSource(seed=2)
        assert sequential_sample(rng, 25, 25, method=method) == list(range(25))

    @pytest.mark.parametrize("method", METHODS)
    def test_inclusion_is_uniform(self, method):
        # Every position must be selected with probability n/total.
        rng = RandomSource(seed=3)
        n, total, trials = 10, 40, 6_000
        counts = [0] * total
        for _ in range(trials):
            for p in sequential_sample(rng, n, total, method=method):
                counts[p] += 1
        expected = trials * n / total
        chi2 = sum((c - expected) ** 2 / expected for c in counts)
        assert stats.chi2.sf(chi2, df=total - 1) > 1e-4, method

    def test_methods_agree_on_first_skip_distribution(self):
        n, total, trials = 5, 200, 8_000
        first = {}
        for method in METHODS:
            rng = RandomSource(seed=4)
            first[method] = sorted(
                sequential_sample(rng, n, total, method=method)[0]
                for _ in range(trials)
            )
        assert stats.ks_2samp(first["s"], first["a"]).pvalue > 1e-4
        assert stats.ks_2samp(first["s"], first["d"]).pvalue > 1e-4

    def test_rejects_unknown_method(self):
        with pytest.raises(ValueError):
            sequential_sample(RandomSource(seed=5), 1, 10, method="x")

    def test_rejects_invalid_counts(self):
        rng = RandomSource(seed=6)
        for gen in (selection_skips_s, selection_skips_a, selection_skips_d):
            with pytest.raises(ValueError):
                list(gen(rng, 5, 3))
            with pytest.raises(ValueError):
                list(gen(rng, -1, 3))


class TestMethodD:
    def test_dense_regime_delegates_to_a(self):
        # n close to total forces the Method-A branch.
        rng = RandomSource(seed=7)
        positions = sequential_sample(rng, 90, 100, method="d")
        assert len(positions) == 90

    def test_large_sparse_draw(self):
        rng = RandomSource(seed=8)
        positions = sequential_sample(rng, 100, 1_000_000, method="d")
        assert len(positions) == 100
        assert positions[-1] < 1_000_000

    def test_single_selection_uniform(self):
        rng = RandomSource(seed=9)
        trials = 20_000
        counts = [0] * 10
        for _ in range(trials):
            (p,) = sequential_sample(rng, 1, 10, method="d")
            counts[p] += 1
        expected = trials / 10
        chi2 = sum((c - expected) ** 2 / expected for c in counts)
        assert stats.chi2.sf(chi2, df=9) > 1e-4


class TestSequentialSampler:
    def test_selects_exactly_n(self):
        rng = RandomSource(seed=10)
        for n, total in ((0, 5), (3, 3), (7, 20), (100, 150)):
            sampler = SequentialSampler(rng, n=n, total=total)
            selected = len(list(sampler))
            assert selected == n

    def test_remaining_counts_down(self):
        rng = RandomSource(seed=11)
        sampler = SequentialSampler(rng, n=4, total=4)
        for position, expected_remaining in enumerate((4, 3, 2, 1)):
            assert sampler.remaining == expected_remaining
            assert next(sampler) == position
        assert sampler.remaining == 0

    def test_raises_past_last_record(self):
        rng = RandomSource(seed=12)
        sampler = SequentialSampler(rng, n=1, total=2)
        next(sampler)
        with pytest.raises(StopIteration):
            next(sampler)

    def test_rejects_invalid_arguments(self):
        rng = RandomSource(seed=13)
        with pytest.raises(ValueError):
            SequentialSampler(rng, n=5, total=4)
        with pytest.raises(ValueError):
            SequentialSampler(rng, n=-1, total=4)

    def test_matches_method_s_distribution(self):
        # The selected positions must follow q = k/(M-j+1) exactly.
        n, total, trials = 3, 12, 10_000
        counts = [0] * total
        rng = RandomSource(seed=14)
        for _ in range(trials):
            for position in SequentialSampler(rng, n=n, total=total):
                counts[position] += 1
        expected = trials * n / total
        chi2 = sum((c - expected) ** 2 / expected for c in counts)
        assert stats.chi2.sf(chi2, df=total - 1) > 1e-4
