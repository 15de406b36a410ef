"""Selection sampling (Method S): the write phase's sequential sampler."""

import itertools
import math

import pytest
from scipy import stats

from repro.rng.random_source import RandomSource
from repro.rng.sequential import SequentialSampler


# Method S serves every regime: "s" mixed sizes, "a" dense (n close to
# total, where Method A used to take over) and "d" sparse (n far below
# total, Method D's regime).
REGIMES = {
    "s": ((0, 10), (1, 1), (5, 100), (50, 60), (100, 100)),
    "a": ((9, 10), (90, 100), (199, 200)),
    "d": ((1, 1_000), (3, 10_000), (20, 50_000)),
}
# Select-all totals per regime; at q = 1 no uniform may be drawn.
SELECT_ALL = {"s": 25, "a": 1, "d": 10_000}


class TestSequentialSample:
    @pytest.mark.parametrize("regime", REGIMES)
    def test_returns_sorted_distinct_in_range(self, regime):
        rng = RandomSource(seed=1)
        for n, total in REGIMES[regime]:
            positions = list(SequentialSampler(rng, n=n, total=total))
            assert len(positions) == n
            assert positions == sorted(set(positions))
            assert all(0 <= p < total for p in positions)

    @pytest.mark.parametrize("regime", SELECT_ALL)
    def test_select_all_is_identity(self, regime):
        total = SELECT_ALL[regime]
        rng = RandomSource(seed=2)
        assert list(SequentialSampler(rng, n=total, total=total)) == list(range(total))
        assert rng.random() == RandomSource(seed=2).random()


class TestSequentialSampler:
    def test_selects_exactly_n(self):
        rng = RandomSource(seed=10)
        for n, total in ((0, 5), (3, 3), (7, 20), (100, 150)):
            sampler = SequentialSampler(rng, n=n, total=total)
            selected = len(list(sampler))
            assert selected == n

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


class TestSelectionLaw:
    """Oracles from combinatorics alone: a uniform ``n``-subset of
    ``range(total)``, whatever order the sampler scans in."""

    def test_every_subset_is_equally_likely(self):
        n, total, trials = 2, 6, 6_000
        subsets = list(itertools.combinations(range(total), n))
        counts = dict.fromkeys(subsets, 0)
        rng = RandomSource(seed=15)
        for _ in range(trials):
            counts[tuple(SequentialSampler(rng, n=n, total=total))] += 1
        expected = trials / len(subsets)
        chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
        assert stats.chi2.sf(chi2, df=len(subsets) - 1) > 1e-4

    def test_first_position_follows_exact_law(self):
        # P(first = j) = C(total-1-j, n-1) / C(total, n): the other n-1
        # selections all lie past j.
        n, total, trials = 3, 12, 10_000
        law = [math.comb(total - 1 - j, n - 1) / math.comb(total, n) for j in range(total)]
        assert math.isclose(sum(law), 1.0)
        counts = [0] * total
        rng = RandomSource(seed=16)
        for _ in range(trials):
            counts[next(SequentialSampler(rng, n=n, total=total))] += 1
        support = total - n + 1
        assert not any(counts[support:])
        expected = [trials * p for p in law[:support]]
        chi2 = sum((c - e) ** 2 / e for c, e in zip(counts, expected))
        assert stats.chi2.sf(chi2, df=support - 1) > 1e-4
