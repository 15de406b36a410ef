"""Reservoir sampling: filling, acceptance, skip equivalence, uniformity.

One arrival is a batch of one: ``offer_many(1)`` and ``test_many(1)``.
"""

import pytest
from scipy import stats

from repro.core.reservoir import ReservoirSampler, build_reservoir
from repro.rng.random_source import RandomSource
from tests.properties import kind_oracle


def offer(sampler):
    """One arrival's full reservoir step: its slot, or None."""
    _, placed = sampler.offer_many(1)
    return placed[0][1] if placed else None


def accepts(sampler):
    """One arrival's acceptance test: True if it became a candidate."""
    return sampler.test_many(1)[1] == [0]


class TestFilling:
    def test_first_m_elements_fill_in_order(self):
        sampler = ReservoirSampler(5, RandomSource(seed=1))
        slots = [offer(sampler) for _ in range(5)]
        assert slots == [0, 1, 2, 3, 4]
        assert sampler.seen == 5
        accepts(sampler)  # full: candidate tests may start

    def test_initial_size_skips_filling(self):
        sampler = ReservoirSampler(5, RandomSource(seed=2), initial_size=100)
        assert sampler.seen == 100
        accepts(sampler)  # full: candidate tests may start

    def test_partial_initial_size_rejected(self):
        with pytest.raises(ValueError):
            ReservoirSampler(10, RandomSource(seed=3), initial_size=5)

    def test_invalid_arguments(self):
        rng = RandomSource(seed=4)
        with pytest.raises(ValueError):
            ReservoirSampler(0, rng)
        with pytest.raises(ValueError):
            ReservoirSampler(5, rng, initial_size=-1)
        sampler = ReservoirSampler(5, rng, initial_size=5)
        with pytest.raises(ValueError):
            sampler.test_many(-1)
        with pytest.raises(ValueError):
            sampler.offer_many(1, max_accepts=0)


class TestAcceptance:
    def test_acceptance_rate_matches_m_over_t(self):
        # After t elements, P(accept element t+1) = M/(t+1).
        m, t0, trials = 10, 100, 40_000
        rng = RandomSource(seed=5)
        accepted = 0
        for _ in range(trials):
            sampler = ReservoirSampler(m, rng, initial_size=t0)
            if offer(sampler) is not None:
                accepted += 1
        expected = trials * m / (t0 + 1)
        assert abs(accepted - expected) < 5 * expected**0.5

    def test_skip_methods_agree_with_algorithm_r(self):
        # Candidate counts over a window must be distribution-identical
        # between per-element Bernoulli (the oracle's literal Algorithm R)
        # and the sampler's skip walk, one arrival at a time or batched.
        m, t0, inserts, trials = 8, 50, 400, 400
        rng = RandomSource(seed=6)
        counts = {
            "r": [len(kind_oracle.algorithm_r(m, t0, inserts, rng)) for _ in range(trials)]
        }
        for chunk in (1, inserts):
            per_trial = []
            for _ in range(trials):
                sampler = ReservoirSampler(m, rng, initial_size=t0)
                per_trial.append(
                    sum(len(sampler.test_many(chunk)[1]) for _ in range(inserts // chunk))
                )
            counts[chunk] = per_trial
        assert stats.ks_2samp(counts["r"], counts[1]).pvalue > 1e-4
        assert stats.ks_2samp(counts["r"], counts[inserts]).pvalue > 1e-4

    def test_slot_choice_is_uniform(self):
        m, trials = 10, 30_000
        rng = RandomSource(seed=7)
        counts = [0] * m
        for _ in range(trials):
            # A fresh sampler per trial keeps the acceptance rate at 10/11.
            slot = offer(ReservoirSampler(m, rng, initial_size=10))
            if slot is not None:
                counts[slot] += 1
        total = sum(counts)
        expected = total / m
        chi2 = sum((c - expected) ** 2 / expected for c in counts)
        assert stats.chi2.sf(chi2, df=m - 1) > 1e-4

    def test_test_requires_complete_sample(self):
        sampler = ReservoirSampler(5, RandomSource(seed=8))
        with pytest.raises(RuntimeError):
            accepts(sampler)

    def test_test_advances_seen(self):
        sampler = ReservoirSampler(5, RandomSource(seed=9), initial_size=5)
        for _ in range(10):
            accepts(sampler)
        assert sampler.seen == 15


class TestBuildReservoir:
    def test_small_dataset_keeps_everything(self):
        sample, seen = build_reservoir(range(5), 10, RandomSource(seed=10))
        assert sorted(sample) == [0, 1, 2, 3, 4]
        assert seen == 5

    def test_sample_has_exact_size(self):
        sample, seen = build_reservoir(range(1000), 50, RandomSource(seed=11))
        assert len(sample) == 50
        assert len(set(sample)) == 50
        assert seen == 1000
        assert all(0 <= v < 1000 for v in sample)

    def test_inclusion_is_uniform(self):
        # Each of N elements included with probability M/N.
        m, n, trials = 8, 64, 4_000
        counts = [0] * n
        for t in range(trials):
            sample, _ = build_reservoir(range(n), m, RandomSource(seed=1000 + t))
            for v in sample:
                counts[v] += 1
        expected = trials * m / n
        chi2 = sum((c - expected) ** 2 / expected for c in counts)
        assert stats.chi2.sf(chi2, df=n - 1) > 1e-4


class TestPendingAccept:
    def test_roundtrip_for_recovery(self):
        sampler = ReservoirSampler(10, RandomSource(seed=20), initial_size=100)
        for _ in range(5):
            accepts(sampler)
        pending = sampler.pending_accept
        clone = ReservoirSampler(10, RandomSource(seed=21), initial_size=100)
        clone._seen = sampler.seen
        clone.pending_accept = pending
        assert clone.pending_accept == pending

    def test_setter_rejects_past_positions(self):
        sampler = ReservoirSampler(10, RandomSource(seed=22), initial_size=100)
        with pytest.raises(ValueError):
            sampler.pending_accept = 50
        sampler.pending_accept = None  # clearing is always fine
