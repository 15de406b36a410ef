"""Variate generators: geometric and Vitter reservoir skips."""

import math

import numpy as np
import pytest
from scipy import stats

from repro.rng.distributions import (
    ALGORITHM_Z_THRESHOLD,
    geometric_variate,
    geometric_variates,
    reservoir_skip,
    reservoir_skip_x,
    reservoir_skip_z,
)
from repro.rng.random_source import RandomSource


class TestGeometric:
    def test_mean_matches_theory(self):
        # E[X] = (1-p)/p for failures-before-success.
        rng = RandomSource(seed=1)
        for p in (0.1, 0.25, 0.5, 0.9):
            values = [geometric_variate(rng, p) for _ in range(20_000)]
            expected = (1 - p) / p
            sd = math.sqrt((1 - p) / (p * p))
            mean = sum(values) / len(values)
            assert abs(mean - expected) < 5 * sd / math.sqrt(len(values)), p

    def test_distribution_matches_theory(self):
        rng = RandomSource(seed=2)
        p = 0.3
        n = 30_000
        values = [geometric_variate(rng, p) for _ in range(n)]
        # chi-square against P(X = x) = (1-p)^x p, tail pooled.
        max_cell = 12
        observed = [0] * (max_cell + 1)
        for v in values:
            observed[min(v, max_cell)] += 1
        expected = [n * ((1 - p) ** x) * p for x in range(max_cell)]
        expected.append(n * (1 - p) ** max_cell)  # tail mass
        chi2 = sum((o - e) ** 2 / e for o, e in zip(observed, expected))
        assert stats.chi2.sf(chi2, df=max_cell) > 1e-4

    def test_probability_one_returns_zero(self):
        rng = RandomSource(seed=3)
        assert all(geometric_variate(rng, 1.0) == 0 for _ in range(10))

    def test_rejects_invalid_probability(self):
        rng = RandomSource(seed=4)
        for p in (0.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                geometric_variate(rng, p)

    def test_consumes_exactly_one_uniform(self):
        # Nomem Refresh replays the uniform stream; the variate must be a
        # deterministic function of exactly one draw.
        rng_a = RandomSource(seed=5)
        rng_b = RandomSource(seed=5)
        for _ in range(100):
            geometric_variate(rng_a, 0.4)
            rng_b.random()
        assert rng_a.random() == rng_b.random()


def _skip_acceptance_reference(rng: RandomSource, n: int, t: int) -> int:
    """Direct per-element Bernoulli simulation of the skip distribution."""
    skip = 0
    position = t
    while True:
        position += 1
        if rng.random() * position < n:
            return skip
        skip += 1


def boundary_window(m, k, width=4):
    """Uniforms a few ULPs either side of the inverse-CDF boundaries
    ``1 - u = (1 - p_k)^j`` of ``p_k = (M - k)/M``, where the quotient
    ``ln(1-u) / ln(1-p_k)`` lies within a hair of the integer ``j``."""
    p = (m - k) / m
    js = [j for j in range(1, 200) if j * -math.log1p(-p) <= 12][:25]
    u0 = np.array([-math.expm1(j * math.log1p(-p)) for j in js])
    # Step by the coarser of the ULPs of u and 1 - u, so that 1 - u moves.
    step = np.maximum(np.spacing(u0), np.spacing(1.0 - u0))
    u = (u0[:, None] + np.arange(-width, width + 1) * step[:, None]).ravel()
    return u[(u >= 0) & (u < 1)], js


class TestGeometricVariates:
    """The window helper against the scalar inverse CDF with libm logs."""

    @staticmethod
    def libm_loop(uniforms, numerators, size):
        return [
            int(math.log(1.0 - u) / math.log1p(-(n / size)))
            for u, n in zip(uniforms.tolist(), numerators.tolist())
        ]

    def test_matches_libm_on_random_windows(self):
        rng = RandomSource(seed=6)
        for m in (7, 100, 2048):
            free = np.arange(1, m)
            u = np.array([rng.random() for _ in free])
            assert geometric_variates(u, free, m).tolist() == self.libm_loop(u, free, m)

    @pytest.mark.parametrize("m", [7, 100, 1024, 2048, 4096])
    def test_matches_libm_at_integer_boundaries(self, m):
        # Random windows almost never land near an integer quotient, where
        # numpy's last-bit log differences can move the floor; these do.
        # On numpy builds whose logs differ from libm (x86-64 SIMD), some
        # of these floors differ unless the helper recomputes them.
        for k in sorted(set(np.linspace(1, m - 1, 25).astype(int).tolist())):
            u, js = boundary_window(m, k)
            free = np.full(len(u), m - k)
            expected = self.libm_loop(u, free, m)
            # The sweep straddles each boundary: both j - 1 and j occur.
            assert {j - 1 for j in js} | set(js) <= set(expected)
            assert geometric_variates(u, free, m).tolist() == expected, (m, k)

    def test_zero_uniform_and_extreme_probabilities(self):
        u = np.array([0.0, 0.0, 0.5, 0.999, 1 - 2**-53])
        free = np.array([1, 4095, 4095, 1, 1])
        expected = self.libm_loop(u, free, 4096)
        assert geometric_variates(u, free, 4096).tolist() == expected


class TestAlgorithmX:
    def test_matches_bernoulli_reference_distribution(self):
        n, t, trials = 8, 200, 12_000
        rng = RandomSource(seed=6)
        ours = sorted(reservoir_skip_x(rng, n, t) for _ in range(trials))
        ref = sorted(_skip_acceptance_reference(rng, n, t) for _ in range(trials))
        ks = stats.ks_2samp(ours, ref)
        assert ks.pvalue > 1e-4

    def test_first_skip_probability(self):
        # P(S = 0) = n/(t+1).
        n, t, trials = 10, 99, 40_000
        rng = RandomSource(seed=7)
        zeros = sum(1 for _ in range(trials) if reservoir_skip_x(rng, n, t) == 0)
        expected = trials * n / (t + 1)
        assert abs(zeros - expected) < 5 * math.sqrt(expected)

    def test_validates_arguments(self):
        rng = RandomSource(seed=8)
        with pytest.raises(ValueError):
            reservoir_skip_x(rng, 0, 10)
        with pytest.raises(ValueError):
            reservoir_skip_x(rng, 10, 5)


class TestAlgorithmZ:
    def test_matches_algorithm_x_distribution(self):
        # Above the X/Z threshold, Z's rejection sampler must reproduce
        # the exact skip law.
        n = 4
        t = ALGORITHM_Z_THRESHOLD * n + 50
        trials = 12_000
        rng = RandomSource(seed=9)
        xs = sorted(reservoir_skip_x(rng, n, t) for _ in range(trials))
        zs = []
        w = None
        for _ in range(trials):
            skip, w = reservoir_skip(rng, n, t, w, method="z")
            zs.append(skip)
        ks = stats.ks_2samp(xs, sorted(zs))
        assert ks.pvalue > 1e-4

    def test_falls_back_to_x_below_threshold(self):
        rng = RandomSource(seed=10)
        n = 10
        t = n + 1  # far below the threshold
        skip, w = reservoir_skip_z(rng, n, t, w=2.0)
        assert skip >= 0
        assert w > 1.0

    def test_validates_arguments(self):
        rng = RandomSource(seed=11)
        with pytest.raises(ValueError):
            reservoir_skip_z(rng, 0, 10, 2.0)
        with pytest.raises(ValueError):
            reservoir_skip_z(rng, 10, 5, 2.0)
        with pytest.raises(ValueError):
            reservoir_skip_z(rng, 4, 400, 0.5)


class TestDispatch:
    def test_methods_agree_in_distribution(self):
        n, t, trials = 6, 500, 10_000
        by_method = {}
        for method in ("x", "z", "auto"):
            rng = RandomSource(seed=12)
            skips = []
            w = None
            for _ in range(trials):
                skip, w = reservoir_skip(rng, n, t, w, method=method)
                skips.append(skip)
            by_method[method] = sorted(skips)
        assert stats.ks_2samp(by_method["x"], by_method["z"]).pvalue > 1e-4
        assert stats.ks_2samp(by_method["x"], by_method["auto"]).pvalue > 1e-4

    def test_rejects_unknown_method(self):
        rng = RandomSource(seed=13)
        with pytest.raises(ValueError):
            reservoir_skip(rng, 5, 10, None, method="q")
