"""Acceptance laws: the uniform reservoir law and biased sampling (footnote 3)."""

import math

import pytest
from scipy import stats

from repro.core.acceptance import BiasedAcceptance
from repro.core.kinds import UniformKind
from repro.core.logs import CandidateLogSource
from repro.core.refresh.stack import StackRefresh
from repro.rng.random_source import RandomSource
from repro.storage.block_device import SimulatedBlockDevice
from repro.storage.cost_model import CostModel
from repro.storage.files import LogFile, SampleFile
from repro.storage.records import IntRecordCodec


class TestUniformAcceptance:
    """The reservoir law ``M/(|R|+1)``, now owned by :class:`UniformKind`."""

    def test_rate_decays_with_dataset(self):
        kind = UniformKind(10, seen=100)
        rng = RandomSource(seed=1)
        first = kind.capacity / (kind.seen + 1)
        for v in range(100):
            kind.offer_many((v,), rng)
        assert kind.capacity / (kind.seen + 1) < first
        assert kind.seen == 200

    def test_matches_reservoir_law(self):
        rng = RandomSource(seed=2)
        trials = 30_000
        hits = 0
        for _ in range(trials):
            kind = UniformKind(10, seen=99)
            if kind.offer_many((0,), rng)[1]:
                hits += 1
        expected = trials * 10 / 100
        assert abs(hits - expected) < 5 * math.sqrt(expected)

    def test_validation(self):
        with pytest.raises(ValueError):
            UniformKind(0)
        with pytest.raises(ValueError):
            UniformKind(10, seen=5).offer_many((0,), RandomSource(seed=3))


class TestBiasedAcceptance:
    def test_constant_rate(self):
        acceptance = BiasedAcceptance(100, 0.2)
        rng = RandomSource(seed=3)
        hits = sum(acceptance.accept(rng) for _ in range(20_000))
        assert abs(hits - 4000) < 300
        assert acceptance.expected_rate == 0.2

    def test_half_life_construction(self):
        acceptance = BiasedAcceptance.with_half_life(100, half_life=1000)
        # Survival after `half_life` arrivals: (1 - p/M)^1000 = 1/2.
        survival = (1 - acceptance.expected_rate / 100) ** 1000
        assert survival == pytest.approx(0.5, rel=1e-6)

    def test_half_life_caps_rate_at_one(self):
        acceptance = BiasedAcceptance.with_half_life(2, half_life=1)
        assert acceptance.expected_rate <= 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            BiasedAcceptance(0, 0.5)
        with pytest.raises(ValueError):
            BiasedAcceptance(10, 0.0)
        with pytest.raises(ValueError):
            BiasedAcceptance(10, 1.5)
        with pytest.raises(ValueError):
            BiasedAcceptance.with_half_life(10, 0)


class TestBiasedCandidateLogger:
    """Candidate logging under biased acceptance: the plain-log loop.

    Accepted elements are appended to a plain log file, which the Stack
    refresh applies under the uniform victim rule -- footnote 3's claim
    that the candidate log does not care which acceptance test filled it.
    """

    def _run_biased_maintenance(self, seed, m=20, inserts=400, p=0.15):
        rng = RandomSource(seed=seed)
        cost = CostModel()
        codec = IntRecordCodec()
        sample = SampleFile(SimulatedBlockDevice(cost, "s"), codec, m)
        sample.initialize(list(range(m)))
        log = LogFile(SimulatedBlockDevice(cost, "l"), codec)
        acceptance = BiasedAcceptance(m, p)
        algorithm = StackRefresh()
        for batch_start in range(m, m + inserts, 100):
            for v in range(batch_start, batch_start + 100):
                if acceptance.accept(rng):
                    log.append(v)
            algorithm.refresh(sample, CandidateLogSource(log), rng, UniformKind(m))
            log.truncate()
        return sample.peek_all()

    def test_counts(self):
        rng = RandomSource(seed=6)
        log = LogFile(SimulatedBlockDevice(CostModel(), "l"), IntRecordCodec())
        acceptance = BiasedAcceptance(100, 0.25)
        for v in range(2000):
            if acceptance.accept(rng):
                log.append(v)
        assert abs(len(log) - 500) < 120
        assert CandidateLogSource(log).count() == len(log)
        log.truncate()
        assert len(log) == 0

    def test_sample_is_biased_toward_recent(self):
        # With constant acceptance p, older elements survive with
        # exponentially decaying probability -- the recency bias the
        # paper's footnote points at for stream sampling.
        recent_counts = 0
        old_counts = 0
        trials = 400
        for seed in range(trials):
            values = self._run_biased_maintenance(seed)
            recent_counts += sum(1 for v in values if v >= 320)  # last 100
            old_counts += sum(1 for v in values if 20 <= v < 120)  # first 100
        assert recent_counts > 2 * old_counts

    def test_exponential_age_distribution(self):
        # Survival probability of an element of age a is p(1-p/M)^a;
        # check the empirical age histogram against the geometric law.
        m, p, inserts = 10, 0.5, 300
        trials = 2000
        ages = []
        for seed in range(trials):
            values = self._run_biased_maintenance(
                seed + 10_000, m=m, inserts=inserts, p=p
            )
            newest = m + inserts - 1
            ages.extend(newest - v for v in values if v >= m)
        # Compare mean age with M/p (geometric with rate p/M).
        expected_mean = m / p
        observed_mean = sum(ages) / len(ages)
        assert observed_mean == pytest.approx(expected_mean, rel=0.15)
