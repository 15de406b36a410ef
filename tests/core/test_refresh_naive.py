"""Naive refresh baselines (Sec. 3)."""

import pytest

from repro.core.kinds import UniformKind
from repro.core.logs import CandidateLogSource, FullLogSource
from repro.core.refresh.naive import NaiveCandidateRefresh, NaiveFullRefresh


class TestNaiveCandidateRefresh:
    def test_sample_integrity(self, harness_factory):
        harness = harness_factory(sample_size=50, candidates=80)
        result = harness.run(NaiveCandidateRefresh())
        harness.check_sample_integrity(result)

    def test_every_candidate_written_random_io(self, harness_factory):
        # |C| random writes (minus same-block coalescing) -- this is the
        # inefficiency Sec. 4 removes.
        harness = harness_factory(sample_size=128 * 8, candidates=200)
        result = harness.run(NaiveCandidateRefresh())
        assert result.candidates == 200
        assert harness.refresh_stats.random_writes > 150
        # The only sequential write is the log's partial-tail flush.
        assert harness.refresh_stats.seq_writes <= 1

    def test_reads_log_sequentially(self, harness_factory):
        harness = harness_factory(sample_size=100, candidates=300)
        harness.run(NaiveCandidateRefresh())
        assert harness.refresh_stats.seq_reads >= 3  # 300 candidates / 128
        assert harness.refresh_stats.random_reads == 0

    def test_last_candidate_always_survives(self, harness_factory):
        harness = harness_factory(sample_size=30, candidates=50)
        harness.run(NaiveCandidateRefresh())
        assert 1049 in harness.final_sample()

    def test_empty_log_noop(self, harness_factory):
        harness = harness_factory(sample_size=10, candidates=0)
        result = harness.run(NaiveCandidateRefresh())
        assert result.displaced == 0
        assert harness.refresh_stats.total_accesses == 0


class TestNaiveFullRefresh:
    @staticmethod
    def _full_run(harness, dataset_size_before):
        # The harness log holds the raw insertions; view it as a full log.
        harness.source = FullLogSource(
            harness.log, harness.sample_size, dataset_size_before, harness.rng
        )
        return harness.run(NaiveFullRefresh())

    def test_acceptance_follows_reservoir_law(self, harness_factory):
        # Log of n elements over dataset R0: expected acceptance is
        # sum M/(R0+i), far below n.
        m, r0, n = 20, 1000, 400
        harness = harness_factory(sample_size=m, candidates=n)
        result = self._full_run(harness, r0)
        assert result.candidates < n / 5  # ~ 20*ln(1.4) ~ 7

    def test_sample_integrity(self, harness_factory):
        harness = harness_factory(sample_size=30, candidates=200)
        result = self._full_run(harness, 100)
        harness.check_sample_integrity(result)

    def test_requires_full_log_source(self, harness_factory):
        harness = harness_factory(sample_size=10, candidates=10)
        with pytest.raises(TypeError):
            NaiveFullRefresh().refresh(
                harness.sample, CandidateLogSource(harness.log), harness.rng,
                UniformKind(10),
            )

    def test_rejects_dataset_smaller_than_sample(self, harness_factory):
        harness = harness_factory(sample_size=10, candidates=10)
        with pytest.raises(ValueError):
            self._full_run(harness, 5)

    def test_rejects_negative_dataset(self, harness_factory):
        harness = harness_factory(sample_size=10, candidates=10)
        with pytest.raises(ValueError):
            self._full_run(harness, -1)

    def test_spawns_no_skip_stream(self, harness_factory):
        # The raw scan replays acceptance from the refresh stream itself;
        # the full-log source's skip stream is never spawned.
        harness = harness_factory(sample_size=30, candidates=200)
        self._full_run(harness, 100)
        assert harness.rng.spawn_count == 0
