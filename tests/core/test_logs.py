"""Log phase: candidate logging, full logging, the Sec. 5 replay adapter."""

import math

import pytest
from scipy import stats

from repro.core.kinds import UniformKind
from repro.core.logs import (
    CandidateLogger,
    CandidateLogSource,
    FullLogger,
    FullLogSource,
    UpdateLogger,
)
from repro.core.refresh.math import expected_candidates_exact
from repro.rng.random_source import RandomSource
from repro.storage.block_device import SimulatedBlockDevice
from repro.storage.cost_model import CostModel
from repro.storage.files import LogFile
from repro.storage.records import IntRecordCodec


def make_log(name="log"):
    model = CostModel()
    return LogFile(SimulatedBlockDevice(model, name), IntRecordCodec()), model


class TestCandidateLogger:
    def test_log_size_matches_expectation(self):
        # E(|C|) = sum M/(|R|+i) -- the Sec. 3.2 formula.
        m, r0, inserts, trials = 20, 100, 400, 200
        expected = expected_candidates_exact(m, r0, inserts)
        total = 0
        for t in range(trials):
            log, _ = make_log()
            logger = CandidateLogger(log, UniformKind(m, seen=r0), RandomSource(seed=t))
            for v in range(inserts):
                logger.insert(v)
            total += len(log)
        mean = total / trials
        # sd of |C| is at most sqrt(E), so 5 sigma over trials:
        tolerance = 5 * math.sqrt(expected / trials)
        assert abs(mean - expected) < tolerance

    def test_log_preserves_arrival_order(self):
        log, _ = make_log()
        logger = CandidateLogger(log, UniformKind(10, seen=10), RandomSource(seed=3))
        accepted = [v for v in range(200) if logger.insert(v)]
        assert log.peek_all() == accepted

    def test_dataset_size_tracks_all_inserts(self):
        log, _ = make_log()
        logger = CandidateLogger(log, UniformKind(5, seen=50), RandomSource(seed=4))
        for v in range(100):
            logger.insert(v)
        assert logger.dataset_size == 150

    def test_rejected_elements_cost_nothing(self):
        log, model = make_log()
        logger = CandidateLogger(log, UniformKind(2, seen=10_000), RandomSource(seed=5))
        mark = model.checkpoint()
        rejected = 0
        for v in range(50):
            if not logger.insert(v):
                rejected += 1
        assert rejected > 0  # acceptance ~ 2/10000
        if len(log) == 0:
            assert model.since(mark).total_accesses == 0

    def test_after_refresh_truncates(self):
        log, _ = make_log()
        logger = CandidateLogger(log, UniformKind(10, seen=10), RandomSource(seed=6))
        for v in range(100):
            logger.insert(v)
        assert len(log) > 0
        logger.after_refresh()
        assert len(log) == 0

    def test_requires_existing_sample(self):
        log, _ = make_log()
        with pytest.raises(ValueError):
            CandidateLogger(log, UniformKind(10, seen=5), RandomSource(seed=7))

    def test_source_counts_log(self):
        log, _ = make_log()
        logger = CandidateLogger(log, UniformKind(10, seen=10), RandomSource(seed=8))
        for v in range(300):
            logger.insert(v)
        assert logger.source().count() == len(log)


class TestFullLogger:
    def test_logs_everything(self):
        log, _ = make_log()
        kind = UniformKind(10, seen=100)
        logger = FullLogger(log, kind, RandomSource(seed=1))
        for v in range(50):
            assert logger.insert_many((v,)) == (1, 1)
        assert len(log) == 50
        assert kind.seen == 150

    def test_after_refresh_advances_baseline(self):
        log, _ = make_log()
        logger = FullLogger(log, UniformKind(10, seen=100), RandomSource(seed=2))
        logger.insert_many(range(50))
        assert logger.dataset_size_at_last_refresh == 100
        logger.after_refresh()
        assert logger.dataset_size_at_last_refresh == 150
        assert len(log) == 0

    def test_insert_many_stops_at_max_accepts(self):
        log, _ = make_log()
        kind = UniformKind(10, seen=100)
        logger = FullLogger(log, kind, RandomSource(seed=3))
        assert logger.insert_many(list(range(20)), max_accepts=7) == (7, 7)
        assert logger.insert_many(range(20, 25)) == (5, 5)
        assert log.peek_all() == list(range(7)) + list(range(20, 25))
        assert kind.seen == 112

    def test_source_starts_at_last_refresh(self):
        log, _ = make_log()
        logger = FullLogger(log, UniformKind(10, seen=100), RandomSource(seed=4))
        logger.insert_many(range(30))
        source = logger.source()
        assert source.dataset_size_before == 100
        assert source.scan_all() == list(range(30))


class TestUpdateLogger:
    def test_drain_returns_and_clears(self):
        log, _ = make_log()
        updates = UpdateLogger(log)
        updates.update(7)
        updates.update(9)
        assert len(updates) == 2
        assert updates.drain() == [7, 9]
        assert len(updates) == 0


class TestCandidateLogSource:
    def test_reader_is_one_based_and_forward_only(self):
        log, _ = make_log()
        log.append_many([10, 20, 30])
        source = CandidateLogSource(log)
        reader = source.open_reader()
        assert reader.read(1) == 10
        assert reader.read(3) == 30
        with pytest.raises(ValueError):
            reader.read(2)



class TestFullLogSource:
    def _full_log(self, inserts, seed=9, r0=100):
        log, model = make_log()
        logger = FullLogger(log, UniformKind(10, seen=r0), RandomSource(seed=seed))
        logger.insert_many(range(inserts))
        return log, model

    def test_count_is_deterministic_across_calls(self):
        log, _ = self._full_log(500)
        source = FullLogSource(log, 10, 100, RandomSource(seed=10))
        assert source.count() == source.count()

    def test_count_matches_candidate_logging_distribution(self):
        # The replayed Vitter skips must accept with probability M/(R0+i),
        # exactly like candidate logging would have.
        m, r0, inserts, trials = 10, 100, 500, 300
        counts = []
        for t in range(trials):
            log, _ = self._full_log(inserts)
            counts.append(
                FullLogSource(log, m, r0, RandomSource(seed=5000 + t)).count()
            )
        expected = expected_candidates_exact(m, r0, inserts)
        mean = sum(counts) / trials
        assert abs(mean - expected) < 5 * math.sqrt(expected / trials)

    def test_reader_resolves_candidates_in_log_order(self):
        log, _ = self._full_log(600)
        source = FullLogSource(log, 10, 100, RandomSource(seed=11))
        total = source.count()
        positions = source.candidate_positions()
        assert len(positions) == total
        assert positions == sorted(positions)
        reader = source.open_reader()
        # The log stores 0..599 in order, so candidate i's value equals
        # its position.
        for ordinal in range(1, total + 1):
            assert reader.read(ordinal) == positions[ordinal - 1]

    def test_reader_is_forward_only(self):
        log, _ = self._full_log(600)
        source = FullLogSource(log, 10, 100, RandomSource(seed=12))
        if source.count() < 2:
            pytest.skip("degenerate draw")
        reader = source.open_reader()
        reader.read(2)
        with pytest.raises(ValueError):
            reader.read(1)

    def test_positions_replay_identically(self):
        log, _ = self._full_log(600)
        source = FullLogSource(log, 10, 100, RandomSource(seed=13))
        assert source.candidate_positions() == source.candidate_positions()

    def test_requires_existing_sample(self):
        log, _ = self._full_log(10)
        with pytest.raises(ValueError):
            FullLogSource(log, 10, 5, RandomSource(seed=14))

    def test_scan_all(self):
        log, _ = make_log()
        log.append_many([1, 2, 3])
        assert FullLogSource(log, 2, 10, RandomSource(seed=15)).scan_all() == [1, 2, 3]

    def test_skip_stream_spawned_on_first_count(self):
        log, _ = self._full_log(300)
        rng = RandomSource(seed=16)
        source = FullLogSource(log, 10, 100, rng)
        assert rng.spawn_count == 0
        source.count()
        source.open_reader()
        assert rng.spawn_count == 1
