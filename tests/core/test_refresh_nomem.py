"""Nomem Refresh (Algorithm 3): PRNG replay instead of buffering."""

import pytest
from scipy import stats

from repro.core.refresh.math import expected_displaced
from repro.core.refresh.nomem import NomemRefresh, span_of_gaps
from repro.core.refresh.stack import StackRefresh
from repro.rng.mt19937 import BLOCK_DOUBLES, WINDOW
from repro.rng.random_source import RandomSource
from repro.storage.memory import MT19937_STATE_BYTES


class TestSpanOfGaps:
    def test_replays_identically_after_restore(self):
        rng = RandomSource(seed=1)
        state = rng.snapshot()
        first = span_of_gaps(rng, 100)
        rng.restore(state)
        assert first == span_of_gaps(rng, 100)

    def test_span_at_least_m_minus_one(self):
        # Every gap is X_k + 1 >= 1, so the span of M-1 gaps is >= M-1.
        rng = RandomSource(seed=2)
        for m in (2, 5, 50):
            assert span_of_gaps(rng, m) >= m - 1

    def test_trivial_sample_size(self):
        assert span_of_gaps(RandomSource(seed=3), 1) == 0


class _SpySource:
    """A :class:`RandomSource` that logs the windows it hands out and the
    snapshots taken of it, and spies on the streams it spawns."""

    def __init__(self, source, log, label="main"):
        self._source, self._log, self._label = source, log, label

    def __getattr__(self, name):
        return getattr(self._source, name)

    def random_array(self, count):
        window = self._source.random_array(count)
        self._log.append((self._label, "window", len(window)))
        return window

    def snapshot(self):
        self._log.append((self._label, "snapshot", 0))
        return self._source.snapshot()

    def jump(self, count):
        self._log.append((self._label, "jump", count))
        self._source.jump(count)

    def spawn(self, label=""):
        return _SpySource(self._source.spawn(label), self._log, label)


class TestWindowBounds:
    """Nomem holds one block of geometric uniforms (Fig. 12's zero line);
    the write phase's Method S windows span blocks up to ``WINDOW``."""

    @staticmethod
    def _log_of(harness_factory, algorithm):
        # More positions than a window holds, so the write phase's first
        # window is cut at WINDOW.
        harness = harness_factory(sample_size=WINDOW + 900, candidates=120)
        log = []
        harness.rng = _SpySource(harness.rng, log)
        harness.check_sample_integrity(harness.run(algorithm))
        return log

    def test_nomem_geometric_windows_stay_within_one_block(self, harness_factory):
        log = self._log_of(harness_factory, NomemRefresh())
        geometric = [size for label, what, size in log
                     if label == "nomem-geometric" and what == "window"]
        assert geometric and max(geometric) <= BLOCK_DOUBLES
        snapshots = [label for label, what, _ in log if what == "snapshot"]
        assert snapshots == ["nomem-geometric"]

    @pytest.mark.parametrize(
        "size, candidates", [(1, 7), (2, 1), (700, 40), (700, 698), (700, 699), (700, 2100)]
    )
    def test_nomem_computes_two_min_m_minus_one_c_gaps(
        self, harness_factory, size, candidates
    ):
        # The gaps before the last min(M-1, |C|) are jumped over, not
        # computed; both passes turn the rest into gaps, a block at most
        # per window, from the one snapshot taken after the jump.
        harness = harness_factory(sample_size=size, candidates=candidates)
        log = []
        harness.rng = _SpySource(harness.rng, log)
        harness.check_sample_integrity(harness.run(NomemRefresh()))
        geometric = [(what, n) for label, what, n in log if label == "nomem-geometric"]
        windows = [n for what, n in geometric if what == "window"]
        gaps = min(size - 1, candidates)
        assert sum(windows) == 2 * gaps
        assert all(n <= BLOCK_DOUBLES for n in windows)
        assert geometric[0] == ("jump", size - 1 - gaps)
        assert [what for what, _ in geometric].count("snapshot") == 1
        assert geometric[1] == ("snapshot", 0)

    @pytest.mark.parametrize("algorithm", [NomemRefresh, StackRefresh])
    def test_write_phase_windows_reach_but_never_exceed_window(
        self, harness_factory, algorithm
    ):
        log = self._log_of(harness_factory, algorithm())
        main = [size for label, what, size in log if label == "main" and what == "window"]
        assert max(main) == WINDOW


class TestRefresh:
    def test_sample_integrity(self, harness_factory):
        harness = harness_factory(sample_size=50, candidates=80)
        result = harness.run(NomemRefresh())
        harness.check_sample_integrity(result)

    def test_empty_log_is_noop(self, harness_factory):
        harness = harness_factory(sample_size=20, candidates=0)
        result = harness.run(NomemRefresh())
        assert result.displaced == 0
        assert harness.refresh_stats.total_accesses == 0

    def test_sequential_io_only(self, harness_factory):
        harness = harness_factory(sample_size=300, candidates=500)
        harness.run(NomemRefresh())
        assert harness.refresh_stats.random_reads == 0
        assert harness.refresh_stats.random_writes == 0

    def test_memory_is_prng_state_only(self, harness_factory):
        harness = harness_factory(sample_size=64, candidates=30)
        result = harness.run(NomemRefresh())
        assert result.memory.index_bytes == 0
        assert result.memory.element_bytes == 0
        assert result.memory.prng_state_bytes == MT19937_STATE_BYTES

    def test_candidates_written_in_log_order(self, harness_factory):
        harness = harness_factory(sample_size=40, candidates=60)
        harness.run(NomemRefresh())
        candidate_values = [v for v in harness.final_sample() if v >= 1000]
        assert candidate_values == sorted(candidate_values)

    def test_single_slot_sample(self, harness_factory):
        harness = harness_factory(sample_size=1, candidates=10)
        result = harness.run(NomemRefresh())
        assert result.displaced == 1
        assert harness.final_sample() == [1009]

    def test_more_candidates_than_sample(self, harness_factory):
        harness = harness_factory(sample_size=10, candidates=500)
        result = harness.run(NomemRefresh())
        harness.check_sample_integrity(result)


class TestDistributionalEquivalenceWithStack:
    """Nomem is Stack with the buffer replaced by PRNG replay; the number of
    displaced elements and their slot distribution must match."""

    def test_displaced_count_distribution(self, harness_factory):
        m, c, trials = 12, 25, 1200
        stack_counts, nomem_counts = [], []
        for seed in range(trials):
            stack_counts.append(
                harness_factory(sample_size=m, candidates=c, seed=seed)
                .run(StackRefresh())
                .displaced
            )
            nomem_counts.append(
                harness_factory(sample_size=m, candidates=c, seed=seed + 50_000)
                .run(NomemRefresh())
                .displaced
            )
        ks = stats.ks_2samp(sorted(stack_counts), sorted(nomem_counts))
        assert ks.pvalue > 1e-4

    def test_displaced_count_matches_formula(self, harness_factory):
        m, c, trials = 20, 35, 600
        total = 0
        for seed in range(trials):
            harness = harness_factory(sample_size=m, candidates=c, seed=seed)
            total += harness.run(NomemRefresh()).displaced
        expected = expected_displaced(m, c)
        assert abs(total / trials - expected) < 0.35

    def test_slot_distribution_uniform(self, harness_factory):
        m, c, trials = 10, 15, 2500
        slot_counts = [0] * m
        for seed in range(trials):
            harness = harness_factory(sample_size=m, candidates=c, seed=seed)
            harness.run(NomemRefresh())
            for slot, value in enumerate(harness.final_sample()):
                if value >= 1000:
                    slot_counts[slot] += 1
        expected = sum(slot_counts) / m
        chi2 = sum((n - expected) ** 2 / expected for n in slot_counts)
        assert stats.chi2.sf(chi2, df=m - 1) > 1e-4
