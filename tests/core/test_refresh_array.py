"""Array Refresh (Algorithm 1)."""

import numpy as np
import pytest
from scipy import stats

from repro.core.refresh.array import ArrayRefresh
from repro.core.refresh.math import expected_displaced
from repro.rng.random_source import RandomSource
from repro.storage.memory import INDEX_BYTES
from tests.conftest import make_maintainer


class TestBasics:
    def test_sample_integrity_after_refresh(self, harness_factory):
        harness = harness_factory(sample_size=50, candidates=80)
        result = harness.run(ArrayRefresh())
        harness.check_sample_integrity(result)
        assert result.candidates == 80

    def test_empty_log_is_noop(self, harness_factory):
        harness = harness_factory(sample_size=20, candidates=0)
        result = harness.run(ArrayRefresh())
        assert result.displaced == 0
        assert harness.final_sample() == list(range(20))
        assert harness.refresh_stats.total_accesses == 0

    def test_displaced_count_matches_expectation(self, harness_factory):
        m, c, trials = 25, 40, 300
        total = 0
        for seed in range(trials):
            harness = harness_factory(sample_size=m, candidates=c, seed=seed)
            total += harness.run(ArrayRefresh()).displaced
        expected = expected_displaced(m, c)
        assert abs(total / trials - expected) < 0.35

    def test_more_candidates_than_sample(self, harness_factory):
        harness = harness_factory(sample_size=10, candidates=500)
        result = harness.run(ArrayRefresh())
        harness.check_sample_integrity(result)
        assert result.displaced <= 10

    def test_memory_is_m_indexes(self, harness_factory):
        harness = harness_factory(sample_size=64, candidates=10)
        result = harness.run(ArrayRefresh())
        assert result.memory.index_bytes == 64 * INDEX_BYTES


class TestIOPattern:
    def test_sorted_variant_uses_sequential_io_only(self, harness_factory):
        harness = harness_factory(sample_size=300, candidates=400)
        harness.run(ArrayRefresh(sort=True))
        assert harness.refresh_stats.random_reads == 0
        assert harness.refresh_stats.random_writes == 0
        assert harness.refresh_stats.seq_reads > 0
        assert harness.refresh_stats.seq_writes > 0

    def test_unsorted_variant_reads_log_randomly(self, harness_factory):
        harness = harness_factory(sample_size=300, candidates=400)
        result = harness.run(ArrayRefresh(sort=False))
        # Sample writes stay sequential; log reads become random.
        assert harness.refresh_stats.random_reads > 0
        assert harness.refresh_stats.random_writes == 0
        harness.check_sample_integrity(result)

    def test_writes_skip_untouched_blocks(self, harness_factory):
        # With very few candidates most sample blocks must not be written.
        harness = harness_factory(sample_size=128 * 10, candidates=3)
        harness.run(ArrayRefresh())
        assert harness.refresh_stats.seq_writes <= 3


class TestSortCorrectness:
    def test_sort_keeps_empty_positions_fixed(self):
        slots, ordinals = ArrayRefresh.final_candidates([None, 5, None, 3, 1, None])
        assert slots.tolist() == [1, 3, 4]
        assert ordinals.tolist() == [1, 3, 5]
        assert slots.dtype == ordinals.dtype == np.int64

    def test_sort_handles_all_empty_and_all_full(self):
        slots, ordinals = ArrayRefresh.final_candidates([None, None])
        assert slots.tolist() == ordinals.tolist() == []
        slots, ordinals = ArrayRefresh.final_candidates([3, 1, 2])
        assert slots.tolist() == [0, 1, 2]
        assert ordinals.tolist() == [1, 2, 3]

    def test_assign_slots_covers_all_candidates_or_slots(self):
        rng = RandomSource(seed=5)
        array = ArrayRefresh.assign_slots(rng, 10, 7)
        values = [v for v in array if v is not None]
        assert len(values) == len(set(values))
        assert all(1 <= v <= 7 for v in values)


class TestUniformity:
    def test_final_sample_is_uniform_over_dataset(self, harness_factory):
        # Dataset = 30 originals + 60 candidates; with the initial sample
        # uniform by construction, inclusion of candidate values must match
        # the reservoir law. We verify candidates' slots are uniform and the
        # candidate choice is position-uniform within the log's final set.
        m, c, trials = 10, 30, 2500
        slot_counts = [0] * m
        for seed in range(trials):
            harness = harness_factory(sample_size=m, candidates=c, seed=seed)
            harness.run(ArrayRefresh())
            for slot, value in enumerate(harness.final_sample()):
                if value >= 1000:
                    slot_counts[slot] += 1
        expected = sum(slot_counts) / m
        chi2 = sum((n - expected) ** 2 / expected for n in slot_counts)
        assert stats.chi2.sf(chi2, df=m - 1) > 1e-4

    def test_name(self):
        assert ArrayRefresh().name == "array"
        assert ArrayRefresh(sort=False).name == "array-unsorted"


class TestUnsortedSources:
    def test_unsorted_writes_the_same_candidates_as_sorted(self):
        # Same seed, same slot draws: the sort only permutes which
        # displaced slot gets which final candidate, never which ones.
        finals = []
        for sort in (True, False):
            maintainer, sample, _ = make_maintainer(
                "candidate", ArrayRefresh(sort=sort), seed=11,
                sample_size=64, initial_dataset=1000,
            )
            maintainer.insert_many(range(1000, 21000))
            maintainer.refresh()
            finals.append(sorted(sample.peek_all()))
        assert finals[0] == finals[1]

    def test_unsorted_rejects_the_full_log_adapter(self):
        # The full-log adapter's ordinal i is not log position i-1:
        # reading the log directly would write the wrong elements.
        maintainer, _, _ = make_maintainer(
            "full", ArrayRefresh(sort=False), seed=11,
            sample_size=64, initial_dataset=1000,
        )
        maintainer.insert_many(range(1000, 21000))
        with pytest.raises(TypeError, match="array-unsorted"):
            maintainer.refresh()
