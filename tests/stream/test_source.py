"""Synthetic stream sources."""

import pytest

from repro.rng.random_source import RandomSource
from repro.stream.source import (
    bursty_stream,
    counter_stream,
    uniform_batches,
    uniform_stream,
    zipf_stream,
)


class TestCounterStream:
    def test_bounded(self):
        assert list(counter_stream(5, count=3)) == [5, 6, 7]

    def test_unbounded_prefix(self):
        stream = counter_stream()
        assert [next(stream) for _ in range(4)] == [0, 1, 2, 3]


class TestUniformStream:
    def test_range_and_count(self):
        rng = RandomSource(seed=1)
        values = list(uniform_stream(rng, 10, 20, 500))
        assert len(values) == 500
        assert all(10 <= v <= 20 for v in values)
        assert set(values) == set(range(10, 21))

    def test_rejects_empty_range(self):
        with pytest.raises(ValueError):
            list(uniform_stream(RandomSource(seed=2), 5, 4, 1))


class TestZipfStream:
    def test_skew_favours_small_ranks(self):
        rng = RandomSource(seed=3)
        values = list(zipf_stream(rng, universe=100, count=5000))
        assert all(0 <= v < 100 for v in values)
        head = sum(1 for v in values if v < 10)
        tail = sum(1 for v in values if v >= 90)
        assert head > 5 * max(tail, 1)

    def test_higher_exponent_more_skew(self):
        rng = RandomSource(seed=4)
        mild = list(zipf_stream(rng, 50, 4000, exponent=0.5))
        sharp = list(zipf_stream(rng, 50, 4000, exponent=2.5))
        assert sum(1 for v in sharp if v == 0) > sum(1 for v in mild if v == 0)

    def test_validation(self):
        rng = RandomSource(seed=5)
        with pytest.raises(ValueError):
            list(zipf_stream(rng, 0, 10))
        with pytest.raises(ValueError):
            list(zipf_stream(rng, 10, 10, exponent=0))


class TestBurstyStream:
    def test_count_and_monotone_timestamps(self):
        rng = RandomSource(seed=6)
        events = list(bursty_stream(rng, 250, burst_length=50, quiet_length=100))
        assert len(events) == 250
        timestamps = [t for t, _ in events]
        assert timestamps == sorted(timestamps)

    def test_bursts_are_dense_gaps_are_wide(self):
        rng = RandomSource(seed=7)
        events = list(bursty_stream(rng, 200, burst_length=100, quiet_length=500))
        gaps = [
            events[i + 1][0] - events[i][0] for i in range(len(events) - 1)
        ]
        assert gaps.count(1) >= 190  # in-burst arrivals back-to-back
        assert max(gaps) > 400  # the quiet period

    def test_values_are_sequential(self):
        rng = RandomSource(seed=8)
        events = list(bursty_stream(rng, 50, value_start=1000))
        assert [v for _, v in events] == list(range(1000, 1050))

    def test_validation(self):
        rng = RandomSource(seed=9)
        with pytest.raises(ValueError):
            list(bursty_stream(rng, 10, burst_length=0))


class TestBatchedSources:
    """The batched source flattens to its scalar counterpart, same seed."""

    def test_uniform_batches_flatten_to_uniform_stream(self):
        flat = [
            v
            for b in uniform_batches(RandomSource(seed=21), 0, 999, 100, 13)
            for v in b
        ]
        assert flat == list(uniform_stream(RandomSource(seed=21), 0, 999, 100))

    def test_validation_matches_scalar_sources(self):
        rng = RandomSource(seed=24)
        with pytest.raises(ValueError):
            list(uniform_batches(rng, 5, 4, 10, 2))
        with pytest.raises(ValueError):
            list(uniform_batches(rng, 0, 9, 10, 0))
