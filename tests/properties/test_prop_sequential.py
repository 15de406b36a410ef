"""Property-based tests: sequential sampling and final-index selection."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.refresh.array import ArrayRefresh
from repro.core.refresh.stack import select_final_indexes
from repro.rng.random_source import RandomSource
from repro.rng.sequential import SequentialSampler


@st.composite
def n_total(draw):
    total = draw(st.integers(min_value=0, max_value=500))
    n = draw(st.integers(min_value=0, max_value=total))
    return n, total


class TestSequentialSampleProperties:
    @given(args=n_total(), seed=st.integers(0, 2**32))
    @settings(max_examples=200)
    def test_valid_sample_for_any_arguments(self, args, seed):
        n, total = args
        rng = RandomSource(seed=seed)
        positions = list(SequentialSampler(rng, n=n, total=total))
        assert len(positions) == n
        assert len(set(positions)) == n
        assert positions == sorted(positions)
        assert all(0 <= p < total for p in positions)

    @given(args=n_total(), seed=st.integers(0, 2**32))
    @settings(max_examples=100)
    def test_sampler_selects_exactly_n(self, args, seed):
        # The last position may leave a window given back; once exhausted,
        # the sampler neither yields nor draws again.
        n, total = args
        rng = RandomSource(seed=seed)
        sampler = SequentialSampler(rng, n=n, total=total)
        assert len(list(sampler)) == n
        state = rng.snapshot()
        with pytest.raises(StopIteration):
            next(sampler)
        assert rng.snapshot() == state


class TestFinalIndexSelectionProperties:
    @given(
        m=st.integers(min_value=1, max_value=60),
        c=st.integers(min_value=0, max_value=400),
        seed=st.integers(0, 2**32),
    )
    @settings(max_examples=200)
    def test_stack_selection_invariants(self, m, c, seed):
        rng = RandomSource(seed=seed)
        selected = select_final_indexes(rng, m, c)
        assert len(selected) <= min(m, c)
        assert selected == sorted(selected, reverse=True)
        assert len(set(selected)) == len(selected)
        if c > 0:
            assert selected[0] == c  # last candidate always survives
            assert all(1 <= i <= c for i in selected)

    @given(
        m=st.integers(min_value=1, max_value=60),
        c=st.integers(min_value=0, max_value=400),
        seed=st.integers(0, 2**32),
    )
    @settings(max_examples=200)
    def test_array_assignment_invariants(self, m, c, seed):
        rng = RandomSource(seed=seed)
        array = ArrayRefresh.assign_slots(rng, m, c)
        assert len(array) == m
        values = [v for v in array if v is not None]
        assert len(set(values)) == len(values)
        assert len(values) <= min(m, c)
        if c > 0:
            assert c in values  # the last candidate is never overwritten
        ArrayRefresh._sort_non_empty(array)
        empties_before = [i for i, v in enumerate(array) if v is None]
        sorted_values = [v for v in array if v is not None]
        assert sorted_values == sorted(values)
        assert [i for i, v in enumerate(array) if v is None] == empties_before
