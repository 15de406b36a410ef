"""Property-based tests: sequential sampling and final-index selection."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.refresh.array import ArrayRefresh
from repro.core.refresh.stack import select_final_indexes
from repro.rng.mt19937 import WINDOW
from repro.rng.random_source import RandomSource
from repro.rng.sequential import selection_windows


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
        windows = list(selection_windows(rng, n=n, total=total))
        assert all(w.dtype == np.int64 and 0 < len(w) <= WINDOW for w in windows)
        positions = [p for window in windows for p in window.tolist()]
        assert len(positions) == n
        assert len(set(positions)) == n
        assert positions == sorted(positions)
        assert all(0 <= p < total for p in positions)

    @given(args=n_total(), seed=st.integers(0, 2**32))
    @settings(max_examples=100)
    def test_sampler_selects_exactly_n(self, args, seed):
        # The last window may give its tail back; once exhausted, the
        # windows neither yield nor draw again.
        n, total = args
        rng = RandomSource(seed=seed)
        windows = selection_windows(rng, n=n, total=total)
        assert sum(len(w) for w in windows) == n
        state = rng.snapshot()
        assert next(windows, None) is None
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
        slots, ordinals = ArrayRefresh.final_candidates(array)
        assert slots.tolist() == [i for i, v in enumerate(array) if v is not None]
        assert ordinals.tolist() == sorted(values)
