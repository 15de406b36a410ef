"""Windowed draws against scalar oracles.

The Stack and Nomem refresh and the weighted kind's batched offers read
their uniforms a window at a time.  Each oracle below is the plain loop
they ran before, one ``random()``, ``geometric()`` or ``offer()`` call per
draw.  The windowed code must select the same positions, indexes, spans
and records, and leave its generator in the same state, from any
starting point in the stream.
"""

import copy

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.kinds import WeightedKind, WindowKind
from repro.core.refresh.nomem import span_of_gaps, survivor_indexes
from repro.core.refresh.stack import select_final_indexes
from repro.rng.mt19937 import WINDOW
from repro.rng.random_source import RandomSource
from repro.rng.sequential import selection_windows


def take_oracle(rng, n, total):
    """The write phase's one-trial-per-position Method S scan."""
    remaining_selected, remaining_records = n, total
    for position in range(total):
        if remaining_selected == 0:
            break
        # q = k/(M-j+1) = 1 once every remaining record must be selected.
        if remaining_selected == remaining_records:
            selected = True
        else:
            selected = rng.random() * remaining_records < remaining_selected
        remaining_records -= 1
        if selected:
            remaining_selected -= 1
            yield position


def select_final_indexes_oracle(rng, sample_size, candidates):
    """Algorithm 2's precomputation, one geometric draw per survivor."""
    if candidates <= 0:
        return []
    selected = []
    index = candidates
    while index >= 1 and len(selected) < sample_size:
        selected.append(index)
        k = len(selected)
        if k == sample_size:
            break
        p_k = (sample_size - k) / sample_size
        skip = rng.geometric(p_k)
        index -= skip + 1
    return selected


def span_of_gaps_oracle(geom_rng, size):
    """Algorithm 3's pass 1."""
    span = 0
    for k in range(size - 1, 0, -1):
        span += geom_rng.geometric((size - k) / size) + 1
    return span


def survivor_indexes_oracle(geom_rng, size, total):
    """Algorithm 3's pass 1, then pass 2's prefix skip and replay."""
    state = geom_rng.snapshot()
    span = span_of_gaps_oracle(geom_rng, size)
    geom_rng.restore(state)
    index = total - span
    k = size - 1
    while index < 1 and k >= 1:
        index += geom_rng.geometric((size - k) / size) + 1
        k -= 1
    indexes = []
    for _ in range(k + 1):
        indexes.append(index)
        if k >= 1:
            index += geom_rng.geometric((size - k) / size) + 1
            k -= 1
    return indexes


def offer_many_oracle(kind, elements, rng, max_accepts):
    """Batched offers as one-row batches, stopping right after the
    acceptance that fills ``max_accepts``."""
    records = []
    consumed = 0
    for element in elements:
        consumed += 1
        _, accepted = kind.offer_many((element,), rng)
        if len(accepted):
            records.append(accepted[0].item())
            if max_accepts is not None and len(records) >= max_accepts:
                break
    return consumed, records


def twins(seed, offset):
    """Two sources at the same point, ``offset`` words into the stream."""
    sources = RandomSource(seed=seed), RandomSource(seed=seed)
    for source in sources:
        for _ in range(offset):
            source.randrange(2)  # exactly one word each
    return sources


@st.composite
def n_total(draw):
    total = draw(st.integers(min_value=0, max_value=3000))
    n = draw(st.integers(min_value=0, max_value=total))
    return n, total


SEEDS = st.integers(0, 2**32)
OFFSETS = st.integers(0, 700)
SIZES = st.integers(min_value=1, max_value=1500)
CANDIDATES = st.integers(min_value=0, max_value=5000)


class TestWindowedDrawsMatchScalarOracles:
    @given(args=n_total(), seed=SEEDS, offset=OFFSETS)
    @settings(max_examples=100, deadline=None)
    def test_sequential_sampler(self, args, seed, offset):
        # Same positions, and the same stream state once the windows run out.
        n, total = args
        windowed, scalar = twins(seed, offset)
        windows = list(selection_windows(windowed, n=n, total=total))
        assert all(0 < len(window) <= WINDOW for window in windows)
        positions = [p for window in windows for p in window.tolist()]
        assert positions == list(take_oracle(scalar, n, total))
        assert windowed.snapshot() == scalar.snapshot()

    @given(m=SIZES, c=CANDIDATES, seed=SEEDS, offset=OFFSETS)
    @settings(max_examples=100, deadline=None)
    def test_select_final_indexes(self, m, c, seed, offset):
        windowed, scalar = twins(seed, offset)
        assert select_final_indexes(windowed, m, c) == select_final_indexes_oracle(
            scalar, m, c
        )
        assert windowed.snapshot() == scalar.snapshot()

    @given(m=SIZES, seed=SEEDS, offset=OFFSETS)
    @settings(max_examples=100, deadline=None)
    def test_span_of_gaps(self, m, seed, offset):
        windowed, scalar = twins(seed, offset)
        assert span_of_gaps(windowed, m) == span_of_gaps_oracle(scalar, m)
        assert windowed.snapshot() == scalar.snapshot()

    @given(m=SIZES, c=st.integers(min_value=1, max_value=5000), seed=SEEDS, offset=OFFSETS)
    @settings(max_examples=100, deadline=None)
    def test_survivor_indexes(self, m, c, seed, offset):
        windowed, scalar = twins(seed, offset)
        count, indexes = survivor_indexes(windowed, m, c)
        expected = survivor_indexes_oracle(scalar, m, c)
        assert list(indexes) == expected
        assert count == len(expected)
        assert windowed.snapshot() == scalar.snapshot()

    @given(
        m=st.integers(min_value=1, max_value=700),
        shape=st.sampled_from(["one", "m-2", "m-1", "m", "3m"]),
        seed=SEEDS,
        offset=OFFSETS,
    )
    @settings(max_examples=150, deadline=None)
    def test_survivor_indexes_around_the_jump(self, m, shape, seed, offset):
        # |C| below, at and above M - 1, with M on both sides of a block
        # of uniforms: below M - 1 the leading gaps are jumped over.
        c = max(1, {"one": 1, "m-2": m - 2, "m-1": m - 1, "m": m, "3m": 3 * m}[shape])
        windowed, scalar = twins(seed, offset)
        count, indexes = survivor_indexes(windowed, m, c)
        expected = survivor_indexes_oracle(scalar, m, c)
        assert list(indexes) == expected
        assert count == len(expected)
        after = windowed.random_array(1000).tolist()
        assert after == [scalar.random() for _ in range(1000)]


ELEMENTS = st.lists(st.integers(0, 2**40), max_size=800)
QUOTAS = st.one_of(st.none(), st.integers(0, 40))


def kind_twins(name, capacity, initial, seed):
    """Two identical kinds; a sample built from ``initial`` rows first
    gives the weighted kind a finite stale threshold."""
    kind = WeightedKind(capacity) if name == "weighted" else WindowKind(capacity)
    if initial:
        kind.build_initial(range(initial), RandomSource(seed=seed ^ 0x5EED))
    return kind, copy.deepcopy(kind)


def assert_same_offers(
    name, elements, max_accepts, seed, offset, capacity=8, initial=48, as_iterator=False
):
    windowed, scalar = twins(seed, offset)
    kind, oracle_kind = kind_twins(name, capacity, initial, seed)
    expected = offer_many_oracle(oracle_kind, elements, scalar, max_accepts)
    batch = iter(elements) if as_iterator else elements
    consumed, records = kind.offer_many(batch, windowed, max_accepts)
    assert (consumed, records.tolist()) == expected
    assert kind.seen == oracle_kind.seen
    assert getattr(kind, "threshold", None) == getattr(oracle_kind, "threshold", None)
    assert windowed.snapshot() == scalar.snapshot()


@pytest.mark.parametrize("name", ["weighted", "window"])
class TestBatchedOffersMatchScalarOffers:
    @given(
        elements=ELEMENTS,
        max_accepts=QUOTAS,
        seed=SEEDS,
        offset=OFFSETS,
        capacity=st.integers(1, 64),
        extra=st.integers(0, 400),
    )
    @settings(max_examples=100, deadline=None)
    def test_offer_many(self, name, elements, max_accepts, seed, offset, capacity, extra):
        assert_same_offers(name, elements, max_accepts, seed, offset, capacity, capacity + extra)

    @given(elements=ELEMENTS, max_accepts=QUOTAS, seed=SEEDS, offset=OFFSETS)
    @settings(max_examples=30, deadline=None)
    def test_iterator_input(self, name, elements, max_accepts, seed, offset):
        assert_same_offers(name, elements, max_accepts, seed, offset, as_iterator=True)

    @pytest.mark.parametrize("offset", [0, 1, 622, 623, 624])
    @pytest.mark.parametrize("initial", [0, 48])
    def test_edges(self, name, offset, initial):
        # With no sample yet (initial=0) every offer is accepted, so a
        # quota stops the batch mid-window.
        batch = list(range(1000, 1700))  # more uniforms than one 624-word block
        assert_same_offers(name, [], None, 7, offset, initial=initial)
        assert_same_offers(name, [], 1, 7, offset, initial=initial)
        for quota in (None, 0, 1, 3, 200):
            assert_same_offers(name, batch, quota, 7, offset, initial=initial)
            assert_same_offers(name, tuple(batch), quota, 7, offset, initial=initial)
