"""Property-based tests: PRNG and variate generators."""

from hypothesis import given, settings, strategies as st

from repro.rng.mt19937 import MT19937
from repro.rng.random_source import RandomSource


class TestMT19937Properties:
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        discard=st.integers(min_value=0, max_value=2000),
    )
    @settings(max_examples=50)
    def test_state_roundtrip_any_seed(self, seed, discard):
        # Restore into a generator on another seed, from any point of the
        # stream: block boundaries and partial blocks alike.  The snapshot
        # taken before the discard must not leave a stale one behind.
        gen = MT19937(seed=seed)
        gen.getstate()
        gen.jump_discard(discard)
        state = gen.getstate()
        other = MT19937(seed=seed ^ 1)
        other.setstate(state)
        assert other.getstate() == state
        assert [other.next_uint32() for _ in range(1300)] == [
            gen.next_uint32() for _ in range(1300)
        ]

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n=st.integers(min_value=1, max_value=2**40),
    )
    @settings(max_examples=100)
    def test_randrange_in_bounds(self, seed, n):
        gen = MT19937(seed=seed)
        for _ in range(5):
            assert 0 <= gen.randrange(n) < n

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=50)
    def test_outputs_are_32_bit(self, seed):
        gen = MT19937(seed=seed)
        for _ in range(10):
            value = gen.next_uint32()
            assert 0 <= value < 2**32

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        discard=st.integers(min_value=0, max_value=2000),
    )
    @settings(max_examples=30)
    def test_jump_discard_equals_manual_draws(self, seed, discard):
        a, b = MT19937(seed=seed), MT19937(seed=seed)
        a.jump_discard(discard)
        for _ in range(discard):
            b.next_uint32()
        assert a.next_uint32() == b.next_uint32()


class TestRandomSourceProperties:
    @given(
        seed=st.integers(min_value=0, max_value=2**63),
        p=st.floats(min_value=0.01, max_value=1.0),
    )
    @settings(max_examples=100)
    def test_geometric_non_negative(self, seed, p):
        rng = RandomSource(seed=seed)
        assert rng.geometric(p) >= 0

    @given(
        seed=st.integers(min_value=0, max_value=2**63),
        n=st.integers(min_value=1, max_value=100),
        t_extra=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=100)
    def test_reservoir_skip_non_negative(self, seed, n, t_extra):
        rng = RandomSource(seed=seed)
        assert rng.reservoir_skip(n, n + t_extra) >= 0

    @given(
        seed=st.integers(min_value=0, max_value=2**63),
        label=st.text(max_size=20),
    )
    @settings(max_examples=50)
    def test_spawn_deterministic_any_label(self, seed, label):
        a = RandomSource(seed=seed).spawn(label)
        b = RandomSource(seed=seed).spawn(label)
        assert a.random() == b.random()

    @given(
        seed=st.integers(min_value=0, max_value=2**63),
        items=st.lists(st.integers(), max_size=50),
    )
    @settings(max_examples=50)
    def test_shuffle_is_permutation(self, seed, items):
        rng = RandomSource(seed=seed)
        shuffled = list(items)
        rng.shuffle(shuffled)
        assert sorted(shuffled) == sorted(items)
