"""Property-based tests: PRNG and variate generators."""

from hypothesis import given, settings, strategies as st

from repro.rng.mt19937 import MT19937, WINDOW, MTState
from repro.rng.random_source import RandomSource

# One step of a generator's life.  ``window`` and ``array`` give back a
# fraction of what they drew; ``rewind`` restores the current key at a
# chosen block position, which is how a stream reaches positions 0 and
# 622-624.  ``long_array`` windows cross at least two block boundaries
# and reach ``WINDOW``.
_STEPS = st.one_of(
    st.tuples(st.just("long_array"), st.integers(1, 5000), st.floats(0.0, 1.0)),
    st.tuples(st.just("array"), st.integers(1, 400), st.floats(0.0, 1.0)),
    st.tuples(st.just("random")),
    st.tuples(st.just("word")),
    st.tuples(st.just("randrange"), st.integers(1, 2**40)),
    st.tuples(st.just("discard"), st.integers(0, 1500)),
    st.tuples(st.just("rewind"), st.sampled_from((0, 1, 2, 311, 621, 622, 623, 624))),
    st.tuples(st.just("snapshot")),
)


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
        steps=st.lists(_STEPS, max_size=40),
    )
    @settings(max_examples=150, deadline=None)
    def test_windows_match_a_scalar_twin(self, seed, steps):
        # Every double a window hands out, kept or given back, is the one
        # successive random() calls on a scalar twin return; whatever the
        # windows did, the two generators end in the same state.
        gen, twin = MT19937(seed=seed), MT19937(seed=seed)
        snapshot = gen.getstate()
        for step in steps:
            kind = step[0]
            if kind == "array":
                window = gen.random_array(step[1]).tolist()
                assert 1 <= len(window) <= step[1]
                returned = int(step[2] * (len(window) - 1))
                gen.give_back(returned)
                kept = len(window) - returned
                assert window[:kept] == [twin.random() for _ in range(kept)]
                mark = twin.getstate()
                assert window[kept:] == [twin.random() for _ in range(returned)]
                twin.setstate(mark)
            elif kind == "long_array":
                window = gen.random_array(step[1]).tolist()
                assert len(window) == min(step[1], WINDOW)
                returned = int(step[2] * (len(window) - 1))
                gen.give_back(returned)
                kept = len(window) - returned
                assert window[:kept] == [twin.random() for _ in range(kept)]
                assert gen.getstate() == twin.getstate()
                mark = twin.getstate()
                assert window[kept:] == [twin.random() for _ in range(returned)]
                twin.setstate(mark)
            elif kind == "random":
                assert gen.random() == twin.random()
            elif kind == "word":
                assert gen.next_uint32() == twin.next_uint32()
            elif kind == "randrange":
                assert gen.randrange(step[1]) == twin.randrange(step[1])
            elif kind == "discard":
                gen.jump_discard(step[1])
                twin.jump_discard(step[1])
            elif kind == "rewind":
                state = MTState(key=gen.getstate().key, position=step[1])
                gen.setstate(state)
                twin.setstate(state)
            else:
                assert gen.getstate() == twin.getstate()
                gen.setstate(snapshot)
                twin.setstate(snapshot)
                snapshot = gen.getstate()
        assert gen.getstate() == twin.getstate()

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
