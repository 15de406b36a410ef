"""RandomSource facade: snapshots, substreams, helper variates."""

import numpy as np
import pytest

from repro.rng.random_source import RandomSource


class TestSnapshotRestore:
    def test_uniforms_replay(self):
        rng = RandomSource(seed=1)
        state = rng.snapshot()
        values = [rng.random() for _ in range(50)]
        rng.restore(state)
        assert values == [rng.random() for _ in range(50)]

    def test_mixed_variates_replay(self):
        rng = RandomSource(seed=2)
        state = rng.snapshot()

        def draw():
            return (
                rng.random(),
                rng.randrange(1000),
                rng.geometric(0.3),
                rng.bernoulli(0.7),
            )

        values = [draw() for _ in range(100)]
        rng.restore(state)
        assert values == [draw() for _ in range(100)]

    def test_reservoir_skip_auxiliary_state_restored(self):
        # The Algorithm-Z auxiliary variable W is part of the replayable
        # state; without it the full-log adapter's second pass would differ.
        rng = RandomSource(seed=3)
        for _ in range(5):
            rng.reservoir_skip(4, 500)  # warm up W past the Z threshold
        state = rng.snapshot()
        first = [rng.reservoir_skip(4, 500 + i) for i in range(20)]
        rng.restore(state)
        assert first == [rng.reservoir_skip(4, 500 + i) for i in range(20)]

    @pytest.mark.parametrize("draws", [3, 400])
    def test_rewind_to_a_mark_restores_what_a_snapshot_does(self, draws):
        # Undoing draws just made, as a refused batch does: W included, and
        # whether or not the draws since the snapshot made numpy serve a
        # new block.
        rng, twin = RandomSource(seed=3), RandomSource(seed=3)
        for source in (rng, twin):
            for _ in range(5):
                source.reservoir_skip(4, 500)
        mark = rng.snapshot()
        for i in range(draws):
            rng.reservoir_skip(4, 500 + i)
            rng.randrange(7)
        rng.restore(mark)
        assert rng.snapshot() == twin.snapshot()
        assert [rng.reservoir_skip(4, 500 + i) for i in range(20)] == [
            twin.reservoir_skip(4, 500 + i) for i in range(20)
        ]


class TestSpawn:
    def test_spawn_is_deterministic(self):
        a = RandomSource(seed=7).spawn("child")
        b = RandomSource(seed=7).spawn("child")
        assert [a.random() for _ in range(10)] == [b.random() for _ in range(10)]

    def test_spawn_differs_from_parent(self):
        parent = RandomSource(seed=7)
        child = parent.spawn("child")
        assert [parent.random() for _ in range(5)] != [
            child.random() for _ in range(5)
        ]

    def test_sibling_spawns_differ(self):
        parent = RandomSource(seed=7)
        first = parent.spawn("x")
        second = parent.spawn("x")  # same label, later spawn count
        assert [first.random() for _ in range(5)] != [
            second.random() for _ in range(5)
        ]

    def test_label_changes_stream(self):
        a = RandomSource(seed=7).spawn("alpha")
        b = RandomSource(seed=7).spawn("beta")
        assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]

    def test_child_matches_numpy_legacy_seeding(self):
        # A child is seeded like RandomState on its seed's low 32 bits,
        # whatever key its bit generator was built with.
        parent = RandomSource(seed=7)
        parent.spawn("warm-up")
        child = parent.spawn("nomem-geometric")
        oracle = np.random.RandomState(child.seed & 0xFFFFFFFF).random_sample(2000)
        assert [child.random() for _ in range(2000)] == oracle.tolist()


class TestHelpers:
    @pytest.mark.parametrize("count", [0, 1, 311, 312, 313, 1_000])
    def test_jump_passes_over_as_many_uniforms(self, count):
        # A uniform is two words: jumping over ``count`` of them leaves the
        # stream where ``count`` random() calls do, across block ends.
        rng, twin = RandomSource(seed=3), RandomSource(seed=3)
        rng.random()
        twin.random()
        rng.jump(count)
        for _ in range(count):
            twin.random()
        assert rng.snapshot() == twin.snapshot()
        assert rng.random() == twin.random()

    def test_randint_inclusive_bounds(self):
        rng = RandomSource(seed=4)
        values = {rng.randint(3, 5) for _ in range(300)}
        assert values == {3, 4, 5}

    def test_randint_rejects_empty_range(self):
        with pytest.raises(ValueError):
            RandomSource(seed=4).randint(5, 3)

    def test_bernoulli_extremes(self):
        rng = RandomSource(seed=5)
        assert not any(rng.bernoulli(0.0) for _ in range(50))
        assert all(rng.bernoulli(1.0) for _ in range(50))

    def test_bernoulli_rejects_bad_probability(self):
        with pytest.raises(ValueError):
            RandomSource(seed=5).bernoulli(1.5)

    def test_bernoulli_rate(self):
        rng = RandomSource(seed=6)
        hits = sum(rng.bernoulli(0.25) for _ in range(20_000))
        assert abs(hits - 5000) < 300

    def test_shuffle_is_permutation(self):
        rng = RandomSource(seed=7)
        items = list(range(100))
        shuffled = list(items)
        rng.shuffle(shuffled)
        assert sorted(shuffled) == items
        assert shuffled != items  # astronomically unlikely to be identity

    def test_shuffle_uniform_first_position(self):
        rng = RandomSource(seed=8)
        counts = [0] * 5
        for _ in range(10_000):
            items = list(range(5))
            rng.shuffle(items)
            counts[items[0]] += 1
        for count in counts:
            assert abs(count - 2000) < 300

    def test_repr_shows_seed(self):
        assert "42" in repr(RandomSource(seed=42))

    def test_seed_property(self):
        assert RandomSource(seed=9).seed == 9
