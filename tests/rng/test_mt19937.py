"""MT19937: reference behaviour, state management, integer generation."""

import random

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.rng import mt19937
from repro.rng.mt19937 import MT19937, MTState
from repro.rng.random_source import RandomSource
from repro.storage.superblock import MaintenanceCheckpoint


def _from_cpython(reference: random.Random) -> MT19937:
    """A generator loaded with CPython's MT19937 state (624 words + index)."""
    words = reference.getstate()[1]
    gen = MT19937()
    gen.setstate(MTState(key=words[:624], position=words[624]))
    return gen


def _init_genrand(seed: int) -> list[int]:
    """The reference C ``init_genrand``: the key a 32-bit seed gives."""
    key = [seed]
    for i in range(1, 624):
        key.append((1812433253 * (key[-1] ^ (key[-1] >> 30)) + i) & 0xFFFFFFFF)
    return key


class TestReferenceBehaviour:
    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1])
    def test_seeded_construction_matches_cpython(self, seed):
        # The generator is built from a constant key and then seeded, so
        # neither numpy's seed hashing nor the constant key may leak into
        # the stream: CPython's MT19937, loaded with the reference key,
        # serves the same words, and the fresh key reads back exactly.
        reference = random.Random()
        reference.setstate((3, tuple(_init_genrand(seed)) + (624,), None))
        ours = MT19937(seed=seed)
        assert ours.getstate().key == tuple(_init_genrand(seed))
        assert [ours.next_uint32() for _ in range(1300)] == [
            reference.getrandbits(32) for _ in range(1300)
        ]

    def test_matches_cpython_init_by_array_stream(self):
        # CPython's random module is an independent MT19937; a multi-word
        # integer seed runs its init_by_array, so the loaded state is one
        # this package never computes itself.
        key = [0x123, 0x234, 0x345, 0x456]
        as_int = sum(k << (32 * i) for i, k in enumerate(key))
        reference = random.Random(as_int)
        ours = _from_cpython(reference)
        assert [ours.next_uint32() for _ in range(1000)] == [
            reference.getrandbits(32) for _ in range(1000)
        ]

    def test_matches_cpython_doubles(self):
        reference = random.Random(12345)
        ours = _from_cpython(reference)
        assert [ours.random() for _ in range(500)] == [
            reference.random() for _ in range(500)
        ]

    def test_default_seed_is_reference_5489(self):
        # The first outputs of the reference C implementation (mt19937ar)
        # when unseeded, i.e. init_genrand(5489).
        gen = MT19937()
        assert [gen.next_uint32() for _ in range(5)] == [
            3499211612, 581869302, 3890346734, 3586334585, 545404204,
        ]

    def test_distinct_seeds_distinct_streams(self):
        a = [MT19937(seed=1).next_uint32() for _ in range(4)]
        b = [MT19937(seed=2).next_uint32() for _ in range(4)]
        assert a != b


class TestStateManagement:
    def test_snapshot_replays_exactly(self):
        gen = MT19937(seed=99)
        gen.jump_discard(700)  # cross a block regeneration boundary
        state = gen.getstate()
        first = [gen.next_uint32() for _ in range(1300)]
        gen.setstate(state)
        assert first == [gen.next_uint32() for _ in range(1300)]

    def test_snapshot_is_isolated_from_generator(self):
        gen = MT19937(seed=5)
        state = gen.getstate()
        gen.jump_discard(10)
        gen2 = MT19937(seed=7)
        gen2.setstate(state)
        gen3 = MT19937(seed=5)
        assert gen2.next_uint32() == gen3.next_uint32()

    def test_state_snapshot_roundtrips_doubles(self):
        gen = MT19937(seed=123)
        state = gen.getstate()
        doubles = [gen.random() for _ in range(10)]
        gen.setstate(state)
        assert doubles == [gen.random() for _ in range(10)]

    def test_setstate_rejects_wrong_type(self):
        with pytest.raises(TypeError):
            MT19937().setstate(("not", "a", "state"))

    def test_state_validates_shape(self):
        with pytest.raises(ValueError):
            MTState(key=(1, 2, 3), position=0)
        with pytest.raises(ValueError):
            MTState(key=tuple(range(624)), position=9999)
        with pytest.raises(ValueError):
            MTState(key=(2**40,) * 624, position=0)
        with pytest.raises(ValueError):
            MTState(key=(-1,) + (0,) * 623, position=0)


class TestIntegerGeneration:
    def test_randrange_bounds(self):
        gen = MT19937(seed=42)
        for n in (1, 2, 3, 7, 100, 2**31, 2**40):
            for _ in range(200):
                assert 0 <= gen.randrange(n) < n

    def test_randrange_one_never_draws(self):
        gen = MT19937(seed=0)
        before = gen.getstate()
        assert gen.randrange(1) == 0
        assert gen.getstate() == before

    def test_randrange_rejects_bad_bounds(self):
        gen = MT19937()
        with pytest.raises(ValueError):
            gen.randrange(0)
        with pytest.raises(ValueError):
            gen.randrange(-5)
        with pytest.raises(ValueError):
            gen.randrange(2**65)

    def test_randrange_no_modulo_bias(self):
        # n = 3 would show clear bias under naive modulo on 32 bits; with
        # rejection sampling the three cells should be near-equal.
        gen = MT19937(seed=7)
        counts = [0, 0, 0]
        trials = 30_000
        for _ in range(trials):
            counts[gen.randrange(3)] += 1
        expected = trials / 3
        for count in counts:
            assert abs(count - expected) < 5 * (expected**0.5)

    def test_seed_rejects_negative(self):
        with pytest.raises(ValueError):
            MT19937(seed=-1)

    def test_jump_discard_advances(self):
        a = MT19937(seed=3)
        b = MT19937(seed=3)
        a.jump_discard(5)
        for _ in range(5):
            b.next_uint32()
        assert a.next_uint32() == b.next_uint32()

    def test_jump_discard_rejects_negative(self):
        with pytest.raises(ValueError):
            MT19937().jump_discard(-1)

    @pytest.mark.parametrize("jump", [4, 2_000, 5_000])
    def test_jump_discard_closes_the_latest_window(self, jump):
        # Within the window's block, past it into the words the window
        # holds, and past them into blocks numpy serves anew: nothing
        # jumped over may be given back.
        gen, twin = MT19937(seed=7), MT19937(seed=7)
        if jump == 2_000:
            gen.random_array(1_200)
            gen.give_back(1_190)  # words up to 2,400 are held
        else:
            gen.random_array(10)
        gen.jump_discard(jump)
        with pytest.raises(ValueError):
            gen.give_back(12)
        gen.give_back(0)
        twin.jump_discard(20 + jump)
        assert gen.getstate() == twin.getstate()


class TestWindows:
    def test_give_back_only_from_the_latest_window(self):
        gen = MT19937(seed=3)
        gen.random_array(10)
        gen.random_array(3)
        with pytest.raises(ValueError, match="3 left"):
            gen.give_back(8)
        gen.give_back(2)
        with pytest.raises(ValueError, match="1 left"):
            gen.give_back(2)

    def test_give_back_after_a_new_block_is_rejected(self):
        gen = MT19937(seed=3)
        gen.random_array(5)
        gen.setstate(gen.getstate())
        with pytest.raises(ValueError):
            gen.give_back(1)
        gen.give_back(0)

    def test_give_back_rejects_negative_counts(self):
        gen = MT19937(seed=3)
        gen.random_array(5)
        with pytest.raises(ValueError):
            gen.give_back(-1)

    def test_given_back_doubles_come_again(self):
        gen, twin = MT19937(seed=4), MT19937(seed=4)
        window = gen.random_array(6)
        gen.give_back(4)
        assert gen.random_array(4).tolist() == window[2:].tolist()
        assert window.tolist() == [twin.random() for _ in range(6)]
        assert gen.getstate() == twin.getstate()

    def test_window_is_read_only(self):
        window = MT19937(seed=5).random_array(4)
        with pytest.raises(ValueError):
            window[0] = 0.5

    def test_window_crosses_a_block_boundary(self):
        gen, twin = MT19937(seed=6), MT19937(seed=6)
        gen.jump_discard(623)
        twin.jump_discard(623)
        window = gen.random_array(5)
        mark = twin.getstate()
        assert window.tolist() == [twin.random() for _ in range(5)]
        gen.give_back(4)  # back to just past the double that straddles it
        twin.setstate(mark)
        twin.random()
        assert gen.getstate() == twin.getstate()

    @pytest.mark.parametrize("lead", [0, 624, 1_248])
    def test_a_whole_window_given_back_stands_where_its_twin_does(self, lead):
        """A window that starts on a block boundary, given back whole,
        leaves the generator at the end of the block before, where the
        twin's word reads leave it: freshly seeded, one block in, and with
        the next block still held from a longer window."""
        gen, twin = MT19937(seed=8), MT19937(seed=8)
        if lead == 1_248:
            gen.jump_discard(100)
            gen.random_array(1_000)  # words 100 to 2,100
            gen.give_back((2_100 - lead) // 2)
        else:
            gen.jump_discard(lead)
        twin.jump_discard(lead)
        gen.random_array(4)
        gen.give_back(4)
        assert gen.getstate() == twin.getstate()
        assert gen.random_array(3).tolist() == [twin.random() for _ in range(3)]

    @pytest.mark.parametrize("blocks_before", [0, 1])
    def test_state_in_an_earlier_block_matches_numpy(self, blocks_before):
        # numpy's own bit generator, seeded as RandomState seeds, is the
        # oracle for the key of each block the window spans.
        gen = MT19937(seed=6)
        gen.jump_discard(100)
        gen.random_array(1_000)  # words 100 to 2,100: four blocks
        position = 300 + blocks_before * 624
        gen.give_back((2_100 - position) // 2)
        oracle = np.random.MT19937()
        oracle.state = {
            "bit_generator": "MT19937",
            "state": {"key": np.random.RandomState(6).get_state()[1], "pos": 624},
        }
        oracle.random_raw(624 * (blocks_before + 1))
        state = gen.getstate()
        assert state.key == tuple(oracle.state["state"]["key"].tolist())
        assert state.position == 300


#: Ways to move a stream: word reads, windows (part given back) and
#: discards, each of which may make numpy serve new blocks, fresh seeds,
#: and spawns, after which the child's stream moves on.
MOVES = st.lists(
    st.one_of(
        st.tuples(st.just("words"), st.integers(0, 700)),
        st.tuples(st.just("window"), st.integers(1, 1_500), st.integers(0, 1_500)),
        st.tuples(st.just("jump"), st.integers(0, 2_000)),
        st.tuples(st.just("seed"), st.just(5489) | st.integers(0, 2**32 - 1)),
        st.tuples(st.just("spawn"), st.text(max_size=2)),
    ),
    max_size=4,
)


def _move(source, moves):
    """Move ``source``'s stream; returns the source moved last."""
    for move in moves:
        gen = source._gen
        if move[0] == "words":
            for _ in range(move[1]):
                gen.next_uint32()
        elif move[0] == "window":
            window = gen.random_array(move[1])
            gen.give_back(min(move[2], len(window)))
        elif move[0] == "jump":
            gen.jump_discard(move[1])
        elif move[0] == "seed":
            gen.seed(move[1])
        else:
            source = source.spawn(move[1])
    return source


def _next(gen):
    return [gen.next_uint32() for _ in range(1_000)], gen.random_array(700).tolist()


def _checkpointed(source):
    """``source``'s generator as a checkpoint's bytes restore it."""
    seed, spawn_count, state, w = MaintenanceCheckpoint.capture_rng(source)
    checkpoint = MaintenanceCheckpoint(
        strategy="candidate", sample_size=1, dataset_size=0,
        dataset_size_at_refresh=0, log_count=0, inserts=0, refreshes=0,
        pending_accept=None, ops_since_refresh=0, rng_seed=seed,
        rng_spawn_count=spawn_count, rng_state=state, rng_w=w,
    )
    return MaintenanceCheckpoint.from_bytes(checkpoint.to_bytes()).restore_rng()._gen


class TestMarks:
    @given(seed=st.integers(0, 2**32 - 1), before=MOVES, after=MOVES)
    # Taken in an earlier block of a long window, then read into the next.
    @example(seed=1, before=[("window", 1_500, 1_000)], after=[("words", 700)])
    # Taken at a fresh seed's unread block, which numpy then moves past.
    @example(seed=1, before=[("spawn", "")], after=[("words", 1)])
    @settings(max_examples=80, deadline=None)
    def test_rewind_stands_where_the_mark_was_taken(self, seed, before, after):
        """A snapshot gives the next words its twin does three ways: set
        back into its generator after more draws, set into a fresh one, and
        restored from a checkpoint's bytes."""
        source = _move(RandomSource(seed), before)
        gen = source._gen
        state = gen.getstate()
        if gen._base + 624 == len(gen._raw):  # numpy's current block
            assert state.key == tuple(gen._bitgen.state["state"]["key"].tolist())
        restored = _checkpointed(source)
        twin = _move(RandomSource(seed), before)._gen
        twin_state = twin.getstate()
        expected = _next(twin)
        fresh = MT19937()
        fresh.setstate(state)
        _move(source, after)
        gen.setstate(state)
        for route in (gen, fresh, restored):
            assert route.getstate() == twin_state
            assert _next(route) == expected


class TestSharedKeys:
    def test_snapshots_of_one_block_untemper_once(self, monkeypatch):
        untempered = []
        untemper = mt19937._untemper
        monkeypatch.setattr(
            mt19937, "_untemper", lambda words: untempered.append(1) or untemper(words)
        )
        gen = MT19937(seed=3)
        gen.jump_discard(700)  # into a served block
        states = []
        for _ in range(5):
            states.append(gen.getstate())
            states.append(gen.getstate())
            gen.next_uint32()
        assert states[0] == states[1] and hash(states[0]) == hash(states[1])
        assert len({state.key for state in states}) == 1
        assert len(untempered) == 1
        # The next block has a key of its own.
        gen.jump_discard(624)
        assert gen.getstate().key != states[0].key
        assert len(untempered) == 2

    @given(
        seed=st.integers(0, 2**32 - 1),
        moves=st.lists(
            st.one_of(
                st.tuples(st.just("words"), st.integers(0, 700)),
                st.tuples(st.just("window"), st.integers(1, 1_500), st.integers(0, 1_500)),
                st.tuples(st.just("jump"), st.integers(0, 2_000)),
                st.tuples(st.just("seed"), st.integers(0, 2**32 - 1)),
                st.tuples(st.just("restore"), st.integers(0, 20)),
            ),
            max_size=8,
        ),
        order=st.randoms(use_true_random=False),
    )
    @settings(max_examples=80, deadline=None)
    def test_every_snapshot_reads_its_own_blocks_key(self, seed, moves, order):
        """However snapshots share keys, each reads the key of the block it
        was taken in, whichever of them is read first."""
        gen = MT19937(seed)
        states = [gen.getstate()]
        for move in moves:
            if move[0] == "words":
                for _ in range(move[1]):
                    gen.next_uint32()
            elif move[0] == "window":
                window = gen.random_array(move[1])
                gen.give_back(min(move[2], len(window)))
            elif move[0] == "jump":
                gen.jump_discard(move[1])
            elif move[0] == "seed":
                gen.seed(move[1])
            else:
                gen.setstate(states[move[1] % len(states)])
            states.append(gen.getstate())
        order.shuffle(states)
        for state in states:
            twin = MT19937()
            twin.setstate(MTState(key=state.key, position=state.position))
            restored = MT19937()
            restored.setstate(state)
            assert _next(twin) == _next(restored)
            assert state.key == mt19937._served_key(
                state._raw, state._base, state._unread_seed
            )


class TestDoubleQuality:
    def test_doubles_in_unit_interval(self):
        gen = MT19937(seed=11)
        values = [gen.random() for _ in range(10_000)]
        assert all(0.0 <= v < 1.0 for v in values)

    def test_doubles_mean_near_half(self):
        gen = MT19937(seed=13)
        values = [gen.random() for _ in range(20_000)]
        mean = sum(values) / len(values)
        assert abs(mean - 0.5) < 0.01
