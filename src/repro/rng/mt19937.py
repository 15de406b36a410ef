"""Mersenne Twister (MT19937) with explicit state snapshot/restore.

The paper's Nomem Refresh algorithm (Sec. 4.3) relies on two properties of a
pseudo-random number generator:

1. the state transition is deterministic, so a stored state replays the
   exact same variate sequence, and
2. the state is small ("1 to 1000 words for common generators", citing
   Matsumoto & Nishimura's MT19937 [14]).

numpy's :class:`numpy.random.MT19937` bit generator runs the algorithm
itself: the twist, the tempering and the reference ``init_genrand``
seeding.  This module keeps what the algorithms need on top of it: raw
words served at Python speed from one 624-word block at a time, windows
of up to :data:`WINDOW` doubles computed by numpy over as many blocks as
they span, and snapshots as immutable :class:`MTState` values.  A
snapshot stands for exactly numpy's ``{"key", "pos"}`` state -- the 624
untempered words plus the read position -- so the stream matches the
reference C implementation word for word (see
``tests/rng/test_mt19937.py``).  Taking one copies nothing: it holds the
served words, and the key is untempered from them only when it is read.

The state is 624 32-bit words plus an index -- about 2.5 KiB, which is the
"negligible" memory footprint the paper attributes to Nomem Refresh.
"""

from __future__ import annotations

import sys

import numpy as np
from numpy.random.bit_generator import ISeedSequence

__all__ = ["BLOCK_DOUBLES", "MT19937", "MTState", "WINDOW"]

_N = 624
_MASK32 = 0xFFFFFFFF

#: The most doubles one :meth:`MT19937.random_array` window holds (32 KiB).
WINDOW = 4096
#: The doubles one 624-word block holds.
BLOCK_DOUBLES = _N // 2

# 1 / 2**53, for 53-bit doubles in [0, 1).
_INV_2_53 = 1.0 / 9007199254740992.0

# ``_window_start`` of a generator whose latest window is closed: no
# position lies at or past it, so nothing can be given back.
_CLOSED = sys.maxsize

# The words of a freshly seeded key's block, which are never computed:
# the generator stands at that block's end, and a window or word read
# starts with the next block.
_UNREAD = np.zeros(_N, dtype=np.uint64)
_UNREAD.flags.writeable = False


# An all-zero key as Python ints: numpy's ``MT19937.__init__`` copies
# the key one element at a time, and each element of an ndarray would
# cost a numpy scalar.
_ZERO_KEY = (0,) * _N


class _ConstantKey(ISeedSequence):
    """A seed sequence that hands numpy an all-zero key without hashing."""

    def generate_state(self, n_words: int, dtype=np.uint32) -> tuple[int, ...]:
        return _ZERO_KEY[:n_words]


_CONSTANT_KEY = _ConstantKey()


def _seeded_key(seed: int) -> tuple[int, ...]:
    """The key ``init_genrand(seed)`` gives, read from a fresh numpy generator."""
    bitgen = np.random.MT19937(_CONSTANT_KEY)
    bitgen._legacy_seeding(seed)
    return tuple(bitgen.state["state"]["key"].tolist())


def _served_key(raw: np.ndarray, base: int, unread_seed: int | None) -> tuple[int, ...]:
    """The key whose block ``raw[base : base + _N]`` serves."""
    if base == 0 and unread_seed is not None:
        return _seeded_key(unread_seed)
    return tuple(_untemper(raw[base : base + _N]).tolist())


def _untemper(words: np.ndarray) -> np.ndarray:
    """The state words whose tempered outputs are ``words``.

    MT19937 tempers each output with four invertible xor-shift steps;
    this undoes them in reverse order.  The shifts by 18 and 15 undo
    themselves in one round.  The left shift by 7 is undone by repeating
    ``x = y ^ ((x << 7) & mask)``, which fixes 7 more low bits per round,
    and the right shift by 11 likewise from the top.
    """
    y = words.astype(np.uint32)
    y ^= y >> 18
    y ^= (y << 15) & 0xEFC60000
    x = y
    for _ in range(4):
        x = y ^ ((x << 7) & 0x9D2C5680)
    y = x
    for _ in range(2):
        x = y ^ (x >> 11)
    return x


class MTState:
    """Immutable snapshot of an :class:`MT19937` generator.

    ``MTState(key=..., position=...)`` builds one from 624 state words and
    a read position, checked.  :meth:`MT19937.getstate` builds one that
    copies nothing: it holds the served words the generator stands in,
    and ``key`` is derived from them the first time it is read (for
    checkpoint bytes or ``==``), then kept where every snapshot of the
    same served words finds it, so a block is untempered at most once
    however many snapshots it is read from.  Snapshots compare by key and
    position, and a later :meth:`MT19937.setstate` restores exactly the
    captured position in the stream.
    """

    # A generator's snapshot stands at word ``_position`` of the block at
    # ``_raw[_base:]`` it served; one built from a key has no ``_raw``.
    # ``_keys`` maps a block's base to its key once one is derived; the
    # generator and all its snapshots of the same served words share it.
    __slots__ = ("_base", "_keys", "_position", "_raw", "_unread_seed")

    def __init__(self, key: tuple[int, ...], position: int) -> None:
        if len(key) != _N:
            raise ValueError(f"MT19937 state must have {_N} words, got {len(key)}")
        if min(key) < 0 or max(key) > _MASK32:
            raise ValueError("MT19937 state words must lie in [0, 2**32)")
        if not 0 <= position <= _N:
            raise ValueError(f"state position out of range: {position}")
        self._position = position
        self._raw = None
        self._base = 0
        self._keys = {0: tuple(key)}
        self._unread_seed = None

    @property
    def key(self) -> tuple[int, ...]:
        """The 624 untempered state words of the snapshot's block."""
        key = self._keys.get(self._base)
        if key is None:
            key = _served_key(self._raw, self._base, self._unread_seed)
            self._keys[self._base] = key
        return key

    @property
    def position(self) -> int:
        """The read position within the block, 0 to 624."""
        return self._position

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MTState):
            return NotImplemented
        return self._position == other._position and self.key == other.key

    def __hash__(self) -> int:
        return hash((self.key, self._position))

    def __repr__(self) -> str:
        return f"MTState(key={self.key!r}, position={self._position!r})"


class MT19937:
    """32-bit Mersenne Twister with explicit state snapshot/restore.

    >>> gen = MT19937(seed=5489)
    >>> state = gen.getstate()
    >>> first = [gen.next_uint32() for _ in range(3)]
    >>> first
    [3499211612, 581869302, 3890346734]
    >>> gen.setstate(state)
    >>> first == [gen.next_uint32() for _ in range(3)]
    True
    """

    # ``_raw`` holds the tempered outputs of one or more consecutive
    # blocks, and ``_bitgen`` sits at the end of the last, so its next raw
    # draw twists.  The read position is word ``_index`` (0 to 624) of
    # the block at ``_raw[_base:]``; a position on a block boundary
    # belongs to the block it ends, as after word reads.  A block's state
    # is untempered from its words, except a freshly seeded key's unread
    # block at the front of ``_raw``, whose key is derived again from
    # ``_unread_seed``.  ``_raw`` is never written in place, so a
    # snapshot may hold it.  Word reads come from the list ``_block``
    # of the current block's outputs.  Every block starts it as ``None``,
    # and the block's first word read builds it from that word on (the
    # words before it stay 0 and are never read), so a block read only in
    # windows is never converted to Python ints.
    # The latest window starts at word ``_window_start`` of ``_raw``
    # (``_CLOSED`` once nothing may be given back to it).  ``_keys`` holds
    # the keys derived for blocks of ``_raw``, by base; each ``_raw``
    # served gets a new one.
    __slots__ = (
        "_base", "_bitgen", "_block", "_index", "_keys", "_raw",
        "_unread_seed", "_window_start",
    )

    def __init__(self, seed: int = 5489) -> None:
        # ``seed`` overwrites whatever key the bit generator is built with,
        # so it is built from a constant one rather than numpy's hashed
        # SeedSequence seeding.
        self._bitgen = np.random.MT19937(_CONSTANT_KEY)
        self.seed(seed)

    def seed(self, seed: int) -> None:
        """Reinitialise the generator from a non-negative integer seed.

        This is the reference ``init_genrand`` on the low 32 bits, which
        is also how ``numpy.random.RandomState(seed)`` seeds.
        """
        if seed < 0:
            raise ValueError("seed must be non-negative")
        self._bitgen._legacy_seeding(seed & _MASK32)
        self._set_raw(_UNREAD)
        self._unread_seed = seed & _MASK32
        self._index = _N

    # -- state management (the Nomem Refresh prerequisite) ----------------

    def getstate(self) -> MTState:
        """Capture the full generator state as an immutable snapshot.

        Nothing is copied: the snapshot holds the words served, and
        derives its key from them only when the key is read, once per
        block served.
        """
        state = MTState.__new__(MTState)
        state._keys, state._position, state._raw = self._keys, self._index, self._raw
        state._base, state._unread_seed = self._base, self._unread_seed
        return state

    def setstate(self, state: MTState) -> None:
        """Restore a snapshot, from :meth:`getstate` of any generator or
        built from its key."""
        if not isinstance(state, MTState):
            raise TypeError(f"expected MTState, got {type(state).__name__}")
        if state._raw is self._raw and state._unread_seed == self._unread_seed:
            # numpy has served nothing since: stand at the word again.
            self._base = state._base
            self._block = None
            self._window_start = _CLOSED
        elif state._base == 0 and state._unread_seed is not None:
            # A fresh seed's unread block: seeding again is cheaper than
            # deriving its key.
            self.seed(state._unread_seed)
        else:
            # Serve the snapshot's whole block, then move to its position.
            self._bitgen.state = {
                "bit_generator": "MT19937",
                "state": {"key": state.key, "pos": 0},
            }
            self._set_raw(self._bitgen.random_raw(_N))
        self._index = state._position

    # -- core generation ---------------------------------------------------

    def _set_raw(self, raw: np.ndarray) -> None:
        """Serve ``raw``, the blocks up to numpy's current one, from its
        first; the latest window closes."""
        self._raw = raw
        self._base = 0
        self._block = None
        self._keys = {}
        self._unread_seed = None
        self._window_start = _CLOSED

    def _next_block(self) -> None:
        base = self._base + _N
        if base < len(self._raw):  # a later block of the latest window
            self._base = base
            self._block = None
        else:
            self._set_raw(self._bitgen.random_raw(_N))
        self._index = 0

    def _move_to(self, position: int) -> None:
        """Stand at word ``position`` of ``_raw``; a block boundary belongs
        to the block it ends."""
        base = (position - 1) // _N * _N if position else 0
        if base != self._base:
            self._base = base
            self._block = None
        self._index = position - base

    def next_uint32(self) -> int:
        """Return the next raw 32-bit output word."""
        index = self._index
        if index >= _N:
            self._next_block()
            index = 0
        self._index = index + 1
        try:
            return self._block[index]  # type: ignore[index]
        except TypeError:  # None: the block's first word read
            # Reads only move forward from here, so the words before it are
            # never converted; the latest window cannot be given back past
            # them either.
            base = self._base
            self._block = [0] * index + self._raw[base + index : base + _N].tolist()
            self._window_start = _CLOSED
            return self._block[index]

    def random(self) -> float:
        """Return a uniform float in [0, 1) with 53-bit resolution.

        Uses the standard two-word construction (``genrand_res53``) from the
        reference implementation, so doubles match the C code bit-for-bit.
        """
        a = self.next_uint32() >> 5  # 27 bits
        b = self.next_uint32() >> 6  # 26 bits
        return (a * 67108864.0 + b) * _INV_2_53

    def random_array(self, count: int) -> np.ndarray:
        """Return the next doubles, exactly as successive :meth:`random` calls.

        Returns a read-only array of ``min(count, WINDOW)`` doubles.  The
        blocks the window reaches into come from numpy in one call, and
        numpy computes ``genrand_res53`` over the window's words only;
        every step is exact in double precision, so the values are
        bit-identical to :meth:`random`'s.

        >>> a, b = MT19937(seed=7), MT19937(seed=7)
        >>> a.random_array(3).tolist() == [b.random() for _ in range(3)]
        True
        """
        if count < 1:
            raise ValueError("a window holds at least one double")
        raw, base = self._raw, self._base
        start = base + self._index
        stop = start + 2 * min(count, WINDOW)
        if stop > len(raw):
            # Keep the current block whole, read to its end or not: its
            # state may be asked for after a give-back.
            unread_seed = self._unread_seed if base == 0 else None
            fresh = self._bitgen.random_raw(-(-(stop - len(raw)) // _N) * _N)
            self._set_raw(np.concatenate((raw[base:], fresh)))
            self._unread_seed = unread_seed
            start -= base
            stop -= base
        words = self._raw[start:stop]
        window = (words[0::2] >> 5) * 67108864.0 + (words[1::2] >> 6)
        window *= _INV_2_53
        window.flags.writeable = False
        self._move_to(stop)
        self._window_start = start
        return window

    def give_back(self, count: int) -> None:
        """Return the last ``count`` doubles of the latest window, unused.

        The stream then continues as if they had never been drawn.  Only
        doubles of the latest :meth:`random_array` window may be given
        back, and nothing may be drawn in between.
        """
        start = self._window_start
        end = self._base + self._index
        position = end - 2 * count
        if not start <= position <= end:
            if count:
                left = max(0, end - start) // 2
                raise ValueError(
                    f"cannot give back {count} doubles: the latest window has "
                    f"{left} left to give back"
                )
            return
        self._move_to(position)

    def randrange(self, n: int) -> int:
        """Return a uniform integer in ``[0, n)`` without modulo bias.

        Uses rejection sampling on the raw 32/64-bit stream, mirroring what
        high-quality library generators do.
        """
        if n <= 0:
            raise ValueError("randrange() upper bound must be positive")
        if n == 1:
            return 0
        bits = (n - 1).bit_length()
        if bits <= 32:
            while True:
                value = self.next_uint32() >> (32 - bits)
                if value < n:
                    return value
        if bits > 64:
            raise ValueError("randrange() bound exceeds 64 bits")
        while True:
            value = ((self.next_uint32() << 32) | self.next_uint32()) >> (64 - bits)
            if value < n:
                return value

    def jump_discard(self, count: int) -> None:
        """Advance the stream by discarding ``count`` raw outputs.

        The latest window closes: nothing jumped over may be given back.
        """
        if count < 0:
            raise ValueError("count must be non-negative")
        self._window_start = _CLOSED
        position = self._index + count
        if position <= _N:
            self._index = position
            return
        target = self._base + position
        if target <= len(self._raw):  # a later block of the latest window
            self._move_to(target)
            return
        # Whole blocks between here and the target are discarded by numpy
        # without being returned; the target's own block is served.
        blocks, index = divmod(target - (len(self._raw) - _N) - 1, _N)
        self._bitgen.random_raw(_N * (blocks - 1), output=False)
        self._set_raw(self._bitgen.random_raw(_N))
        self._index = index + 1
