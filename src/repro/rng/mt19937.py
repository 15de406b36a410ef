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
of doubles computed by numpy from that block, and snapshots as immutable
:class:`MTState` values.  A snapshot is exactly
numpy's ``{"key", "pos"}`` state -- the 624 untempered words plus the
read position -- so the stream matches the reference C implementation
word for word (see ``tests/rng/test_mt19937.py``).

The state is 624 32-bit words plus an index -- about 2.5 KiB, which is the
"negligible" memory footprint the paper attributes to Nomem Refresh.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.random.bit_generator import ISeedSequence

__all__ = ["MT19937", "MTState"]

_N = 624
_MASK32 = 0xFFFFFFFF

# 1 / 2**53, for 53-bit doubles in [0, 1).
_INV_2_53 = 1.0 / 9007199254740992.0


class _ConstantKey(ISeedSequence):
    """A seed sequence that hands numpy an all-zero key without hashing."""

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        return np.zeros(n_words, dtype=dtype)


_CONSTANT_KEY = _ConstantKey()


@dataclass(frozen=True)
class MTState:
    """Immutable snapshot of an :class:`MT19937` generator.

    Snapshots are value objects: capturing one never aliases the live
    generator, so a later :meth:`MT19937.setstate` restores exactly the
    captured position in the stream.
    """

    key: tuple[int, ...]
    position: int

    def __post_init__(self) -> None:
        if len(self.key) != _N:
            raise ValueError(f"MT19937 state must have {_N} words, got {len(self.key)}")
        if min(self.key) < 0 or max(self.key) > _MASK32:
            raise ValueError("MT19937 state words must lie in [0, 2**32)")
        if not 0 <= self.position <= _N:
            raise ValueError(f"state position out of range: {self.position}")

    @classmethod
    def _of_generator(cls, key: tuple[int, ...], position: int) -> "MTState":
        """A snapshot of the words a generator holds, built unchecked:
        they came from numpy's 32-bit state or from a checked snapshot."""
        state = object.__new__(cls)
        object.__setattr__(state, "key", key)
        object.__setattr__(state, "position", position)
        return state


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

    # ``_raw`` holds the tempered outputs of the state words ``_key``;
    # ``_bitgen`` sits at the end of that block, so its next raw draw
    # twists.  ``_key`` is read from numpy lazily, once per block.  Word
    # reads come from the list ``_block`` of the same outputs.  Every new
    # block starts it as ``None``, and the block's first word read builds
    # it from that word on (the words before it stay 0 and are never
    # read), so a block read only in windows is never converted to Python
    # ints.
    # ``_doubles`` is the read-only array of the block's doubles on word
    # pairs that start at an index of parity ``_parity`` (-1: not computed
    # for this block).  The latest window starts at word ``_window_start``
    # (past the block: none to give back to).
    __slots__ = (
        "_bitgen", "_block", "_doubles", "_index", "_key", "_parity", "_raw",
        "_window_start",
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
        self._block: list[int] | None = None
        self._raw = np.empty(0, dtype=np.uint64)
        self._doubles = np.empty(0)
        self._parity = -1
        self._index = _N
        self._key: tuple[int, ...] | None = None
        self._window_start = _N + 1

    # -- state management (the Nomem Refresh prerequisite) ----------------

    def getstate(self) -> MTState:
        """Capture the full generator state as an immutable snapshot."""
        if self._key is None:
            self._key = tuple(self._bitgen.state["state"]["key"].tolist())
        return MTState._of_generator(self._key, self._index)

    def setstate(self, state: MTState) -> None:
        """Restore a snapshot captured by :meth:`getstate`."""
        if not isinstance(state, MTState):
            raise TypeError(f"expected MTState, got {type(state).__name__}")
        # Serve the snapshot's whole block, then move to its position.
        self._bitgen.state = {
            "bit_generator": "MT19937",
            "state": {"key": state.key, "pos": 0},
        }
        self._load_block()
        self._index = state.position
        self._key = state.key

    # -- core generation ---------------------------------------------------

    def _load_block(self) -> None:
        self._raw = self._bitgen.random_raw(_N)
        self._block = None
        self._parity = -1
        self._window_start = _N + 1

    def _next_block(self) -> None:
        self._load_block()
        self._index = 0
        self._key = None

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
            self._block = [0] * index + self._raw[index:].tolist()
            self._window_start = _N + 1
            return self._block[index]

    def random(self) -> float:
        """Return a uniform float in [0, 1) with 53-bit resolution.

        Uses the standard two-word construction (``genrand_res53``) from the
        reference implementation, so doubles match the C code bit-for-bit.
        """
        a = self.next_uint32() >> 5  # 27 bits
        b = self.next_uint32() >> 6  # 26 bits
        return (a * 67108864.0 + b) * _INV_2_53

    def _straddling_double(self) -> float:
        """:meth:`random` on the block's last word and the next block's
        first, read from numpy so that neither block's words are converted."""
        high = int(self._raw[_N - 1]) >> 5
        self._next_block()
        self._index = 1
        return (high * 67108864.0 + (int(self._raw[0]) >> 6)) * _INV_2_53

    def random_array(self, count: int) -> np.ndarray:
        """Return the next doubles, exactly as successive :meth:`random` calls.

        Returns a read-only array of at most ``count`` doubles and at
        least one (for ``count >= 1``), all from the current 624-word
        block: the window ends early where the block does.  The one double
        that straddles two blocks comes back alone.  numpy computes
        ``genrand_res53`` over the block's words once per block; every
        step is exact in double precision, so the values are
        bit-identical to :meth:`random`'s.

        >>> a, b = MT19937(seed=7), MT19937(seed=7)
        >>> a.random_array(3).tolist() == [b.random() for _ in range(3)]
        True
        """
        if count < 1:
            raise ValueError("a window holds at least one double")
        index = self._index
        if index >= _N:
            self._next_block()
            index = 0
        elif index == _N - 1:
            self._window_start = _N + 1  # the straddling double stays drawn
            return np.array([self._straddling_double()])
        parity = index & 1
        if self._parity != parity:
            # The doubles of word pairs (parity, parity+1), (parity+2, ...).
            words = self._raw[parity : _N - parity]
            high, low = words[0::2] >> 5, words[1::2] >> 6
            self._doubles = (high * 67108864.0 + low) * _INV_2_53
            self._doubles.flags.writeable = False
            self._parity = parity
        start = index >> 1
        stop = start + count
        if stop > (_N - parity) >> 1:  # the block's last pair of this parity
            stop = (_N - parity) >> 1
        self._window_start = index
        self._index = 2 * stop + parity
        return self._doubles[start:stop]

    def give_back(self, count: int) -> None:
        """Return the last ``count`` doubles of the latest window, unused.

        The stream then continues as if they had never been drawn.  Only
        doubles of the latest :meth:`random_array` window may be given
        back, never the double of a window that straddled two blocks, and
        nothing may be drawn in between.
        """
        index = self._index - 2 * count
        if not self._window_start <= index <= self._index and count:
            left = max(0, self._index - self._window_start) // 2
            raise ValueError(
                f"cannot give back {count} doubles: the latest window has "
                f"{left} left to give back"
            )
        self._index = index

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
        """Advance the stream by discarding ``count`` raw outputs."""
        if count < 0:
            raise ValueError("count must be non-negative")
        position = self._index + count
        if position <= _N:
            self._index = position
            return
        # Whole blocks between here and the target are discarded by numpy
        # without being returned; the target's own block is served.
        blocks, index = divmod(position - 1, _N)
        self._bitgen.random_raw(_N * (blocks - 1), output=False)
        self._next_block()
        self._index = index + 1
