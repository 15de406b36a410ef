"""High-level randomness facade used throughout the library.

A :class:`RandomSource` owns one :class:`~repro.rng.mt19937.MT19937`
generator and exposes the handful of variates the paper's algorithms need.
Two design points matter:

* **Snapshot/restore** (:meth:`RandomSource.snapshot`,
  :meth:`RandomSource.restore`) is first-class, because Nomem Refresh
  (Sec. 4.3) and the full-log adapter (Sec. 5) work by replaying a variate
  sequence from a stored PRNG state instead of buffering it in memory.
  It is the one way back in a stream: a snapshot copies no generator
  words, so undoing the draws of a refused batch uses it too.
* **Independent named streams** (:meth:`RandomSource.spawn`): the full-log
  adapter interleaves two replayed sequences (Vitter skips locating
  candidates in the full log, and the refresh algorithm's geometric skips).
  Those must come from *separate* generators or restoring one state would
  corrupt the other stream; ``spawn`` derives a decorrelated child generator
  deterministically from the parent.
"""

from __future__ import annotations

import numpy as np

from repro.rng.distributions import geometric_variate, reservoir_skip
from repro.rng.mt19937 import MT19937, MTState

__all__ = ["RandomSource"]

# SplitMix64 constants, used to derive well-separated child seeds.
_SPLITMIX_GAMMA = 0x9E3779B97F4A7C15
_MASK64 = 0xFFFFFFFFFFFFFFFF


def _splitmix64(x: int) -> int:
    x = (x + _SPLITMIX_GAMMA) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


class RandomSource:
    """Seeded source of the variates the paper's algorithms consume.

    >>> rng = RandomSource(seed=42)
    >>> state = rng.snapshot()
    >>> a = [rng.geometric(0.25) for _ in range(4)]
    >>> rng.restore(state)
    >>> a == [rng.geometric(0.25) for _ in range(4)]
    True
    """

    __slots__ = ("_gen", "_seed", "_spawn_count", "_w")

    def __init__(self, seed: int = 0) -> None:
        self._start(seed, MT19937(seed=_mix_seed(seed)), 0)

    def _start(self, seed: int, generator: MT19937, spawn_count: int) -> "RandomSource":
        """Set every field; the one place a source is assembled."""
        self._seed = seed
        self._gen = generator
        self._spawn_count = spawn_count
        # Vitter Algorithm Z auxiliary variable, carried between skips.
        self._w: float | None = None
        return self

    @classmethod
    def resume(
        cls, seed: int, spawn_count: int, snapshot: tuple[MTState, float | None]
    ) -> "RandomSource":
        """Rebuild a source from its seed, spawn count and :meth:`snapshot`.

        The result continues the original's stream and derives the same
        :meth:`spawn` children, as a checkpoint restore needs.
        """
        source = cls.__new__(cls)._start(seed, MT19937(), spawn_count)
        source.restore(snapshot)
        return source

    @property
    def seed(self) -> int:
        """The seed this source was created with."""
        return self._seed

    @property
    def spawn_count(self) -> int:
        """How many children :meth:`spawn` has derived so far."""
        return self._spawn_count

    # -- uniform primitives -------------------------------------------------

    def random(self) -> float:
        """Uniform float in [0, 1)."""
        return self._gen.random()

    def random_array(self, count: int) -> np.ndarray:
        """The next ``min(count, WINDOW)`` uniforms, as many :meth:`random` calls.

        A window spans as many of the generator's 624-word blocks as it
        needs, up to :data:`~repro.rng.mt19937.WINDOW` doubles; see
        :meth:`MT19937.random_array <repro.rng.mt19937.MT19937.random_array>`.
        """
        return self._gen.random_array(count)

    def give_back(self, count: int) -> None:
        """Undraw the last ``count`` uniforms of the latest window."""
        self._gen.give_back(count)

    def jump(self, count: int) -> None:
        """Pass over the next ``count`` uniforms, as ``count`` :meth:`random`
        calls would, without computing them.

        A uniform is two raw words; numpy steps over the whole blocks
        among them without returning their words (see
        :meth:`MT19937.jump_discard <repro.rng.mt19937.MT19937.jump_discard>`).
        """
        self._gen.jump_discard(2 * count)

    def randrange(self, n: int) -> int:
        """Uniform integer in [0, n) without modulo bias."""
        return self._gen.randrange(n)

    def randint(self, low: int, high: int) -> int:
        """Uniform integer in the inclusive range [low, high]."""
        if high < low:
            raise ValueError(f"empty range [{low}, {high}]")
        return low + self._gen.randrange(high - low + 1)

    def bernoulli(self, p: float) -> bool:
        """Return True with probability ``p``."""
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {p}")
        return self._gen.random() < p

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle."""
        for i in range(len(items) - 1, 0, -1):
            j = self._gen.randrange(i + 1)
            items[i], items[j] = items[j], items[i]

    # -- paper-specific variates ---------------------------------------------

    def geometric(self, p: float) -> int:
        """Failures before first success with success probability ``p``."""
        return geometric_variate(self._gen, p)

    def reservoir_skip(self, sample_size: int, seen: int, method: str = "auto") -> int:
        """Elements to skip before the next reservoir candidate.

        ``seen`` is the number of dataset elements processed so far
        (``t >= sample_size``).  The Algorithm-Z auxiliary variable is
        carried inside this source, so callers just ask for skips.
        """
        skip, self._w = reservoir_skip(self._gen, sample_size, seen, self._w, method)
        return skip

    # -- state management ----------------------------------------------------

    def snapshot(self) -> tuple[MTState, float | None]:
        """Capture the complete replayable state of this source.

        It copies no generator words (see
        :meth:`MT19937.getstate <repro.rng.mt19937.MT19937.getstate>`), so
        it is also the cheap way to undo draws just made.
        """
        return self._gen.getstate(), self._w

    def restore(self, state: tuple[MTState, float | None]) -> None:
        """Restore a snapshot captured by :meth:`snapshot`."""
        mt_state, w = state
        self._gen.setstate(mt_state)
        self._w = w

    def spawn(self, label: str = "") -> "RandomSource":
        """Derive a deterministic, decorrelated child source.

        The child's seed mixes the parent seed, a per-parent spawn counter
        and the label, so repeated runs get identical substreams while
        distinct substreams stay independent.
        """
        self._spawn_count += 1
        material = self._seed & _MASK64
        material = _splitmix64(material ^ self._spawn_count)
        for ch in label:
            material = _splitmix64(material ^ ord(ch))
        return RandomSource.__new__(RandomSource)._start(
            material, MT19937(seed=material & 0xFFFFFFFF), 0
        )

    def __repr__(self) -> str:
        return f"RandomSource(seed={self._seed})"


def _mix_seed(seed: int) -> int:
    """Spread small user seeds across the 32-bit seed space."""
    return _splitmix64(seed & _MASK64) & 0xFFFFFFFF
