"""Reservoir sampling (Vitter's Algorithm R with skip-based acceleration).

All maintenance strategies in the paper are built on the reservoir scheme
(Sec. 2): the first ``M`` elements fill the sample; afterwards the ``t+1``-th
element replaces a uniformly random sample slot with probability
``M / (t+1)``.  Two operational modes matter here:

* :meth:`ReservoirSampler.offer` performs the full step -- acceptance test
  *and* victim-slot choice -- and is what **immediate** maintenance uses;
* :meth:`ReservoirSampler.test` performs the acceptance test only, which is
  the **candidate logging** primitive (Sec. 3.2): the victim slot is chosen
  later, during refresh.

Acceptance is computed via Vitter's skip variates (Algorithms X/Z, [4]),
so long streams pay O(candidates), not O(elements); ``skip_method="r"``
switches to the literal one-Bernoulli-per-element Algorithm R, which tests
use to validate the skip-based path.
"""

from __future__ import annotations

from typing import Iterable, Sequence, TypeVar

from repro.rng.random_source import RandomSource

__all__ = ["ReservoirSampler", "build_reservoir"]

T = TypeVar("T")


class ReservoirSampler:
    """Stateful reservoir acceptance over a growing dataset.

    The sampler tracks how many elements it has seen (``|R|`` in the paper)
    and decides, per arriving element, whether it becomes a candidate.  It
    does **not** store the sample itself -- the sample lives on disk (a
    :class:`~repro.storage.files.SampleFile`) or wherever the caller keeps
    it; the sampler reports slots/acceptances.

    ``initial_size`` seeds the dataset-size counter for datasets that
    already contain elements (the paper's experiments start with
    ``|R| = 1M`` and a full sample).  ``rng`` is the stream every draw
    comes from; a sampler whose owner hands the stream in per call
    (:class:`~repro.core.kinds.UniformKind`) rebinds it.
    """

    def __init__(
        self,
        capacity: int,
        rng: RandomSource,
        initial_size: int = 0,
        skip_method: str = "auto",
    ) -> None:
        if capacity <= 0:
            raise ValueError("reservoir capacity must be positive")
        if initial_size < 0:
            raise ValueError("initial_size must be non-negative")
        if skip_method not in ("auto", "x", "z", "r"):
            raise ValueError(f"unknown skip method: {skip_method!r}")
        if 0 < initial_size < capacity:
            raise ValueError(
                "initial_size must be 0 (empty) or >= capacity (full sample); "
                "partially filled disk samples are not meaningful here"
            )
        self._capacity = capacity
        self.rng = rng
        self._seen = initial_size
        self._skip_method = skip_method
        # Position (1-based count) of the next accepted element, or None if
        # it has not been determined yet.
        self._next_accept: int | None = None

    @property
    def capacity(self) -> int:
        """Sample size ``M``."""
        return self._capacity

    @property
    def seen(self) -> int:
        """Dataset size ``|R|``: elements processed so far."""
        return self._seen

    @property
    def filling(self) -> bool:
        """True while the first ``M`` elements are still being collected."""
        return self._seen < self._capacity

    @property
    def pending_accept(self) -> int | None:
        """Precomputed 1-based position of the next accepted element.

        Skip-based acceptance holds one pending draw between elements;
        checkpoint/recovery (see :mod:`repro.storage.superblock`) must
        persist it for bit-exact resumption.
        """
        return self._next_accept

    @pending_accept.setter
    def pending_accept(self, value: int | None) -> None:
        if value is not None and value <= self._seen:
            raise ValueError(
                f"pending accept position {value} is not in the future "
                f"(seen={self._seen})"
            )
        self._next_accept = value

    def offer(self, _element: T = None) -> int | None:
        """Process one arriving element; return its sample slot or ``None``.

        While filling, every element is accepted into the next free slot.
        Afterwards the element is accepted with probability ``M/(|R|+1)``
        into a uniformly random slot.  The element value itself is not
        needed -- only the caller knows where the sample lives -- but may
        be passed for readability.
        """
        if self._seen < self._capacity:
            slot = self._seen
            self._seen += 1
            return slot
        if self._accept_next():
            return self.rng.randrange(self._capacity)
        return None

    def test(self, _element: T = None) -> bool:
        """Acceptance test only (the candidate-logging primitive).

        Raises while the sampler is still filling: candidate logging only
        makes sense once an initial sample exists (Sec. 3 assumes "a
        uniform random sample of size M has been computed already").
        """
        if self._seen < self._capacity:
            raise RuntimeError(
                "candidate test before the initial sample is complete; "
                "build the sample first (e.g. with build_reservoir())"
            )
        return self._accept_next()

    def _accept_next(self) -> bool:
        """Advance ``seen`` by one; True if that element is a candidate."""
        if self._skip_method == "r":
            # Literal Algorithm R: one Bernoulli per element.
            self._seen += 1
            return self.rng.random() * self._seen < self._capacity
        if self._next_accept is None:
            skip = self.rng.reservoir_skip(
                self._capacity, self._seen, method=self._skip_method
            )
            self._next_accept = self._seen + skip + 1
        self._seen += 1
        if self._seen == self._next_accept:
            self._next_accept = None
            return True
        return False

    # -- batched acceptance (the skip-jumping fast path) ---------------------

    def test_many(
        self, n: int, max_accepts: int | None = None
    ) -> tuple[int, list[int]]:
        """Acceptance-test up to ``n`` arrivals in one call.

        Returns ``(consumed, accepted)`` where ``accepted`` holds the
        0-based indexes *within the consumed prefix* that became
        candidates.  ``consumed < n`` only when ``max_accepts`` was
        reached -- then the call stops right after the accepting element,
        leaving the sampler in exactly the state ``consumed`` scalar
        :meth:`test` calls would have left it in.

        The skip variates are drawn lazily in the same order as the
        scalar path, so for a given PRNG state the accepted positions
        (and the PRNG state afterwards) are bit-identical to per-element
        :meth:`test` calls; Python work is O(accepted), not O(n).
        """
        if self._seen < self._capacity:
            raise RuntimeError(
                "candidate test before the initial sample is complete; "
                "build the sample first (e.g. with build_reservoir())"
            )
        if n < 0:
            raise ValueError("batch size must be non-negative")
        if max_accepts is not None and max_accepts <= 0:
            raise ValueError("max_accepts must be positive (or None)")
        if self._skip_method == "r":
            return self._test_many_bernoulli(n, max_accepts)
        start = self._seen
        end = start + n
        pos = start
        accepted: list[int] = []
        next_accept = self._next_accept
        while True:
            if next_accept is None:
                if pos >= end:
                    break
                # Lazy draw, exactly as the scalar path: drawn at the
                # arrival of element pos+1 with ``seen`` still == pos.
                skip = self.rng.reservoir_skip(
                    self._capacity, pos, method=self._skip_method
                )
                next_accept = pos + skip + 1
            if next_accept <= end:
                accepted.append(next_accept - start - 1)
                pos = next_accept
                next_accept = None
                if max_accepts is not None and len(accepted) >= max_accepts:
                    break
            else:
                pos = end
                break
        self._seen = pos
        self._next_accept = next_accept
        return pos - start, accepted

    def _test_many_bernoulli(
        self, n: int, max_accepts: int | None
    ) -> tuple[int, list[int]]:
        """Literal Algorithm R fallback: one draw per element, batched."""
        accepted: list[int] = []
        seen = self._seen
        capacity = self._capacity
        random = self.rng.random
        consumed = 0
        for i in range(n):
            seen += 1
            consumed += 1
            if random() * seen < capacity:
                accepted.append(i)
                if max_accepts is not None and len(accepted) >= max_accepts:
                    break
        self._seen = seen
        return consumed, accepted

    def offer_many(
        self, n: int, max_accepts: int | None = None
    ) -> tuple[int, list[tuple[int, int]]]:
        """Batched :meth:`offer`: returns ``(consumed, [(index, slot), ...])``.

        ``index`` is the 0-based position within the consumed prefix,
        ``slot`` the sample slot the element replaces.  Victim-slot draws
        are interleaved with the skip draws exactly as scalar
        :meth:`offer` interleaves them, so the variate stream -- and thus
        every later decision -- is bit-identical to the scalar path.
        """
        if n < 0:
            raise ValueError("batch size must be non-negative")
        if max_accepts is not None and max_accepts <= 0:
            raise ValueError("max_accepts must be positive (or None)")
        placed: list[tuple[int, int]] = []
        consumed = 0
        while self._seen < self._capacity and consumed < n:
            placed.append((consumed, self._seen))
            self._seen += 1
            consumed += 1
            if max_accepts is not None and len(placed) >= max_accepts:
                return consumed, placed
        if consumed >= n:
            return consumed, placed
        if self._skip_method == "r":
            return self._offer_many_bernoulli(n, consumed, placed, max_accepts)
        start = self._seen
        end = start + (n - consumed)
        pos = start
        next_accept = self._next_accept
        while True:
            if next_accept is None:
                if pos >= end:
                    break
                skip = self.rng.reservoir_skip(
                    self._capacity, pos, method=self._skip_method
                )
                next_accept = pos + skip + 1
            if next_accept <= end:
                # Slot draw happens at acceptance time, before the next
                # skip draw -- the scalar ordering.
                slot = self.rng.randrange(self._capacity)
                placed.append((consumed + next_accept - start - 1, slot))
                pos = next_accept
                next_accept = None
                if max_accepts is not None and len(placed) >= max_accepts:
                    break
            else:
                pos = end
                break
        self._seen = pos
        self._next_accept = next_accept
        return consumed + pos - start, placed

    def _offer_many_bernoulli(
        self,
        n: int,
        consumed: int,
        placed: list[tuple[int, int]],
        max_accepts: int | None,
    ) -> tuple[int, list[tuple[int, int]]]:
        seen = self._seen
        capacity = self._capacity
        random = self.rng.random
        for i in range(consumed, n):
            seen += 1
            consumed += 1
            if random() * seen < capacity:
                placed.append((i, self.rng.randrange(capacity)))
                if max_accepts is not None and len(placed) >= max_accepts:
                    self._seen = seen
                    return consumed, placed
        self._seen = seen
        return consumed, placed


def build_reservoir(
    items: Iterable[T],
    capacity: int,
    rng: RandomSource,
    skip_method: str = "auto",
) -> tuple[list[T], int]:
    """Compute an initial reservoir sample of ``items`` in one pass.

    Returns ``(sample, dataset_size)``.  This is the "sample has been
    computed already" precondition of Sec. 3; use it to initialise a
    :class:`~repro.storage.files.SampleFile` before starting maintenance.
    """
    sampler = ReservoirSampler(capacity, rng, skip_method=skip_method)
    sample: list[T] = []
    for item in items:
        slot = sampler.offer(item)
        if slot is None:
            continue
        if slot == len(sample):
            sample.append(item)
        else:
            sample[slot] = item
    return sample, sampler.seen


def sample_is_plausible(sample: Sequence[T], capacity: int, seen: int, kind) -> bool:
    """Cheap structural invariant used by tests: correct size bookkeeping.

    The sample must hold exactly ``min(capacity, seen)`` rows, and each
    row must satisfy its :class:`~repro.core.kinds.SampleKind`'s
    invariants (uniform: plain integers; weighted: finite non-negative
    keys at or below the stale threshold; window: each row's sequence
    maps to its slot and is below ``seen``).
    """
    if seen < 0 or capacity <= 0:
        return False
    expected = min(capacity, seen)
    if len(sample) != expected:
        return False
    return kind.plausible(sample, seen)
