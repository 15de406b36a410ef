"""Reservoir sampling (Vitter's skip-based reservoir scheme).

All maintenance strategies in the paper are built on the reservoir scheme
(Sec. 2): the first ``M`` elements fill the sample; afterwards the ``t+1``-th
element replaces a uniformly random sample slot with probability
``M / (t+1)``.  Two operational modes matter here:

* :meth:`ReservoirSampler.offer_many` performs the full step -- acceptance
  test *and* victim-slot choice -- and is what **immediate** maintenance
  and the initial build use;
* :meth:`ReservoirSampler.test_many` performs the acceptance test only,
  which is the **candidate logging** primitive (Sec. 3.2): the victim slot
  is chosen later, during refresh.

Both run one lazy skip walk: acceptance is computed via Vitter's skip
variates (Algorithms X/Z, [4]), so long streams pay O(candidates), not
O(elements).  One arrival is a batch of one.  The literal
one-Bernoulli-per-element Algorithm R lives in the tests
(``tests/properties/kind_oracle.py``), which check this walk against it.
"""

from __future__ import annotations

from typing import Iterable, Sequence, TypeVar

from repro.rng.random_source import RandomSource

__all__ = ["ReservoirSampler", "build_reservoir"]

T = TypeVar("T")


class ReservoirSampler:
    """Stateful reservoir acceptance over a growing dataset.

    The sampler tracks how many elements it has seen (``|R|`` in the paper)
    and decides, per batch of arrivals, which become candidates.  It does
    **not** store the sample itself -- the sample lives on disk (a
    :class:`~repro.storage.files.SampleFile`) or wherever the caller keeps
    it; the sampler reports slots/acceptances.

    ``initial_size`` seeds the dataset-size counter for datasets that
    already contain elements (the paper's experiments start with
    ``|R| = 1M`` and a full sample).  ``rng`` is the stream every draw
    comes from; a sampler whose owner hands the stream in per call
    (:class:`~repro.core.kinds.UniformKind`) rebinds it.
    """

    def __init__(self, capacity: int, rng: RandomSource, initial_size: int = 0) -> None:
        if capacity <= 0:
            raise ValueError("reservoir capacity must be positive")
        if initial_size < 0:
            raise ValueError("initial_size must be non-negative")
        if 0 < initial_size < capacity:
            raise ValueError(
                "initial_size must be 0 (empty) or >= capacity (full sample); "
                "partially filled disk samples are not meaningful here"
            )
        self._capacity = capacity
        self.rng = rng
        self._seen = initial_size
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

    def defer(self, count: int) -> None:
        """Count ``count`` arrivals untested (full logging tests at refresh)."""
        if self._next_accept is not None:
            raise RuntimeError("cannot defer arrivals past a pending acceptance")
        self._seen += count

    def mark(self) -> tuple:
        """What a batch refused after its acceptance test gives back: the
        stream's snapshot, ``seen`` and the pending accept."""
        return self.rng.snapshot(), self._seen, self._next_accept

    def rewind(self, mark: tuple) -> None:
        """Go back to a :meth:`mark`, as if the arrivals since had never
        come."""
        snapshot, self._seen, self._next_accept = mark
        self.rng.restore(snapshot)

    def test_many(
        self, n: int, max_accepts: int | None = None
    ) -> tuple[int, list[int]]:
        """Acceptance-test up to ``n`` arrivals in one call.

        Returns ``(consumed, accepted)`` where ``accepted`` holds the
        0-based indexes *within the consumed prefix* that became
        candidates.  ``consumed < n`` only when ``max_accepts`` was
        reached -- then the call stops right after the accepting element,
        leaving the sampler as if the rest had never arrived.

        Raises while the sampler is still filling: candidate logging only
        makes sense once an initial sample exists (Sec. 3 assumes "a
        uniform random sample of size M has been computed already").
        """
        if self._seen < self._capacity:
            raise RuntimeError(
                "candidate test before the initial sample is complete; "
                "build the sample first (e.g. with build_reservoir())"
            )
        _check_batch(n, max_accepts)
        return self._walk(n, max_accepts, 0, None)

    def offer_many(
        self, n: int, max_accepts: int | None = None
    ) -> tuple[int, list[tuple[int, int]]]:
        """The full reservoir step over ``n`` arrivals:
        ``(consumed, [(index, slot), ...])``.

        ``index`` is the 0-based position within the consumed prefix,
        ``slot`` the sample slot the element replaces.  While filling,
        each arrival takes the next free slot; afterwards the acceptance
        walk of :meth:`test_many` runs, drawing each accepted element's
        slot uniformly at its acceptance, before the next skip.
        """
        _check_batch(n, max_accepts)
        placed: list[tuple[int, int]] = []
        consumed = 0
        while self._seen < self._capacity and consumed < n:
            placed.append((consumed, self._seen))
            self._seen += 1
            consumed += 1
            if max_accepts is not None and len(placed) >= max_accepts:
                return consumed, placed
        quota = None if max_accepts is None else max_accepts - len(placed)
        slots: list[int] = []
        walked, accepted = self._walk(n - consumed, quota, consumed, slots)
        placed += zip(accepted, slots)
        return consumed + walked, placed

    def _walk(
        self, n: int, max_accepts: int | None, first: int, slots: list[int] | None
    ) -> tuple[int, list[int]]:
        """The lazy skip walk over ``n`` arrivals of a full reservoir:
        ``(walked, accepted)``, the accepted arrivals numbered from
        ``first``.

        A skip is drawn when an arrival finds none pending, with ``seen``
        still counting the arrivals before it, so the draws do not depend
        on how the stream is cut into batches; Python work is
        O(accepted), not O(n).  With a ``slots`` list, each acceptance
        also draws its victim slot into it, before the next skip.
        """
        capacity = self._capacity
        rng = self.rng
        start = pos = self._seen
        end = start + n
        # Arrival ``seen + 1`` is number ``first``.
        origin = start + 1 - first
        # At most n arrivals accept, so n is an open quota.
        quota = n if max_accepts is None else max_accepts
        accepted: list[int] = []
        next_accept = self._next_accept
        while True:
            if next_accept is None:
                if pos >= end:
                    break
                next_accept = pos + rng.reservoir_skip(capacity, pos) + 1
            if next_accept > end:
                pos = end
                break
            accepted.append(next_accept - origin)
            if slots is not None:
                slots.append(rng.randrange(capacity))
            pos = next_accept
            next_accept = None
            if len(accepted) >= quota:
                break
        self._seen = pos
        self._next_accept = next_accept
        return pos - start, accepted


def _check_batch(n: int, max_accepts: int | None) -> None:
    if n < 0:
        raise ValueError("batch size must be non-negative")
    if max_accepts is not None and max_accepts <= 0:
        raise ValueError("max_accepts must be positive (or None)")


def build_reservoir(
    items: Iterable[T], capacity: int, rng: RandomSource
) -> tuple[list[T], int]:
    """Compute an initial reservoir sample of ``items`` in one pass.

    Returns ``(sample, dataset_size)``.  This is the "sample has been
    computed already" precondition of Sec. 3; use it to initialise a
    :class:`~repro.storage.files.SampleFile` before starting maintenance.
    """
    if not isinstance(items, (list, tuple, range)):
        items = list(items)
    sampler = ReservoirSampler(capacity, rng)
    _, placed = sampler.offer_many(len(items))
    sample: list[T] = []
    for index, slot in placed:
        if slot == len(sample):
            sample.append(items[index])
        else:
            sample[slot] = items[index]
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
