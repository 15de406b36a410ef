"""Selection sampling (Vitter 1984, Method S) for the refresh write phase.

The refresh write phase (Sec. 4.2/4.3) must pick which ``k`` of the ``M``
sample positions get displaced while scanning the sample once, front to
back.  The paper does this with the per-position displacement probability
``q_{j,k} = k / (M - j + 1)``, which is exactly *selection sampling*
(Method S): one uniform per scanned position, O(M), and every ``k``-subset
of positions equally likely.  :class:`SequentialSampler` runs it over
windows of uniforms and is what Stack and Nomem Refresh use.

The O(M) tests cost one numpy pass per window, not one Python comparison
per position: ``k`` only falls within a window, so every position whose
product ``u * (M - j)`` reaches the window's first ``k`` is a sure
rejection, and only the few others are walked in Python.  A window
spans up to :data:`~repro.rng.mt19937.WINDOW` uniforms, across MT19937
blocks, and each selected position costs one give-back and one re-take,
both moves of the generator's read position: nothing is drawn twice.

Footnote 4 notes that the skip-based scheme of [3] (Method D) could find
the same positions with O(k) uniforms instead of O(M).  It is not used:
it consumes the stream differently, so it would change every Stack and
Nomem PRNG state, sample byte and cost-model figure.
"""

from __future__ import annotations

from typing import Iterator, Protocol

import numpy as np

__all__ = ["SequentialSampler"]


class UniformWindows(Protocol):
    """A uniform source read a window at a time (see :class:`RandomSource`)."""

    def random_array(self, count: int) -> np.ndarray:  # pragma: no cover
        ...

    def give_back(self, count: int) -> None:  # pragma: no cover
        ...

    def retake(self, count: int) -> None:  # pragma: no cover
        ...


class SequentialSampler:
    """Method-S iterator of selected positions for the refresh write phase.

    Scans positions ``0 .. total-1`` and yields, in ascending order, the
    ``n`` selected ones, using the paper's ``q_{j,k} = k / (M - j + 1)``
    displacement probability: position ``j`` is selected when its uniform
    ``u`` satisfies ``u * (M - j) < k``.  Once every remaining position
    must be selected (``q = 1``) no more uniforms are drawn.

    Uniforms are read a window at a time.  numpy forms the window's
    products ``u * (M - j)`` at once (the same IEEE products as Python's,
    since ``M < 2**53``), and only those below the window's first ``k``
    are tested one by one.  The unused tail of a window is given back
    before a position is yielded, so at every yield the stream stands
    exactly where one ``random()`` per scanned position would have left
    it; the next position re-takes that tail by index (``retake``, no
    new draw) and goes on testing its remembered candidates.  Nothing else
    may draw from the stream between two positions: the re-take then
    raises :class:`ValueError`.

    >>> rng = _FixedSource([0.0, 0.9, 0.0])
    >>> list(SequentialSampler(rng, n=2, total=3))
    [0, 2]
    """

    __slots__ = (
        "_hits", "_rng", "_remaining_selected", "_remaining_records",
        "_start", "_stop", "_total",
    )

    def __init__(self, rng: UniformWindows, n: int, total: int) -> None:
        _check_args(n, total)
        self._rng = rng
        self._remaining_selected = n
        self._remaining_records = total
        self._total = total
        # The given-back tail of the latest window ends where ``_stop``
        # records are left.  ``_hits`` yields its candidates as (offset,
        # product) pairs, the offset counted from the window's start at
        # ``_start`` records.
        self._hits: Iterator[tuple[int, float]] | None = None
        self._start = self._stop = 0

    def __iter__(self) -> "SequentialSampler":
        return self

    def __next__(self) -> int:
        selected = self._remaining_selected
        if selected == 0:
            raise StopIteration
        records = self._remaining_records
        if selected < records:
            records = self._scan(selected, records)
        self._remaining_selected = selected - 1
        self._remaining_records = records - 1
        return self._total - records

    def _scan(self, selected: int, records: int) -> int:
        """Draw until a position is selected; return the records left there.

        A fresh window is cut to ``records - selected`` uniforms, the most
        that can be rejected before every remaining position must be
        selected, or to the generator's window size.
        """
        rng = self._rng
        hits = self._hits
        start, stop = self._start, self._stop
        if hits is not None:
            try:
                rng.retake(records - stop)
            except ValueError:
                raise ValueError(
                    "the uniform stream moved between two selected positions: "
                    "nothing may draw from it while the sampler is in use"
                ) from None
        while True:
            if hits is None:
                window = rng.random_array(records - selected)
                products = window * np.arange(records, records - len(window), -1)
                offsets = np.flatnonzero(products < selected)
                hits = zip(offsets.tolist(), products[offsets].tolist())
                start, stop = records, records - len(window)
                self._start, self._stop = start, stop
            for offset, product in hits:
                if product < selected:
                    records = start - offset
                    tail = records - 1 - stop
                    if tail:
                        rng.give_back(tail)
                        self._hits = hits
                    else:
                        self._hits = None
                    return records
            self._hits = hits = None
            records = stop
            if records == selected:
                return records


class _FixedSource:
    """Deterministic uniform source for doctests."""

    def __init__(self, values: list[float]) -> None:
        self._values = list(values)
        self._window: list[float] = []

    def random_array(self, count: int) -> np.ndarray:
        self._window = self._values[:count]
        del self._values[:count]
        return np.array(self._window)

    def give_back(self, count: int) -> None:
        if count:
            self._values[:0] = self._window[-count:]

    def retake(self, count: int) -> None:
        del self._values[:count]


def _check_args(n: int, total: int) -> None:
    if total < 0:
        raise ValueError(f"total must be non-negative, got {total}")
    if not 0 <= n <= total:
        raise ValueError(f"cannot select {n} records from {total}")
