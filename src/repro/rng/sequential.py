"""Selection sampling (Vitter 1984, Method S) for the refresh write phase.

The refresh write phase (Sec. 4.2/4.3) must pick which ``k`` of the ``M``
sample positions get displaced while scanning the sample once, front to
back.  The paper does this with the per-position displacement probability
``q_{j,k} = k / (M - j + 1)``, which is exactly *selection sampling*
(Method S): one uniform per scanned position, O(M), and every ``k``-subset
of positions equally likely.  :func:`selection_windows` runs it a window
of uniforms at a time and is what Stack and Nomem Refresh use.

Each window hands its selected positions out as one int64 array, so the
write phase reads their candidates and writes them in columns.  The O(M)
tests cost one numpy pass per window, not one Python comparison per
position: ``k`` only falls within a window, so every position whose
product ``u * (M - j)`` reaches the window's first ``k`` is a sure
rejection, and only the few others are walked in Python.  A window
spans up to :data:`~repro.rng.mt19937.WINDOW` uniforms, across MT19937
blocks, and every one of them is a scanned position's uniform: a window
is never longer than the rejections left before every remaining position
must be selected.  Only the last window can end early, at the ``n``-th
selection, and its unused tail is given back.  So the stream ends where
one ``random()`` per scanned position would leave it, and nothing is
given back or drawn again between windows.

Footnote 4 notes that the skip-based scheme of [3] (Method D) could find
the same positions with O(k) uniforms instead of O(M).  It is not used:
it consumes the stream differently, so it would change every Stack and
Nomem PRNG state, sample byte and cost-model figure.
"""

from __future__ import annotations

from typing import Iterator, Protocol

import numpy as np

from repro.rng.mt19937 import WINDOW

__all__ = ["selection_windows"]


class UniformWindows(Protocol):
    """A uniform source read a window at a time (see :class:`RandomSource`)."""

    def random_array(self, count: int) -> np.ndarray:  # pragma: no cover
        ...

    def give_back(self, count: int) -> None:  # pragma: no cover
        ...


def selection_windows(
    rng: UniformWindows, n: int, total: int
) -> Iterator[np.ndarray]:
    """Method S's ``n`` selected positions of ``0 .. total-1``, ascending,
    as one int64 array per window of uniforms.

    Position ``j`` is selected when its uniform ``u`` satisfies
    ``u * (M - j) < k`` (the paper's ``q_{j,k} = k / (M - j + 1)``, with
    ``k`` selections left).  numpy forms a window's products at once (the
    same IEEE products as Python's, since ``M < 2**53``), and only those
    below the window's first ``k`` are tested one by one.  Once every
    remaining position must be selected (``q = 1``) no more uniforms are
    drawn, and the rest come out ``WINDOW`` positions at a time.  A window
    that selects nothing yields nothing, so no array is empty or longer
    than :data:`~repro.rng.mt19937.WINDOW`.  Arguments are checked at the
    call; drawing starts with the first window asked for.

    >>> rng = _FixedSource([0.0, 0.9, 0.0])
    >>> np.concatenate(list(selection_windows(rng, n=2, total=3))).tolist()
    [0, 2]
    """
    if total < 0:
        raise ValueError(f"total must be non-negative, got {total}")
    if not 0 <= n <= total:
        raise ValueError(f"cannot select {n} records from {total}")
    return _windows(rng, n, total)


def _windows(rng: UniformWindows, selected: int, total: int) -> Iterator[np.ndarray]:
    records = total
    while selected:
        first = total - records
        if selected == records:
            for start in range(first, total, WINDOW):
                yield np.arange(start, min(start + WINDOW, total), dtype=np.int64)
            return
        # At most the rejections left before q = 1: every uniform drawn
        # belongs to a scanned position.
        window = rng.random_array(records - selected)
        products = window * np.arange(records, records - len(window), -1)
        offsets = np.flatnonzero(products < selected)
        hits = []
        for offset, product in zip(offsets.tolist(), products[offsets].tolist()):
            if product < selected:
                hits.append(offset)
                selected -= 1
                if not selected:
                    rng.give_back(len(window) - 1 - offset)
                    break
        records -= len(window)
        if hits:
            yield np.add(hits, first, dtype=np.int64)


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
