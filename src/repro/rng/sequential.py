"""Selection sampling (Vitter 1984, Method S) for the refresh write phase.

The refresh write phase (Sec. 4.2/4.3) must pick which ``k`` of the ``M``
sample positions get displaced while scanning the sample once, front to
back.  The paper does this with the per-position displacement probability
``q_{j,k} = k / (M - j + 1)``, which is exactly *selection sampling*
(Method S): one uniform per scanned position, O(M), and every ``k``-subset
of positions equally likely.  :class:`SequentialSampler` runs it over
windows of uniforms and is what Stack and Nomem Refresh use.

Footnote 4 notes that the skip-based scheme of [3] (Method D) could find
the same positions with O(k) uniforms instead of O(M).  It is not used:
it consumes the stream differently, so it would change every Stack and
Nomem PRNG state, sample byte and cost-model figure.
"""

from __future__ import annotations

from typing import Protocol

__all__ = ["SequentialSampler"]


class UniformWindows(Protocol):
    """A uniform source read a window at a time (see :class:`RandomSource`)."""

    def random_window(self, count: int) -> list[float]:  # pragma: no cover
        ...

    def give_back(self, count: int) -> None:  # pragma: no cover
        ...


class SequentialSampler:
    """Method-S iterator of selected positions for the refresh write phase.

    Scans positions ``0 .. total-1`` and yields, in ascending order, the
    ``n`` selected ones, using the paper's ``q_{j,k} = k / (M - j + 1)``
    displacement probability: position ``j`` is selected when its uniform
    ``u`` satisfies ``u * (M - j) < k``.  Once every remaining position
    must be selected (``q = 1``) no more uniforms are drawn.

    Uniforms are read a window at a time and the unused tail of a window
    is given back before a position is yielded, so at every yield the
    stream stands exactly where one ``random()`` per scanned position
    would have left it.

    >>> rng = _FixedSource([0.0, 0.9, 0.0])
    >>> list(SequentialSampler(rng, n=2, total=3))
    [0, 2]
    """

    __slots__ = ("_rng", "_remaining_selected", "_remaining_records", "_total")

    def __init__(self, rng: UniformWindows, n: int, total: int) -> None:
        _check_args(n, total)
        self._rng = rng
        self._remaining_selected = n
        self._remaining_records = total
        self._total = total

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

        A window is cut to ``records - selected`` uniforms, the most that
        can be rejected before every remaining position must be selected.
        About ``2 * records / selected`` covers the expected run of
        rejections with room to spare.
        """
        rng = self._rng
        while True:
            window = rng.random_window(min(2 * records // selected + 8, records - selected))
            for used, u in enumerate(window, 1):
                if u * records < selected:
                    rng.give_back(len(window) - used)
                    return records
                records -= 1
            if records == selected:
                return records


class _FixedSource:
    """Deterministic uniform source for doctests."""

    def __init__(self, values: list[float]) -> None:
        self._values = list(values)
        self._window: list[float] = []

    def random_window(self, count: int) -> list[float]:
        self._window = self._values[:count]
        del self._values[:count]
        return self._window

    def give_back(self, count: int) -> None:
        if count:
            self._values[:0] = self._window[-count:]


def _check_args(n: int, total: int) -> None:
    if total < 0:
        raise ValueError(f"total must be non-negative, got {total}")
    if not 0 <= n <= total:
        raise ValueError(f"cannot select {n} records from {total}")
