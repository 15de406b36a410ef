"""Vitter's sequential sampling (CACM 1984), Methods S, A and D.

The refresh write phase (Sec. 4.2/4.3) must pick which ``k`` of the ``M``
sample positions get displaced while scanning the sample once, front to
back.  The paper does this with the per-position displacement probability
``q_{j,k} = k / (M - j + 1)`` -- which is exactly *selection sampling*
(Method S) -- and notes (footnote 4) that it "can be done efficiently using
the sequential sampling scheme introduced in [3]", i.e. by generating skip
lengths directly (Methods A/D) instead of one Bernoulli trial per position.

We provide all three so the write phase can use whichever fits, and so the
equivalence (identical selection distribution) can be tested:

* :func:`selection_skips_s` / :class:`SequentialSampler` -- Method S,
  one uniform per position, O(M); the sampler reads its uniforms a
  window at a time and is what the write phase runs;
* :func:`selection_skips_a` -- Method A, one uniform per *selected*
  position, O(M) time but O(k) variates;
* :func:`selection_skips_d` -- Method D, O(k) time and variates.
"""

from __future__ import annotations

import math
from typing import Iterator, Protocol

from repro.rng.distributions import UniformSource

__all__ = [
    "SequentialSampler",
    "selection_skips_s",
    "selection_skips_a",
    "selection_skips_d",
    "sequential_sample",
]

# Vitter's alpha = 1/13: use Method D only while n < N/13, else A is cheaper.
_ALPHA_INVERSE = 13


def selection_skips_s(rng: UniformSource, n: int, total: int) -> Iterator[int]:
    """Method S: yield skips by per-record Bernoulli trials.

    Selects ``n`` of ``total`` records; yields the number of records skipped
    before each selected record.  This is the literal
    ``q = remaining_selected / remaining_records`` loop of Algorithms 2/3
    in the paper.
    """
    _check_args(n, total)
    skipped = 0
    remaining_records = total
    remaining_selected = n
    while remaining_selected > 0:
        if rng.random() * remaining_records < remaining_selected:
            yield skipped
            skipped = 0
            remaining_selected -= 1
        else:
            skipped += 1
        remaining_records -= 1


def selection_skips_a(rng: UniformSource, n: int, total: int) -> Iterator[int]:
    """Method A: yield skips found by sequential search of the skip CDF.

    One uniform variate per selected record; the search itself is O(skip).
    """
    _check_args(n, total)
    remaining = total
    while n >= 2:
        v = rng.random()
        s = 0
        top = remaining - n
        quot = top / remaining
        while quot > v:
            s += 1
            top -= 1
            remaining -= 1
            quot = (quot * top) / remaining
        remaining -= 1  # account for the selected record
        yield s
        n -= 1
    if n == 1:
        # Last record is uniform over what remains.
        yield int(remaining * rng.random())


def selection_skips_d(rng: UniformSource, n: int, total: int) -> Iterator[int]:
    """Method D: yield skips in O(n) total time via rejection sampling.

    Follows Vitter's published Algorithm D, including the switch to
    Method A once ``n`` is a large fraction of the remaining records
    (``n >= remaining / 13``).
    """
    _check_args(n, total)
    remaining = total
    if n == 0:
        return
    threshold = _ALPHA_INVERSE * n
    vprime = _nth_root_uniform(rng, n)
    qu1 = remaining - n + 1
    while n > 1:
        if threshold >= remaining:
            # Dense regime: Method A is faster and exact.
            yield from selection_skips_a(rng, n, remaining)
            return
        while True:
            # Step D2: candidate skip X from the majorising density.
            while True:
                x = remaining * (1.0 - vprime)
                s = int(x)
                if s < qu1:
                    break
                vprime = _nth_root_uniform(rng, n)
            u = rng.random()
            # Step D3: squeeze acceptance.
            y1 = math.exp(math.log(u * remaining / qu1) / (n - 1))
            vprime = y1 * (1.0 - x / remaining) * (qu1 / (qu1 - s))
            if vprime <= 1.0:
                break
            # Step D4: exact acceptance test.
            y2 = 1.0
            top = remaining - 1
            if n - 1 > s:
                bottom = remaining - n
                limit = remaining - s
            else:
                bottom = remaining - s - 1
                limit = qu1
            t = remaining - 1
            while t >= limit:
                y2 = (y2 * top) / bottom
                top -= 1
                bottom -= 1
                t -= 1
            if remaining / (remaining - x) >= y1 * math.exp(math.log(y2) / (n - 1)):
                vprime = _nth_root_uniform(rng, n - 1)
                break
            vprime = _nth_root_uniform(rng, n)
        yield s
        remaining -= s + 1
        qu1 -= s
        threshold -= _ALPHA_INVERSE
        n -= 1
    # n == 1: the final skip is floor(remaining * V), V uniform.
    yield int(remaining * vprime)


def sequential_sample(rng: UniformSource, n: int, total: int, method: str = "d") -> list[int]:
    """Return ``n`` sorted distinct positions drawn uniformly from ``range(total)``.

    Convenience wrapper over the skip generators.
    """
    generators = {
        "s": selection_skips_s,
        "a": selection_skips_a,
        "d": selection_skips_d,
    }
    if method not in generators:
        raise ValueError(f"unknown sequential sampling method: {method!r}")
    positions: list[int] = []
    cursor = 0
    for skip in generators[method](rng, n, total):
        cursor += skip
        positions.append(cursor)
        cursor += 1
    return positions


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

    @property
    def remaining(self) -> int:
        """How many records are still to be selected."""
        return self._remaining_selected

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


def _nth_root_uniform(rng: UniformSource, n: int) -> float:
    """Draw ``U^(1/n)`` with ``U ~ (0, 1]``."""
    u = 1.0 - rng.random()
    return math.exp(math.log(u) / n)
