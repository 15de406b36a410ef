"""Nomem Refresh (Sec. 4.3, Algorithm 3).

Stack Refresh must buffer the selected indexes because (a) it discovers
them in descending order and (b) the write phase needs to know *how many*
survivors there are before it can compute displacement probabilities.
Nomem Refresh removes the buffer: since the geometric skips ``X_k`` are
independent, they can be generated in the order the *forward* pass needs
them -- twice.  A first pass sums ``X = sum_{k=M-1..1} (X_k + 1)`` to find
the smallest candidate index ``|C| - X`` (and hence the survivor count);
then the PRNG state saved before the first pass is restored and the same
variates are regenerated one by one while walking the log forward.

Only the PRNG state (~2.5 KiB for MT19937) is ever held, with at most
one block of its uniforms -- the Fig. 12 zero line.  The paper pays for
that with twice as many geometric variates, 2(M-1) of them: the Fig. 13
flat-but-higher CPU line, which :func:`span_of_gaps` still times.  A
refresh computes fewer.  With ``|C|`` candidates, the first
``M - 1 - |C|`` gaps can place no survivor and cancel out of the answer
(see :func:`survivor_indexes`), so their uniforms are jumped over without
being computed, and each pass turns only the last ``min(M-1, |C|)`` into
gaps: 2 min(M-1, |C|) in all.  The geometric stream asks for at most
:data:`~repro.rng.mt19937.BLOCK_DOUBLES` (312) uniforms per window, while
the write phase's Method S windows, like Stack's, go up to
:data:`~repro.rng.mt19937.WINDOW`.

A dedicated "geometric PRNG" stream is used for the skips, exactly as the
paper says ("store the state of the geometric PRNG"): the write phase's
displacement draws must not perturb the replayed skip sequence.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable, Iterator

import numpy as np

from repro.core.kinds import SampleKind
from repro.core.logs import CandidateSource
from repro.core.refresh.base import (
    RefreshAlgorithm,
    RefreshResult,
    final_windows,
    require_slot_draws,
    write_candidates,
)
from repro.obs.api import maybe_span
from repro.rng.distributions import geometric_variates
from repro.rng.mt19937 import BLOCK_DOUBLES
from repro.rng.random_source import RandomSource
from repro.storage.files import SampleFile
from repro.storage.memory import MemoryReport

__all__ = ["NomemRefresh", "span_of_gaps", "survivor_indexes"]


def _gap_windows(geom_rng: RandomSource, size: int, count: int) -> Iterator[np.ndarray]:
    """The gaps ``X_k + 1`` for ``k = count .. 1``, one window at a time.

    ``X_k`` is geometric with ``p_k = (M-k)/M``, bit-identical to
    :meth:`RandomSource.geometric` (see
    :func:`~repro.rng.distributions.geometric_variates`).  A window never
    holds more uniforms than gaps are left, so drained windows leave
    ``geom_rng`` where scalar draws would, nor more than one block's worth.
    """
    k = count
    while k >= 1:
        window = geom_rng.random_array(min(k, BLOCK_DOUBLES))
        # p_k = (M - k) / M for this window's k, k - 1, ...
        free = np.arange(size - k, size - k + len(window))
        yield geometric_variates(window, free, size) + 1
        k -= len(window)


def _span(geom_rng: RandomSource, size: int, count: int) -> int:
    """The sum of the gaps for ``k = count .. 1``."""
    return sum(int(gaps.sum()) for gaps in _gap_windows(geom_rng, size, count))


def span_of_gaps(geom_rng: RandomSource, size: int) -> int:
    """Pass-1 of Algorithm 3 as the paper states it:
    ``X = sum_{k=M-1..1} (X_k + 1)``.

    Exposed separately so the Fig. 13 CPU experiment can time Nomem's
    dominant cost (its ``2(M-1)`` geometric draws) in isolation.
    """
    return _span(geom_rng, size, size - 1)


def survivor_indexes(
    geom_rng: RandomSource, size: int, total: int
) -> tuple[int, Iterator[int]]:
    """Both passes of Algorithm 3: the survivor count and their indexes.

    The first ``lead = max(0, M-1-|C|)`` gaps place no survivor.  After
    ``j <= lead`` of them the index is ``|C| - S_j``, where ``S_j`` sums
    the ``M-1-j >= |C|`` gaps still to come, each at least 1, so it is at
    most 0.  From there on the index is ``|C| - S_lead``, which does not
    depend on the gaps before.  So their uniforms are jumped over, and
    only the last ``min(M-1, |C|)`` gaps are computed, twice.

    Pass 1 sums those gaps from a saved state to place the smallest
    survivor index at ``|C| - S_lead``.  Pass 2 restores the state and
    replays the same gaps: those that land before the log's start are
    skipped now, and the rest are drawn lazily, a window per run of
    indexes the returned iterator yields in ascending order.  Nothing but
    the PRNG state, the block or two its latest window of at most 312
    uniforms covers and one window of gaps is held.  A drained iterator
    leaves ``geom_rng`` past all ``M - 1`` uniforms, as if every gap had
    been drawn.
    """
    count = min(size - 1, total)
    geom_rng.jump(size - 1 - count)
    state = geom_rng.snapshot()
    span = _span(geom_rng, size, count)
    geom_rng.restore(state)
    windows = _gap_windows(geom_rng, size, count)
    index = total - span
    left = count
    gaps = np.empty(0, dtype=np.int64)
    # Skip survivor indexes that fall before the log's start.
    while index < 1:
        gaps = next(windows)
        running = index + gaps.cumsum()
        # running only rises: skip up to its first value >= 1, if any.
        skipped = min(int(np.count_nonzero(running < 1)) + 1, len(gaps))
        index = int(running[skipped - 1])
        left -= skipped
        gaps = gaps[skipped:]
    return left + 1, _replay(index, chain((gaps,), windows))


def _replay(index: int, windows: Iterable[np.ndarray]) -> Iterator[int]:
    """``index``, then its running sums over the gap windows."""
    yield index
    for gaps in windows:
        for index in (index + gaps.cumsum()).tolist():
            yield index


class NomemRefresh(RefreshAlgorithm):
    """Algorithm 3 of the paper."""

    name = "nomem"

    #: Optional telemetry (see :mod:`repro.obs`); wired automatically by
    #: an instrumented :class:`~repro.core.maintenance.SampleMaintainer`.
    instrumentation = None

    def refresh(
        self,
        sample: SampleFile,
        source: CandidateSource,
        rng: RandomSource,
        kind: SampleKind,
    ) -> RefreshResult:
        require_slot_draws(self.name, kind)
        obs = self.instrumentation
        total = source.count()
        memory = MemoryReport()
        memory.account_prng_snapshots(1)
        if total == 0:
            return RefreshResult(candidates=0, displaced=0, memory=memory)

        size = sample.size
        geom_rng = rng.spawn("nomem-geometric")

        # Precomputation (pass 1 + pass-2 setup): pure PRNG work, no I/O.
        with maybe_span(
            obs, "refresh.precompute", algorithm=self.name, candidates=total
        ):
            displaced, indexes = survivor_indexes(geom_rng, size, total)

        # Write phase: selection sampling over positions; survivor indexes
        # are consumed in ascending order, so the log is read sequentially.
        with maybe_span(
            obs, "refresh.write", algorithm=self.name, displaced=displaced
        ):
            reader = source.open_reader()
            windows = final_windows(rng, indexes, displaced, size)
            write_candidates(sample, reader, windows, displaced)
        return RefreshResult(candidates=total, displaced=displaced, memory=memory)
