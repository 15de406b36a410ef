"""Stack Refresh (Sec. 4.2, Algorithm 2).

Key observation: processing the candidate log in *reverse*, a candidate is
final exactly when its uniformly chosen slot is not already claimed by a
later candidate.  With ``k`` slots claimed the survival probability is
``p_k = (M - k)/M``, constant until the next survivor -- so the number of
candidates skipped between survivors is geometric, and the whole set of
final candidates is found in O(Psi) draws instead of O(|C|).

The survivors' indexes come out descending; a LIFO stack reverses them so
the write phase reads the log forward.  The write phase scans the sample
once and displaces each position ``j`` with probability
``q_{j,k} = k/(M - j + 1)`` (``k`` = survivors still on the stack) --
selection sampling, which assigns the k survivors to a uniformly random
k-subset of positions.

Cost: identical disk I/O to Array Refresh; memory is only ``Psi`` indexes
(Fig. 12); CPU is the lowest of the three (Fig. 13) -- no sort, and only
``~2 Psi`` variates.
"""

from __future__ import annotations

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
from repro.rng.random_source import RandomSource
from repro.storage.files import SampleFile
from repro.storage.memory import MemoryReport

__all__ = ["StackRefresh", "select_final_indexes"]


def select_final_indexes(
    rng: RandomSource, sample_size: int, candidates: int
) -> list[int]:
    """Algorithm 2's precomputation phase.

    Returns the 1-based indexes of the final candidates in *descending*
    order (the order they are pushed; popping yields ascending order).

    The geometric skips of a window of uniforms come from
    :func:`~repro.rng.distributions.geometric_variates`, bit-identical to
    :meth:`RandomSource.geometric`'s; their running sum walks the index
    down.  The uniforms left over when it drops below 1 are given back,
    so ``rng`` ends where scalar draws would leave it.
    """
    if candidates <= 0:
        return []
    selected = [candidates]
    index = candidates
    k = 1
    while k < sample_size:
        # Every gap is at least 1, so ``index`` draws always suffice.
        window = rng.random_array(min(sample_size - k, index))
        # p_k = (M - k) / M for this window's k, k + 1, ...
        free = np.arange(sample_size - k, sample_size - k - len(window), -1)
        running = index - (geometric_variates(window, free, sample_size) + 1).cumsum()
        kept = int(np.count_nonzero(running >= 1))  # running only falls
        selected.extend(running[:kept].tolist())
        if kept < len(window):
            rng.give_back(len(window) - kept - 1)
            return selected
        index = int(running[-1])
        k += kept
    return selected


class StackRefresh(RefreshAlgorithm):
    """Algorithm 2 of the paper."""

    name = "stack"

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
        if total == 0:
            return RefreshResult(candidates=0, displaced=0, memory=memory)

        # Precomputation: survivors, pushed in descending index order.
        with maybe_span(
            obs, "refresh.precompute", algorithm=self.name, candidates=total
        ):
            stack = select_final_indexes(rng, sample.size, total)
        memory.account_indexes(len(stack))
        displaced = len(stack)
        if displaced == 0:
            return RefreshResult(candidates=total, displaced=0, memory=memory)

        # Write phase: selection sampling over the M positions; popping the
        # stack yields ascending log indexes, so log reads are sequential.
        with maybe_span(
            obs, "refresh.write", algorithm=self.name, displaced=displaced
        ):
            reader = source.open_reader()
            windows = final_windows(rng, reversed(stack), displaced, sample.size)
            write_candidates(sample, reader, windows, displaced)
        return RefreshResult(candidates=total, displaced=displaced, memory=memory)
