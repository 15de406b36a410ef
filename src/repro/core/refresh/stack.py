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

from repro.core.kinds import SampleKind
from repro.core.logs import CandidateSource
from repro.core.refresh.base import RefreshResult, require_slot_draws
from repro.obs.api import maybe_span
from repro.rng.random_source import RandomSource
from repro.rng.sequential import SequentialSampler
from repro.storage.files import SampleFile
from repro.storage.memory import MemoryReport

__all__ = ["StackRefresh", "select_final_indexes"]


def select_final_indexes(
    rng: RandomSource, sample_size: int, candidates: int
) -> list[int]:
    """Algorithm 2's precomputation phase.

    Returns the 1-based indexes of the final candidates in *descending*
    order (the order they are pushed; popping yields ascending order).
    """
    if candidates <= 0:
        return []
    selected: list[int] = []
    index = candidates
    while index >= 1 and len(selected) < sample_size:
        selected.append(index)
        k = len(selected)
        if k == sample_size:
            break
        p_k = (sample_size - k) / sample_size
        skip = rng.geometric(p_k)
        index -= skip + 1
    return selected


class StackRefresh:
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
            chooser = SequentialSampler(rng, n=displaced, total=sample.size)

            def displaced_items():
                for position in range(sample.size):
                    if chooser.remaining == 0:
                        return
                    if chooser.take():
                        index = stack.pop()
                        yield position, reader.read(index)

            sample.write_sequential(displaced_items())
        if stack:
            raise AssertionError(
                f"write phase finished with {len(stack)} candidates unwritten"
            )
        return RefreshResult(candidates=total, displaced=displaced, memory=memory)
