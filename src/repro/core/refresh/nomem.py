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

Only the PRNG state (~2.5 KiB for MT19937) is ever held -- the Fig. 12
zero line -- at the cost of generating twice as many geometric variates
(2(M-1) of them, the Fig. 13 flat-but-higher CPU line).

A dedicated "geometric PRNG" stream is used for the skips, exactly as the
paper says ("store the state of the geometric PRNG"): the write phase's
displacement draws must not perturb the replayed skip sequence.
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

__all__ = ["NomemRefresh", "span_of_gaps"]


def span_of_gaps(geom_rng: RandomSource, size: int) -> int:
    """Pass-1 of Algorithm 3: ``X = sum_{k=M-1..1} (X_k + 1)``.

    Exposed separately so the Fig. 13 CPU experiment can time Nomem's
    dominant cost (its ``2(M-1)`` geometric draws) in isolation.
    """
    span = 0
    for k in range(size - 1, 0, -1):
        span += geom_rng.geometric((size - k) / size) + 1
    return span


class NomemRefresh:
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
            # Pass 1: total span X of the M-1 inter-survivor gaps.
            state = geom_rng.snapshot()
            span = span_of_gaps(geom_rng, size)

            # Pass 2 setup: replay from the saved state.
            geom_rng.restore(state)
            index = total - span
            k = size - 1
            # Skip survivor indexes that fall before the log's start.
            while index < 1 and k >= 1:
                index += geom_rng.geometric((size - k) / size) + 1
                k -= 1
            remaining = k + 1  # survivors with index >= 1, including `index`

        # Write phase: selection sampling over positions; survivor indexes
        # are consumed in ascending order, so the log is read sequentially.
        with maybe_span(
            obs, "refresh.write", algorithm=self.name, displaced=remaining
        ):
            reader = source.open_reader()
            chooser = SequentialSampler(rng, n=remaining, total=size)
            displaced = remaining

            def displaced_items():
                nonlocal index, k
                for position in range(size):
                    if chooser.remaining == 0:
                        return
                    if chooser.take():
                        element = reader.read(index)
                        if k >= 1:
                            index += geom_rng.geometric((size - k) / size) + 1
                            k -= 1
                        yield position, element

            sample.write_sequential(displaced_items())
        return RefreshResult(candidates=total, displaced=displaced, memory=memory)
