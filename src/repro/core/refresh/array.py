"""Array Refresh (Sec. 4.1, Algorithm 1).

Precomputation: throw the candidate *indexes* ``1..|C|`` into an in-memory
array ``A`` of size ``M`` (each index lands on a uniform slot, later
indexes overwrite earlier ones).  A slot left empty is *stable*; a slot
holding index ``i`` will be overwritten by candidate ``i`` -- the *final*
candidate for that slot.

Write phase: scan the sample once; stable slots are skipped without being
read, displaced slots receive their final candidate.  With the optional
sort of ``A``'s non-empty entries (empty slots must not move!), the log is
also read in ascending order, i.e. sequentially.

Cost: ``Psi`` sequential log reads + ``Psi`` sequential sample writes with
``Psi <= min(M, |C|)``; memory: ``M`` 4-byte indexes (the Fig. 12 flat
line); CPU: O(M + |C|) plus the sort, which is what loses to Stack/Nomem
for large logs in Fig. 13.
"""

from __future__ import annotations

from itertools import compress

import numpy as np

from repro.core.kinds import SampleKind
from repro.core.logs import CandidateLogSource, CandidateSource
from repro.core.refresh.base import (
    RefreshAlgorithm,
    RefreshResult,
    replay_log,
    write_candidates,
)
from repro.obs.api import maybe_span
from repro.rng.random_source import RandomSource
from repro.storage.files import SampleFile
from repro.storage.memory import MemoryReport

__all__ = ["ArrayRefresh"]


class ArrayRefresh(RefreshAlgorithm):
    """Algorithm 1 of the paper.

    ``sort=True`` (the default, and what the paper's experiments use)
    sorts the non-empty array entries so the candidate log is accessed
    sequentially.  ``sort=False`` keeps the raw assignment order and reads
    the log randomly -- the ablation `bench_ablation_sort` measures what
    that costs.
    """

    #: Optional telemetry (see :mod:`repro.obs`); wired automatically by
    #: an instrumented :class:`~repro.core.maintenance.SampleMaintainer`.
    instrumentation = None

    def __init__(self, sort: bool = True) -> None:
        self._sort = sort

    @property
    def name(self) -> str:
        return "array" if self._sort else "array-unsorted"

    def refresh(
        self,
        sample: SampleFile,
        source: CandidateSource,
        rng: RandomSource,
        kind: SampleKind,
    ) -> RefreshResult:
        """Algorithm 1 when the kind's victims are RNG slot draws (uniform);
        otherwise the kind's replay with Algorithm 1's write discipline."""
        if not kind.draws_slots:
            return self._refresh_replay(sample, source, kind)
        obs = self.instrumentation
        total = source.count()
        size = sample.size
        memory = MemoryReport()
        memory.account_indexes(size)  # A always has M entries
        if total == 0:
            return RefreshResult(candidates=0, displaced=0, memory=memory)

        # Precomputation: indexes 1..|C| land on uniform slots.  This is
        # the in-memory merge phase -- its span shows zero block I/O.
        with maybe_span(
            obs, "refresh.precompute", algorithm=self.name, candidates=total
        ):
            array = self.assign_slots(rng, size, total)
            if self._sort:
                slots, ordinals = self.final_candidates(array)

        # Write phase: log scan (sequential reads) interleaved with the
        # sample rewrite (sequential writes); the span's block delta
        # separates the two by access category.
        with maybe_span(obs, "refresh.write", algorithm=self.name) as span:
            if self._sort:
                displaced = len(slots)
                reader = source.open_reader()
                write_candidates(sample, reader, [(slots, ordinals)], displaced)
            else:
                displaced = self._write_unsorted(sample, source, array)
            if span is not None:
                span.set("displaced", displaced)
        return RefreshResult(candidates=total, displaced=displaced, memory=memory)

    @staticmethod
    def assign_slots(rng: RandomSource, size: int, total: int) -> list[int | None]:
        """Precomputation phase: throw indexes ``1..total`` into ``A``.

        Exposed separately so the Fig. 13 CPU experiment can time the
        precomputation alone.
        """
        array: list[int | None] = [None] * size
        for index in range(1, total + 1):
            array[rng.randrange(size)] = index
        return array

    @staticmethod
    def final_candidates(array: list[int | None]) -> tuple[np.ndarray, np.ndarray]:
        """The sort of Sec. 4.1: ``A``'s occupied slots, ascending, and the
        indexes they hold, sorted, as two int64 arrays.

        Sorting only the values among occupied slots leaves the empty
        slots in place: they are "linked with stable elements which in
        turn should be distributed randomly" (Sec. 4.1), and moving them
        would bias which positions stay stable.  Indexes are at least 1,
        so the occupied entries are the true ones, and both passes over
        ``A`` run in C.  Exposed, like :meth:`assign_slots`, for the Fig. 13
        CPU experiment.
        """
        slots = np.fromiter(compress(range(len(array)), array), np.int64)
        ordinals = np.fromiter(filter(None, array), np.int64, len(slots))
        ordinals.sort()
        return slots, ordinals

    def _refresh_replay(
        self, sample: SampleFile, source: CandidateSource, kind: SampleKind
    ) -> RefreshResult:
        """Algorithm 1's write discipline for content-chosen victims.

        The uniform precomputation throws candidate *indexes* at RNG-drawn
        slots; a kind's victims depend on sample *contents*, so the merge
        phase here is :func:`~repro.core.refresh.base.replay_log`: scan
        the sample once (sequential reads) and replay the unexpired log
        tail over it (sequential reads), both as record arrays.  Then
        only the final record of each displaced slot is written -- one
        sequential ascending pass, exactly ``Psi <= min(M, |C|)`` writes
        of the log's records.  The replay consumes no randomness, so
        naive and array refreshes leave identical sample bytes *and*
        identical PRNG state.
        """
        obs = self.instrumentation
        total = source.count()
        memory = MemoryReport()
        memory.account_indexes(sample.size)  # the replay's per-slot key/seq state
        if total == 0:
            return RefreshResult(candidates=0, displaced=0, memory=memory)
        with maybe_span(
            obs, "refresh.write", algorithm=self.name, candidates=total
        ) as span:
            records, steps = replay_log(sample, source, kind)
            # The final record of each displaced slot: its last step.
            hits = np.flatnonzero(steps >= 0)[::-1]
            slots, last = np.unique(steps[hits], return_index=True)
            sample.write_records(slots, records[hits[last]])
            if span is not None:
                span.set("displaced", len(slots))
        return RefreshResult(candidates=total, displaced=len(slots), memory=memory)

    def _write_unsorted(
        self, sample: SampleFile, source: CandidateSource, array: list[int | None]
    ) -> int:
        """Write each slot's final candidate, read by random access; returns
        the number displaced."""
        # Log access order follows slot order, which is random in index
        # space: each read is a random block access on the log device.
        # Only a candidate log maps ordinal i to log position i-1; the
        # full-log adapter's candidates sit elsewhere in its log.
        if not isinstance(source, CandidateLogSource):
            raise TypeError(
                "array-unsorted needs direct log access; use sort=True for "
                "adapter-based candidate sources"
            )
        log = source.log

        def displaced_items():
            for slot, index in enumerate(array):
                if index is not None:
                    yield slot, log.read_one_random(index - 1)

        sample.write_sequential(displaced_items())
        return len(array) - array.count(None)
