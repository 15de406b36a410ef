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

from repro.core.kinds import SampleKind
from repro.core.logs import CandidateSource
from repro.core.refresh.base import RefreshResult
from repro.obs.api import maybe_span
from repro.rng.random_source import RandomSource
from repro.storage.files import SampleFile
from repro.storage.memory import MemoryReport

__all__ = ["ArrayRefresh"]


class ArrayRefresh:
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
            return self._refresh_replay(sample, source, rng, kind)
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
                self._sort_non_empty(array)

        # Write phase: log scan (sequential reads) interleaved with the
        # sample rewrite (sequential writes); the span's block delta
        # separates the two by access category.
        with maybe_span(obs, "refresh.write", algorithm=self.name) as span:
            if self._sort:
                result = self._write_sorted(sample, source, array, total, memory)
            else:
                result = self._write_unsorted(sample, source, array, total, memory)
            if span is not None:
                span.set("displaced", result.displaced)
        return result

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
    def _sort_non_empty(array: list[int | None]) -> None:
        """Sort the values among non-empty slots, leaving empties in place.

        Empty slots are "linked with stable elements which in turn should
        be distributed randomly" (Sec. 4.1) -- moving them would bias which
        positions stay stable.
        """
        occupied = [j for j, value in enumerate(array) if value is not None]
        values = sorted(array[j] for j in occupied)
        for slot, value in zip(occupied, values):
            array[slot] = value

    def _write_sorted(
        self,
        sample: SampleFile,
        source: CandidateSource,
        array: list[int | None],
        total: int,
        memory: MemoryReport,
    ) -> RefreshResult:
        reader = source.open_reader()

        def displaced_items():
            for slot, index in enumerate(array):
                if index is not None:
                    yield slot, reader.read(index)

        displaced = sum(1 for value in array if value is not None)
        sample.write_sequential(displaced_items())
        return RefreshResult(candidates=total, displaced=displaced, memory=memory)

    def _refresh_replay(
        self,
        sample: SampleFile,
        source: CandidateSource,
        rng: RandomSource,
        kind: SampleKind,
    ) -> RefreshResult:
        """Algorithm 1's write discipline for content-chosen victims.

        The uniform precomputation throws candidate *indexes* at RNG-drawn
        slots; a kind's victims depend on sample *contents*, so the merge
        phase here is: scan the current rows once (sequential reads), run
        the kind's replay over the unexpired log tail (sequential reads),
        then write only the final record of each displaced slot -- one
        sequential ascending pass, exactly ``Psi <= min(M, |C|)`` writes.
        The replay consumes no randomness, so naive and array refreshes
        leave identical sample bytes *and* identical PRNG state.
        """
        obs = self.instrumentation
        total = source.count()
        size = sample.size
        memory = MemoryReport()
        memory.account_indexes(size)  # the replay's per-slot key/seq state
        if total == 0:
            return RefreshResult(candidates=0, displaced=0, memory=memory)
        start = kind.replay_start(total)
        with maybe_span(
            obs, "refresh.write", algorithm=self.name, candidates=total
        ) as span:
            replay = kind.open_replay(sample, rng)
            reader = source.open_reader()
            touched: set[int] = set()
            for ordinal in range(start + 1, total + 1):
                slot = replay.step(reader.read(ordinal))
                if slot is not None:
                    touched.add(slot)
            kind.commit_replay(replay)
            sample.write_sequential(
                (slot, replay.rows[slot]) for slot in sorted(touched)
            )
            if span is not None:
                span.set("displaced", len(touched))
        return RefreshResult(candidates=total, displaced=len(touched), memory=memory)

    def _write_unsorted(
        self,
        sample: SampleFile,
        source: CandidateSource,
        array: list[int | None],
        total: int,
        memory: MemoryReport,
    ) -> RefreshResult:
        # Log access order follows slot order, which is random in index
        # space: each read is a random block access on the log device.
        log = getattr(source, "_log", None)
        if log is None:
            raise TypeError(
                "array-unsorted needs direct log access; use sort=True for "
                "adapter-based candidate sources"
            )

        def displaced_items():
            for slot, index in enumerate(array):
                if index is not None:
                    yield slot, log.read_one_random(index - 1)

        displaced = sum(1 for value in array if value is not None)
        sample.write_sequential(displaced_items())
        return RefreshResult(candidates=total, displaced=displaced, memory=memory)
