"""Naive refresh strategies (Sec. 3).

These are the paper's strawmen: correct, but they inherit reservoir
sampling's random sample I/O and write non-final candidates only to
overwrite them moments later.  They exist here as baselines for the cost
experiments and as behavioural oracles for the optimised algorithms (all
refresh strategies must leave the sample uniformly distributed).
"""

from __future__ import annotations

from repro.core.kinds import SampleKind
from repro.core.logs import CandidateSource, FullLogSource
from repro.core.refresh.base import RefreshAlgorithm, RefreshResult, require_slot_draws
from repro.obs.api import maybe_span
from repro.rng.random_source import RandomSource
from repro.storage.files import SampleFile
from repro.storage.memory import MemoryReport

__all__ = ["NaiveFullRefresh", "NaiveCandidateRefresh"]


class NaiveCandidateRefresh(RefreshAlgorithm):
    """Write every displacement to its victim slot, in log order.

    ``|C|`` sequential log reads, ``|C|`` *random* sample writes -- and
    non-final candidates get overwritten by later ones (Sec. 3.2 calls out
    both inefficiencies; Sec. 4 removes them).
    """

    name = "naive-candidate"

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
        """Replay the log through the kind's victim rule, writing each step.

        The kind's replay decides whether the current rows are read
        first: uniform victims are RNG slot draws (``randrange(M)`` per
        candidate, no read), while weighted and window victims depend on
        the rows, so those kinds scan the sample once before the replay
        (and consume no randomness at all).  Each step that displaces a
        slot is written immediately, non-final writes included: that is
        the naive baseline's signature cost.
        """
        total = source.count()
        if total == 0:
            return RefreshResult(candidates=0, displaced=0)
        start = kind.replay_start(total)
        # No precomputation phase: the strawman goes straight to disk.
        with maybe_span(
            self.instrumentation,
            "refresh.write",
            algorithm=self.name,
            candidates=total,
        ) as span:
            replay = kind.open_replay(sample, rng)
            touched: set[int] = set()
            for records in source.open_reader().read_run(start + 1, total):
                for record in records:
                    slot = replay.step(record)
                    if slot is not None:
                        # The naive strawman *is* random-write I/O -- that
                        # inefficiency is the point of the Sec. 3 baselines,
                        # not a violation of the Alg. 1-3 sequential-only claim.
                        sample.write_random(slot, record)  # repro-lint: disable=IO001
                        touched.add(slot)
            kind.commit_replay(replay)
            if span is not None:
                span.set("displaced", len(touched))
        return RefreshResult(
            candidates=total,
            displaced=len(touched),
            memory=MemoryReport(),
        )


class NaiveFullRefresh(RefreshAlgorithm):
    """Reservoir sampling replayed over a full log (Sec. 3.1).

    Scans the whole log; each element is accepted with probability
    ``M/(|R|+i)`` and written to a random slot immediately.  This is
    literally "apply reservoir sampling subsequently to each of its
    elements".  It needs the raw log and the dataset size before the
    logged insertions, so it runs over a :class:`FullLogSource` only.
    """

    name = "naive-full"

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
        if not isinstance(source, FullLogSource):
            raise TypeError(
                "NaiveFullRefresh scans a raw full log; pass a FullLogSource"
            )
        with maybe_span(
            self.instrumentation, "refresh.write", algorithm=self.name
        ) as span:
            elements = source.scan_all()
            seen = source.dataset_size_before
            accepted = 0
            touched: set[int] = set()
            for element in elements:
                seen += 1
                if rng.random() * seen < sample.size:
                    slot = rng.randrange(sample.size)
                    # Same as above: the Sec. 3.1 baseline pays random writes
                    # by design; the cost experiments rely on it doing so.
                    sample.write_random(slot, element)  # repro-lint: disable=IO001
                    touched.add(slot)
                    accepted += 1
            if span is not None:
                span.set("displaced", len(touched))
        return RefreshResult(
            candidates=accepted,
            displaced=len(touched),
            memory=MemoryReport(),
        )
