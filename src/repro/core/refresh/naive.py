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
from repro.core.refresh.base import (
    RefreshAlgorithm,
    RefreshResult,
    replay_log,
    require_slot_draws,
)
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
        """Apply the log through the kind's victim rule, writing each step.

        Uniform victims are RNG slot draws (``randrange(M)`` per
        candidate, read in log order); weighted and window victims depend
        on the rows, so those kinds first compute every step up front
        through the shared replay
        (:func:`~repro.core.refresh.base.replay_log`: one sample scan,
        the whole log tail, no randomness) and this then walks the steps.
        Each step that displaces a slot is written at random, non-final
        writes included: that is the naive baseline's signature cost.
        """
        total = source.count()
        if total == 0:
            return RefreshResult(candidates=0, displaced=0)
        # Uniform interleaves each log read with its write; content-chosen
        # kinds read the whole tail before the first write.
        with maybe_span(
            self.instrumentation,
            "refresh.write",
            algorithm=self.name,
            candidates=total,
        ) as span:
            if kind.draws_slots:
                reader = source.open_reader()
                writes = (
                    (rng.randrange(sample.size), reader.read(ordinal))
                    for ordinal in range(1, total + 1)
                )
            else:
                records, steps = replay_log(sample, source, kind)
                values = records.tolist()
                writes = (
                    (slot, values[i]) for i, slot in enumerate(steps.tolist()) if slot >= 0
                )
            touched: set[int] = set()
            for slot, value in writes:
                # The naive strawman *is* random-write I/O -- that
                # inefficiency is the point of the Sec. 3 baselines,
                # not a violation of the Alg. 1-3 sequential-only claim.
                sample.write_random(slot, value)  # repro-lint: disable=IO001
                touched.add(slot)
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
