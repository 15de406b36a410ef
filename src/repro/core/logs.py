"""The log phase: full logging, candidate logging and the update log.

Incremental maintenance has a *log phase* capturing insertions and a
*refresh phase* applying them to the sample (Sec. 3).  This module owns the
log phase plus the two **candidate sources** that the refresh algorithms
consume:

* :class:`CandidateLogger` implements candidate logging (Sec. 3.2): the
  sample kind's acceptance test (the reservoir law, for uniform samples)
  is pushed to insertion time and only accepted elements are appended to
  the log file.  The refresh phase then treats
  every log element as a candidate.
* :class:`FullLogger` implements full logging (Sec. 3.1): every insertion
  is appended, and the acceptance test is deferred to refresh time.
* :class:`FullLogSource` is the Sec. 5 adapter: it lets any candidate
  refresh algorithm run over a full log by replaying Vitter skips from a
  saved PRNG state -- candidate positions inside the full log are computed
  twice (count pass, read pass) instead of being stored.
* :class:`UpdateLogger` collects updates (Sec. 5) to be applied after each
  refresh.

Both candidate sources expose the same protocol: ``count()`` (how many
candidates this refresh round has) and ``open_reader()`` returning an
ascending ordinal reader, so the refresh algorithms in
:mod:`repro.core.refresh` are oblivious to which logging scheme produced
their input.
"""

from __future__ import annotations

from typing import Protocol, Sequence, TypeVar

from repro.rng.random_source import RandomSource
from repro.storage.files import LogFile

__all__ = [
    "CandidateSource",
    "CandidateReader",
    "CandidateLogger",
    "FullLogger",
    "UpdateLogger",
    "CandidateLogSource",
    "FullLogSource",
]

T = TypeVar("T")


class CandidateReader(Protocol):
    """Reads candidates by ascending 1-based ordinal."""

    def read(self, ordinal: int) -> T:  # pragma: no cover - protocol
        ...


class CandidateSource(Protocol):
    """What a refresh algorithm needs to know about this round's candidates."""

    def count(self) -> int:  # pragma: no cover - protocol
        ...

    def open_reader(self) -> CandidateReader:  # pragma: no cover - protocol
        ...


# ---------------------------------------------------------------------------
# Log phase
# ---------------------------------------------------------------------------


class CandidateLogger:
    """Candidate logging (Sec. 3.2), under any sample kind's acceptance test.

    Each arriving insertion runs the kind's acceptance test -- for a
    uniform reservoir, accept with probability ``M/(|R|+1)`` -- and, if
    accepted, its log record is appended to the log file; rejected
    elements cost nothing.  The expected uniform log size after ``n``
    insertions is ``M ln((|R|+n)/|R|)`` -- it *shrinks* relative to ``n``
    as the dataset grows, which is where the paper's orders-of-magnitude
    online savings come from.  Footnote 3 ("we are free to use any other
    acceptance test") is the :class:`~repro.core.kinds.SampleKind`
    protocol: the log neither knows nor cares which test filled it.
    """

    def __init__(self, log: LogFile, kind, rng: RandomSource) -> None:
        if kind.seen < kind.capacity:
            raise ValueError(
                "candidate logging requires an existing full sample: "
                f"seen {kind.seen} < capacity {kind.capacity}"
            )
        self._log = log
        self._kind = kind
        self._rng = rng

    @property
    def log(self) -> LogFile:
        return self._log

    @property
    def dataset_size(self) -> int:
        return self._kind.seen

    @property
    def pending_accept(self) -> int | None:
        """The kind's undrawn skip decision (checkpointed verbatim)."""
        return self._kind.pending_accept

    def insert(self, element: T) -> bool:
        """Log phase for one insertion; True if it became a candidate."""
        record = self._kind.offer(element, self._rng)
        if record is None:
            return False
        self._log.append(record)
        return True

    def insert_many(
        self, elements: Sequence[T], max_accepts: int | None = None
    ) -> tuple[int, int]:
        """Batched log phase: acceptance over the batch, one bulk append.

        Returns ``(consumed, accepted)``.  ``consumed < len(elements)``
        only when ``max_accepts`` acceptances were reached (then the call
        stops right after the accepting element, so a refresh policy can
        fire at exactly the element it would fire at under scalar
        inserts).  Same PRNG draws, log records and block writes as
        ``consumed`` scalar :meth:`insert` calls.
        """
        consumed, records = self._kind.offer_many(elements, self._rng, max_accepts)
        if records:
            self._log.append_many(records)
        return consumed, len(records)

    def source(self) -> "CandidateLogSource":
        """The candidate source for the coming refresh."""
        return CandidateLogSource(self._log)

    def after_refresh(self) -> None:
        """Reset the log for reuse (the refresh consumed it)."""
        self._log.truncate()


class FullLogger:
    """Full logging (Sec. 3.1): every insertion goes to the log.

    ``initial_dataset_size`` is ``|R|`` at the last refresh; the log
    holds every insertion since, so a log re-attached after a crash
    restores the live dataset size on its own.
    """

    def __init__(self, log: LogFile, initial_dataset_size: int) -> None:
        if initial_dataset_size < 0:
            raise ValueError("initial_dataset_size must be non-negative")
        self._log = log
        self._dataset_size_at_refresh = initial_dataset_size

    @property
    def log(self) -> LogFile:
        return self._log

    @property
    def dataset_size(self) -> int:
        return self._dataset_size_at_refresh + len(self._log)

    @property
    def dataset_size_at_last_refresh(self) -> int:
        return self._dataset_size_at_refresh

    def insert(self, element: T) -> bool:
        """Log phase for one insertion; always logged."""
        self._log.append(element)
        return True

    def insert_many(self, elements: Sequence[T]) -> int:
        """Batched log phase: every element appended, one bulk call."""
        self._log.append_many(elements)
        return len(elements)

    def source(self, sample_size: int, rng: RandomSource) -> "FullLogSource":
        """Sec. 5 adapter: view this full log as a candidate sequence."""
        return FullLogSource(
            self._log, sample_size, self._dataset_size_at_refresh, rng
        )

    def after_refresh(self) -> None:
        self._dataset_size_at_refresh = self.dataset_size
        self._log.truncate()


class UpdateLogger:
    """Separate log for updates, applied after each refresh (Sec. 5).

    Stores ``(key, new_value)`` pairs encoded by the log file's codec; the
    DBMS layer (:mod:`repro.dbms.sample_view`) owns the application step.
    """

    def __init__(self, log: LogFile) -> None:
        self._log = log

    @property
    def log(self) -> LogFile:
        return self._log

    def update(self, record: T) -> None:
        self._log.append(record)

    def drain(self) -> list[T]:
        """Read all pending updates (sequential scan) and reset the log."""
        updates = self._log.scan_all()
        self._log.truncate()
        return updates

    def __len__(self) -> int:
        return len(self._log)


# ---------------------------------------------------------------------------
# Candidate sources for the refresh phase
# ---------------------------------------------------------------------------


class CandidateLogSource:
    """Candidate source over a candidate log: ordinal ``i`` = log position ``i-1``."""

    def __init__(self, log: LogFile) -> None:
        self._log = log

    def count(self) -> int:
        return len(self._log)

    def open_reader(self) -> "_CandidateLogReader":
        return _CandidateLogReader(self._log)

    def scan_all(self) -> list[T]:
        """All candidates in order (naive candidate refresh)."""
        return self._log.scan_all()


class _CandidateLogReader:
    __slots__ = ("_reader",)

    def __init__(self, log: LogFile) -> None:
        self._reader = log.open_sequential_reader()

    def read(self, ordinal: int) -> T:
        return self._reader.read(ordinal - 1)


class FullLogSource:
    """Sec. 5: run candidate refresh over a full log via PRNG replay.

    A dedicated skip stream (``rng.spawn``) generates Vitter's reservoir
    skips.  ``count()`` walks the skip stream once to count candidates,
    then restores the stream's state; ``open_reader()`` walks it again,
    mapping candidate ordinals to full-log positions on the fly.  Nothing
    is buffered: this is the same store-state/replay idea as Nomem Refresh.

    The log blocks containing candidates are read sequentially but are
    "further apart from each other, so that the number of blocks read from
    disk increases" relative to a candidate log (Sec. 5) -- the cost
    difference the Fig. 7/11 experiments show.
    """

    def __init__(
        self,
        log: LogFile,
        sample_size: int,
        dataset_size_before: int,
        rng: RandomSource,
        skip_method: str = "auto",
    ) -> None:
        if dataset_size_before < sample_size:
            raise ValueError(
                "full-log refresh requires an existing sample: "
                f"dataset size {dataset_size_before} < sample size {sample_size}"
            )
        self._log = log
        self._sample_size = sample_size
        self._dataset_size_before = dataset_size_before
        self._skip_rng = rng.spawn("fulllog-skips")
        self._skip_method = skip_method
        self._count: int | None = None
        self._replay_state = self._skip_rng.snapshot()

    def count(self) -> int:
        """Number of candidates hidden in the full log (computed, not stored)."""
        if self._count is None:
            self._skip_rng.restore(self._replay_state)
            n = len(self._log)
            candidates = 0
            for _ in self._iter_positions(n):
                candidates += 1
            self._count = candidates
        return self._count

    def open_reader(self) -> "_FullLogCandidateReader":
        # Force the count first so the replay state is the pristine one.
        self.count()
        self._skip_rng.restore(self._replay_state)
        return _FullLogCandidateReader(
            self._log.open_sequential_reader(),
            self._iter_positions(len(self._log)),
        )

    def candidate_positions(self) -> list[int]:
        """All candidate positions within the full log (testing aid)."""
        self.count()
        self._skip_rng.restore(self._replay_state)
        return list(self._iter_positions(len(self._log)))

    def _iter_positions(self, n: int):
        """Yield 0-based full-log positions of candidates, in order."""
        seen = self._dataset_size_before
        end = self._dataset_size_before + n
        while True:
            skip = self._skip_rng.reservoir_skip(
                self._sample_size, seen, method=self._skip_method
            )
            seen += skip + 1
            if seen > end:
                return
            yield seen - self._dataset_size_before - 1


class _FullLogCandidateReader:
    """Maps candidate ordinals to full-log positions by replaying skips."""

    __slots__ = ("_reader", "_positions", "_next_ordinal")

    def __init__(self, reader, positions) -> None:
        self._reader = reader
        self._positions = positions
        self._next_ordinal = 1

    def read(self, ordinal: int) -> T:
        if ordinal < self._next_ordinal:
            raise ValueError(
                f"full-log candidate reader is forward-only "
                f"(ordinal {ordinal} after {self._next_ordinal - 1})"
            )
        position = -1
        while self._next_ordinal <= ordinal:
            position = next(self._positions)
            self._next_ordinal += 1
        return self._reader.read(position)
