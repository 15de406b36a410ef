"""The log phase: immediate, full and candidate logging, and the update log.

Incremental maintenance has a *log phase* capturing insertions and a
*refresh phase* applying them to the sample (Sec. 3).  This module owns the
log phase plus the two **candidate sources** that the refresh algorithms
consume.  Each maintenance strategy is one logger behind the
:class:`InsertLogger` protocol, which is all
:class:`~repro.core.maintenance.SampleMaintainer` knows of it:

* :class:`ImmediateLogger` is the paper's immediate-refresh baseline: no
  log; each accepted element overwrites its victim slot on arrival.
* :class:`CandidateLogger` implements candidate logging (Sec. 3.2): the
  sample kind's acceptance test (the reservoir law, for uniform samples)
  is pushed to insertion time and only accepted elements are appended to
  the log file.  The refresh phase then treats
  every log element as a candidate.
* :class:`FullLogger` implements full logging (Sec. 3.1): every insertion
  is appended, and the acceptance test is deferred to refresh time.
* :class:`FullLogSource` is the Sec. 5 adapter: it lets any candidate
  refresh algorithm run over a full log by replaying Vitter skips from a
  saved PRNG state (:class:`SkipReplay`) -- candidate positions inside
  the full log are computed twice (count pass, read pass) instead of
  being stored.
* :class:`UpdateLogger` collects updates (Sec. 5) to be applied after each
  refresh.

Both candidate sources expose the same protocol: ``count()`` (how many
candidates this refresh round has) and ``open_reader()`` returning an
ascending ordinal reader, so the refresh algorithms in
:mod:`repro.core.refresh` are oblivious to which logging scheme produced
their input.

Every logger takes insertions in batches (``insert_many``); one insertion
is a batch of one.  A logger over int64 records refuses a batch holding a
value the record cannot hold, with :class:`ValueError`, before the batch
changes the dataset size, the stream or the log (:func:`_refuse_unstorable`).
Only values that would be stored are checked: a value a Vitter skip
passes over is counted in the dataset size but never checked.
"""

from __future__ import annotations

from typing import Iterator, Protocol, Sequence, TypeVar

import numpy as np

from repro.core.reservoir import ReservoirSampler
from repro.rng.random_source import RandomSource
from repro.storage.files import LogFile, SampleFile
from repro.storage.records import IntRecordCodec, StructRecordCodec

__all__ = [
    "CandidateSource",
    "CandidateReader",
    "InsertLogger",
    "ImmediateLogger",
    "CandidateLogger",
    "FullLogger",
    "UpdateLogger",
    "CandidateLogSource",
    "FullLogSource",
    "SkipReplay",
]

T = TypeVar("T")


class CandidateReader(Protocol):
    """Reads candidates by ascending 1-based ordinal.

    ``read`` takes one ordinal.  ``read_records`` takes a strictly
    increasing int64 array of them and yields their records, as arrays of
    ``codec.dtype`` (the sample's struct-backed codec), one run of
    ordinals after another.  Each array's device reads happen when it is
    asked for, and they are the reads of its first ordinal: a later
    ordinal of the same array is served from a block read for it, so a
    caller may write between arrays in the order a ``read`` per ordinal
    would allow.  The charges are those of a ``read`` per ordinal.
    """

    def read(self, ordinal: int) -> T:  # pragma: no cover - protocol
        ...

    def read_records(
        self, ordinals: np.ndarray, codec: StructRecordCodec
    ) -> Iterator[np.ndarray]:  # pragma: no cover - protocol
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


class InsertLogger(Protocol):
    """One strategy's log phase: all the maintainer knows of a strategy.

    ``insert_many`` takes a batch of insertions (one insertion is a batch
    of one), returns ``(consumed, accepted)`` and stops right after the
    ``max_accepts``-th log append.  ``log`` is None when nothing is
    logged, and ``source()`` None when a refresh has nothing to apply.
    ``accepts_at_insert`` is False when the acceptance test waits for the
    refresh, so accepted elements are not candidates yet.  The loggers
    subclass it by name so the call graph behind ``repro lint`` dispatches
    the maintainer's calls to each of them.
    """

    log: LogFile | None
    accepts_at_insert: bool
    #: the dataset size the pending log applies over
    dataset_size_at_last_refresh: int

    def insert_many(
        self, elements: Sequence[T], max_accepts: int | None = None
    ) -> tuple[int, int]: ...  # pragma: no cover - protocol

    def source(self) -> CandidateSource | None: ...  # pragma: no cover - protocol

    def after_refresh(self) -> None: ...  # pragma: no cover - protocol


class ImmediateLogger(InsertLogger):
    """Immediate refresh (the paper's baseline): no log at all.

    The kind's reservoir sampler runs the whole reservoir step --
    acceptance test and victim slot -- and each accepted element is
    written to its slot on arrival, so a refresh has nothing to apply.
    """

    log = None
    accepts_at_insert = True

    def __init__(self, sample: SampleFile, kind, rng: RandomSource) -> None:
        self._sample = sample
        self._sampler = kind.sampler(rng)
        self._checked = isinstance(sample.codec, IntRecordCodec)

    @property
    def dataset_size_at_last_refresh(self) -> int:
        return self._sampler.seen

    def insert_many(
        self, elements: Sequence[T], max_accepts: int | None = None
    ) -> tuple[int, int]:
        """Skip-jump acceptance over the batch, one write per acceptance.

        Nothing is appended to a log, so a log-append quota never binds
        and ``max_accepts`` is ignored.
        """
        sampler = self._sampler
        mark = sampler.mark() if self._checked else None
        consumed, placed = sampler.offer_many(len(elements))
        values = [elements[index] for index, _ in placed]
        if values and mark is not None:
            _refuse_unstorable(self._sample.codec, values, sampler, mark)
        for (_, slot), value in zip(placed, values):
            self._sample.write_random(slot, value)
        return consumed, len(placed)

    def source(self) -> None:
        return None

    def after_refresh(self) -> None:
        return None


class CandidateLogger(InsertLogger):
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

    accepts_at_insert = True

    def __init__(self, log: LogFile, kind, rng: RandomSource) -> None:
        if kind.seen < kind.capacity:
            raise ValueError(
                "candidate logging requires an existing full sample: "
                f"seen {kind.seen} < capacity {kind.capacity}"
            )
        self._log = log
        self._kind = kind
        self._rng = rng
        # Over int64 records the kind (uniform) offers plain values, which
        # are checked, its sampler rewound when one does not fit.
        self._sampler = (
            kind.sampler(rng) if isinstance(log.codec, IntRecordCodec) else None
        )

    @property
    def log(self) -> LogFile:
        return self._log

    @property
    def dataset_size(self) -> int:
        return self._kind.seen

    @property
    def dataset_size_at_last_refresh(self) -> int:
        """Acceptance already ran on every arrival: the live size."""
        return self._kind.seen

    @property
    def pending_accept(self) -> int | None:
        """The kind's undrawn skip decision (checkpointed verbatim)."""
        return self._kind.pending_accept

    def insert(self, element: T) -> bool:
        """One insertion as a batch of one; True if it became a candidate."""
        return self.insert_many((element,))[1] == 1

    def insert_many(
        self, elements: Sequence[T], max_accepts: int | None = None
    ) -> tuple[int, int]:
        """Batched log phase: acceptance over the batch, one bulk append
        (a kind's record array is written as records, a value list as
        values).

        Returns ``(consumed, accepted)``.  ``consumed < len(elements)``
        only when ``max_accepts`` acceptances were reached (then the call
        stops right after the accepting element, so a refresh policy can
        fire at exactly the element it would fire at had the batch come
        one element at a time).  Same PRNG draws, log records and block
        writes however the stream is cut into batches.
        """
        sampler = self._sampler
        mark = sampler.mark() if sampler is not None else None
        consumed, records = self._kind.offer_many(elements, self._rng, max_accepts)
        if isinstance(records, np.ndarray):
            self._log.append_records(records)
        elif records:
            if mark is not None:
                _refuse_unstorable(self._log.codec, records, sampler, mark)
            self._log.append_many(records)
        return consumed, len(records)

    def source(self) -> "CandidateLogSource":
        """The candidate source for the coming refresh."""
        return CandidateLogSource(self._log)

    def after_refresh(self) -> None:
        """Reset the log for reuse (the refresh consumed it)."""
        self._log.truncate()


class FullLogger(InsertLogger):
    """Full logging (Sec. 3.1): every insertion goes to the log.

    The acceptance test waits for the refresh, where the source replays
    it over the log; the kind's sampler still counts every arrival, so the
    dataset size at the last refresh is its count less the log.
    """

    accepts_at_insert = False

    def __init__(self, log: LogFile, kind, rng: RandomSource) -> None:
        self._log = log
        self._sampler = kind.sampler(rng)
        self._rng = rng
        self._checked = isinstance(log.codec, IntRecordCodec)

    @property
    def log(self) -> LogFile:
        return self._log

    @property
    def dataset_size_at_last_refresh(self) -> int:
        return self._sampler.seen - len(self._log)

    def insert_many(
        self, elements: Sequence[T], max_accepts: int | None = None
    ) -> tuple[int, int]:
        """Batched log phase: one bulk append, cut at ``max_accepts``.

        Every element is appended, so a log-append quota is an operation
        quota: ``(consumed, accepted)`` are both the elements taken, and
        every one of them is checked.
        """
        take = len(elements)
        if max_accepts is not None and max_accepts < take:
            take = max_accepts
            elements = elements[:take]
        if self._checked:
            self._log.codec.check(elements)
        self._log.append_many(elements)
        self._sampler.defer(take)
        return take, take

    def source(self) -> "FullLogSource":
        """Sec. 5 adapter: view this full log as a candidate sequence."""
        return FullLogSource(
            self._log, self._sampler.capacity, self.dataset_size_at_last_refresh,
            self._rng,
        )

    def after_refresh(self) -> None:
        self._log.truncate()


def _refuse_unstorable(
    codec: IntRecordCodec, values: Sequence, sampler: ReservoirSampler, mark: tuple
) -> None:
    """Refuse a batch whose accepted ``values`` the int64 record cannot hold.

    On refusal the sampler and its stream go back to ``mark``, taken
    before the batch's acceptance test, and the :class:`ValueError`
    propagates: the batch leaves no trace.
    """
    try:
        codec.check(values)
    except ValueError:
        sampler.rewind(mark)
        raise


class UpdateLogger:
    """Separate log for updates, applied after each refresh (Sec. 5).

    Stores change records encoded by the log file's codec; the DBMS layer
    (:mod:`repro.dbms.sample_view`, :mod:`repro.dbms.join_synopsis`) owns
    the application step.
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

    @property
    def log(self) -> LogFile:
        return self._log

    def count(self) -> int:
        return len(self._log)

    def open_reader(self) -> "_CandidateLogReader":
        return _CandidateLogReader(self._log)


class _CandidateLogReader:
    __slots__ = ("_log", "_reader")

    def __init__(self, log: LogFile) -> None:
        self._log = log
        self._reader = log.open_sequential_reader()

    def read(self, ordinal: int) -> T:
        return self._reader.read(ordinal - 1)

    def read_records(
        self, ordinals: np.ndarray, codec: StructRecordCodec
    ) -> Iterator[np.ndarray]:
        """The log's own records at positions ``ordinals - 1``, gathered a
        block at a time."""
        _check_log_dtype(self._log, codec)
        return self._reader.gather(ordinals - 1)


def _check_log_dtype(log: LogFile, codec: StructRecordCodec) -> None:
    if getattr(log.codec, "dtype", None) != codec.dtype:
        raise ValueError(
            f"log records are not {codec.dtype} records: the log's codec is "
            f"{type(log.codec).__name__}"
        )


class SkipReplay:
    """Vitter skips over a window of arrivals, replayed from a saved state.

    The Sec. 5 store-state/replay idea shared by every source that finds
    candidates among raw arrivals: a dedicated skip stream
    (``rng.spawn(label)``) is spawned and snapshotted on first use, so a
    source whose candidates nobody asks for spawns nothing; ``count()``
    walks it once and caches the result, and every :meth:`ordinals` walk
    restores the snapshot and replays the same skips.  Nothing is
    buffered.
    """

    __slots__ = ("_parent", "_label", "_rng", "_state", "_sample_size",
                 "_seen_before", "_arrivals", "_count")

    def __init__(
        self,
        rng: RandomSource,
        label: str,
        sample_size: int,
        dataset_size_before: int,
        arrivals: int,
    ) -> None:
        if dataset_size_before < sample_size:
            raise ValueError(
                "refresh over a full log requires an existing sample: "
                f"dataset size {dataset_size_before} < sample size {sample_size}"
            )
        self._parent = rng
        self._label = label
        self._rng: RandomSource | None = None
        self._state = None
        self._sample_size = sample_size
        self._seen_before = dataset_size_before
        self._arrivals = arrivals
        self._count: int | None = None

    def count(self) -> int:
        """Number of candidates among the arrivals (computed, not stored)."""
        if self._count is None:
            self._count = sum(1 for _ in self._replay())
        return self._count

    def ordinals(self):
        """Iterate the candidates' 1-based ordinals among the arrivals."""
        # Count first: a later count() then cannot rewind this live replay.
        self.count()
        return self._replay()

    def _replay(self):
        if self._rng is None:
            self._rng = self._parent.spawn(self._label)
            self._state = self._rng.snapshot()
        self._rng.restore(self._state)
        seen = self._seen_before
        end = seen + self._arrivals
        while True:
            seen += self._rng.reservoir_skip(self._sample_size, seen) + 1
            if seen > end:
                return
            yield seen - self._seen_before


class FullLogSource:
    """Sec. 5: run candidate refresh over a full log via PRNG replay.

    A :class:`SkipReplay` over the log's elements generates Vitter's
    reservoir skips, mapping candidate ordinals to full-log positions on
    the fly.  The naive full refresh (Sec. 3.1) instead scans the raw log
    (:meth:`scan_all`) from :attr:`dataset_size_before`, and then no skip
    stream is spawned.

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
    ) -> None:
        self._log = log
        self.dataset_size_before = dataset_size_before
        self._skips = SkipReplay(
            rng, "fulllog-skips", sample_size, dataset_size_before, len(log)
        )

    def count(self) -> int:
        """Number of candidates hidden in the full log (computed, not stored)."""
        return self._skips.count()

    def open_reader(self) -> "_FullLogCandidateReader":
        return _FullLogCandidateReader(self._log, self._skips.ordinals())

    def scan_all(self) -> list[T]:
        """Every logged insertion in order (naive full refresh)."""
        return self._log.scan_all()

    def candidate_positions(self) -> list[int]:
        """All candidate positions within the full log (testing aid)."""
        return [ordinal - 1 for ordinal in self._skips.ordinals()]


class _FullLogCandidateReader:
    """Maps candidate ordinals to full-log positions by replaying skips."""

    __slots__ = ("_log", "_reader", "_ordinals", "_next_ordinal")

    def __init__(self, log: LogFile, ordinals) -> None:
        self._log = log
        self._reader = log.open_sequential_reader()
        self._ordinals = ordinals
        self._next_ordinal = 1

    def read(self, ordinal: int) -> T:
        return self._reader.read(self._position(ordinal))

    def read_records(
        self, ordinals: np.ndarray, codec: StructRecordCodec
    ) -> Iterator[np.ndarray]:
        """The log records of ``ordinals``, gathered a block at a time; the
        skips are replayed up to the last ordinal first."""
        _check_log_dtype(self._log, codec)
        positions = np.fromiter(map(self._position, ordinals.tolist()), np.int64)
        return self._reader.gather(positions)

    def _position(self, ordinal: int) -> int:
        """The log position of candidate ``ordinal``, replaying skips to it."""
        if ordinal < self._next_ordinal:
            raise ValueError(
                f"full-log candidate reader is forward-only "
                f"(ordinal {ordinal} after {self._next_ordinal - 1})"
            )
        log_ordinal = 0
        while self._next_ordinal <= ordinal:
            log_ordinal = next(self._ordinals)
            self._next_ordinal += 1
        return log_ordinal - 1
