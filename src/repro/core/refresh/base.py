"""Common interface and result type for refresh algorithms."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Protocol, runtime_checkable

import numpy as np

from repro.core.kinds import SampleKind
from repro.core.logs import CandidateLogSource, CandidateReader, CandidateSource
from repro.rng.random_source import RandomSource
from repro.rng.sequential import selection_windows
from repro.storage.files import SampleFile
from repro.storage.memory import MemoryReport
from repro.storage.records import StructRecordCodec

__all__ = [
    "RefreshAlgorithm",
    "RefreshResult",
    "final_windows",
    "replay_log",
    "require_slot_draws",
    "write_candidates",
]


@dataclass
class RefreshResult:
    """What one refresh did, for experiments and assertions.

    ``displaced`` is the paper's ``Psi``: sample elements overwritten by a
    final candidate.  ``candidates`` is ``|C|``.  The I/O cost itself is
    charged to the sample/log cost model as the refresh runs; callers
    checkpoint around the call to isolate it.
    """

    candidates: int
    displaced: int
    memory: MemoryReport = field(default_factory=MemoryReport)

    def __post_init__(self) -> None:
        if self.candidates < 0:
            raise ValueError("candidates must be non-negative")
        if self.displaced < 0:
            raise ValueError("displaced must be non-negative")
        if self.displaced > self.candidates:
            raise ValueError(
                f"displaced ({self.displaced}) cannot exceed candidates "
                f"({self.candidates}): every displaced slot has a final candidate"
            )


@runtime_checkable
class RefreshAlgorithm(Protocol):
    """A deferred refresh strategy: apply a candidate source to the sample.

    The algorithms subclass it by name so the call graph behind
    ``repro lint`` dispatches a maintainer's refresh to each of them.
    """

    #: Human-readable name used in experiment tables.
    name: str

    def refresh(
        self,
        sample: SampleFile,
        source: CandidateSource,
        rng: RandomSource,
        kind: SampleKind,
    ) -> RefreshResult:  # pragma: no cover - protocol
        ...


def require_slot_draws(algorithm: str, kind: SampleKind) -> None:
    """Reject a kind whose victims are chosen by content, not drawn: Stack,
    Nomem and the full-log replay encode uniform slot draws themselves."""
    if not kind.draws_slots:
        raise ValueError(
            f"{algorithm} refresh draws uniform victim slots; kind "
            f"{kind.name!r} chooses victims by content (use naive or array)"
        )


def replay_log(
    sample: SampleFile, source: CandidateSource, kind: SampleKind
) -> tuple[np.ndarray, np.ndarray]:
    """Run a content-chosen kind's replay over this round's candidate log.

    Scans the sample into the kind's replay (sequential reads), reads
    the unexpired log tail as one record array (sequential reads),
    applies it and commits the kind's replay state.  Returns the records
    and the slot each displaced (-1 where it displaced none); writing
    them is the caller's.  Consumes no randomness.
    """
    if not isinstance(source, CandidateLogSource):
        raise TypeError(
            f"kind {kind.name!r} replays a candidate log; got {type(source).__name__}"
        )
    total = source.count()
    start = kind.replay_start(total)
    replay = kind.begin_replay(sample.scan_records())
    records = source.log.open_sequential_reader().read_records(start, total - 1)
    steps = replay.apply(records)
    kind.commit_replay(replay)
    return records, steps


def final_windows(
    rng: RandomSource, ordinals: Iterator[int], count: int, size: int
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Stack's and Nomem's write-phase pairs: Method S picks ``count`` of
    the ``size`` slots a window at a time, and each window's slots take
    the next ordinals, ascending, as an int64 array of the same length."""
    for slots in selection_windows(rng, count, size):
        yield slots, np.fromiter(ordinals, np.int64, len(slots))


def write_candidates(
    sample: SampleFile,
    reader: CandidateReader,
    windows: Iterable[tuple[np.ndarray, np.ndarray]],
    count: int,
) -> None:
    """The uniform write phase: each final candidate to its slot, in one
    ascending pass through :meth:`SampleFile.write_records`.

    ``windows`` yields ``(slots, ordinals)`` int64 array pairs, slots and
    ordinals strictly increasing across all of them, ``count`` pairs in
    all.  The sample's codec must be struct-backed (:class:`TypeError`
    otherwise).  The device accesses come in the order a per-pair
    ``write_sequential`` of ``(slot, reader.read(ordinal))`` leaves: a
    sample block is written once the candidate of the first slot past it
    has been read, and before anything after that candidate is read.  So
    each array ``read_records`` yields is written up to its last block,
    which is held, with its records, until the next array (of this window
    or the next) reaches past it; the last array of all is written whole.
    """
    codec = sample.codec
    if not isinstance(codec, StructRecordCodec):
        raise TypeError(
            f"the uniform write phase writes record arrays; the sample's "
            f"{type(codec).__name__} is not a struct-backed codec"
        )
    per_block = sample.elements_per_block
    held_slots = np.empty(0, np.int64)
    held = np.empty(0, codec.dtype)
    for slots, ordinals in windows:
        count -= len(slots)
        start = 0
        for records in reader.read_records(ordinals, codec):
            end = start + len(records)
            block_slots = slots[start:end]
            if len(held):
                block_slots = np.concatenate((held_slots, block_slots))
                records = np.concatenate((held, records), dtype=held.dtype)
            start = end
            cut = len(block_slots)
            if count or end < len(slots):
                last = int(block_slots[-1])
                cut = int(np.searchsorted(block_slots, last - last % per_block))
            if cut:
                sample.write_records(block_slots[:cut], records[:cut])
            held_slots, held = block_slots[cut:], records[cut:]
    if count or len(held_slots):
        raise AssertionError(
            f"write phase finished with {count + len(held_slots)} candidates unwritten"
        )
