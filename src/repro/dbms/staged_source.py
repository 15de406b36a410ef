"""Candidate refresh directly off the DBMS's staging table (Sec. 5).

"The transaction log of a database system may already contain all the
information we need" -- when a staging table (DB2) or materialized-view
log (Oracle) already records every change, the sampler does not need its
own log at all.  :class:`StagingLogSource` lets any candidate refresh
algorithm run over the *mixed* staging log of an insert-only window:

* the insert count comes from the staging table's own bookkeeping (a real
  staging table tracks per-kind counts), so no counting pass is needed;
* Vitter skips are replayed from a saved PRNG state by the same
  :class:`~repro.core.logs.SkipReplay` that
  :class:`~repro.core.logs.FullLogSource` uses, to find which inserts are
  candidates;
* the read pass walks the staging log forward, skipping non-insert
  change records, and reads each block at most once -- the change records
  interleaved with the inserts mean *more* blocks are touched than with a
  dedicated insert log, which is precisely the Sec. 5 trade-off ("the
  tuples selected for the sample are further apart from each other, so
  that the number of blocks read from disk increases").

Deletions in the window invalidate candidate selection over the staging
log for the same reason they invalidate candidate logging; the source
refuses to operate if the pending window contains any (updates are fine:
they do not change the acceptance probabilities, and the sample view
applies them after the refresh).
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.core.logs import SkipReplay
from repro.dbms.staging import ChangeKind, StagingTable
from repro.dbms.table import Row
from repro.rng.random_source import RandomSource
from repro.storage.files import LogFile
from repro.storage.records import StructRecordCodec

__all__ = ["StagingLogSource"]


class StagingLogSource:
    """Exposes a staging table's pending inserts as a candidate sequence."""

    def __init__(
        self,
        staging: StagingTable,
        sample_size: int,
        dataset_size_before: int,
        rng: RandomSource,
    ) -> None:
        inserts, updates, deletes = staging.pending()
        if deletes:
            raise ValueError(
                "staging window contains deletions; candidate selection over "
                "the staging log is only valid for insert/update windows "
                "(Sec. 5: conduct deletions first, then process the log)"
            )
        self._staging = staging
        self._skips = SkipReplay(
            rng, "staging-skips", sample_size, dataset_size_before, inserts
        )

    def count(self) -> int:
        """Number of candidates among the pending inserts."""
        return self._skips.count()

    def open_reader(self) -> "_StagingCandidateReader":
        return _StagingCandidateReader(
            self._staging.log.open_sequential_reader(),
            self._staging.log,
            self._skips.ordinals(),
        )


class _StagingCandidateReader:
    """Walks the mixed change log forward, resolving candidate ordinals.

    Candidate ordinal -> n-th *insert* change record -> its row payload.
    """

    __slots__ = ("_reader", "_log_length", "_per_block", "_ordinals",
                 "_next_ordinal", "_position", "_inserts_passed")

    def __init__(self, reader, log: LogFile, ordinals) -> None:
        self._reader = reader
        self._log_length = len(log)
        self._per_block = log.elements_per_block
        self._ordinals = ordinals
        self._next_ordinal = 1
        self._position = 0       # next log position to examine
        self._inserts_passed = 0  # insert records consumed so far

    def read(self, ordinal: int) -> Row:
        return self._resolve(self._target(ordinal), self._log_length)

    def read_records(
        self, ordinals: np.ndarray, codec: StructRecordCodec
    ) -> Iterator[np.ndarray]:
        """The rows of ``ordinals``, encoded with ``codec``, one array per
        run of rows resolved before the walk enters an unread block.

        Every log position is read in turn, so a block is entered (and
        read) exactly at its first position.
        """
        per_block = self._per_block
        rows: list[Row] = []
        for ordinal in ordinals.tolist():
            target = self._target(ordinal)
            held_end = -(-self._position // per_block) * per_block
            row = self._resolve(target, min(held_end, self._log_length))
            if row is None:
                if rows:
                    yield np.frombuffer(codec.encode_block(rows), codec.dtype)
                    rows = []
                row = self._resolve(target, self._log_length)
            rows.append(row)
        if rows:
            yield np.frombuffer(codec.encode_block(rows), codec.dtype)

    def _target(self, ordinal: int) -> int:
        """The insert number of candidate ``ordinal``, replaying skips to it."""
        if ordinal < self._next_ordinal:
            raise ValueError(
                f"staging candidate reader is forward-only "
                f"(ordinal {ordinal} after {self._next_ordinal - 1})"
            )
        target_insert = -1
        while self._next_ordinal <= ordinal:
            target_insert = next(self._ordinals)
            self._next_ordinal += 1
        return target_insert

    def _resolve(self, target_insert: int, stop: int) -> Row | None:
        """Read forward to insert #``target_insert`` and return its row, or
        None if the walk reaches log position ``stop`` first."""
        while self._position < stop:
            change = self._reader.read(self._position)
            self._position += 1
            if change.kind is ChangeKind.INSERT:
                self._inserts_passed += 1
                if self._inserts_passed == target_insert:
                    return change.row
        if self._position < self._log_length:
            return None
        raise RuntimeError(
            f"staging log ended before insert #{target_insert}; the staging "
            "table's insert counter disagrees with the log contents"
        )
