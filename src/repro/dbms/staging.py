"""Staging table: the DBMS-maintained full change log (Sec. 5).

"The transaction log of a database system may already contain all the
information we need ... IBM DB2 makes use of a staging table and the
Oracle RDBMS uses a materialized view log."  The staging table captures
every change to the base table as a fixed-size record on the same kind of
block-aligned log file the sampler uses, so the Sec. 5 claim -- candidate
refresh straight off the DBMS's own full log -- is exercised for real.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence

from repro.dbms.table import Row, Table
from repro.storage.files import LogFile
from repro.storage.records import StructRecordCodec

__all__ = ["ChangeKind", "Change", "ChangeRecordCodec", "StagingTable"]


class ChangeKind(enum.IntEnum):
    INSERT = 1
    UPDATE = 2
    DELETE = 3


@dataclass(frozen=True)
class Change:
    """One logged change: kind plus the affected row image."""

    kind: ChangeKind
    row: Row


class ChangeRecordCodec(StructRecordCodec[Change]):
    """Packs ``(kind, key, value)`` into one fixed-size record."""

    FIELDS = "Bqq"

    def _flatten(self, changes: Sequence[Change]) -> list[int]:
        return [
            field
            for change in changes
            for field in (int(change.kind), change.row.key, change.row.value)
        ]

    def _values(self, fields: tuple) -> list[Change]:
        return [
            Change(ChangeKind(kind), Row(key, value))
            for kind, key, value in zip(fields[0::3], fields[1::3], fields[2::3])
        ]


class StagingTable:
    """Subscribes to a table and logs every change to a block-aligned file.

    Tracks per-kind counts since the last drain so the sample view can
    decide which Sec. 5 path applies (pure inserts vs. updates vs.
    deletions present).
    """

    def __init__(self, table: Table, log: LogFile) -> None:
        if log.elements_per_block < 1:
            raise ValueError("log block too small for change records")
        self._log = log
        self.inserts = 0
        self.updates = 0
        self.deletes = 0
        table.subscribe(self._on_change)

    @property
    def log(self) -> LogFile:
        return self._log

    def __len__(self) -> int:
        return len(self._log)

    def pending(self) -> tuple[int, int, int]:
        """(inserts, updates, deletes) since the last drain."""
        return self.inserts, self.updates, self.deletes

    def drain(self) -> list[Change]:
        """Read all pending changes sequentially and reset the log."""
        changes = self._log.scan_all()
        self._log.truncate()
        self.inserts = 0
        self.updates = 0
        self.deletes = 0
        return changes

    def _on_change(self, kind: str, row: Row) -> None:
        change_kind = ChangeKind[kind.upper()]
        self._log.append(Change(change_kind, row))
        if change_kind is ChangeKind.INSERT:
            self.inserts += 1
        elif change_kind is ChangeKind.UPDATE:
            self.updates += 1
        else:
            self.deletes += 1
