"""Join synopses with deferred maintenance (Sec. 2's extendability claim).

Acharya et al.'s *join synopses* (SIGMOD 1999, [10] in the paper) exploit
a foreign-key fact: for a fact table ``F`` whose every row matches exactly
one row of a dimension table ``D``, a uniform sample of ``F``, with each
sampled row *joined to its dimension row*, is a uniform sample of the join
``F JOIN D``.  The scheme is reservoir-based, so -- as the paper claims for
this whole family -- it extends natively to deferred disk maintenance:

* fact-table inserts run the ordinary candidate test; an accepted row is
  joined with its dimension row **at log time** (the dimension row must
  exist then -- it is a foreign key) and the *joined* record goes to the
  candidate log;
* any deferred refresh algorithm applies the log to the on-disk synopsis;
* dimension updates reuse the Sec. 5 update-log pattern: they queue in a
  separate log and patch matching synopsis rows after each refresh, so
  the synopsis reflects slowly-changing dimensions without ever
  re-sampling.

Fact deletions would require full logging exactly as in Sec. 5 and are
out of this synopsis's scope (as in the original AQUA system, which
assumed an append-mostly warehouse); the class refuses them loudly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.kinds import UniformKind
from repro.core.logs import CandidateLogSource, UpdateLogger
from repro.core.policies import ManualPolicy, RefreshPolicy
from repro.core.refresh.base import RefreshAlgorithm
from repro.core.reservoir import build_reservoir
from repro.dbms.table import Row, Table
from repro.rng.random_source import RandomSource
from repro.storage.block_device import SimulatedBlockDevice
from repro.storage.cost_model import CostModel
from repro.storage.files import LogFile, SampleFile
from repro.storage.records import StructRecordCodec

__all__ = ["JoinedRow", "JoinedRowCodec", "JoinSynopsis"]


@dataclass(frozen=True)
class JoinedRow:
    """One synopsis record: a fact row joined with its dimension row.

    ``fact_value`` doubles as the foreign key (the mini-DBMS's rows are
    ``(key, value)`` pairs; a fact row's value references a dimension key).
    """

    fact_key: int
    fact_value: int
    dim_value: int


class JoinedRowCodec(StructRecordCodec[JoinedRow]):
    """Packs a :class:`JoinedRow` (three 64-bit ints) into one record."""

    FIELDS = "qqq"

    def _flatten(self, rows: Sequence[JoinedRow]) -> list[int]:
        return [
            field
            for row in rows
            for field in (row.fact_key, row.fact_value, row.dim_value)
        ]

    def _values(self, fields: tuple) -> list[JoinedRow]:
        return list(map(JoinedRow, fields[0::3], fields[1::3], fields[2::3]))


class JoinSynopsis:
    """Uniform sample of ``fact JOIN dimension``, maintained deferredly.

    The fact table's row values are foreign keys into the dimension
    table.  The synopsis is populated by one creation-time pass over the
    fact table (like any materialized view) and afterwards sees only the
    change streams of both tables.  Queries are a
    :class:`~repro.analysis.query.SampleQuery` over a column of
    :meth:`rows`, scaled to :attr:`fact_table_size`.
    """

    def __init__(
        self,
        fact: Table,
        dimension: Table,
        sample_size: int,
        rng: RandomSource,
        algorithm: RefreshAlgorithm,
        cost_model: CostModel,
        policy: RefreshPolicy | None = None,
        record_size: int = 32,
    ) -> None:
        if len(fact) < sample_size:
            raise ValueError(
                f"fact table holds {len(fact)} rows; cannot sample {sample_size}"
            )
        self._dimension = dimension
        self._rng = rng
        self._algorithm = algorithm
        self._policy = policy if policy is not None else ManualPolicy()
        self._codec = JoinedRowCodec(record_size)

        initial_rows, dataset_size = build_reservoir(
            fact.rows(), sample_size, rng
        )
        self._sample = SampleFile(
            SimulatedBlockDevice(cost_model, "join-synopsis"),
            self._codec,
            sample_size,
        )
        self._sample.initialize([self._join(row) for row in initial_rows])
        # One uniform kind counts the fact table, runs the insert-time
        # acceptance test and the victim rule the refresh applies.
        self._kind = UniformKind(sample_size, seen=dataset_size)

        self._log = LogFile(
            SimulatedBlockDevice(cost_model, "join-synopsis-log"), self._codec
        )
        self._dim_update_log = UpdateLogger(
            LogFile(SimulatedBlockDevice(cost_model, "join-dim-update-log"), self._codec)
        )
        self._ops_since_refresh = 0
        self.refreshes = 0

        fact.subscribe(self._on_fact_change)
        dimension.subscribe(self._on_dimension_change)

    # -- observable state -------------------------------------------------------

    @property
    def sample_size(self) -> int:
        return self._sample.size

    @property
    def fact_table_size(self) -> int:
        return self._kind.seen

    def rows(self) -> list[JoinedRow]:
        """Current synopsis contents (pending updates not yet applied)."""
        return self._sample.peek_all()

    # -- change streams -----------------------------------------------------------

    def _on_fact_change(self, kind: str, row: Row) -> None:
        if kind == "insert":
            if self._kind.offer_many((row,), self._rng)[1]:
                self._log.append(self._join(row))
        elif kind == "delete":
            raise RuntimeError(
                "JoinSynopsis does not support fact deletions (candidate "
                "logging; see Sec. 5 for the full-log deletion path)"
            )
        else:  # update of a fact row's foreign key: out of AQUA's model too
            raise RuntimeError(
                "JoinSynopsis does not support fact-row updates (a changed "
                "foreign key re-links the join; re-create the synopsis)"
            )
        self._bump()

    def _on_dimension_change(self, kind: str, row: Row) -> None:
        if kind == "update":
            # Queue a patch: every synopsis row whose fk == row.key gets
            # the new dimension value after the next refresh.
            self._dim_update_log.update(JoinedRow(0, row.key, row.value))
        elif kind == "delete":
            raise RuntimeError(
                "dimension deletions would orphan fact rows (foreign key); "
                "refusing"
            )
        # Dimension inserts need no action: no fact row references them yet.
        self._bump()

    def _bump(self) -> None:
        self._ops_since_refresh += 1
        if self._policy.should_refresh(self._ops_since_refresh, len(self._log)):
            self.refresh()

    # -- the refresh ----------------------------------------------------------------

    def refresh(self) -> None:
        """Apply the candidate log, then pending dimension updates."""
        if len(self._log):
            source = CandidateLogSource(self._log)
            self._algorithm.refresh(self._sample, source, self._rng, self._kind)
            self._log.truncate()
        self._apply_dimension_updates()
        self._ops_since_refresh = 0
        self.refreshes += 1
        self._policy.notify_refresh()

    def _apply_dimension_updates(self) -> None:
        if len(self._dim_update_log) == 0:
            return
        updates = self._dim_update_log.drain()
        new_values = {u.fact_value: u.dim_value for u in updates}
        patches = []
        for position, row in enumerate(self._sample.scan()):
            if row.fact_value in new_values:
                replacement = new_values[row.fact_value]
                if replacement != row.dim_value:
                    patches.append(
                        (position,
                         JoinedRow(row.fact_key, row.fact_value, replacement))
                    )
        if patches:
            self._sample.write_sequential(patches)

    # -- internals -----------------------------------------------------------------------

    def _join(self, fact_row: Row) -> JoinedRow:
        dim_value = self._dimension.get(fact_row.value)
        if dim_value is None:
            raise KeyError(
                f"fact row {fact_row.key} references missing dimension key "
                f"{fact_row.value} (foreign-key violation)"
            )
        return JoinedRow(fact_row.key, fact_row.value, dim_value)
