"""The sample as a deferred materialized view (Sec. 5).

:class:`SampleView` subscribes to a :class:`~repro.dbms.table.Table` and
maintains a disk-based uniform random sample of it with deferred refresh,
covering all three change kinds the paper discusses:

* **inserts** drive the normal log-then-refresh machinery -- candidate
  logging when the workload is insert-only, full logging when deletions
  may occur ("it is not possible to maintain a candidate log since
  insertions after a deletion are included in the sample with a different
  probability than assumed during candidate logging");
* **updates** go to a separate update log and are applied to the sample
  after each refresh ("we store all updates in a separate log file and
  apply all these updates after each refresh");
* **deletes** (full-log mode only) are conducted first at refresh time:
  deleted members leave the sample, the sample shrinks, and the insert
  log is then processed against the smaller sample size ("we first
  conduct all the deletions and afterwards process the full log ...
  using a potentially smaller sample size").

The paper assumes insertions and deletions within one refresh window are
*disjunctive* (a window never deletes a key it inserted); the view makes
this true by force -- deleting a freshly inserted key triggers an
implicit refresh that closes the window first.

Base-data independence: after construction (a materialized view is
naturally populated by one scan at creation), the view never touches the
table again -- it only sees the change stream.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.kinds import UniformKind
from repro.core.logs import CandidateLogSource, FullLogSource, UpdateLogger
from repro.core.policies import ManualPolicy, RefreshPolicy
from repro.core.refresh.base import RefreshAlgorithm
from repro.core.reservoir import build_reservoir
from repro.dbms.table import Row, Table
from repro.rng.random_source import RandomSource
from repro.storage.cost_model import CostModel
from repro.storage.block_device import SimulatedBlockDevice
from repro.storage.files import LogFile, SampleFile
from repro.storage.records import StructRecordCodec

__all__ = ["RowRecordCodec", "SampleView"]


class RowRecordCodec(StructRecordCodec[Row]):
    """Packs a ``Row`` (two 64-bit integers) into one fixed-size record."""

    FIELDS = "qq"

    def _flatten(self, rows: Sequence[Row]) -> list[int]:
        return [field for row in rows for field in (row.key, row.value)]

    def _values(self, fields: tuple) -> list[Row]:
        return list(map(Row, fields[0::2], fields[1::2]))


class SampleView:
    """Deferred-maintenance random sample of a table.

    Parameters
    ----------
    table:
        The base table; scanned once at construction to build the initial
        sample, then only observed through its change stream.
    sample_size:
        ``M``.  The table must already hold at least ``M`` rows.
    allow_deletes:
        ``False`` (default) uses candidate logging and refuses deletions;
        ``True`` switches to full logging so deletions are supported.
    """

    def __init__(
        self,
        table: Table,
        sample_size: int,
        rng: RandomSource,
        algorithm: RefreshAlgorithm,
        cost_model: CostModel,
        policy: RefreshPolicy | None = None,
        allow_deletes: bool = False,
        record_size: int = 32,
    ) -> None:
        if len(table) < sample_size:
            raise ValueError(
                f"table holds {len(table)} rows; cannot sample {sample_size}"
            )
        self._rng = rng
        self._algorithm = algorithm
        self._cost = cost_model
        self._policy = policy if policy is not None else ManualPolicy()
        self._allow_deletes = allow_deletes
        self._codec = RowRecordCodec(record_size)

        # Populate the view: one creation-time scan, like any materialized view.
        initial, dataset_size = build_reservoir(table.rows(), sample_size, rng)
        self._capacity = sample_size
        self._sample = SampleFile(
            SimulatedBlockDevice(cost_model, "view-sample"), self._codec, sample_size
        )
        self._sample.initialize(initial)
        # One uniform kind runs the insert-time acceptance test (candidate
        # logging) and the victim rule the refresh applies.
        self._kind = UniformKind(sample_size, seen=dataset_size)
        self._dataset_size = dataset_size
        self._dataset_size_at_refresh = dataset_size

        self._insert_log = LogFile(
            SimulatedBlockDevice(cost_model, "view-insert-log"), self._codec
        )
        self._update_log = UpdateLogger(
            LogFile(SimulatedBlockDevice(cost_model, "view-update-log"), self._codec)
        )
        self._delete_log = UpdateLogger(
            LogFile(SimulatedBlockDevice(cost_model, "view-delete-log"), self._codec)
        )
        self._window_inserted_keys: set[int] = set()
        self._ops_since_refresh = 0
        self.refreshes = 0

        table.subscribe(self._on_change)

    # -- observable state -------------------------------------------------------

    @property
    def sample_size(self) -> int:
        """Current (possibly shrunk) sample size."""
        return self._sample.size

    @property
    def dataset_size(self) -> int:
        return self._dataset_size

    def rows(self) -> list[Row]:
        """Current sample contents, with pending updates NOT yet applied."""
        return self._sample.peek_all()

    # -- change stream -----------------------------------------------------------

    def _on_change(self, kind: str, row: Row) -> None:
        if kind == "insert":
            self._on_insert(row)
        elif kind == "update":
            self._update_log.update(row)
        elif kind == "delete":
            self._on_delete(row)
        else:
            raise ValueError(f"unknown change kind: {kind!r}")
        self._ops_since_refresh += 1
        if self._policy.should_refresh(
            self._ops_since_refresh, len(self._insert_log)
        ):
            self.refresh()

    def _on_insert(self, row: Row) -> None:
        self._window_inserted_keys.add(row.key)
        # Full logging keeps every insert; candidate logging the accepted.
        if self._allow_deletes or self._kind.offer_many((row,), self._rng)[1]:
            self._insert_log.append(row)
        self._dataset_size += 1

    def _on_delete(self, row: Row) -> None:
        if not self._allow_deletes:
            raise RuntimeError(
                "this SampleView was built with allow_deletes=False "
                "(candidate logging cannot absorb deletions; see Sec. 5)"
            )
        if row.key in self._window_inserted_keys:
            # The paper's deletion handling "assume[s] (or make[s] sure)
            # that the insertions and deletions are disjunctive": make it
            # sure by closing the current window before logging the delete.
            self.refresh()
        self._delete_log.update(row)
        self._dataset_size -= 1

    # -- the refresh --------------------------------------------------------------

    def refresh(self) -> None:
        """Run the full Sec. 5 refresh: deletions, insertions, then updates."""
        deleted = self._apply_deletions()
        self._apply_insertions(deleted)
        self._apply_updates()
        self._window_inserted_keys.clear()
        self._ops_since_refresh = 0
        self._dataset_size_at_refresh = self._dataset_size
        self.refreshes += 1
        self._policy.notify_refresh()

    def _apply_deletions(self) -> int:
        """Remove deleted members, compact, shrink; returns #deletes logged."""
        if len(self._delete_log) == 0:
            return 0
        deletes = self._delete_log.drain()
        deleted_keys = {row.key for row in deletes}
        survivors = [
            row for row in self._sample_scan() if row.key not in deleted_keys
        ]
        removed = self._sample.size - len(survivors)
        if removed:
            if not survivors:
                raise RuntimeError("deletions emptied the sample entirely")
            # Compact: rewrite from position 0 (sequential), then shrink.
            self._sample.write_sequential(enumerate(survivors))
            self._sample.resize(len(survivors))
        return len(deletes)

    def _apply_insertions(self, deletes_applied: int) -> None:
        if len(self._insert_log) == 0:
            return
        if not self._allow_deletes:
            source = CandidateLogSource(self._insert_log)
            self._algorithm.refresh(self._sample, source, self._rng, self._kind)
        else:
            # Deletions are conducted first; the insert log is processed
            # against the (possibly smaller) sample and the post-deletion
            # dataset size.
            base = self._dataset_size_at_refresh - deletes_applied
            source = FullLogSource(
                self._insert_log, self._sample.size, base, self._rng
            )
            self._algorithm.refresh(self._sample, source, self._rng, self._kind)
        self._insert_log.truncate()

    def _apply_updates(self) -> None:
        if len(self._update_log) == 0:
            return
        updates = self._update_log.drain()
        new_values = {row.key: row.value for row in updates}
        patches = []
        for position, row in enumerate(self._sample_scan()):
            if row.key in new_values and row.value != new_values[row.key]:
                patches.append((position, Row(row.key, new_values[row.key])))
        if patches:
            self._sample.write_sequential(patches)

    def _sample_scan(self) -> list[Row]:
        """One charged sequential scan of the sample."""
        return list(self._sample.scan())
