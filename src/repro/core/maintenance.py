"""Maintenance orchestration: log phase + refresh phase under a policy.

:class:`SampleMaintainer` is the library's front door.  It owns the on-disk
sample, the chosen logging scheme and refresh algorithm, tracks the
online/offline cost split the paper's experiments report (Sec. 6: "The
online cost is the processing cost of arriving insertions.  The offline
cost mirrors the cost for refreshing the sample."), and keeps the dataset
size that the reservoir acceptance probabilities depend on.

Strategies:

* ``"immediate"`` -- classic reservoir maintenance straight onto disk, no
  log (the paper's immediate-refresh baseline);
* ``"candidate"`` -- candidate logging + any deferred refresh algorithm;
* ``"full"`` -- full logging + the Sec. 5 adapter so the same deferred
  refresh algorithms run over the full log.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.kinds import SampleKind, UniformKind, restore_kind
from repro.core.logs import CandidateLogger, CandidateLogSource, FullLogger
from repro.core.refresh.base import RefreshAlgorithm, RefreshResult
from repro.core.refresh.naive import NaiveFullRefresh
from repro.core.policies import ManualPolicy, RefreshPolicy
from repro.obs.api import Instrumentation, maybe_span
from repro.obs.catalogue import COUNT_BUCKETS, SECONDS_BUCKETS
from repro.rng.random_source import RandomSource
from repro.storage.cost_model import AccessStats, CostModel
from repro.storage.group_commit import GroupCommitBarrier
from repro.storage.files import LogFile, SampleFile

__all__ = ["SampleMaintainer", "MaintenanceStats"]

_STRATEGIES = ("immediate", "candidate", "full")


@dataclass
class MaintenanceStats:
    """Online/offline split of I/O, as the paper's figures report it."""

    online: AccessStats = field(default_factory=AccessStats)
    offline: AccessStats = field(default_factory=AccessStats)
    inserts: int = 0
    refreshes: int = 0
    candidates_logged: int = 0
    displaced_total: int = 0

    @property
    def total(self) -> AccessStats:
        return self.online + self.offline


class SampleMaintainer:
    """Keeps a disk-based sample of size ``M`` in sync with insertions.

    Parameters
    ----------
    sample:
        The on-disk sample file; must already hold an initial uniform
        sample (see :func:`repro.core.reservoir.build_reservoir`).
    strategy:
        ``"immediate"``, ``"candidate"`` or ``"full"``.
    log:
        The log file; required for the deferred strategies.
    algorithm:
        The deferred refresh algorithm (Array/Stack/Nomem/naive).  With
        ``strategy="full"`` any candidate algorithm works via the Sec. 5
        adapter, or pass :class:`NaiveFullRefresh` for the Sec. 3.1
        baseline.
    policy:
        When to auto-refresh; defaults to manual.
    initial_dataset_size:
        ``|R|`` at the moment the initial sample was built.
    kind:
        The :class:`~repro.core.kinds.SampleKind` whose acceptance test
        and victim rule the maintenance runs; must have seen
        ``initial_dataset_size`` elements.  ``None`` builds a
        :class:`~repro.core.kinds.UniformKind`, the paper's reservoir.
    instrumentation:
        Optional :class:`repro.obs.Instrumentation` facade.  When given,
        the maintainer keeps the ``maintenance.*``/``refresh.*`` metrics
        and ``sample.pending_log_elements``/``log.*`` gauges current,
        opens trace spans around every refresh (and, with
        ``trace_inserts``, every insert), and propagates itself to the
        refresh algorithm so its phases are traced too.  ``None`` keeps
        every hot path at a single ``is None`` test.
    """

    def __init__(
        self,
        sample: SampleFile,
        rng: RandomSource,
        strategy: str,
        initial_dataset_size: int,
        log: LogFile | None = None,
        algorithm: RefreshAlgorithm | None = None,
        policy: RefreshPolicy | None = None,
        cost_model: CostModel | None = None,
        skip_method: str = "auto",
        instrumentation: Instrumentation | None = None,
        commit_group: GroupCommitBarrier | None = None,
        kind: SampleKind | None = None,
    ) -> None:
        if strategy not in _STRATEGIES:
            raise ValueError(f"strategy must be one of {_STRATEGIES}, got {strategy!r}")
        if initial_dataset_size < sample.size:
            raise ValueError(
                "maintenance needs an existing full sample: dataset size "
                f"{initial_dataset_size} < sample size {sample.size}"
            )
        if strategy != "immediate":
            if log is None:
                raise ValueError(f"strategy {strategy!r} requires a log file")
            if algorithm is None:
                raise ValueError(f"strategy {strategy!r} requires a refresh algorithm")
        if kind is None:
            kind = UniformKind(
                sample.size, seen=initial_dataset_size, skip_method=skip_method
            )
        if strategy not in kind.strategies:
            raise ValueError(
                f"kind {kind.name!r} supports strategies {kind.strategies}, "
                f"got strategy {strategy!r}"
            )
        # Full logging counts arrivals in its logger; the other strategies
        # run the kind's acceptance test, so its state must match.
        if strategy != "full" and kind.seen != initial_dataset_size:
            raise ValueError(
                f"kind has seen {kind.seen} elements but "
                f"initial_dataset_size is {initial_dataset_size}"
            )
        self._kind = kind
        self._sample = sample
        self._rng = rng
        self._strategy = strategy
        self._algorithm = algorithm
        self._policy = policy if policy is not None else ManualPolicy()
        self._cost_model = cost_model
        self.stats = MaintenanceStats()
        self._ops_since_refresh = 0
        if commit_group is None:
            # Default group: the devices this maintainer mutates.  One
            # barrier spanning them replaces the per-device flushes the
            # refresh commit used to issue (identical behaviour without a
            # replication link; with one, every commit seals a batch).
            devices = [sample.device]
            if log is not None and log.device is not sample.device:
                devices.append(log.device)
            commit_group = GroupCommitBarrier(devices)
        self._commit_group = commit_group

        if strategy == "immediate":
            self._reservoir = kind.sampler(rng)
            self._candidate_logger = None
            self._full_logger = None
        elif strategy == "candidate":
            self._reservoir = None
            self._candidate_logger = CandidateLogger(log, kind, rng)
            self._full_logger = None
        else:  # full
            self._reservoir = None
            self._candidate_logger = None
            self._full_logger = FullLogger(log, initial_dataset_size)

        self._instr = instrumentation
        if instrumentation is not None:
            self._setup_instruments(instrumentation)

    def _setup_instruments(self, instr: Instrumentation) -> None:
        """Create (or look up) every instrument once; hot paths just inc()."""
        labels = {"strategy": self._strategy}
        self._c_inserts = instr.counter("maintenance.inserts", labels)
        self._c_accepted = instr.counter("maintenance.accepted", labels)
        self._c_rejected = instr.counter("maintenance.rejected", labels)
        self._c_refreshes = instr.counter("maintenance.refreshes", labels)
        self._c_displaced = instr.counter("maintenance.displaced", labels)
        self._c_log_appended = instr.counter("log.appended_elements")
        self._c_skipped = instr.counter("maintenance.inserts_skipped", labels)
        self._g_pending = instr.gauge("sample.pending_log_elements")
        self._g_log_blocks = instr.gauge("log.blocks")
        self._h_candidates = instr.histogram(
            "refresh.candidates", buckets=COUNT_BUCKETS
        )
        self._h_displaced = instr.histogram(
            "refresh.displaced", buckets=COUNT_BUCKETS
        )
        self._h_cost = instr.histogram(
            "refresh.cost_seconds", buckets=SECONDS_BUCKETS
        )
        algorithm = self._algorithm
        if algorithm is not None and getattr(algorithm, "instrumentation", None) is None:
            algorithm.instrumentation = instr
        self._sync_gauges()

    # -- properties ----------------------------------------------------------

    @property
    def sample(self) -> SampleFile:
        return self._sample

    @property
    def strategy(self) -> str:
        return self._strategy

    @property
    def kind(self) -> SampleKind:
        """The sample kind whose acceptance test and victim rule run here."""
        return self._kind

    @property
    def dataset_size(self) -> int:
        if self._full_logger is not None:
            return self._full_logger.dataset_size
        return self._kind.seen

    @property
    def pending_log_elements(self) -> int:
        log = self._log_file()
        return len(log) if log is not None else 0

    # -- the two phases --------------------------------------------------------

    def insert(self, element) -> None:
        """Process one insertion into the dataset (the online phase)."""
        checkpoint = self._checkpoint()
        obs = self._instr
        if obs is not None and obs.trace_inserts:
            with obs.span("insert", strategy=self._strategy) as span:
                accepted = self._apply_insert(element)
                span.set("accepted", accepted)
        else:
            accepted = self._apply_insert(element)
        self._charge_online(checkpoint)
        self.stats.inserts += 1
        self._ops_since_refresh += 1
        if obs is not None:
            self._c_inserts.inc()
            (self._c_accepted if accepted else self._c_rejected).inc()
            if accepted and self._strategy != "immediate":
                self._c_log_appended.inc()
            self._sync_gauges()
        if self._policy.should_refresh(self._ops_since_refresh, self.pending_log_elements):
            self.refresh()

    def _apply_insert(self, element) -> bool:
        """Acceptance test + write/append; True when the element survived."""
        obs = self._instr
        trace = obs if (obs is not None and obs.trace_inserts) else None
        if self._strategy == "immediate":
            slot = self._reservoir.offer(element)
            if slot is None:
                return False
            with maybe_span(trace, "insert.sample_write", slot=slot):
                self._sample.write_random(slot, element)
            self.stats.candidates_logged += 1
            return True
        if self._strategy == "candidate":
            # The logger runs the acceptance test (pure CPU) and appends on
            # acceptance, so the span's block delta is the append alone.
            with maybe_span(trace, "insert.log_append") as span:
                accepted = self._candidate_logger.insert(element)
                if span is not None:
                    span.set("accepted", accepted)
            if accepted:
                self.stats.candidates_logged += 1
            return accepted
        # Full logging: every insertion is appended, none rejected.
        with maybe_span(trace, "insert.log_append"):
            self._full_logger.insert(element)
        return True

    def insert_many(self, elements, *, scalar: bool = False) -> int:
        """Process a batch of insertions; returns how many were processed.

        The default is the **skip-based batch path**: Vitter's skip
        variates jump directly from one accepted candidate to the next,
        so the Python-level work per batch is O(accepted), not O(batch).
        The path is bit-identical to element-wise :meth:`insert` -- same
        PRNG draws in the same order, same sample contents, same log
        records, same :class:`~repro.storage.cost_model.AccessStats`,
        same metric counters -- because the skip stream is exactly the
        one the scalar acceptance test consumes lazily.

        Batches are split at refresh boundaries: the refresh policy's
        ``batch_quota`` bounds each chunk so an auto-refresh fires after
        exactly the element it would fire after under scalar inserts.
        Policies without ``batch_quota``, and ``scalar=True``, fall back
        to element-wise processing.
        """
        quota = getattr(self._policy, "batch_quota", None)
        if scalar or quota is None:
            count = 0
            for element in elements:
                self.insert(element)
                count += 1
            return count
        if not isinstance(elements, (list, tuple, range)):
            elements = list(elements)
        total = len(elements)
        obs = self._instr
        done = 0
        while done < total:
            ops_limit, accept_limit = quota(
                self._ops_since_refresh, self.pending_log_elements
            )
            end = total if ops_limit is None else min(total, done + ops_limit)
            chunk = elements[done:end]
            checkpoint = self._checkpoint()
            if obs is not None and obs.trace_inserts:
                with obs.span(
                    "batch_insert", strategy=self._strategy, n=len(chunk)
                ) as span:
                    consumed, accepted = self._apply_insert_batch(chunk, accept_limit)
                    span.set("consumed", consumed)
                    span.set("accepted", accepted)
            else:
                consumed, accepted = self._apply_insert_batch(chunk, accept_limit)
            self._charge_online(checkpoint)
            self.stats.inserts += consumed
            self._ops_since_refresh += consumed
            done += consumed
            if obs is not None:
                self._c_inserts.inc(consumed)
                rejected = consumed - accepted
                if accepted:
                    self._c_accepted.inc(accepted)
                    if self._strategy != "immediate":
                        self._c_log_appended.inc(accepted)
                if rejected:
                    self._c_rejected.inc(rejected)
                    self._c_skipped.inc(rejected)
                self._sync_gauges()
            if self._policy.should_refresh(
                self._ops_since_refresh, self.pending_log_elements
            ):
                self.refresh()
        return total

    def _apply_insert_batch(self, chunk, accept_limit: int | None) -> tuple[int, int]:
        """Batched acceptance + write/append; returns (consumed, accepted)."""
        if self._strategy == "immediate":
            consumed, placed = self._reservoir.offer_many(len(chunk))
            for index, slot in placed:
                self._sample.write_random(slot, chunk[index])
            self.stats.candidates_logged += len(placed)
            return consumed, len(placed)
        if self._strategy == "candidate":
            consumed, accepted = self._candidate_logger.insert_many(
                chunk, max_accepts=accept_limit
            )
            self.stats.candidates_logged += accepted
            return consumed, accepted
        # Full logging appends every element, so a log-append quota is an
        # operation quota.
        take = len(chunk) if accept_limit is None else min(len(chunk), accept_limit)
        self._full_logger.insert_many(chunk[:take] if take < len(chunk) else chunk)
        return take, take

    def refresh(self) -> RefreshResult | None:
        """Run the deferred refresh (the offline phase); no-op if immediate."""
        if self._strategy == "immediate":
            self._ops_since_refresh = 0
            return None
        obs = self._instr
        with maybe_span(
            obs,
            "refresh",
            strategy=self._strategy,
            algorithm=getattr(self._algorithm, "name", None),
        ) as outer:
            # Flushing the log's partial tail block is log-phase work: the
            # paper books all log writes as online cost (Sec. 6.2), and the
            # refresh would otherwise absorb the last block's write.
            online_mark = self._checkpoint()
            with maybe_span(obs, "refresh.log_flush"):
                self._log_file().flush()
            self._charge_online(online_mark)
            checkpoint = self._checkpoint()
            if self._strategy == "candidate":
                source = self._candidate_logger.source()
                result = self._algorithm.refresh(
                    self._sample, source, self._rng, self._kind
                )
                self._candidate_logger.after_refresh()
            else:
                if isinstance(self._algorithm, NaiveFullRefresh):
                    # The naive full refresh scans the raw log itself.
                    algorithm = NaiveFullRefresh(
                        self._full_logger.dataset_size_at_last_refresh
                    )
                    if obs is not None and algorithm.instrumentation is None:
                        algorithm.instrumentation = obs
                    source = CandidateLogSource(self._full_logger.log)
                    result = algorithm.refresh(
                        self._sample, source, self._rng, self._kind
                    )
                else:
                    source = self._full_logger.source(self._sample.size, self._rng)
                    result = self._algorithm.refresh(
                        self._sample, source, self._rng, self._kind
                    )
                self._full_logger.after_refresh()
            # Refresh commit point: the new sample must be on the device
            # before the truncated log stops being replayable.  Any write
            # a buffer pool deferred is booked here, as offline cost.
            self._flush_devices()
            self._charge_offline(checkpoint)
            self.stats.refreshes += 1
            self.stats.displaced_total += result.displaced
            self._ops_since_refresh = 0
            self._policy.notify_refresh()
            if obs is not None:
                self._c_refreshes.inc()
                self._c_displaced.inc(result.displaced)
                self._h_candidates.observe(result.candidates)
                self._h_displaced.observe(result.displaced)
                if checkpoint is not None:
                    offline = self._cost_model.since(checkpoint)
                    self._h_cost.observe(offline.cost_seconds(self._cost_model.disk))
                outer.set("candidates", result.candidates)
                outer.set("displaced", result.displaced)
                self._sync_gauges()
                obs.emit(
                    "refresh.completed",
                    strategy=self._strategy,
                    algorithm=getattr(self._algorithm, "name", None),
                    candidates=result.candidates,
                    displaced=result.displaced,
                )
        return result

    # -- durability (see repro.storage.superblock) ------------------------------

    def checkpoint_state(self) -> "MaintenanceCheckpoint":
        """Capture a durable, exactly-resumable snapshot of this maintainer.

        Flushes the log's partial tail first (booked online, like any log
        write) so the on-disk log matches the recorded element count.  Pair
        with :class:`repro.storage.superblock.CheckpointStore` to persist,
        and :meth:`from_checkpoint` to resume.
        """
        from repro.storage.superblock import MaintenanceCheckpoint

        with maybe_span(self._instr, "maintenance.checkpoint") as span:
            online_mark = self._checkpoint()
            log = self._log_file()
            if log is not None:
                log.flush()
            log_count = self.pending_log_elements
            if self._full_logger is not None:
                dataset_at_refresh = self._full_logger.dataset_size_at_last_refresh
            else:
                dataset_at_refresh = self._kind.seen
            # Checkpoint point: the snapshot describes on-device state, so any
            # buffered sample/log writes must reach the device first (barriers
            # are free on plain devices, booked online like the log flush).
            self._flush_devices()
            self._charge_online(online_mark)
            if span is not None:
                span.set("log_count", log_count)
        seed, spawn_count, state, w = MaintenanceCheckpoint.capture_rng(self._rng)
        kind_param, kind_threshold = self._kind.checkpoint_fields()
        return MaintenanceCheckpoint(
            strategy=self._strategy,
            sample_size=self._sample.size,
            dataset_size=self.dataset_size,
            dataset_size_at_refresh=dataset_at_refresh,
            log_count=log_count,
            inserts=self.stats.inserts,
            refreshes=self.stats.refreshes,
            pending_accept=self._kind.pending_accept,
            ops_since_refresh=self._ops_since_refresh,
            rng_seed=seed,
            rng_spawn_count=spawn_count,
            rng_state=state,
            rng_w=w,
            kind_name=self._kind.name,
            kind_param=kind_param,
            kind_threshold=kind_threshold,
        )

    @classmethod
    def from_checkpoint(
        cls,
        checkpoint: "MaintenanceCheckpoint",
        sample: SampleFile,
        log: LogFile | None = None,
        algorithm: RefreshAlgorithm | None = None,
        policy: RefreshPolicy | None = None,
        cost_model: CostModel | None = None,
        instrumentation: Instrumentation | None = None,
        commit_group: GroupCommitBarrier | None = None,
    ) -> "SampleMaintainer":
        """Resume maintenance from a checkpoint: bit-exact continuation.

        ``sample`` must be the original (or recovered) sample file;
        ``log`` a fresh :class:`LogFile` over the original log device --
        its on-disk contents are re-attached via
        :meth:`~repro.storage.files.LogFile.reopen`.  The restored PRNG
        state makes every subsequent acceptance decision identical to an
        uninterrupted run.  The sample's kind is rebuilt from the
        manifest (:func:`~repro.core.kinds.restore_kind`), stale state
        (dataset size, pending skip, acceptance threshold) included; read
        it back as :attr:`kind`.
        """
        if checkpoint.sample_size != sample.size:
            raise ValueError(
                f"checkpoint is for sample size {checkpoint.sample_size}, "
                f"got a sample of size {sample.size}"
            )
        rng = checkpoint.restore_rng()
        if checkpoint.strategy != "immediate":
            if log is None:
                raise ValueError(
                    f"strategy {checkpoint.strategy!r} requires the log file"
                )
            log.reopen(checkpoint.log_count)
        maintainer = cls(
            sample,
            rng,
            strategy=checkpoint.strategy,
            initial_dataset_size=checkpoint.dataset_size_at_refresh,
            log=log,
            algorithm=algorithm,
            policy=policy,
            cost_model=cost_model,
            instrumentation=instrumentation,
            commit_group=commit_group,
            kind=restore_kind(checkpoint),
        )
        maintainer.stats.inserts = checkpoint.inserts
        maintainer.stats.refreshes = checkpoint.refreshes
        maintainer._ops_since_refresh = checkpoint.ops_since_refresh
        if instrumentation is not None:
            # Metrics continuity across the crash: the lifetime counters
            # resume from the checkpointed totals, and the staleness gauges
            # reflect the re-attached log.
            maintainer._c_inserts.restore(checkpoint.inserts)
            maintainer._c_refreshes.restore(checkpoint.refreshes)
            maintainer._sync_gauges()
        return maintainer

    @property
    def commit_group(self) -> GroupCommitBarrier:
        """The multi-device commit barrier guarding refresh/checkpoint commits."""
        return self._commit_group

    def _flush_devices(self) -> None:
        """Group-commit flush across the maintainer's devices (no-op unpooled).

        Flush-only (``seal=False``): refresh commits and pre-checkpoint
        flushes make the devices durable and mutually consistent, but the
        replication ship point is the *manifest save* -- the checkpoint
        store's own group commit seals everything accumulated since the
        last boundary, so the replica only ever holds resumable states.
        """
        self._commit_group.commit(seal=False)

    # -- telemetry -------------------------------------------------------------

    def _log_file(self) -> LogFile | None:
        if self._candidate_logger is not None:
            return self._candidate_logger.log
        if self._full_logger is not None:
            return self._full_logger.log
        return None

    def _sync_gauges(self) -> None:
        """Refresh the staleness gauges after any state change."""
        self._g_pending.set(self.pending_log_elements)
        log = self._log_file()
        self._g_log_blocks.set(log.block_count if log is not None else 0)

    # -- cost accounting -------------------------------------------------------

    def _checkpoint(self) -> AccessStats | None:
        if self._cost_model is None:
            return None
        return self._cost_model.checkpoint()

    def _charge_online(self, checkpoint: AccessStats | None) -> None:
        if checkpoint is not None:
            self.stats.online.add(self._cost_model.since(checkpoint))

    def _charge_offline(self, checkpoint: AccessStats | None) -> None:
        if checkpoint is not None:
            self.stats.offline.add(self._cost_model.since(checkpoint))
