"""The serving catalog: named samples with durable manifests.

A sample server multiplexes many samples (the paper's fleet argument:
one sample per table, group or materialized view).  The catalog owns
that fleet and is its only registry: it creates each sample's on-disk
structures (sample file, candidate log, superblock), keeps one
:class:`CatalogEntry` per sample, and persists each sample's
**manifest** -- its complete resumable maintenance state -- as a
:class:`~repro.storage.superblock.MaintenanceCheckpoint` in a
torn-write-tolerant :class:`~repro.storage.superblock.DualSlotCheckpointStore`.

Every sample comes up one way.  :meth:`SampleCatalog.create` and
:meth:`SampleCatalog.adopt` provision the devices, commit group and
manifest store; :meth:`SampleCatalog.reopen` and
:meth:`SampleCatalog.adopt` mount a maintainer from the newest valid
checkpoint over those devices.  Because checkpoints carry the full PRNG
state, a recovered sample resumes maintenance *bit-identically* to a run
that never crashed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Sequence

from repro.core.kinds import SampleKind, make_kind, restore_kind
from repro.core.maintenance import SampleMaintainer
from repro.core.policies import ManualPolicy, RefreshPolicy
from repro.core.refresh.array import ArrayRefresh
from repro.core.refresh.naive import NaiveCandidateRefresh
from repro.core.refresh.nomem import NomemRefresh
from repro.core.refresh.stack import StackRefresh
from repro.rng.random_source import RandomSource
from repro.storage.block_device import BlockDevice, SimulatedBlockDevice
from repro.storage.bufferpool import BufferPool
from repro.storage.cost_model import AccessStats, CostModel
from repro.storage.fault_injection import CrashBudget, FaultInjectionDevice
from repro.storage.files import LogFile, SampleFile
from repro.storage.group_commit import GroupCommitBarrier
from repro.storage.records import RecordCodec
from repro.storage.replicated import clone_image
from repro.storage.superblock import DualSlotCheckpointStore, MaintenanceCheckpoint

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.api import Instrumentation
    from repro.replication.link import ReplicationLink

__all__ = [
    "CatalogEntry",
    "SampleCatalog",
    "ALGORITHMS",
    "KIND_ALGORITHMS",
    "check_kind_algorithm",
]

#: Refresh-algorithm factories the catalog can instantiate by name.
ALGORITHMS: dict[str, Callable[[], object]] = {
    "array": ArrayRefresh,
    "stack": StackRefresh,
    "nomem": NomemRefresh,
    "naive": NaiveCandidateRefresh,
}

#: The subset whose refresh can drive a kind with content-chosen victims
#: (weighted, window: the victim comes from the kind's replay; Stack and
#: Nomem encode the uniform slot-draw distribution in their own data
#: structures).
KIND_ALGORITHMS = ("naive", "array")

#: A sample's three devices, in creation order (``{name}.{role}``).
_ROLES = ("sample", "log", "meta")

#: Initial datasets are uniform integers in ``[0, _VALUE_RANGE)``.
_VALUE_RANGE = 1 << 30


def check_kind_algorithm(kind: SampleKind, algorithm: str) -> None:
    """Reject a refresh algorithm that cannot produce the kind's victims."""
    if not kind.draws_slots and algorithm not in KIND_ALGORITHMS:
        raise ValueError(
            f"kind {kind.spec()!r} requires a kind-capable refresh algorithm "
            f"{KIND_ALGORITHMS}, got {algorithm!r}"
        )


@dataclass
class CatalogEntry:
    """One catalogued sample: its devices, manifest store and maintainer.

    The devices are kept here (not just the files over them) because they
    are what survives a simulated crash -- recovery builds fresh files
    over the same devices.  Any :class:`BlockDevice` works: the catalog
    wraps its simulated devices in a :class:`BufferPool` when a page
    cache is configured (a pool's frames are RAM and do *not* survive a
    crash -- recovery tests invalidate them first).
    """

    name: str
    algorithm: str
    policy: RefreshPolicy
    codec: RecordCodec
    store: DualSlotCheckpointStore
    sample_device: BlockDevice
    log_device: BlockDevice
    meta_device: BlockDevice
    #: one commit point spanning the three devices above; refresh commits
    #: run through it flush-only, manifest saves seal -- so, when the
    #: catalog is replicated, every sealed batch is a checkpoint boundary
    commit_group: GroupCommitBarrier
    #: set once the sample is built (create) or mounted (reopen, adopt)
    maintainer: SampleMaintainer = field(init=False)

    @property
    def devices(self) -> tuple[BlockDevice, BlockDevice, BlockDevice]:
        """The sample, log and manifest devices, in :data:`_ROLES` order."""
        return self.sample_device, self.log_device, self.meta_device

    @property
    def sample(self) -> SampleFile:
        return self.maintainer.sample

    @property
    def log(self) -> LogFile:
        return self.maintainer.log

    @property
    def kind(self) -> str:
        """Canonical sample-kind spec (``"uniform"``, ``"weighted"``,
        ``"weighted:MOD"``, ``"window"``)."""
        return self.maintainer.kind.spec()


class SampleCatalog:
    """Named, durable, queryable samples over one shared cost model."""

    def __init__(
        self,
        cost_model: CostModel | None = None,
        instrumentation: "Instrumentation | None" = None,
        pool_capacity: int = 0,
        replication: "ReplicationLink | None" = None,
        crash_budget: CrashBudget | None = None,
        torn_writes: bool = False,
    ) -> None:
        if pool_capacity < 0:
            raise ValueError("pool_capacity must be non-negative")
        self._cost_model = cost_model if cost_model is not None else CostModel()
        self._instr = instrumentation
        self._pool_capacity = pool_capacity
        self._replication = replication
        self._crash_budget = crash_budget
        self._torn_writes = torn_writes
        self._entries: dict[str, CatalogEntry] = {}
        if instrumentation is not None:
            self._g_samples = instrumentation.gauge("serve.catalog_samples")

    # -- introspection -------------------------------------------------------

    @property
    def cost_model(self) -> CostModel:
        return self._cost_model

    @property
    def pool_capacity(self) -> int:
        return self._pool_capacity

    @property
    def replication(self) -> "ReplicationLink | None":
        """The replication link shipping this catalog's commits, if any."""
        return self._replication

    def pool_stats(self) -> dict:
        """Aggregate page-cache counters across every per-sample pool.

        Serves the ``pool`` section of the serve report; all-zero (with
        ``enabled: false``) when the catalog runs without a page cache,
        so report comparisons can simply drop this section.
        """
        pools = [
            device
            for entry in self._entries.values()
            for device in entry.devices
            if isinstance(device, BufferPool)
        ]
        totals = {
            "enabled": self._pool_capacity > 0,
            "capacity": self._pool_capacity,
            "pools": len(pools),
            "hits": 0,
            "misses": 0,
            "readahead_blocks": 0,
            "evictions": 0,
            "flushed_blocks": 0,
            "coalesced_writes": 0,
            "flush_barriers": 0,
        }
        for pool in pools:
            stats = pool.stats
            totals["hits"] += stats.hits
            totals["misses"] += stats.misses
            totals["readahead_blocks"] += stats.readahead_blocks
            totals["evictions"] += stats.evictions
            totals["flushed_blocks"] += stats.flushed_blocks
            totals["coalesced_writes"] += stats.coalesced_writes
            totals["flush_barriers"] += stats.flush_barriers
        charged = totals["hits"] + totals["misses"]
        totals["hit_rate"] = round(totals["hits"] / charged, 6) if charged else 0.0
        return totals

    def online_stats(self) -> AccessStats:
        """Online (insert-time) I/O summed over every catalogued sample."""
        stats = (entry.maintainer.stats.online for entry in self._entries.values())
        return sum(stats, AccessStats())

    def offline_stats(self) -> AccessStats:
        """Offline (refresh-time) I/O summed over every catalogued sample."""
        stats = (entry.maintainer.stats.offline for entry in self._entries.values())
        return sum(stats, AccessStats())

    def _make_device(self, name: str) -> BlockDevice:
        """One simulated device, decorated per the catalog's configuration.

        Stack, inside out: simulated device, replication capture, fault
        injection, buffer pool.  The fault layer sits *outside* the
        replication capture so a crashed write is neither durable nor
        recorded for shipping, and the pool sits on top so cached frames
        are RAM that a crash loses (see ``docs/replication.md``).
        """
        device: BlockDevice = SimulatedBlockDevice(
            self._cost_model, name=name, instrumentation=self._instr
        )
        if self._replication is not None:
            device = self._replication.attach(device, name=name)
        if self._crash_budget is not None:
            device = FaultInjectionDevice(
                device,
                instrumentation=self._instr,
                torn_writes=self._torn_writes,
                crash_budget=self._crash_budget,
            )
        if self._pool_capacity > 0:
            device = BufferPool(
                device,
                capacity=self._pool_capacity,
                instrumentation=self._instr,
                name=name,
            )
        return device

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def names(self) -> list[str]:
        return list(self._entries)

    def get(self, name: str) -> SampleMaintainer:
        return self.entry(name).maintainer

    def entry(self, name: str) -> CatalogEntry:
        try:
            return self._entries[name]
        except KeyError:
            raise KeyError(f"no catalogued sample named {name!r}") from None

    def pending(self) -> dict[str, int]:
        """Per-sample staleness: pending log elements, in catalog order."""
        return {
            name: entry.maintainer.pending_log_elements
            for name, entry in self._entries.items()
        }

    # -- bring-up ------------------------------------------------------------

    def _provision(
        self,
        name: str,
        algorithm: str,
        kind: SampleKind,
        policy: RefreshPolicy | None,
        record_size: int,
    ) -> CatalogEntry:
        """Check a new sample, then make its devices, commit group and store.

        Every check runs before the first device exists, so a rejected
        sample leaves the catalog (its pools, its replication link)
        exactly as it found it.  The entry is not registered here.
        """
        if name in self._entries:
            raise ValueError(f"sample {name!r} already catalogued")
        if algorithm not in ALGORITHMS:
            raise ValueError(
                f"algorithm must be one of {tuple(ALGORITHMS)}, got {algorithm!r}"
            )
        check_kind_algorithm(kind, algorithm)
        sample_device, log_device, meta_device = (
            self._make_device(f"{name}.{role}") for role in _ROLES
        )
        commit_group = GroupCommitBarrier(
            (sample_device, log_device, meta_device),
            link=self._replication,
            fault_budget=self._crash_budget,
            instrumentation=self._instr,
        )
        return CatalogEntry(
            name=name,
            algorithm=algorithm,
            policy=policy if policy is not None else ManualPolicy(),
            codec=kind.codec(record_size),
            store=DualSlotCheckpointStore(meta_device, commit_barrier=commit_group),
            sample_device=sample_device,
            log_device=log_device,
            meta_device=meta_device,
            commit_group=commit_group,
        )

    def _mount(self, entry: CatalogEntry) -> MaintenanceCheckpoint:
        """Restore ``entry``'s maintainer from its newest valid manifest.

        Builds fresh files over the entry's devices and resumes the
        maintainer bit-exactly (PRNG state included); returns the
        checkpoint it mounted.
        """
        checkpoint = entry.store.load()
        entry.maintainer = SampleMaintainer.from_checkpoint(
            checkpoint,
            SampleFile(entry.sample_device, entry.codec, checkpoint.sample_size),
            log=LogFile(entry.log_device, entry.codec),
            algorithm=ALGORITHMS[entry.algorithm](),
            policy=entry.policy,
            cost_model=self._cost_model,
            instrumentation=self._instr,
            commit_group=entry.commit_group,
        )
        return checkpoint

    def _register(self, entry: CatalogEntry) -> None:
        self._entries[entry.name] = entry
        if self._instr is not None:
            self._g_samples.set(len(self._entries))

    # -- lifecycle -----------------------------------------------------------

    def create(
        self,
        name: str,
        sample_size: int,
        initial_dataset_size: int | None = None,
        algorithm: str = "stack",
        seed: int = 0,
        policy: RefreshPolicy | None = None,
        record_size: int = 32,
        kind: str = "uniform",
    ) -> CatalogEntry:
        """Create a sample: build the initial reservoir, persist a manifest.

        The initial dataset (default ``4 * sample_size`` uniform integers
        in ``[0, 2**30)``) is drawn from the sample's own seeded RNG,
        which then continues as the maintenance RNG -- so the whole
        lifetime of the sample is one deterministic stream.

        ``kind`` selects the sampling scheme (see
        :mod:`repro.core.kinds`): ``"uniform"`` (the default),
        ``"weighted"``/``"weighted:MOD"`` or ``"window"``.  Every kind
        builds its initial sample with its own eager rule over the *same*
        initial draws; kinds whose victims are chosen by content restrict
        ``algorithm`` to the kind-capable refreshes (``naive``/``array``).
        """
        if initial_dataset_size is None:
            initial_dataset_size = 4 * sample_size
        if initial_dataset_size < sample_size:
            raise ValueError(
                f"initial dataset ({initial_dataset_size}) must be at least "
                f"the sample size ({sample_size})"
            )
        sample_kind = make_kind(kind, sample_size)
        entry = self._provision(name, algorithm, sample_kind, policy, record_size)
        rng = RandomSource(seed)
        initial = [rng.randrange(_VALUE_RANGE) for _ in range(initial_dataset_size)]
        sample = SampleFile(entry.sample_device, entry.codec, sample_size)
        sample.initialize(sample_kind.build_initial(initial, rng))
        entry.maintainer = SampleMaintainer(
            sample,
            rng,
            strategy="candidate",
            initial_dataset_size=sample_kind.seen,
            log=LogFile(entry.log_device, entry.codec),
            algorithm=ALGORITHMS[algorithm](),
            policy=entry.policy,
            cost_model=self._cost_model,
            instrumentation=self._instr,
            commit_group=entry.commit_group,
            kind=sample_kind,
        )
        self._register(entry)
        # Persist the birth manifest immediately: a catalogued sample is
        # recoverable from the moment create() returns.
        entry.store.save(entry.maintainer.checkpoint_state())
        if self._instr is not None:
            self._instr.emit(
                "serve.sample_created",
                sample=name,
                algorithm=algorithm,
                sample_size=sample_size,
                dataset_size=sample_kind.seen,
                kind=entry.kind,
            )
        return entry

    def checkpoint(self, name: str) -> None:
        """Persist the named sample's manifest (one random superblock write)."""
        entry = self.entry(name)
        entry.store.save(entry.maintainer.checkpoint_state())

    def checkpoint_all(self) -> None:
        for name in self._entries:
            self.checkpoint(name)

    def reopen(self, name: str) -> SampleMaintainer:
        """Recover the named sample from its newest valid manifest.

        Builds fresh file objects over the surviving devices and restores
        the maintainer from the checkpoint (exact PRNG state included).
        Raises :class:`~repro.storage.superblock.CheckpointError` when
        neither manifest slot validates.
        """
        entry = self.entry(name)
        checkpoint = self._mount(entry)
        if self._instr is not None:
            self._instr.emit(
                "serve.sample_reopened",
                sample=name,
                dataset_size=checkpoint.dataset_size,
                pending_log_elements=checkpoint.log_count,
            )
        return entry.maintainer

    def adopt(
        self,
        name: str,
        images: dict[str, dict[int, bytes]],
        algorithm: str = "stack",
        policy: RefreshPolicy | None = None,
        record_size: int = 32,
    ) -> CatalogEntry:
        """Adopt a sample from replica device images (disaster recovery).

        ``images`` maps the device roles ``sample``/``log``/``meta`` to
        ``block -> bytes`` maps (see
        :func:`repro.storage.device_image`).  The manifest image is
        validated first, on a throwaway device that charges nothing:
        when it has no loadable slot
        (:class:`~repro.storage.superblock.CheckpointError`) or names a
        kind ``algorithm`` cannot refresh (``ValueError``), the catalog is
        left untouched.  Otherwise the images are cloned onto fresh
        devices without charging I/O -- they already paid their cost on
        the replica -- and the sample is mounted exactly like
        :meth:`reopen`.
        """
        # The manifest is the source of truth for the sample's kind: the
        # adopted images may come from a catalog whose configuration is
        # long gone, so kind name and parameters are read back from it.
        probe = SimulatedBlockDevice(CostModel(self._cost_model.disk))
        clone_image(probe, images.get("meta", {}))
        kind = restore_kind(DualSlotCheckpointStore(probe).load())
        entry = self._provision(name, algorithm, kind, policy, record_size)
        for device, role in zip(entry.devices, _ROLES):
            clone_image(device, images.get(role, {}))
        checkpoint = self._mount(entry)
        self._register(entry)
        if self._instr is not None:
            self._instr.emit(
                "serve.sample_adopted",
                sample=name,
                algorithm=algorithm,
                dataset_size=checkpoint.dataset_size,
                pending_log_elements=checkpoint.log_count,
            )
        return entry

    # -- data paths ----------------------------------------------------------

    def ingest(self, name: str, batch: Sequence) -> int:
        """Feed one ingest batch to the named sample (skip-based path)."""
        return self.get(name).insert_many(batch)

    def refresh(self, name: str):
        """Run the named sample's deferred refresh; returns its result."""
        return self.get(name).refresh()
