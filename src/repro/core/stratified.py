"""Stratified (group-by) samples with deferred maintenance.

Sec. 2 of the paper surveys database sampling schemes built on reservoir
sampling -- congressional samples for group-by queries, ICICLES, join
synopses -- and claims "these algorithms can be natively extended to
support fast deferred refresh using the techniques presented in this
paper."  This module cashes in that claim for the group-by case: one
bounded uniform sample *per group*, each maintained with candidate
logging and a deferred refresh algorithm, so small groups are not drowned
out by large ones (the failure mode of a single uniform sample that
congressional sampling addresses).

Groups appear dynamically.  A new group starts in a **filling** phase --
its first ``per_group_size`` elements go straight into its sample file,
which *is* the complete group at that point -- and switches to normal
deferred maintenance once full.  Per-group dataset sizes are tracked
exactly, so a group's :meth:`GroupSample.contents` and
:attr:`GroupSample.dataset_size` make its
:class:`~repro.analysis.query.SampleQuery`.
"""

from __future__ import annotations

from typing import Callable, Iterable, TypeVar

from repro.core.maintenance import SampleMaintainer
from repro.core.policies import RefreshPolicy
from repro.core.refresh.base import RefreshAlgorithm
from repro.core.refresh.stack import StackRefresh
from repro.rng.random_source import RandomSource
from repro.storage.block_device import SimulatedBlockDevice
from repro.storage.cost_model import CostModel
from repro.storage.files import LogFile, SampleFile
from repro.storage.records import RecordCodec

__all__ = ["GroupSample", "StratifiedSampleManager"]

T = TypeVar("T")
K = TypeVar("K")


class GroupSample:
    """One group's bounded sample: filling first, then deferred maintenance."""

    def __init__(
        self,
        key,
        per_group_size: int,
        codec: RecordCodec,
        rng: RandomSource,
        cost_model: CostModel,
        algorithm: RefreshAlgorithm,
        policy_factory: Callable[[], RefreshPolicy] | None,
    ) -> None:
        self.key = key
        self._size = per_group_size
        self._codec = codec
        self._rng = rng
        self._cost = cost_model
        self._algorithm = algorithm
        self._policy_factory = policy_factory
        self._sample = SampleFile(
            SimulatedBlockDevice(cost_model, f"group-{key}-sample"),
            codec,
            per_group_size,
        )
        self._log_device = SimulatedBlockDevice(cost_model, f"group-{key}-log")
        self._maintainer: SampleMaintainer | None = None
        self._seen = 0

    @property
    def dataset_size(self) -> int:
        """Elements of this group seen so far."""
        return self._seen

    @property
    def filling(self) -> bool:
        return self._maintainer is None

    @property
    def sample_size(self) -> int:
        """Current number of valid sample elements (< M while filling)."""
        return min(self._seen, self._size)

    def insert(self, element: T) -> None:
        if self._maintainer is not None:
            self._maintainer.insert(element)
            self._seen += 1
            return
        # Filling phase: the sample IS the group so far.
        self._sample.write_random(self._seen, element)
        self._seen += 1
        if self._seen == self._size:
            self._promote()

    def _promote(self) -> None:
        """Switch from filling to deferred maintenance."""
        policy = self._policy_factory() if self._policy_factory else None
        self._maintainer = SampleMaintainer(
            self._sample,
            self._rng,
            strategy="candidate",
            initial_dataset_size=self._size,
            log=LogFile(self._log_device, self._codec),
            algorithm=self._algorithm,
            policy=policy,
            cost_model=self._cost,
        )

    def refresh(self) -> None:
        if self._maintainer is not None:
            self._maintainer.refresh()

    def contents(self) -> list[T]:
        """Valid sample elements (the whole group while filling).

        Uncharged read: the paper's cost accounting covers maintenance
        I/O only; query-side cost is the consumer's business.
        """
        return [self._sample.peek(i) for i in range(self.sample_size)]


class StratifiedSampleManager:
    """Bounded uniform samples per group, maintained deferredly.

    Parameters
    ----------
    group_of:
        Maps an element to its group key.
    per_group_size:
        ``M`` for every group's sample.
    max_groups:
        Hard cap on distinct groups (protects against unbounded key
        domains); exceeding it raises.
    algorithm_factory / policy_factory:
        Per-group refresh algorithm and auto-refresh policy.
    """

    def __init__(
        self,
        group_of: Callable[[T], K],
        per_group_size: int,
        codec: RecordCodec,
        rng: RandomSource,
        cost_model: CostModel | None = None,
        algorithm_factory: Callable[[], RefreshAlgorithm] = StackRefresh,
        policy_factory: Callable[[], RefreshPolicy] | None = None,
        max_groups: int = 10_000,
    ) -> None:
        if per_group_size <= 0:
            raise ValueError("per_group_size must be positive")
        if max_groups <= 0:
            raise ValueError("max_groups must be positive")
        self._group_of = group_of
        self._size = per_group_size
        self._codec = codec
        self._rng = rng
        self._cost = cost_model if cost_model is not None else CostModel()
        self._algorithm_factory = algorithm_factory
        self._policy_factory = policy_factory
        self._max_groups = max_groups
        self._groups: dict[K, GroupSample] = {}
        self.inserts = 0

    @property
    def cost_model(self) -> CostModel:
        return self._cost

    def __len__(self) -> int:
        return len(self._groups)

    def __contains__(self, key: K) -> bool:
        return key in self._groups

    def keys(self) -> list[K]:
        return list(self._groups)

    def group(self, key: K) -> GroupSample:
        try:
            return self._groups[key]
        except KeyError:
            raise KeyError(f"no group {key!r}") from None

    def insert(self, element: T) -> K:
        """Route one element to its group's sample; returns the group key."""
        key = self._group_of(element)
        group = self._groups.get(key)
        if group is None:
            if len(self._groups) >= self._max_groups:
                raise RuntimeError(
                    f"group limit ({self._max_groups}) exceeded by key {key!r}"
                )
            group = GroupSample(
                key, self._size, self._codec, self._rng.spawn(f"group-{key}"),
                self._cost, self._algorithm_factory(), self._policy_factory,
            )
            self._groups[key] = group
        group.insert(element)
        self.inserts += 1
        return key

    def insert_many(self, elements: Iterable[T]) -> None:
        for element in elements:
            self.insert(element)

    def refresh_all(self) -> None:
        for group in self._groups.values():
            group.refresh()

    def group_sizes(self) -> dict[K, int]:
        """True per-group dataset sizes (tracked exactly)."""
        return {key: g.dataset_size for key, g in self._groups.items()}
