"""Pluggable sample kinds: uniform, weighted (A-ES) and sliding-window.

The paper states deferred maintenance for *uniform* reservoirs, but the
decomposition it rests on -- an **acceptance test** at insert time, a
**victim-slot choice** at refresh time, and a candidate log in between --
generalises to other sampling schemes (footnote 3: "we are free to use
any other acceptance test").  This module owns that generalisation: a
:class:`SampleKind` captures, per scheme,

* what a stored **row** is (value plus kind payload: A-ES key, arrival
  sequence) and which codec serialises it -- the value is always field
  0 of the record, the column a query scans;
* the **acceptance test** run at insert time against *stale* state (state
  as of the last refresh), which decides what enters the candidate log;
* the **replay** run at refresh time, which folds logged candidates into
  the on-disk sample and picks victim slots.

Deferred-maintenance proof obligations (checked bit-exactly by
``tests/properties/test_prop_kinds.py``; see ``docs/sample_kinds.md``):

* **uniform** (:class:`UniformKind`) -- the classic scheme; acceptance
  via Vitter skips, victim slots drawn uniformly at refresh.  Its victims
  are RNG slot draws, so every refresh algorithm (Array, Stack, Nomem,
  naive) can apply its log.
* **weighted** (:class:`WeightedKind`) -- A-ES exponential keys: each
  record draws exactly one uniform and gets the key ``-ln(1-u)/w``; the
  sample holds the ``M`` *smallest* keys.  The insert-time acceptance
  test compares against the stale threshold (the sample's max key as of
  the last refresh).  Because the live threshold is non-increasing, the
  log is a superset of every eagerly-accepted record, and the refresh
  replay -- which re-filters against the evolving threshold -- lands on
  exactly the eager sample.  The victim slot is the arg-max key, so no
  refresh-time randomness is needed and the PRNG stream (one draw per
  record) is identical between the eager and deferred paths.
* **window** (:class:`WindowKind`) -- the last ``W`` rows; fully
  deterministic (no RNG draws at all).  Every arriving row is accepted
  and logged with its arrival sequence; expiry happens at refresh time
  from the log: only the last ``min(pending, W)`` logged rows can be
  live, and each maps to the fixed slot ``seq mod W``.
"""

from __future__ import annotations

import heapq
import math
from typing import TYPE_CHECKING, Protocol, Sequence

from repro import specs
from repro.core.logs import CandidateLogger
from repro.core.reservoir import ReservoirSampler, build_reservoir
from repro.rng.random_source import RandomSource
from repro.storage.files import SampleFile
from repro.storage.records import (
    IntRecordCodec,
    RecordCodec,
    TimestampedRecordCodec,
    WeightedRecordCodec,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.storage.superblock import MaintenanceCheckpoint

__all__ = [
    "SampleKind",
    "UniformKind",
    "WeightedKind",
    "WindowKind",
    "KindCandidateLogger",
    "KINDS",
    "DEFAULT_WEIGHT_MOD",
    "make_kind",
    "restore_kind",
    "eager_oracle",
]

#: Registered single-file kinds, in manifest index order.  The position
#: of a name in this tuple is serialised into superblock manifests
#: (version 3+), so entries must never be reordered, only appended.
KINDS = ("uniform", "weighted", "window")

DEFAULT_WEIGHT_MOD = 16

#: The candidate logger used to be kind-specific; the name stays as an
#: alias because the host-time benchmark (``perfbench/layers.py``)
#: imports and hooks it.
KindCandidateLogger = CandidateLogger


class SampleKind(Protocol):
    """The per-scheme contract the maintenance stack drives.

    A kind owns the mutable per-sample state that insert-time acceptance
    depends on (dataset size, pending skip, stale threshold, next arrival
    sequence).  One kind instance belongs to one sample; the candidate
    logger, the refresh algorithm and the query session share it.
    """

    name: str

    #: maintenance strategies (see SampleMaintainer) the kind supports
    strategies: tuple[str, ...]

    #: True when refresh victims are uniform RNG slot draws (any refresh
    #: algorithm applies the log); False when the kind's replay chooses
    #: them from the sample's contents (naive and array refresh only)
    draws_slots: bool

    @property
    def capacity(self) -> int:  # pragma: no cover - protocol
        ...

    @property
    def seen(self) -> int:  # pragma: no cover - protocol
        ...

    @property
    def pending_accept(self) -> int | None:  # pragma: no cover - protocol
        ...

    def spec(self) -> str:  # pragma: no cover - protocol
        ...

    def codec(self, record_size: int) -> RecordCodec:  # pragma: no cover
        ...

    def population(self) -> int:  # pragma: no cover - protocol
        ...

    def effective_staleness(self, pending: int) -> int:  # pragma: no cover
        ...

    def build_initial(self, dataset: Sequence[int], rng: RandomSource) -> list:
        ...  # pragma: no cover - protocol

    def offer(self, element, rng: RandomSource):  # pragma: no cover
        ...

    def offer_many(
        self, elements, rng: RandomSource, max_accepts: int | None = None
    ) -> tuple[int, list]:  # pragma: no cover - protocol
        ...

    def replay_start(self, total: int) -> int:  # pragma: no cover - protocol
        ...

    def open_replay(self, sample: SampleFile, rng: RandomSource):
        ...  # pragma: no cover - protocol

    def commit_replay(self, replay) -> None:  # pragma: no cover - protocol
        ...

    def checkpoint_fields(self) -> tuple[int, float]:  # pragma: no cover
        ...

    def restore_state(self, checkpoint: "MaintenanceCheckpoint") -> None:
        ...  # pragma: no cover - protocol

    def plausible(self, rows: Sequence, seen: int) -> bool:  # pragma: no cover
        ...


# ---------------------------------------------------------------------------
# Uniform reservoir (the paper's scheme)
# ---------------------------------------------------------------------------


class _SlotDraws:
    """Uniform victims: every candidate replaces a uniformly drawn slot.

    Reads no rows -- the draw ignores the sample's contents, which is
    what lets Array/Stack/Nomem precompute final slots without a scan.
    """

    __slots__ = ("_rng", "_size")

    def __init__(self, rng: RandomSource, size: int) -> None:
        self._rng = rng
        self._size = size

    def step(self, record) -> int:
        return self._rng.randrange(self._size)


class UniformKind:
    """The paper's uniform reservoir: Vitter skips, uniform victim slots.

    Insert-time acceptance is the reservoir law ``M/(|R|+1)``, computed
    with Vitter's skip variates by a
    :class:`~repro.core.reservoir.ReservoirSampler` this kind owns -- so
    batched offers jump from one candidate to the next in O(accepted)
    Python work.  The sampler starts fresh at ``initial_size=seen``
    (after :meth:`build_initial`, a construction with ``seen=``, or
    :meth:`restore_state`) and draws from the stream each offer hands in.
    """

    name = "uniform"
    strategies = ("immediate", "candidate", "full")
    draws_slots = True

    def __init__(self, capacity: int, seen: int = 0) -> None:
        if capacity <= 0:
            raise ValueError("sample capacity must be positive")
        self._capacity = capacity
        self._start(seen, None)

    def _start(self, seen: int, pending: int | None) -> None:
        self._sampler = ReservoirSampler(self._capacity, None, initial_size=seen)
        self._sampler.pending_accept = pending

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def seen(self) -> int:
        return self._sampler.seen

    @property
    def pending_accept(self) -> int | None:
        """The sampler's undrawn skip decision (checkpointed verbatim)."""
        return self._sampler.pending_accept

    def sampler(self, rng: RandomSource) -> ReservoirSampler:
        """The log-phase sampler, drawing from ``rng``."""
        self._sampler.rng = rng
        return self._sampler

    def spec(self) -> str:
        return "uniform"

    def codec(self, record_size: int) -> RecordCodec:
        return IntRecordCodec(record_size)

    def population(self) -> int:
        return self.seen

    def effective_staleness(self, pending: int) -> int:
        return pending

    def build_initial(self, dataset: Sequence[int], rng: RandomSource) -> list:
        """One reservoir pass over the initial dataset; returns the rows."""
        rows, seen = build_reservoir(dataset, self._capacity, rng)
        self._start(seen, None)
        return rows

    def offer(self, element, rng: RandomSource):
        """Acceptance test for one arrival: the element itself, or None."""
        sampler = self._sampler
        sampler.rng = rng
        return element if sampler.test() else None

    def offer_many(
        self, elements, rng: RandomSource, max_accepts: int | None = None
    ) -> tuple[int, list]:
        """Skip-jump acceptance over a batch: ``(consumed, accepted)``.

        Same draws as ``consumed`` scalar :meth:`offer` calls; ``consumed``
        falls short of the batch only when ``max_accepts`` was reached,
        right after the accepting element.
        """
        if not isinstance(elements, (list, tuple, range)):
            elements = list(elements)
        consumed, accepted = self.sampler(rng).test_many(len(elements), max_accepts)
        return consumed, [elements[i] for i in accepted]

    def replay_start(self, total: int) -> int:
        return 0

    def open_replay(self, sample: SampleFile, rng: RandomSource) -> _SlotDraws:
        return _SlotDraws(rng, sample.size)

    def commit_replay(self, replay: _SlotDraws) -> None:
        return None

    def checkpoint_fields(self) -> tuple[int, float]:
        return 0, 0.0

    def restore_state(self, checkpoint) -> None:
        self._start(checkpoint.dataset_size, checkpoint.pending_accept)

    def plausible(self, rows: Sequence, seen: int) -> bool:
        return all(isinstance(row, int) for row in rows)


# ---------------------------------------------------------------------------
# Kinds that draw and accept element by element (weighted, window)
# ---------------------------------------------------------------------------


def _offer_each(kind, element, rng: RandomSource):
    """One draw, one test against stale state: the record, or None."""
    record = kind.draw(element, rng)
    return record if kind.accept(record) else None


def _scan_replay(kind, sample: SampleFile, rng: RandomSource):
    """Content-chosen victims: replay over the sample's current rows."""
    return kind.begin_replay(list(sample.scan()))


# ---------------------------------------------------------------------------
# Weighted reservoir (A-ES exponential keys)
# ---------------------------------------------------------------------------


class _WeightedReplay:
    """Evolving-threshold application of weighted records to sample rows.

    This is the *eager* maintenance rule -- keep the ``M`` smallest keys,
    evict the arg-max -- applied in memory.  The deferred refresh runs it
    over the candidate log; the immediate oracle runs it per arrival.
    The max-key lookup is a lazy-invalidation heap: stale entries (slots
    whose key has since shrunk) are popped on sight, ties break on the
    lower slot, so the victim choice is deterministic.
    """

    __slots__ = ("rows", "_keys", "_heap")

    def __init__(self, rows: list) -> None:
        self.rows = rows
        self._keys = [row[1] for row in rows]
        self._heap = [(-key, slot) for slot, key in enumerate(self._keys)]
        heapq.heapify(self._heap)

    def _peek_max(self) -> tuple[float, int]:
        heap = self._heap
        keys = self._keys
        while True:
            neg_key, slot = heap[0]
            if keys[slot] == -neg_key:
                return -neg_key, slot
            heapq.heappop(heap)

    @property
    def max_key(self) -> float:
        """The live threshold: the largest key currently in the sample."""
        return self._peek_max()[0]

    def step(self, record) -> int | None:
        """Apply one record; returns the displaced slot, or None."""
        key = record[1]
        max_key, slot = self._peek_max()
        if key < max_key:
            self.rows[slot] = record
            self._keys[slot] = key
            heapq.heapreplace(self._heap, (-key, slot))
            return slot
        return None


class WeightedKind:
    """Weighted reservoir via A-ES exponential keys, one draw per record.

    A record of value ``v`` has weight ``w(v) = 1 + (v mod weight_mod)``
    and key ``-ln(1-u)/w(v)`` for a single uniform ``u``; the sample is
    the ``M`` records with the smallest keys (equivalently, A-ES keeps
    the largest ``u^(1/w)``).  The classic A-ES *exponential jump* skips
    rejected records without drawing for them -- but the jump length
    depends on the live threshold, which deferred maintenance does not
    know between refreshes.  This implementation deliberately trades the
    jump for one draw per record, which buys the property everything
    here is built on: the eager path, the deferred path, the scalar path
    and the batch path all consume the identical PRNG stream.
    """

    name = "weighted"
    strategies = ("candidate",)
    draws_slots = False

    def __init__(self, capacity: int, weight_mod: int = DEFAULT_WEIGHT_MOD) -> None:
        if capacity <= 0:
            raise ValueError("sample capacity must be positive")
        if weight_mod <= 0:
            raise ValueError("weight_mod must be positive")
        self._capacity = capacity
        self._mod = weight_mod
        self._seen = 0
        #: stale acceptance threshold: the sample's max key as of the
        #: last refresh (+inf before the initial sample exists)
        self._threshold = math.inf

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def seen(self) -> int:
        return self._seen

    @property
    def pending_accept(self) -> None:
        """Acceptance draws are eager; nothing pends between records."""
        return None

    @property
    def threshold(self) -> float:
        return self._threshold

    @property
    def weight_mod(self) -> int:
        return self._mod

    def spec(self) -> str:
        if self._mod == DEFAULT_WEIGHT_MOD:
            return "weighted"
        return specs.label("weighted", self._mod)

    def codec(self, record_size: int) -> RecordCodec:
        return WeightedRecordCodec(record_size)

    def population(self) -> int:
        return self._seen

    def effective_staleness(self, pending: int) -> int:
        return pending

    def weight(self, value: int) -> int:
        return 1 + (value % self._mod)

    def draw(self, element: int, rng: RandomSource):
        """One record, one uniform: ``(value, -ln(1-u)/w)``."""
        u = rng.random()
        self._seen += 1
        return (element, -math.log(1.0 - u) / self.weight(element))

    def accept(self, record) -> bool:
        """Insert-time test against the *stale* threshold.

        Thresholds only shrink, so everything the eager rule would ever
        accept passes this test -- the log is a superset, re-filtered at
        refresh by the replay.
        """
        return record[1] < self._threshold

    offer = _offer_each

    def offer_many(
        self, elements, rng: RandomSource, max_accepts: int | None = None
    ) -> tuple[int, list]:
        """Batched :meth:`offer`: ``(consumed, accepted records)``.

        The uniforms come a window at a time; each key is still one
        ``math.log`` (libm bits) over one uniform, exactly as :meth:`draw`
        computes it.  ``consumed`` falls short of the batch only when
        ``max_accepts`` was reached, right after the accepting element;
        the rest of that window is given back, so the stream stands
        where ``consumed`` scalar offers leave it.
        """
        if not isinstance(elements, (list, tuple, range)):
            elements = list(elements)
        quota = math.inf if max_accepts is None else max_accepts
        threshold = self._threshold
        mod = self._mod
        log = math.log
        records: list = []
        consumed = 0
        while consumed < len(elements):
            window = rng.random_window(len(elements) - consumed)
            batch = elements[consumed : consumed + len(window)]
            for used, (element, u) in enumerate(zip(batch, window), 1):
                key = -log(1.0 - u) / (1 + element % mod)
                if key < threshold:
                    records.append((element, key))
                    if len(records) >= quota:
                        rng.give_back(len(window) - used)
                        consumed += used
                        self._seen += consumed
                        return consumed, records
            consumed += len(window)
        self._seen += consumed
        return consumed, records

    def replay_start(self, total: int) -> int:
        return 0

    open_replay = _scan_replay

    def begin_replay(self, rows: list) -> _WeightedReplay:
        return _WeightedReplay(rows)

    def commit_replay(self, replay: _WeightedReplay) -> None:
        self._threshold = replay.max_key

    def build_initial(self, dataset: Sequence[int], rng: RandomSource) -> list:
        """Eager A-ES over the initial dataset; returns the sample rows."""
        if len(dataset) < self._capacity:
            raise ValueError(
                f"initial dataset ({len(dataset)}) smaller than the "
                f"sample ({self._capacity})"
            )
        rows = [self.draw(value, rng) for value in dataset[: self._capacity]]
        replay = self.begin_replay(rows)
        for value in dataset[self._capacity :]:
            replay.step(self.draw(value, rng))
        self.commit_replay(replay)
        return rows

    def checkpoint_fields(self) -> tuple[int, float]:
        return self._mod, self._threshold

    def restore_state(self, checkpoint) -> None:
        if checkpoint.kind_param != self._mod:
            raise ValueError(
                f"checkpoint weight_mod {checkpoint.kind_param} != {self._mod}"
            )
        self._seen = checkpoint.dataset_size
        self._threshold = checkpoint.kind_threshold

    def plausible(self, rows: Sequence, seen: int) -> bool:
        if any(len(row) != 2 for row in rows):
            return False
        keys = [row[1] for row in rows]
        if any(key < 0 or not math.isfinite(key) for key in keys):
            return False
        # The stale threshold can only over-admit, never under-admit:
        # every live key must sit at or below it.
        return not math.isfinite(self._threshold) or max(keys) <= self._threshold


# ---------------------------------------------------------------------------
# Sliding window (last W rows; deterministic)
# ---------------------------------------------------------------------------


class _WindowReplay:
    """Apply window records to their fixed slots, newest sequence wins."""

    __slots__ = ("rows", "_capacity")

    def __init__(self, rows: list, capacity: int) -> None:
        self.rows = rows
        self._capacity = capacity

    def step(self, record) -> int | None:
        slot = record[1] % self._capacity
        current = self.rows[slot]
        if current is None or current[1] < record[1]:
            self.rows[slot] = record
            return slot
        return None


class WindowKind:
    """The last ``W`` rows of the stream (``W`` = the sample capacity).

    Fully deterministic: a row with arrival sequence ``s`` lives in slot
    ``s mod W`` until the row with sequence ``s + W`` arrives.  Every
    arriving row is accepted and logged; *expiry is deferred* to refresh
    time, where only the last ``min(pending, W)`` logged rows are read
    back (:meth:`replay_start` skips the expired prefix without touching
    it).  Staleness in rows is therefore naturally capped at ``W`` --
    :meth:`effective_staleness` reports that cap, which is what makes
    ``bounded_staleness:k`` (and the ``bounded_expiry`` fraction form)
    well-defined for window samples.
    """

    name = "window"
    strategies = ("candidate",)
    draws_slots = False

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError("sample capacity must be positive")
        self._capacity = capacity
        self._seen = 0

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def seen(self) -> int:
        return self._seen

    @property
    def pending_accept(self) -> None:
        return None

    def spec(self) -> str:
        return "window"

    def codec(self, record_size: int) -> RecordCodec:
        return TimestampedRecordCodec(record_size)

    def population(self) -> int:
        return min(self._seen, self._capacity)

    def effective_staleness(self, pending: int) -> int:
        """Rows of the live window not yet applied from the log."""
        return min(pending, self._capacity)

    def expired_fraction(self, pending: int) -> float:
        """The window fraction the pending log has already expired."""
        return self.effective_staleness(pending) / self._capacity

    def draw(self, element: int, rng: RandomSource):
        record = (element, self._seen)
        self._seen += 1
        return record

    def accept(self, record) -> bool:
        return True

    offer = _offer_each

    def offer_many(
        self, elements, rng: RandomSource, max_accepts: int | None = None
    ) -> tuple[int, list]:
        """Batched :meth:`offer`: every row is accepted, so the batch is
        cut right after the ``max_accepts``-th (at least one) row."""
        if not isinstance(elements, (list, tuple, range)):
            elements = list(elements)
        take = len(elements)
        if max_accepts is not None:
            take = min(take, max(max_accepts, 1))
        first = self._seen
        self._seen += take
        return take, list(zip(elements[:take], range(first, first + take)))

    def replay_start(self, total: int) -> int:
        """Logged rows older than the window are expired unread."""
        return max(0, total - self._capacity)

    open_replay = _scan_replay

    def begin_replay(self, rows: list) -> _WindowReplay:
        return _WindowReplay(rows, self._capacity)

    def commit_replay(self, replay: _WindowReplay) -> None:
        return None

    def build_initial(self, dataset: Sequence[int], rng: RandomSource) -> list:
        if len(dataset) < self._capacity:
            raise ValueError(
                f"initial dataset ({len(dataset)}) smaller than the "
                f"window ({self._capacity})"
            )
        rows: list = [None] * self._capacity
        replay = self.begin_replay(rows)
        for value in dataset:
            replay.step(self.draw(value, rng))
        return rows

    def checkpoint_fields(self) -> tuple[int, float]:
        return self._capacity, 0.0

    def restore_state(self, checkpoint) -> None:
        if checkpoint.kind_param != self._capacity:
            raise ValueError(
                f"checkpoint window {checkpoint.kind_param} != {self._capacity}"
            )
        self._seen = checkpoint.dataset_size

    def plausible(self, rows: Sequence, seen: int) -> bool:
        if any(row is None or len(row) != 2 for row in rows):
            return False
        for slot, (_, seq) in enumerate(rows):
            if seq % self._capacity != slot or not 0 <= seq < seen:
                return False
        return True


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


#: The fields each kind's spec takes after its name.
_KIND_FORMS = dict.fromkeys(KINDS, ())
_KIND_FORMS["weighted"] = (specs.OPTIONAL, int)


def make_kind(spec: str, capacity: int) -> SampleKind:
    """Build the kind a spec string names, bound to one sample's capacity.

    Specs: ``"uniform"``, ``"weighted"``, ``"weighted:MOD"`` (weight
    modulus), ``"window"``.
    """

    def build(name: str, *params: int) -> SampleKind:
        classes = {"uniform": UniformKind, "weighted": WeightedKind, "window": WindowKind}
        return classes[name](capacity, *params)

    return specs.parse("sample kind", spec, _KIND_FORMS, build)


def restore_kind(checkpoint: "MaintenanceCheckpoint") -> SampleKind:
    """Rebuild the kind a manifest names, with its stale state restored.

    The manifest is the source of truth: kind name, parameter (weight
    modulus) and capacity come from the checkpoint, and so does the
    state insert-time acceptance resumes from (dataset size, pending
    skip, stale threshold) -- never from an in-memory kind a crashed
    maintainer was mutating.
    """
    name = checkpoint.kind_name
    spec = specs.label(name, checkpoint.kind_param) if name == "weighted" else name
    kind = make_kind(spec, checkpoint.sample_size)
    kind.restore_state(checkpoint)
    return kind


# ---------------------------------------------------------------------------
# The immediate-maintenance oracle (property-test reference)
# ---------------------------------------------------------------------------


def eager_oracle(
    kind: SampleKind, dataset: Sequence[int], elements: Sequence[int], rng: RandomSource
) -> list:
    """Immediate maintenance in memory: apply each arrival on the spot.

    This is the reference the deferred path is proven against: same
    initial build, then one ``draw`` plus one eager replay step per
    arriving element.  It covers the kinds that draw element-wise
    (weighted, window), whose PRNG stream here is identical to the
    deferred path's -- uniform deferral moves the victim draws to
    refresh time, so it matches immediate maintenance in law, not in
    bits.  The
    bit-identity property (``tests/properties/test_prop_kinds.py``)
    checks rows *and* PRNG state after the deferred run's final refresh.
    """
    rows = kind.build_initial(dataset, rng)
    replay = kind.begin_replay(rows)
    for element in elements:
        replay.step(kind.draw(element, rng))
    kind.commit_replay(replay)
    return rows
