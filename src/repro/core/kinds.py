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
  as of the last refresh), which decides what enters the candidate log --
  one batched ``offer_many`` per kind, one arrival being a batch of one;
* the **replay** run at refresh time, which folds logged candidates into
  the on-disk sample and picks victim slots -- one ``begin_replay`` over
  the sample's record array and one ``apply`` over the log's, which the
  initial build reuses.

Deferred-maintenance proof obligations (checked bit-exactly by
``tests/properties/test_prop_kinds.py`` against an eager oracle written
apart from this module; see ``docs/sample_kinds.md``):

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
  record) is identical between eager and deferred maintenance.
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

import numpy as np

from repro import specs
from repro.core.logs import CandidateLogger
from repro.core.reservoir import ReservoirSampler, build_reservoir
from repro.rng.random_source import RandomSource
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
]

#: Registered single-file kinds, in manifest index order.  The position
#: of a name in this tuple is serialised into superblock manifests
#: (version 3+), so entries must never be reordered, only appended.
KINDS = ("uniform", "weighted", "window")

DEFAULT_WEIGHT_MOD = 16

#: Relative margin above the stale threshold within which a batched
#: weighted offer recomputes a numpy-screened key with libm: numpy's log
#: stays within a few ULPs (~1e-16 relative) of libm's, so a row screened
#: out beyond it has a libm key above the threshold too.
_KEY_BAND = 1e-12

#: The record arrays batched offers return: field ``f<i>`` is field
#: ``f<i>`` of the kind's codec.
_WEIGHTED_ROW = np.dtype([("f0", "<i8"), ("f1", "<f8")])
_WINDOW_ROW = np.dtype([("f0", "<i8"), ("f1", "<i8")])

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

    def offer_many(
        self, elements, rng: RandomSource, max_accepts: int | None = None
    ) -> tuple[int, "list | np.ndarray"]:  # pragma: no cover - protocol
        """``(consumed, accepted)``: the same draws and records however
        the stream is cut into batches.  Uniform returns the accepted
        values as a list; the other kinds return one record array, field
        ``f<i>`` of each accepted row in field ``f<i>`` of the codec's
        layout, which the candidate log writes without decoding.
        """
        ...

    # The replay, for kinds whose victims depend on the sample's contents
    # (``draws_slots`` False): the refresh reads the log from
    # ``replay_start``, hands the sample's record array to
    # ``begin_replay``, and the log's records to the replay's ``apply`` in
    # one array, which returns the slot each displaced (-1: none).

    def replay_start(self, total: int) -> int:  # pragma: no cover - protocol
        ...

    def begin_replay(self, records: np.ndarray):  # pragma: no cover - protocol
        ...

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

    def offer_many(
        self, elements, rng: RandomSource, max_accepts: int | None = None
    ) -> tuple[int, list]:
        """Skip-jump acceptance over a batch: ``(consumed, accepted)``.

        ``consumed`` falls short of the batch only when ``max_accepts``
        was reached, right after the accepting element.  Values are not
        checked here -- the dbms views offer rows -- but by the logger
        that stores them (:mod:`repro.core.logs`).
        """
        if not isinstance(elements, (list, tuple, range)):
            elements = list(elements)
        consumed, accepted = self.sampler(rng).test_many(len(elements), max_accepts)
        return consumed, [elements[i] for i in accepted]

    def checkpoint_fields(self) -> tuple[int, float]:
        return 0, 0.0

    def restore_state(self, checkpoint) -> None:
        self._start(checkpoint.dataset_size, checkpoint.pending_accept)

    def plausible(self, rows: Sequence, seen: int) -> bool:
        return all(isinstance(row, int) for row in rows)


# ---------------------------------------------------------------------------
# Kinds that offer record arrays (weighted, window)
# ---------------------------------------------------------------------------


_INT64 = np.iinfo(np.int64)


def _int64_column(elements) -> np.ndarray:
    """A batch of values as one int64 column -- the records' value field.

    Anything but integers in ``[-2**63, 2**63)`` raises
    :class:`ValueError`, before a batched offer draws or counts a row, so
    a refused batch leaves the kind, the stream and the log as they were.
    """
    if isinstance(elements, range):
        if elements and not (
            _INT64.min <= min(elements[0], elements[-1])
            and max(elements[0], elements[-1]) <= _INT64.max
        ):
            raise ValueError(f"sample values out of the int64 range: {elements!r}")
        return np.arange(elements.start, elements.stop, elements.step, dtype=np.int64)
    if not isinstance(elements, (list, tuple, np.ndarray)):
        elements = list(elements)
    column = np.asarray(elements)
    if column.dtype == np.int64 or not len(elements):
        return column.astype(np.int64, copy=False)
    # Python ints past the int64 range come out as uint64, float64 or
    # object, depending on their sign and the numpy version.
    if column.ndim == 1 and column.dtype.kind in "biu":
        if column.dtype.kind != "u" or column.max() <= _INT64.max:
            return column.astype(np.int64)
    raise ValueError(
        "sample values must be integers in the int64 range; "
        f"this batch holds {column.dtype} values"
    )


# ---------------------------------------------------------------------------
# Weighted reservoir (A-ES exponential keys)
# ---------------------------------------------------------------------------


class _WeightedReplay:
    """Evolving-threshold application of weighted records to a sample.

    This is the *eager* maintenance rule -- keep the ``M`` smallest keys,
    evict the arg-max -- applied to the sample's key column.  The
    deferred refresh runs it over the candidate log's records, the
    initial build over the rows past the first ``M``.  The max-key lookup
    is a heap of ``(-key, slot)`` entries, one per slot: an admitted key
    replaces the top entry, so ties break on the lower slot.  The entries
    are totally ordered, so the victims do not depend on how the heap was
    built.
    """

    __slots__ = ("_heap",)

    def __init__(self, keys: np.ndarray) -> None:
        neg = -keys
        order = np.argsort(neg, kind="stable")
        # Sorted by (-key, slot), the entry list is a heap as it stands.
        self._heap = list(zip(neg[order].tolist(), order.tolist()))

    @property
    def max_key(self) -> float:
        """The live threshold: the largest key currently in the sample."""
        return -self._heap[0][0]

    def apply(self, records: np.ndarray) -> np.ndarray:
        """Apply records in order: the slot each displaced, or -1.  A
        record displaces the arg-max slot when its key is below the
        largest key."""
        heap = self._heap
        replace = heapq.heapreplace
        steps = []
        for key in records["f1"].tolist():
            neg_max, slot = heap[0]
            if key < -neg_max:
                replace(heap, (-key, slot))
                steps.append(slot)
            else:
                steps.append(-1)
        return np.array(steps, dtype=np.int64)


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
    here is built on: eager and deferred maintenance, scalar and batched
    inserts all consume the identical PRNG stream.
    """

    name = "weighted"
    strategies = ("candidate",)
    draws_slots = False

    def __init__(self, capacity: int, weight_mod: int = DEFAULT_WEIGHT_MOD) -> None:
        if capacity <= 0:
            raise ValueError("sample capacity must be positive")
        if weight_mod <= 0:
            raise ValueError("weight_mod must be positive")
        if weight_mod > _INT64.max:
            # The manifest and the batched weights hold it as an int64.
            raise ValueError("weight_mod must be below 2**63")
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

    def offer_many(
        self, elements, rng: RandomSource, max_accepts: int | None = None
    ) -> tuple[int, np.ndarray]:
        """The acceptance test over a batch: ``(consumed, accepted records)``.

        Each row draws one uniform ``u`` and gets the key
        ``-ln(1-u)/w``, computed with libm's ``math.log``; it is accepted
        when the key is below the *stale* threshold.  Thresholds only
        shrink, so everything the eager rule would ever accept passes --
        the log is a superset, re-filtered at refresh by the replay.

        The uniforms come a window at a time (``random_array``), and numpy
        screens the window's keys.  ``1 - u`` and the division by the
        weight are exact IEEE operations in numpy as in Python; only
        numpy's log may differ from libm's, by a few ULPs.  So a row is
        rejected on the screen only when its numpy key lies above the
        stale threshold by more than :data:`_KEY_BAND`; every other row's
        key is recomputed with ``math.log``, and that key decides
        acceptance and is the one logged.  The
        accepted rows come back as one record array (``f0`` the values,
        ``f1`` the keys).  ``consumed`` falls short of the batch only when
        ``max_accepts`` was reached, right after the accepting element;
        the rest of that window is given back, so the stream stands one
        draw past each consumed row.
        """
        values = _int64_column(elements)
        weights = 1 + values % self._mod
        quota = math.inf if max_accepts is None else max_accepts
        threshold = self._threshold
        screen = threshold * (1.0 + _KEY_BAND)
        log = math.log
        rows: list[int] = []
        keys: list[float] = []
        consumed = 0
        while consumed < len(values):
            window = rng.random_array(len(values) - consumed)
            weight = weights[consumed : consumed + len(window)]
            near = np.flatnonzero(-np.log(1.0 - window) / weight <= screen)
            for row, u, w in zip(
                near.tolist(), window[near].tolist(), weight[near].tolist()
            ):
                key = -log(1.0 - u) / w
                if key < threshold:
                    rows.append(consumed + row)
                    keys.append(key)
                    if len(keys) >= quota:
                        rng.give_back(len(window) - row - 1)
                        return self._accepted(values, consumed + row + 1, rows, keys)
            consumed += len(window)
        return self._accepted(values, consumed, rows, keys)

    def _accepted(
        self, values: np.ndarray, consumed: int, rows: list, keys: list
    ) -> tuple[int, np.ndarray]:
        """Count ``consumed`` arrivals; the record array of the rows kept."""
        self._seen += consumed
        records = np.empty(len(keys), _WEIGHTED_ROW)
        records["f0"] = values[rows]
        records["f1"] = keys
        return consumed, records

    def replay_start(self, total: int) -> int:
        return 0

    def begin_replay(self, records: np.ndarray) -> _WeightedReplay:
        """The replay over a sample's record array: its keys only."""
        return _WeightedReplay(records["f1"])

    def commit_replay(self, replay: _WeightedReplay) -> None:
        self._threshold = replay.max_key

    def build_initial(self, dataset: Sequence[int], rng: RandomSource) -> list:
        """Eager A-ES over the initial dataset; returns the sample rows.

        Every row is offered at the +inf threshold, so each draws its one
        uniform and is kept; the first ``M`` become the rows and the
        replay applies the rest to them.
        """
        if len(dataset) < self._capacity:
            raise ValueError(
                f"initial dataset ({len(dataset)}) smaller than the "
                f"sample ({self._capacity})"
            )
        self._threshold = math.inf
        _, records = self.offer_many(dataset, rng)
        rows, rest = records[: self._capacity], records[self._capacity :]
        replay = self.begin_replay(rows)
        steps = replay.apply(rest)
        # The final record of each displaced slot: its last step.
        hits = np.flatnonzero(steps >= 0)[::-1]
        slots, last = np.unique(steps[hits], return_index=True)
        rows[slots] = rest[hits[last]]
        self.commit_replay(replay)
        return rows.tolist()

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

    __slots__ = ("_seqs", "_capacity")

    def __init__(self, capacity: int, seqs: np.ndarray) -> None:
        self._seqs = seqs
        self._capacity = capacity

    def apply(self, records: np.ndarray) -> np.ndarray:
        """Apply the log tail at once: the slot each record displaced, or -1.

        Record ``seq`` displaces slot ``seq mod W`` when the sample holds
        an older sequence there, so a refresh re-run after a crash does
        not rewrite the rows it already wrote.  Within one slot a later
        record is newer only while sequences strictly increase, which
        :meth:`WindowKind.offer_many` guarantees; a tail that breaks that
        order is refused before anything is written.
        """
        seqs = records["f1"]
        if (seqs[1:] <= seqs[:-1]).any():
            raise ValueError(
                "window log tail: sequence numbers must strictly increase"
            )
        slots = seqs % self._capacity
        return np.where(self._seqs[slots] < seqs, slots, -1)


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

    def offer_many(
        self, elements, rng: RandomSource, max_accepts: int | None = None
    ) -> tuple[int, np.ndarray]:
        """The acceptance test over a batch: no draws, and every row is
        accepted, so the batch is cut right after the ``max_accepts``-th
        (at least one) row.  The accepted rows come back as one record
        array: ``f0`` the values, ``f1`` their arrival sequences."""
        values = _int64_column(elements)
        take = len(values)
        if max_accepts is not None:
            take = min(take, max(max_accepts, 1))
        records = np.empty(take, _WINDOW_ROW)
        records["f0"] = values[:take]
        records["f1"] = np.arange(self._seen, self._seen + take)
        self._seen += take
        return take, records

    def replay_start(self, total: int) -> int:
        """Logged rows older than the window are expired unread."""
        return max(0, total - self._capacity)

    def begin_replay(self, records: np.ndarray) -> _WindowReplay:
        """The replay over a sample's record array: its sequences only."""
        return _WindowReplay(self._capacity, records["f1"])

    def commit_replay(self, replay: _WindowReplay) -> None:
        return None

    def build_initial(self, dataset: Sequence[int], rng: RandomSource) -> list:
        if len(dataset) < self._capacity:
            raise ValueError(
                f"initial dataset ({len(dataset)}) smaller than the "
                f"window ({self._capacity})"
            )
        _, records = self.offer_many(dataset, rng)
        # Sequences are consecutive, so the newest record of each slot
        # ``seq mod W`` is one of the last W.
        tail = records[-self._capacity :]
        rows = np.empty_like(tail)
        rows[tail["f1"] % self._capacity] = tail
        return rows.tolist()

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
