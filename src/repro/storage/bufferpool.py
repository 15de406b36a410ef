"""Buffer-pool page cache over any :class:`~repro.storage.block_device.BlockDevice`.

The paper's cost model charges every block access (Sec. 6.1); a
production sample-view backend -- the ROADMAP north star -- puts a page
cache between the file layer and the device, exactly as the geometric
file's in-memory buffer and CacheDiff's block reuse do for their
workloads.  :class:`BufferPool` is that cache: a fixed budget of page
frames over an inner device, with

* **LRU eviction** -- the least-recently-used frame makes room, writing
  its page back first when dirty;
* **sequential readahead** -- inside a *declared* scan window
  (:func:`declare_scan` / :meth:`BufferPool.begin_scan`), a sequential
  read miss prefetches the next blocks of the window in one go, so a
  rescan of a cached file costs zero device accesses;
* **write coalescing** -- writes land in the frame and reach the device
  only at eviction or at an explicit **flush barrier**
  (:meth:`BufferPool.flush`, reachable through :func:`flush_barrier`).
  Barriers are issued at refresh commit and at checkpoint points, so the
  crash semantics the fault-injection tests rely on are preserved: after
  a barrier, everything the checkpoint describes is on the device.

**Paper-fidelity contract.**  ``capacity=0`` (the default everywhere an
experiment runs) disables the pool: every call passes straight through to
the inner device, so :class:`~repro.storage.cost_model.AccessStats`,
block contents and PRNG state are bit-identical to a run without the
pool.  With ``capacity > 0`` the data path is still exact -- reads always
observe the newest write -- but hits, readahead and coalescing reduce the
*device* access counts (surfaced as the ``storage.pool.*`` instruments
and :class:`PoolStats`).

Layering: the pool is the **outermost** device decorator --
``BufferPool(FaultInjectionDevice(SimulatedBlockDevice(...)))`` -- so an
injected crash lands on the write-back path exactly where a power failure
would, and everything the pool still holds dirty is lost.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from operator import attrgetter
from typing import TYPE_CHECKING

from repro.storage.block_device import BlockDevice

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (obs uses storage)
    from repro.obs.api import Instrumentation

__all__ = ["BufferPool", "PoolStats", "declare_scan", "flush_barrier"]


def declare_scan(device: BlockDevice, start: int, blocks: int) -> None:
    """Declare a forthcoming sequential scan of ``blocks`` blocks at ``start``.

    The file layer calls this before every scan-shaped access pattern;
    a :class:`BufferPool` turns the declaration into a readahead window,
    any other device ignores it.  Free on plain devices (one getattr).
    """
    begin = getattr(device, "begin_scan", None)
    if begin is not None:
        begin(start, blocks)


def flush_barrier(device: BlockDevice) -> None:
    """Force deferred writes to the device (refresh commit / checkpoint).

    A :class:`BufferPool` writes back every dirty frame; plain devices
    have nothing buffered and ignore the barrier.  Callers above the
    storage layer must use this -- never raw block writes -- to make
    state durable (lint rule IO002).
    """
    flush = getattr(device, "flush", None)
    if flush is not None:
        flush()


@dataclass
class PoolStats:
    """Lifetime counters of one :class:`BufferPool` (plain ints, always on)."""

    hits: int = 0
    misses: int = 0
    readahead_blocks: int = 0
    evictions: int = 0
    flushed_blocks: int = 0
    coalesced_writes: int = 0
    flush_barriers: int = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of charged reads served from a frame (0.0 when idle)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def as_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": round(self.hit_rate, 6),
            "readahead_blocks": self.readahead_blocks,
            "evictions": self.evictions,
            "flushed_blocks": self.flushed_blocks,
            "coalesced_writes": self.coalesced_writes,
            "flush_barriers": self.flush_barriers,
        }


class _Frame:
    """One resident page: its bytes and dirty state.

    ``write_sequential`` remembers the access classification the *last*
    writer declared, so a deferred write-back charges the device with the
    classification the write would have carried uncoalesced.
    """

    __slots__ = ("data", "dirty", "write_sequential")

    def __init__(self, data: bytes) -> None:
        self.data = data
        self.dirty = False
        self.write_sequential = True


_is_dirty = attrgetter("dirty")


class BufferPool:
    """Page cache implementing the :class:`BlockDevice` protocol itself.

    Because the pool *is* a block device, every existing consumer --
    :class:`~repro.storage.files.SampleFile`,
    :class:`~repro.storage.files.LogFile`, the checkpoint stores -- works
    over it unchanged; routing a stack through the pool is a construction
    choice, not a code change.

    Parameters
    ----------
    inner:
        The device to cache (may itself be a
        :class:`~repro.storage.fault_injection.FaultInjectionDevice`).
    capacity:
        Page-frame budget.  ``0`` disables the pool entirely: every
        operation passes through and the accounting is bit-identical to
        the bare device (the default for all paper experiments).
    readahead:
        Blocks to prefetch on a sequential read miss inside a declared
        scan window.  ``0`` disables readahead.
    instrumentation:
        Optional obs facade; mirrors :class:`PoolStats` into the
        ``storage.pool.*`` counters, labelled with the pool's name.
    """

    def __init__(
        self,
        inner: BlockDevice,
        capacity: int,
        readahead: int = 8,
        instrumentation: "Instrumentation | None" = None,
        name: str = "",
    ) -> None:
        if capacity < 0:
            raise ValueError("capacity must be non-negative")
        if readahead < 0:
            raise ValueError("readahead must be non-negative")
        self._inner = inner
        self._capacity = capacity
        self._readahead = readahead
        self._name = name or getattr(inner, "name", "") or "pool"
        #: insertion order == recency order: oldest (LRU) first.
        self._frames: dict[int, _Frame] = {}
        self._scan_end = 0
        self.stats = PoolStats()
        self._instr = instrumentation
        if instrumentation is not None and capacity > 0:
            labels = {"device": self._name}
            self._c_hits = instrumentation.counter("storage.pool.hits", labels)
            self._c_misses = instrumentation.counter("storage.pool.misses", labels)
            self._c_readahead = instrumentation.counter(
                "storage.pool.readahead_blocks", labels
            )
            self._c_evictions = instrumentation.counter(
                "storage.pool.evictions", labels
            )
            self._c_flushed = instrumentation.counter(
                "storage.pool.flushed_blocks", labels
            )
            self._c_coalesced = instrumentation.counter(
                "storage.pool.coalesced_writes", labels
            )
        else:
            self._instr = None

    # -- introspection -------------------------------------------------------

    @property
    def block_size(self) -> int:
        return self._inner.block_size

    @property
    def cost_model(self):
        return self._inner.cost_model

    @property
    def inner(self) -> BlockDevice:
        """The cached device (what survives a crash)."""
        return self._inner

    @property
    def name(self) -> str:
        return self._name

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def enabled(self) -> bool:
        return self._capacity > 0

    @property
    def frames_in_use(self) -> int:
        return len(self._frames)

    @property
    def dirty_blocks(self) -> list[int]:
        """Block indexes with unflushed writes, in ascending order."""
        return sorted(i for i, f in self._frames.items() if f.dirty)

    # -- the BlockDevice protocol --------------------------------------------

    def read_block(self, index: int, sequential: bool) -> bytes:
        """Serve from a frame when resident; otherwise read through.

        A sequential miss inside a declared scan window also prefetches
        the next ``readahead`` blocks of the window (each a charged
        sequential device read, issued now instead of later).
        """
        if self._capacity == 0:
            return self._inner.read_block(index, sequential)
        if self._instr is not None and self._instr.trace_storage:
            with self._instr.span(
                "storage.pool.read", device=self._name, block=index
            ) as span:
                data, hit = self._read_enabled(index, sequential)
                span.set("hit", hit)
            return data
        data, _ = self._read_enabled(index, sequential)
        return data

    def _read_enabled(self, index: int, sequential: bool) -> tuple[bytes, bool]:
        frame = self._frames.get(index)
        if frame is not None:
            self._touch(index, frame)
            self.stats.hits += 1
            if self._instr is not None:
                self._c_hits.inc()
            return frame.data, True
        self.stats.misses += 1
        if self._instr is not None:
            self._c_misses.inc()
        data = self._inner.read_block(index, sequential)
        self._install(index, _Frame(data))
        if sequential and self._readahead:
            self._prefetch(index + 1)
        return data, False

    def read_blocks(self, start: int, count: int, sequential: bool) -> list[bytes]:
        """Blocks ``start .. start + count - 1``, exactly as a
        :meth:`read_block` of each in turn: the same bytes, device
        charges, :class:`PoolStats`, frames, LRU order and dirty bits.

        A miss whose readahead run is wholly non-resident, fits the pool
        and evicts only clean frames reads that run with one inner
        ``read_blocks``: no victim writes back, so nothing interleaves
        with the reads.  Every other miss takes the per-block path.  With
        storage tracing on, the whole call is the per-block loop, so
        every read keeps its ``storage.pool.read`` span.
        """
        if self._capacity == 0:
            return self._inner.read_blocks(start, count, sequential)
        if self._instr is not None and self._instr.trace_storage:
            return [self.read_block(i, sequential) for i in range(start, start + count)]
        frames = self._frames
        capacity = self._capacity
        readahead = self._readahead if sequential else 0
        out: list[bytes] = []
        hits = 0
        index = start
        end = start + count
        try:
            while index < end:
                frame = frames.get(index)
                if frame is not None:
                    del frames[index]
                    frames[index] = frame
                    out.append(frame.data)
                    hits += 1
                    index += 1
                    continue
                run_end = max(index + 1, min(self._scan_end, index + 1 + readahead))
                victims = len(frames) + run_end - index - capacity
                if (
                    run_end - index > capacity
                    or not frames.keys().isdisjoint(range(index + 1, run_end))
                    or victims > 0
                    and any(map(_is_dirty, islice(frames.values(), victims)))
                ):
                    out.append(self._read_enabled(index, sequential)[0])
                    index += 1
                    continue
                blocks = self._read_run(index, run_end, victims, sequential)
                stop = min(end, run_end)
                out += blocks[: stop - index]
                hits += stop - index - 1
                if stop < run_end:
                    # The per-block loop touches the blocks it is handed,
                    # moving them past the rest of the run.
                    for handed in range(index + 1, stop):
                        frames[handed] = frames.pop(handed)
                index = stop
        finally:
            self.stats.hits += hits
            if self._instr is not None:
                self._c_hits.inc(hits)
        return out

    def _read_run(
        self, index: int, run_end: int, victims: int, sequential: bool
    ) -> list[bytes]:
        """The miss at ``index`` and its readahead up to ``run_end``, read
        in one inner call, after the ``victims`` (clean) LRU frames."""
        self.stats.misses += 1
        if self._instr is not None:
            self._c_misses.inc()
        blocks = self._inner.read_blocks(index, run_end - index, sequential)
        frames = self._frames
        if victims > 0:
            for victim in list(islice(frames, victims)):
                del frames[victim]
            self.stats.evictions += victims
        frames.update(zip(range(index, run_end), map(_Frame, blocks)))
        self.stats.readahead_blocks += run_end - index - 1
        if self._instr is not None:
            self._c_readahead.inc(run_end - index - 1)
            if victims > 0:
                self._c_evictions.inc(victims)
        return blocks

    def write_block(self, index: int, data: bytes, sequential: bool) -> None:
        """Buffer the write; the device is touched at eviction or barrier."""
        if self._capacity == 0:
            self._inner.write_block(index, data, sequential)
            return
        if index < 0:
            raise ValueError(f"block index must be non-negative, got {index}")
        if len(data) != self.block_size:
            raise ValueError(
                f"block write must be exactly {self.block_size} bytes, got {len(data)}"
            )
        if self._instr is not None and self._instr.trace_storage:
            with self._instr.span(
                "storage.pool.write", device=self._name, block=index
            ):
                self._write_enabled(index, data, sequential)
            return
        self._write_enabled(index, data, sequential)

    def _write_enabled(self, index: int, data: bytes, sequential: bool) -> None:
        frame = self._frames.get(index)
        if frame is not None:
            if frame.dirty:
                # Two buffered writes to one page reach the device once.
                self.stats.coalesced_writes += 1
                if self._instr is not None:
                    self._c_coalesced.inc()
            frame.data = bytes(data)
            frame.dirty = True
            frame.write_sequential = sequential
            self._touch(index, frame)
            return
        frame = _Frame(bytes(data))
        frame.dirty = True
        frame.write_sequential = sequential
        self._install(index, frame)

    def peek_block(self, index: int) -> bytes:
        """Uncharged read; a dirty frame is newer than the device copy."""
        frame = self._frames.get(index)
        if frame is not None:
            return frame.data
        return self._inner.peek_block(index)

    def poke_block(self, index: int, data: bytes) -> None:
        """Uncharged bookkeeping write: through to the device, frames kept

        coherent.  The dirty flag is untouched -- a poke is already
        durable below, so it must not induce a later charged write-back.
        """
        frame = self._frames.get(index)
        if frame is not None:
            frame.data = bytes(data)
        self._inner.poke_block(index, data)

    def discard(self, index: int) -> None:
        """Drop one block; a buffered write to it is abandoned, not flushed."""
        self._frames.pop(index, None)
        self._inner.discard(index)

    def discard_from(self, first_index: int) -> None:
        """Logical truncation: frames at or beyond ``first_index`` vanish."""
        for block in [b for b in self._frames if b >= first_index]:
            del self._frames[block]
        if self._scan_end > first_index:
            self._scan_end = first_index
        self._inner.discard_from(first_index)

    # -- pool-specific API ---------------------------------------------------

    def begin_scan(self, start: int, blocks: int) -> None:
        """Open a readahead window over ``[start, start + blocks)``.

        Only reads inside the newest window prefetch; the window shrinks
        as truncation discards blocks and is replaced by the next scan.
        """
        if start < 0 or blocks < 0:
            raise ValueError("scan window must be non-negative")
        self._scan_end = start + blocks

    def flush(self) -> None:
        """Flush barrier: write back every dirty frame, ascending by index.

        Each write-back charges the inner device with the classification
        the buffered write declared.  Frames stay resident (clean), so a
        barrier costs durability, not cache warmth.  A crash injected
        mid-barrier leaves exactly the frames written so far clean -- the
        torn state a power failure produces.
        """
        if self._capacity == 0:
            return
        if self._instr is not None and self._instr.trace_storage:
            with self._instr.span("storage.pool.flush", device=self._name) as span:
                span.set("dirty", len(self.dirty_blocks))
                self._flush_enabled()
            return
        self._flush_enabled()

    def _flush_enabled(self) -> None:
        self.stats.flush_barriers += 1
        for index in self.dirty_blocks:
            frame = self._frames[index]
            self._inner.write_block(index, frame.data, frame.write_sequential)
            frame.dirty = False
            self.stats.flushed_blocks += 1
            if self._instr is not None:
                self._c_flushed.inc()

    def invalidate(self) -> None:
        """Drop every frame, dirty ones included, without writing back.

        Frames are RAM: this is what a process crash does to them.  The
        recovery tests call it before reopening files over the pool, so
        recovery reads observe only what barriers made durable.
        """
        self._frames.clear()
        self._scan_end = 0

    # -- internals -----------------------------------------------------------

    def _touch(self, index: int, frame: _Frame) -> None:
        """Move a frame to the most-recently-used position."""
        del self._frames[index]
        self._frames[index] = frame

    def _install(self, index: int, frame: _Frame) -> None:
        """Add ``frame``, then evict LRU frames while over capacity.

        The new frame is the most recent, so it is never the victim.  A
        crash mid-write-back leaves its victim resident, and the next
        install evicts it first.
        """
        self._frames[index] = frame
        while len(self._frames) > self._capacity:
            self._evict()

    def _evict(self) -> None:
        index, frame = next(iter(self._frames.items()))
        if frame.dirty:
            self._inner.write_block(index, frame.data, frame.write_sequential)
            self.stats.flushed_blocks += 1
            if self._instr is not None:
                self._c_flushed.inc()
        del self._frames[index]
        self.stats.evictions += 1
        if self._instr is not None:
            self._c_evictions.inc()

    def _prefetch(self, start: int) -> None:
        """Readahead within the declared scan window, starting at ``start``."""
        end = min(self._scan_end, start + self._readahead)
        for ahead in range(start, end):
            if ahead in self._frames:
                continue
            data = self._inner.read_block(ahead, True)
            self._install(ahead, _Frame(data))
            self.stats.readahead_blocks += 1
            if self._instr is not None:
                self._c_readahead.inc()

    def __repr__(self) -> str:
        return (
            f"BufferPool({self._name!r} capacity={self._capacity} "
            f"frames={len(self._frames)} dirty={len(self.dirty_blocks)})"
        )
