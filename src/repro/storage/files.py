"""Block-aligned on-disk structures: the sample file and the log file.

These two files are the only disk-resident structures in the paper's
setting: a :class:`SampleFile` holds the ``M`` sample elements, a
:class:`LogFile` accumulates logged insertions between refreshes.  Both
pack fixed-size elements into blocks (128 per 4 096-byte block with the
paper's 32-byte elements) and charge block-level I/O through the device.

Charging rules (matching Sec. 6.1 of the paper):

* appends charge one **sequential write** per filled block; the first block
  written after the log is truncated/reused charges a **random write**
  instead -- the "one random I/O ... to move from the current position to
  the beginning of the log file" of Sec. 6.2;
* scans (``scan``, ``scan_records``, ``scan_values``) charge one **sequential
  read** per block;
* indexed forward reads (refresh algorithms touching only the blocks that
  contain final candidates) charge one sequential read per *distinct*
  block;
* random element writes (immediate refresh, naive candidate refresh)
  charge one **random write** per access, coalescing consecutive accesses
  to the same block (the single-block file-system cache the paper grants);
* the paper charges writes without a preceding block read ("due to
  asynchronous writes" its random-write time is below its random-read
  time), so neither do we -- block contents are fetched without charge to
  keep the data itself correct.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence, TypeVar

import numpy as np

from repro.storage.block_device import BlockDevice
from repro.storage.bufferpool import declare_scan
from repro.storage.records import RecordCodec

__all__ = ["SampleFile", "LogFile", "SPLICE_BLOCKS"]

T = TypeVar("T")

#: The most block images :meth:`SampleFile.write_records` splices in one
#: numpy assignment (256 KiB of 4 KiB blocks).
SPLICE_BLOCKS = 64


class _BlockStore:
    """Shared element-in-block packing over a block device."""

    def __init__(self, device: BlockDevice, codec: RecordCodec) -> None:
        if device.block_size % codec.record_size != 0:
            raise ValueError(
                f"record size {codec.record_size} must divide block size "
                f"{device.block_size}"
            )
        self._device = device
        self._codec = codec
        self._per_block = device.block_size // codec.record_size

    @property
    def device(self) -> BlockDevice:
        return self._device

    @property
    def codec(self) -> RecordCodec:
        return self._codec

    @property
    def elements_per_block(self) -> int:
        return self._per_block

    def _locate(self, index: int) -> tuple[int, int]:
        """Map an element index to (block index, byte offset)."""
        block, slot = divmod(index, self._per_block)
        return block, slot * self._codec.record_size

    def _decode_at(self, block_data: bytes, offset: int) -> T:
        return self._codec.decode(block_data[offset : offset + self._codec.record_size])

    def _encode_at(self, block_data: bytearray, offset: int, value: T) -> None:
        record = self._codec.encode(value)
        block_data[offset : offset + len(record)] = record

    def _decode_block(self, data: bytes, block: int, total: int) -> list[T]:
        """Decode the elements ``data`` (block ``block``) holds among the
        file's first ``total``, in one codec call."""
        count = min(self._per_block, total - block * self._per_block)
        return self._codec.decode_block(data, count)

    def _join_records(self, chunks: list, count: int) -> np.ndarray:
        """The first ``count`` records of the joined byte chunks, as one
        array of the codec's ``dtype``: byte for byte, nothing decoded.
        Records fill a block exactly, so whole blocks join seamlessly."""
        return np.frombuffer(bytearray().join(chunks), self._codec.dtype, count)


class SampleFile(_BlockStore):
    """The disk-resident sample: ``M`` elements at fixed positions."""

    def __init__(self, device: BlockDevice, codec: RecordCodec, size: int) -> None:
        super().__init__(device, codec)
        if size <= 0:
            raise ValueError("sample size must be positive")
        self._size = size
        self._last_random_write_block: int | None = None
        self._last_random_read_block: int | None = None

    @property
    def size(self) -> int:
        """Number of sample elements (``M`` in the paper)."""
        return self._size

    @property
    def block_count(self) -> int:
        return -(-self._size // self.elements_per_block)

    def initialize(self, values: Sequence[T]) -> None:
        """Bulk-load the initial sample with one sequential pass."""
        if len(values) != self._size:
            raise ValueError(
                f"initialize() needs exactly {self._size} values, got {len(values)}"
            )
        for block_index in range(self.block_count):
            start = block_index * self.elements_per_block
            chunk = values[start : start + self.elements_per_block]
            data = self._codec.encode_block(chunk)
            data = data.ljust(self._device.block_size, b"\x00")
            self._device.write_block(block_index, data, sequential=True)
        self._last_random_write_block = None

    # -- random access (immediate refresh, naive candidate refresh) -------

    def write_random(self, index: int, value: T) -> None:
        """Overwrite one element at a random position: one random write.

        Consecutive writes landing in the same block coalesce into a single
        charged access (single-block write cache).
        """
        self._check_index(index)
        block, offset = self._locate(index)
        patched = bytearray(self._device.peek_block(block))
        self._encode_at(patched, offset, value)
        data = bytes(patched)
        if block == self._last_random_write_block:
            # Cache hit: update the block contents without an I/O charge.
            self._device.poke_block(block, data)
        else:
            self._device.write_block(block, data, sequential=False)
            self._last_random_write_block = block

    def read_random(self, index: int) -> T:
        """Read one element at a random position: one random read."""
        self._check_index(index)
        block, offset = self._locate(index)
        if block == self._last_random_read_block:
            data = self._device.peek_block(block)
        else:
            data = self._device.read_block(block, sequential=False)
            self._last_random_read_block = block
        return self._decode_at(data, offset)

    # -- sequential access (deferred refresh write phase, scans) ----------

    def write_sequential(self, items: Iterable[tuple[int, T]]) -> int:
        """Write ``(index, value)`` pairs with strictly increasing indexes.

        Charges one sequential write per distinct touched block; returns the
        number of blocks written.  This is the refresh write phase: stable
        elements are never read, blocks without displaced elements are
        skipped entirely.  Each block's values are packed with one
        ``encode_block`` call and spliced into its image, so every other
        byte (stable records, padding, records past a shrunk
        :meth:`resize`) stays as it was.  A block is written when the
        first pair of the next block arrives, or the pairs run out, so the
        reads of a lazy producer interleave with the writes as they would
        with one record coded per pair.
        """
        per_block = self.elements_per_block
        size = self._size
        blocks_written = 0
        block = -1
        block_end = 0
        slots: list[int] = []
        values: list[T] = []
        previous = -1
        for index, value in items:
            if not previous < index < size:
                self._check_index(index)
                raise ValueError(
                    f"write_sequential() indexes must be strictly increasing "
                    f"({index} after {previous})"
                )
            previous = index
            if index >= block_end:
                if slots:
                    self._write_slots(block, slots, self._codec.encode_block(values))
                    blocks_written += 1
                    slots = []
                    values = []
                block = index // per_block
                block_end = (block + 1) * per_block
            slots.append(index - block * per_block)
            values.append(value)
        if slots:
            self._write_slots(block, slots, self._codec.encode_block(values))
            blocks_written += 1
        return blocks_written

    def write_records(self, slots: np.ndarray, records: np.ndarray) -> int:
        """Write ``records[i]`` to slot ``slots[i]``, slots strictly increasing.

        The columnar form of :meth:`write_sequential`, for an array of the
        codec's ``dtype`` (a struct-backed codec): the device bytes and
        charges are those ``write_sequential`` of the decoded records
        leaves -- one sequential write per touched block, in ascending
        order, each block's records spliced into its image.  Only the
        fields are written; a record's padding is zero, as ``encode``
        leaves it.  The splice is one numpy assignment per run of up to
        :data:`SPLICE_BLOCKS` touched blocks, whose images are peeked
        (uncharged) first; a write changes no other block's bytes, so each
        image is the one a peek right before its write would see.
        Returns the number of blocks written.
        """
        slots = np.asarray(slots, dtype=np.int64)
        if records.dtype != self._codec.dtype or len(records) != len(slots):
            raise ValueError(
                f"write_records() needs one {self._codec.dtype} record per slot"
            )
        if not len(slots):
            return 0
        self._check_index(int(slots[0]))
        self._check_index(int(slots[-1]))
        if np.count_nonzero(slots[1:] <= slots[:-1]):
            raise ValueError("write_records() slots must be strictly increasing")
        packed = np.zeros(len(records), records.dtype)
        for name in records.dtype.names:
            packed[name] = records[name]
        per_block = self.elements_per_block
        blocks = slots // per_block
        last = np.flatnonzero(blocks[1:] != blocks[:-1])
        touched = [*blocks[last].tolist(), int(blocks[-1])]
        # Each run of SPLICE_BLOCKS blocks ends past its last block's last slot.
        ends = [end + 1 for end in last[SPLICE_BLOCKS - 1 :: SPLICE_BLOCKS].tolist()]
        for group, (start, end) in enumerate(zip([0, *ends], [*ends, len(slots)])):
            first = group * SPLICE_BLOCKS
            self._splice(
                touched[first : first + SPLICE_BLOCKS],
                slots[start:end],
                blocks[start:end],
                packed[start:end],
            )
        return len(touched)

    def _splice(
        self, touched: list[int], slots: np.ndarray, blocks: np.ndarray, packed: np.ndarray
    ) -> None:
        """Write the ``packed`` records to ``slots`` of the ``touched``
        blocks: one sequential write per block, in order.  The images are
        joined in one buffer and viewed as records; ``slots`` fall in
        ``touched[r]`` at its image's offset ``r`` blocks in."""
        per_block = self.elements_per_block
        peek = self._device.peek_block
        buffer = bytearray().join([peek(block) for block in touched])
        images = np.frombuffer(buffer, (np.void, packed.itemsize))
        first = int(slots[0]) - touched[0] * per_block
        if slots[-1] - slots[0] == len(slots) - 1:  # one run: its blocks adjoin
            where = slice(first, first + len(slots))
        else:
            where = slots - (blocks - np.searchsorted(touched, blocks)) * per_block
        images[where] = packed.view(images.dtype)
        data = memoryview(buffer)
        size = self._device.block_size
        for start, block in zip(range(0, len(buffer), size), touched):
            self._device.write_block(block, bytes(data[start : start + size]), True)

    def scan(self) -> Iterator[T]:
        """Yield every element front to back: one sequential read per block."""
        declare_scan(self._device, 0, self.block_count)
        for block in range(self.block_count):
            data = self._device.read_block(block, sequential=True)
            yield from self._decode_block(data, block, self._size)

    def scan_records(self) -> np.ndarray:
        """Every record front to back, as one array of the codec's ``dtype``.

        Charges what :meth:`scan` charges -- the scan declaration, then
        one sequential read per block, issued as one ``read_blocks`` run
        -- but decodes no record: the blocks' bytes are joined once and
        viewed through the ``dtype``.  Needs a struct-backed codec.
        """
        declare_scan(self._device, 0, self.block_count)
        blocks = self._device.read_blocks(0, self.block_count, True)
        return self._join_records(blocks, self._size)

    def scan_values(self) -> np.ndarray:
        """Every element's value (field 0) front to back, as one array.

        Field 0 of :meth:`scan_records`, copied into a contiguous column;
        same charges.
        """
        return self.scan_records()["f0"].copy()

    def resize(self, new_size: int) -> None:
        """Shrink the logical sample size (Sec. 5 deletion handling).

        Deletions remove sample members; the refresh then runs "using a
        potentially smaller sample size".  Only shrinking is allowed -- a
        sample cannot be grown without access to the base data, which the
        paper's setting forbids.
        """
        if not 0 < new_size <= self._size:
            raise ValueError(
                f"resize target must be in (0, {self._size}], got {new_size}"
            )
        self._size = new_size

    def peek(self, index: int) -> T:
        """Read an element without charging I/O (test/verification aid)."""
        self._check_index(index)
        block, offset = self._locate(index)
        return self._decode_at(self._device.peek_block(block), offset)

    def peek_all(self) -> list[T]:
        """Return all elements without charging I/O (test/verification aid)."""
        values: list[T] = []
        for block in range(self.block_count):
            data = self._device.peek_block(block)
            values += self._decode_block(data, block, self._size)
        return values

    # -- internals ---------------------------------------------------------

    def _check_index(self, index: int) -> None:
        if not 0 <= index < self._size:
            raise IndexError(f"sample index {index} out of range [0, {self._size})")

    def _write_slots(self, block: int, slots: list[int], packed: bytes) -> None:
        """Splice the packed records into ``block`` at ``slots``: one
        sequential write.

        Slots that form one consecutive run (a window's rows, a dense
        block) take one slice; scattered slots one slice each.
        """
        size = self._codec.record_size
        packed = memoryview(packed)
        image = bytearray(self._device.peek_block(block))
        if slots[-1] - slots[0] == len(slots) - 1:
            image[slots[0] * size : (slots[-1] + 1) * size] = packed
        else:
            for start, slot in zip(range(0, len(packed), size), slots):
                offset = slot * size
                image[offset : offset + size] = packed[start : start + size]
        self._device.write_block(block, bytes(image), sequential=True)


class LogFile(_BlockStore):
    """Append-only log file, reused (rewound) after every refresh.

    Used for the full log, the candidate log and the update log alike --
    what differs is only *which* elements the maintenance strategy appends.
    """

    def __init__(self, device: BlockDevice, codec: RecordCodec) -> None:
        super().__init__(device, codec)
        self._count = 0
        self._buffer: list[T] = []
        self._next_block = 0
        self._repositioned = True  # first write ever needs a seek
        self._flushed_partial = False

    def __len__(self) -> int:
        """Number of elements appended since the last truncation."""
        return self._count

    @property
    def block_count(self) -> int:
        """Blocks the current log occupies, counting the partial tail."""
        return self._next_block + (1 if self._buffer else 0)

    def append(self, value: T) -> None:
        """Append one element; charges a write whenever a block fills."""
        self._buffer.append(value)
        self._count += 1
        # The tail block's on-disk image (if any) is stale again.
        self._flushed_partial = False
        if len(self._buffer) == self.elements_per_block:
            self._write_tail_block(self._buffer)
            self._buffer = []
            self._next_block += 1

    def append_many(self, values: "Iterable[T] | Sequence[T]") -> None:
        """Append a batch with one Python-level pass per *block*.

        Charges exactly the block writes that element-wise :meth:`append`
        calls would charge, in the same order (full blocks flush as they
        fill; the partial tail stays buffered), so :class:`AccessStats`
        and on-device bytes are bit-identical to the scalar path.
        """
        if not isinstance(values, (list, tuple)):
            values = list(values)
        n = len(values)
        if n == 0:
            return
        per_block = self.elements_per_block
        buffer = self._buffer
        self._count += n
        self._flushed_partial = False
        taken = 0
        while taken < n:
            take = min(per_block - len(buffer), n - taken)
            if take == per_block and not buffer:
                buffer = list(values[taken : taken + per_block])
            else:
                buffer.extend(values[taken : taken + take])
            taken += take
            if len(buffer) == per_block:
                self._write_tail_block(buffer)
                buffer = []
                self._next_block += 1
        self._buffer = buffer

    def append_records(self, records: np.ndarray) -> None:
        """Append an array of records, whole blocks without coding a value.

        The columnar form of :meth:`append_many`, for a struct-backed codec
        whose values are tuples of its fields (a pair codec): field
        ``f<i>`` of each record is field ``f<i>`` of the layout, so a
        record's ``tolist()`` row is its value.  The open tail block is
        filled through :meth:`append_many`; every whole block after it is
        written straight from a zero-padded array of the codec's ``dtype``
        (the splice :meth:`SampleFile.write_records` makes); the rest goes
        to :meth:`append_many` as the partial tail.  Device bytes, charges
        and write order are those of ``append_many(records.tolist())``.
        """
        dtype = getattr(self._codec, "dtype", None)
        names = records.dtype.names
        if (
            dtype is None
            or len(dtype.names) < 2
            or names != dtype.names
            or any(records.dtype[name] != dtype[name] for name in names)
        ):
            raise ValueError(
                f"append_records() needs records with the fields of {dtype}, "
                f"got {records.dtype}"
            )
        per_block = self.elements_per_block
        head = min(len(records), -len(self._buffer) % per_block)
        if head:
            self.append_many(records[:head].tolist())
        whole = (len(records) - head) // per_block * per_block
        if whole:
            packed = np.zeros(whole, dtype)
            for name in names:
                packed[name] = records[name][head : head + whole]
            data = packed.tobytes()
            self._count += whole
            size = self._device.block_size
            for start in range(0, len(data), size):
                self._write_next_block(data[start : start + size])
                self._next_block += 1
        if head + whole < len(records):
            self.append_many(records[head + whole :].tolist())

    def flush(self) -> None:
        """Force the partial tail block to disk (at most one block write).

        Flushing an unchanged tail twice charges once: the paper notes the
        candidate log "often consists of only a single block, which is the
        minimum" for short refresh periods.
        """
        if self._buffer and not self._flushed_partial:
            self._write_tail_block(self._buffer)
            self._flushed_partial = True

    def reopen(self, element_count: int) -> None:
        """Re-attach to a log whose blocks already exist on the device.

        Recovery path (see :mod:`repro.storage.superblock`): the checkpoint
        records how many elements the on-disk log held; reopening reloads
        the partial tail block into the append buffer (one random read --
        the recovery seek) so appends continue exactly where they stopped.
        Only valid on a freshly constructed, empty ``LogFile`` over the
        original device.
        """
        if self._count or self._buffer:
            raise RuntimeError("reopen() requires a fresh, empty LogFile")
        if element_count < 0:
            raise ValueError("element_count must be non-negative")
        self._count = element_count
        self._next_block, tail = divmod(element_count, self.elements_per_block)
        if tail:
            data = self._device.read_block(self._next_block, sequential=False)
            self._buffer = self._codec.decode_block(data, tail)
            self._flushed_partial = True
        # Continuing the same generation: no rewind seek on the next write
        # (an empty generation still owes its initial seek).
        self._repositioned = element_count == 0

    def truncate(self) -> None:
        """Reset the log for reuse; the next write will pay a seek."""
        self._device.discard_from(0)
        self._count = 0
        self._buffer = []
        self._next_block = 0
        self._repositioned = True
        self._flushed_partial = False

    def scan_all(self) -> list[T]:
        """Read the whole log: one sequential read per block."""
        values: list[T] = []
        for chunk in self.open_sequential_reader().read_run(0, self._count - 1):
            values += chunk
        return values

    def read_indexed_sorted(self, indices: Sequence[int]) -> list[T]:
        """Read elements at ascending positions; one seq read per distinct block.

        This is how the refresh algorithms touch the log: forward-only, and
        only the blocks that contain final candidates.
        """
        reader = self.open_sequential_reader()
        return [reader.read(index) for index in indices]

    def open_sequential_reader(self) -> "SequentialLogReader":
        """Return a forward-only reader charging one seq read per new block.

        Stack and Nomem Refresh interleave log reads with sample writes;
        this reader lets them do that one candidate at a time, and the
        replays read runs of consecutive records through it.
        """
        self.flush()
        declare_scan(self._device, 0, self.block_count)
        return SequentialLogReader(self)

    def read_one_random(self, index: int) -> T:
        """Read one element by random access: one random read.

        Only the *unsorted* Array Refresh variant (the ablation of the
        optional sort in Sec. 4.1) uses this path.
        """
        self.flush()
        if not 0 <= index < self._count:
            raise IndexError(f"log index {index} out of range [0, {self._count})")
        block, offset = self._locate(index)
        data = self._device.read_block(block, sequential=False)
        return self._decode_at(data, offset)

    def peek(self, index: int) -> T:
        """Read one element without charging I/O (test/verification aid)."""
        if not 0 <= index < self._count:
            raise IndexError(f"log index {index} out of range [0, {self._count})")
        block, offset = self._locate(index)
        in_buffer_from = self._next_block * self.elements_per_block
        if index >= in_buffer_from:
            return self._buffer[index - in_buffer_from]
        return self._decode_at(self._device.peek_block(block), offset)

    def peek_all(self) -> list[T]:
        """Return all elements without charging I/O (test/verification aid)."""
        values: list[T] = []
        for block in range(self._next_block):
            data = self._device.peek_block(block)
            values += self._decode_block(data, block, self._count)
        return values + self._buffer

    # -- internals ---------------------------------------------------------

    def _write_tail_block(self, values: Sequence[T]) -> None:
        """Write the tail block; a partial tail is rewritten as it fills."""
        data = self._codec.encode_block(values)
        self._write_next_block(data.ljust(self._device.block_size, b"\x00"))

    def _write_next_block(self, data: bytes) -> None:
        """Write block ``_next_block``: the first write after a rewind
        seeks (one random write), every other one is sequential."""
        sequential = not self._repositioned
        self._device.write_block(self._next_block, data, sequential)
        self._repositioned = False


class SequentialLogReader:
    """Forward-only element reader over a :class:`LogFile`.

    Indexes must be strictly increasing across calls; each *new* block
    touched charges one sequential read.  :meth:`read` and
    :meth:`read_run` decode that block whole, once, with one
    ``decode_block`` call, and serve later indexes in it from that
    decode; :meth:`read_records` and :meth:`gather` view its bytes
    without decoding.
    """

    __slots__ = ("_log", "_per_block", "_current_block", "_data", "_values",
                 "_previous")

    def __init__(self, log: LogFile) -> None:
        self._log = log
        self._per_block = log.elements_per_block
        self._current_block = -1
        self._data = b""
        self._values: list | None = None
        self._previous = -1

    def read(self, index: int) -> T:
        self._check(index)
        self._previous = index
        block, slot = divmod(index, self._per_block)
        return self._block_values(block)[slot]

    def read_run(self, first: int, last: int) -> Iterator[list[T]]:
        """Yield indexes ``first..last`` in order, one list per block touched.

        Charges exactly what a :meth:`read` of each index charges; an
        empty run (``last < first``) reads nothing.
        """
        for block, slot, end in self._run_blocks(first, last):
            yield self._block_values(block)[slot:end]

    def read_records(self, first: int, last: int) -> np.ndarray:
        """Indexes ``first..last`` as one array of the codec's ``dtype``.

        Charges exactly what :meth:`read_run` charges, reading the blocks
        the reader does not already hold as one ``read_blocks`` run; the
        records are the log's bytes, viewed and joined without decoding.
        Needs a struct-backed codec.
        """
        size = self._log._codec.record_size
        spans = list(self._run_blocks(first, last))
        chunks = []
        if spans:
            blocks = self._blocks_data(spans[0][0], spans[-1][0])
            chunks = [
                memoryview(data)[slot * size : end * size]
                for data, (_, slot, end) in zip(blocks, spans)
            ]
        return self._log._join_records(chunks, max(0, last - first + 1))

    def gather(self, indexes: np.ndarray) -> Iterator[np.ndarray]:
        """The records at strictly increasing ``indexes``, as arrays of the
        codec's ``dtype``, one per block they lie in.

        A block is read, if the reader does not hold it already, when its
        array is asked for, and not before: a caller that writes between
        two arrays interleaves those writes with the reads as a
        :meth:`read` of each index would.  Charges exactly what that
        :meth:`read` loop charges, one sequential read per new block, and
        decodes nothing.  Needs a struct-backed codec.
        """
        if not len(indexes):
            return
        self._check(int(indexes[0]))
        if indexes[-1] >= len(self._log):
            raise IndexError(
                f"log index {indexes[-1]} out of range [0, {len(self._log)})"
            )
        if np.count_nonzero(indexes[1:] <= indexes[:-1]):
            raise ValueError("sequential reader requires strictly increasing indexes")
        per_block = self._per_block
        dtype = self._log.codec.dtype
        blocks = indexes // per_block
        offsets = indexes % per_block
        ends = (np.flatnonzero(blocks[1:] != blocks[:-1]) + 1).tolist()
        for start, end in zip([0, *ends], [*ends, len(indexes)]):
            records = np.frombuffer(self._block_data(int(blocks[start])), dtype, per_block)
            self._previous = int(indexes[end - 1])
            yield records[offsets[start:end]]

    def _run_blocks(self, first: int, last: int) -> Iterator[tuple[int, int, int]]:
        """``(block, first slot, end slot)`` of each block the run touches;
        the reader stands past each block's part as it is handed out."""
        if last < first:
            return
        self._check(first)
        if last >= len(self._log):
            raise IndexError(f"log index {last} out of range [0, {len(self._log)})")
        per_block = self._per_block
        index = first
        while index <= last:
            block, slot = divmod(index, per_block)
            end = min(last + 1, (block + 1) * per_block)
            self._previous = end - 1
            yield block, slot, slot + end - index
            index = end

    def _check(self, index: int) -> None:
        if not 0 <= index < len(self._log):
            raise IndexError(f"log index {index} out of range [0, {len(self._log)})")
        if index <= self._previous:
            raise ValueError(
                f"sequential reader requires strictly increasing indexes "
                f"({index} after {self._previous})"
            )

    def _block_data(self, block: int) -> bytes:
        if block != self._current_block:
            self._data = self._log.device.read_block(block, sequential=True)
            self._values = None
            self._current_block = block
        return self._data

    def _blocks_data(self, first: int, last: int) -> list[bytes]:
        """Blocks ``first..last``: the held block kept, the rest read as one
        sequential run, after which the reader holds block ``last``."""
        held = [self._data] if first == self._current_block else []
        start = first + len(held)
        if start > last:
            return held
        read = self._log.device.read_blocks(start, last - start + 1, True)
        self._data = read[-1]
        self._values = None
        self._current_block = last
        return held + read

    def _block_values(self, block: int) -> list:
        if block != self._current_block or self._values is None:
            log = self._log
            self._values = log._decode_block(self._block_data(block), block, len(log))
        return self._values
