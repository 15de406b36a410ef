"""Fixed-size record codecs.

The paper assumes 32-byte elements, 128 to a 4 096-byte block.  The storage
layer moves opaque fixed-size byte strings; codecs translate between domain
values and those byte strings so tests and examples can round-trip real
payloads through the simulated (or real) disk.

The block is the unit of coding, as it is the unit of charged I/O: scans
and bulk writes code a whole block per call (``decode_block`` /
``encode_block``); reads and writes of one record per block access use
``decode``/``encode``.  Every codec raises :class:`ValueError` on a value
its layout cannot hold or a buffer too short for its records.
"""

from __future__ import annotations

import struct
from array import array
from itertools import chain
from typing import ClassVar, Generic, Iterable, Protocol, Sequence, TypeVar

import numpy as np

__all__ = [
    "RecordCodec",
    "StructRecordCodec",
    "IntRecordCodec",
    "BytesRecordCodec",
    "WeightedRecordCodec",
    "TimestampedRecordCodec",
]

T = TypeVar("T")


class RecordCodec(Protocol[T]):
    """Encodes values of some type into fixed-size byte records."""

    @property
    def record_size(self) -> int:  # pragma: no cover - protocol
        ...

    def encode(self, value: T) -> bytes:  # pragma: no cover - protocol
        ...

    def decode(self, record: bytes) -> T:  # pragma: no cover - protocol
        ...

    def encode_block(self, values: Sequence[T]) -> bytes:  # pragma: no cover
        """``b"".join(map(encode, values))``, in one call."""
        ...

    def decode_block(self, data: bytes, count: int) -> list[T]:  # pragma: no cover
        """The first ``count`` records of ``data``, in one call."""
        ...


class StructRecordCodec(Generic[T]):
    """A fixed-layout record: little-endian :mod:`struct` fields, then zeros.

    Subclasses give ``FIELDS`` (a struct format without the byte-order
    prefix) and the mapping between values and the flat field tuple of a
    run of records: :meth:`_flatten` and :meth:`_values`.  The base owns
    the padding, the length checks and one compiled :class:`struct.Struct`
    per record count, so a block of ``count`` records packs or unpacks in
    one C call.
    :attr:`dtype` is the layout as a numpy structured type: field ``f<i>``
    at its packed offset, one item per record.
    """

    FIELDS: ClassVar[str]

    def __init__(self, record_size: int = 32) -> None:
        width = struct.calcsize("<" + self.FIELDS)
        if record_size < width:
            raise ValueError(
                f"record_size must hold the {width}-byte fields {self.FIELDS!r}"
            )
        self._record_size = record_size
        self._layout = f"{self.FIELDS}{record_size - width}x"
        self._structs: dict[int, struct.Struct] = {}
        self._one = self._struct(1)
        fields = range(len(self.FIELDS))
        self.dtype = np.dtype({
            "names": [f"f{i}" for i in fields],
            "formats": ["<" + code for code in self.FIELDS],
            "offsets": [struct.calcsize("<" + self.FIELDS[:i]) for i in fields],
            "itemsize": record_size,
        })

    def __init_subclass__(cls, **kwargs: object) -> None:
        super().__init_subclass__(**kwargs)
        # Each concrete codec carries the per-record entry points in its
        # own class namespace, where tools that patch methods per class
        # (``cls.__dict__[name]``) look for them.
        for name in ("encode", "decode"):
            if name not in cls.__dict__:
                setattr(cls, name, getattr(cls, name))

    @property
    def record_size(self) -> int:
        return self._record_size

    def encode(self, value: T) -> bytes:
        try:
            return self._one.pack(*self._flatten((value,)))
        except struct.error as exc:
            raise ValueError(f"cannot encode {value!r}: {exc}") from None

    def decode(self, record: bytes) -> T:
        if len(record) != self._record_size:
            raise ValueError(
                f"record has {len(record)} bytes, expected {self._record_size}"
            )
        return self._values(self._one.unpack(record))[0]

    def encode_block(self, values: Sequence[T]) -> bytes:
        try:
            return self._struct(len(values)).pack(*self._flatten(values))
        except struct.error as exc:
            for value in values:
                self.encode(value)  # raises, naming the first misfit
            raise ValueError(f"cannot encode block: {exc}") from None

    def decode_block(self, data: bytes, count: int) -> list[T]:
        if not 0 <= count * self._record_size <= len(data):
            raise ValueError(f"{len(data)} bytes cannot hold {count} records")
        return self._values(self._struct(count).unpack_from(data))

    def _struct(self, count: int) -> struct.Struct:
        packer = self._structs.get(count)
        if packer is None:
            packer = self._structs[count] = struct.Struct("<" + self._layout * count)
        return packer

    def _flatten(self, values: Sequence[T]) -> Iterable[object]:
        """The fields of ``values``, record after record."""
        raise NotImplementedError

    def _values(self, fields: tuple) -> list[T]:
        """The values whose fields, record after record, are ``fields``."""
        raise NotImplementedError


class IntRecordCodec(StructRecordCodec[int]):
    """Stores a signed 64-bit integer padded to the element size.

    This is the codec the tests and examples use: stream elements and
    dataset keys are integers, padded to the paper's 32-byte element size.
    """

    FIELDS = "q"

    def check(self, values: Sequence) -> None:
        """Raise :class:`ValueError` unless every value is an integer the
        int64 field holds: what :meth:`encode_block` would refuse, checked
        without building the bytes (or a packer per batch length)."""
        try:
            array("q", values)
        except (TypeError, OverflowError) as exc:
            raise ValueError(
                f"sample values must be integers in the int64 range: {exc}"
            ) from None

    def _flatten(self, values: Sequence[int]) -> Sequence[int]:
        return values

    def _values(self, fields: tuple) -> list[int]:
        return list(fields)


class _PairRecordCodec(StructRecordCodec[tuple]):
    """A row that is a 2-tuple of fields, decoded back to a 2-tuple."""

    def _flatten(self, values: Sequence[tuple]) -> Iterable:
        try:
            pairs = set(map(len, values)) <= {2}
        except TypeError:  # a value without a length
            pairs = False
        if not pairs:
            misfit = next(v for v in values if not hasattr(v, "__len__") or len(v) != 2)
            raise ValueError(f"cannot encode {misfit!r}: not a pair")
        return chain.from_iterable(values)

    def _values(self, fields: tuple) -> list[tuple]:
        return list(zip(fields[0::2], fields[1::2]))


class WeightedRecordCodec(_PairRecordCodec):
    """Stores a weighted-reservoir row: ``(value, key)``.

    The value is a signed 64-bit integer and the key its A-ES exponential
    key, an IEEE-754 double serialised bit-exactly (``<d``) -- checkpoint
    and replica round-trips must reproduce acceptance decisions, so the
    key cannot be truncated or re-derived.
    """

    FIELDS = "qd"


class TimestampedRecordCodec(_PairRecordCodec):
    """Stores a sliding-window row: ``(value, sequence)``.

    The sequence is the row's arrival index in the stream (a signed
    64-bit integer); the window kind derives both the row's slot and its
    expiry from it, so it is part of the durable record.
    """

    FIELDS = "qq"


class BytesRecordCodec:
    """Pass-through codec for byte payloads, with zero padding.

    Encoded records embed the payload length so trailing padding is
    stripped exactly on decode.  Blocks decode record by record: every
    length prefix is validated on its own.
    """

    def __init__(self, record_size: int = 32) -> None:
        if record_size < 3:
            raise ValueError("record_size must be at least 3 (2-byte length prefix)")
        self._record_size = record_size
        self._max_payload = record_size - 2

    @property
    def record_size(self) -> int:
        return self._record_size

    def encode(self, value: bytes) -> bytes:
        if len(value) > self._max_payload:
            raise ValueError(
                f"payload of {len(value)} bytes exceeds capacity {self._max_payload}"
            )
        return struct.pack("<H", len(value)) + value.ljust(self._max_payload, b"\x00")

    def decode(self, record: bytes) -> bytes:
        if len(record) != self._record_size:
            raise ValueError(
                f"record has {len(record)} bytes, expected {self._record_size}"
            )
        (length,) = struct.unpack_from("<H", record)
        if length > self._max_payload:
            raise ValueError("corrupt record: length prefix exceeds capacity")
        return record[2 : 2 + length]

    def encode_block(self, values: Sequence[bytes]) -> bytes:
        return b"".join(map(self.encode, values))

    def decode_block(self, data: bytes, count: int) -> list[bytes]:
        size = self._record_size
        return [self.decode(data[i * size : (i + 1) * size]) for i in range(count)]
