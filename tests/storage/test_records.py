"""Record codecs: fixed-size encoding round-trips."""

import re

import pytest

from repro.dbms.join_synopsis import JoinedRow, JoinedRowCodec
from repro.dbms.sample_view import RowRecordCodec
from repro.dbms.staging import Change, ChangeKind, ChangeRecordCodec
from repro.dbms.table import Row
from repro.storage.records import (
    BytesRecordCodec,
    IntRecordCodec,
    TimestampedRecordCodec,
    WeightedRecordCodec,
)


class TestIntRecordCodec:
    def test_roundtrip(self):
        codec = IntRecordCodec(32)
        for value in (0, 1, -1, 2**62, -(2**62), 123456789):
            assert codec.decode(codec.encode(value)) == value

    def test_record_size(self):
        assert IntRecordCodec(32).record_size == 32
        assert len(IntRecordCodec(32).encode(7)) == 32
        assert len(IntRecordCodec(8).encode(7)) == 8

    def test_rejects_undersized_records(self):
        with pytest.raises(ValueError):
            IntRecordCodec(4)

    def test_decode_validates_length(self):
        codec = IntRecordCodec(32)
        with pytest.raises(ValueError):
            codec.decode(b"\x00" * 31)


class TestBytesRecordCodec:
    def test_roundtrip(self):
        codec = BytesRecordCodec(32)
        for payload in (b"", b"a", b"hello world", b"\x00\x01\x02", b"x" * 30):
            assert codec.decode(codec.encode(payload)) == payload

    def test_payload_with_trailing_zeroes_preserved(self):
        codec = BytesRecordCodec(32)
        payload = b"abc\x00\x00"
        assert codec.decode(codec.encode(payload)) == payload

    def test_rejects_oversized_payload(self):
        codec = BytesRecordCodec(16)
        with pytest.raises(ValueError):
            codec.encode(b"x" * 15)

    def test_rejects_undersized_records(self):
        with pytest.raises(ValueError):
            BytesRecordCodec(2)

    def test_decode_validates_length(self):
        codec = BytesRecordCodec(32)
        with pytest.raises(ValueError):
            codec.decode(b"\x00" * 16)

    def test_decode_detects_corrupt_length_prefix(self):
        codec = BytesRecordCodec(8)
        record = b"\xff\xff" + b"\x00" * 6  # length 65535 > capacity
        with pytest.raises(ValueError):
            codec.decode(record)


# One value per fixed-layout codec that its 64-bit fields cannot hold, next
# to one that they can.
OUT_OF_RANGE = {
    "int": (IntRecordCodec, 1, 2**63),
    "weighted": (WeightedRecordCodec, (1, 0.5), (2**63, 0.5)),
    "timestamped": (TimestampedRecordCodec, (1, 2), (1, 2**64)),
    "row": (RowRecordCodec, Row(1, 2), Row(2**63, 2)),
    "change": (
        ChangeRecordCodec,
        Change(ChangeKind.INSERT, Row(1, 2)),
        Change(ChangeKind.DELETE, Row(1, -(2**63) - 1)),
    ),
    "joined": (JoinedRowCodec, JoinedRow(1, 2, 3), JoinedRow(1, 2, 2**64)),
}


@pytest.mark.parametrize("name", sorted(OUT_OF_RANGE))
def test_out_of_range_encode_raises_value_error(name):
    make, good, bad = OUT_OF_RANGE[name]
    codec = make()
    named = re.escape(repr(bad))
    with pytest.raises(ValueError, match=named):
        codec.encode(bad)
    with pytest.raises(ValueError, match=named):
        codec.encode_block([good, bad, good])


@pytest.mark.parametrize("make", [WeightedRecordCodec, TimestampedRecordCodec])
def test_pair_codecs_refuse_rows_that_are_not_pairs(make):
    # Rows of the wrong arity must not be packed into each other's fields
    # (``[(1, 2.0, 3), (4,)]`` would otherwise pack as two pairs).
    codec = make()
    for rows, misfit in (
        ([(1, 2, 3), (4,)], (1, 2, 3)),
        ([(1, 2), (3,), (4, 5, 6)], (3,)),
        ([(1, 2), 5], 5),
    ):
        with pytest.raises(ValueError, match=re.escape(repr(misfit))):
            codec.encode_block(rows)
        with pytest.raises(ValueError, match=re.escape(repr(misfit))):
            codec.encode(misfit)
