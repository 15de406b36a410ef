"""Real-file backend and disk calibration."""

import pytest

from repro.storage.cost_model import CostModel
from repro.storage.files import LogFile, SampleFile
from repro.storage.real_disk import RealBlockDevice, calibrate_disk
from repro.storage.records import IntRecordCodec

BLOCK = 4096


class TestRealBlockDevice:
    def test_roundtrip(self, tmp_path):
        model = CostModel()
        with RealBlockDevice(tmp_path / "dev.bin", model) as device:
            payload = bytes(range(256)) * 16
            device.write_block(2, payload, sequential=True)
            assert device.read_block(2, sequential=True) == payload
            assert model.stats.seq_writes == 1
            assert model.stats.seq_reads == 1

    def test_reads_past_eof_are_zero(self, tmp_path):
        model = CostModel()
        with RealBlockDevice(tmp_path / "dev.bin", model) as device:
            assert device.read_block(9, sequential=False) == b"\x00" * BLOCK

    def test_peek_poke_free(self, tmp_path):
        model = CostModel()
        with RealBlockDevice(tmp_path / "dev.bin", model) as device:
            device.poke_block(0, b"\x05" * BLOCK)
            assert device.peek_block(0) == b"\x05" * BLOCK
            assert model.stats.total_accesses == 0

    def test_discard_from_truncates(self, tmp_path):
        model = CostModel()
        with RealBlockDevice(tmp_path / "dev.bin", model) as device:
            for i in range(4):
                device.poke_block(i, bytes([i]) * BLOCK)
            device.discard_from(2)
            assert device.peek_block(3) == b"\x00" * BLOCK
            assert device.peek_block(1) == b"\x01" * BLOCK

    def test_read_blocks_pads_a_short_final_block(self, tmp_path):
        path = tmp_path / "dev.bin"
        head = bytes(range(256)) * 16
        tail = b"\x07" * 100
        path.write_bytes(head + tail)
        run_model, loop_model = CostModel(), CostModel()
        with RealBlockDevice(path, run_model) as device:
            run = device.read_blocks(0, 4, sequential=True)
        with RealBlockDevice(path, loop_model) as device:
            loop = [device.read_block(i, sequential=True) for i in range(4)]
        assert run == loop
        assert run[1] == tail + b"\x00" * (BLOCK - len(tail))
        assert run[2] == run[3] == b"\x00" * BLOCK
        assert run_model.stats == loop_model.stats
        assert run_model.stats.seq_reads == 4

    def test_write_validates_size(self, tmp_path):
        model = CostModel()
        with RealBlockDevice(tmp_path / "dev.bin", model) as device:
            with pytest.raises(ValueError):
                device.write_block(0, b"small", sequential=True)

    def test_sample_file_over_real_device(self, tmp_path):
        # The storage layer is backend-agnostic: the same SampleFile logic
        # must work on a real file.
        model = CostModel()
        with RealBlockDevice(tmp_path / "sample.bin", model) as device:
            sample = SampleFile(device, IntRecordCodec(), 200)
            sample.initialize(list(range(200)))
            sample.write_random(150, -9)
            assert list(sample.scan())[150] == -9
            assert sample.peek(0) == 0

    def test_log_file_over_real_device(self, tmp_path):
        model = CostModel()
        with RealBlockDevice(tmp_path / "log.bin", model) as device:
            log = LogFile(device, IntRecordCodec())
            log.append_many(range(300))
            assert log.scan_all() == list(range(300))
            log.truncate()
            log.append_many(range(5))
            assert log.peek_all() == [0, 1, 2, 3, 4]


class TestCalibration:
    def test_measures_positive_times(self, tmp_path):
        result = calibrate_disk(tmp_path / "cal.bin", file_blocks=64, probes=32)
        assert result.seq_read_ms > 0
        assert result.seq_write_ms > 0
        assert result.random_read_ms > 0
        assert result.random_write_ms > 0
        assert result.blocks_measured == 64

    def test_converts_to_disk_parameters(self, tmp_path):
        result = calibrate_disk(tmp_path / "cal.bin", file_blocks=16, probes=8)
        disk = result.as_disk_parameters()
        assert disk.block_size == 4096
        assert disk.elements_per_block == 128
        assert disk.seq_read_ms == result.seq_read_ms

    def test_validates_arguments(self, tmp_path):
        with pytest.raises(ValueError):
            calibrate_disk(tmp_path / "cal.bin", file_blocks=1)
        with pytest.raises(ValueError):
            calibrate_disk(tmp_path / "cal.bin", file_blocks=8, probes=0)
