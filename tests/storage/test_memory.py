"""MemoryReport: Fig. 12 main-memory accounting."""

import pytest

from repro.storage.memory import INDEX_BYTES, MT19937_STATE_BYTES, MemoryReport


class TestMemoryReport:
    def test_index_accounting_is_high_water_mark(self):
        report = MemoryReport()
        report.account_indexes(100)
        report.account_indexes(50)  # lower: no change
        report.account_indexes(200)
        assert report.index_bytes == 200 * INDEX_BYTES

    def test_element_accounting(self):
        report = MemoryReport()
        report.account_elements(1000, 32)
        assert report.element_bytes == 32_000

    def test_prng_accounting(self):
        report = MemoryReport()
        report.account_prng_snapshots(1)
        assert report.prng_state_bytes == MT19937_STATE_BYTES
        # MT19937 state is ~2.5 KB -- the paper's "negligible" footprint.
        assert report.prng_state_bytes < 4096

    def test_peak_combines_categories(self):
        report = MemoryReport()
        report.account_indexes(10)
        report.account_elements(5, 32)
        report.account_prng_snapshots(1)
        assert report.peak_bytes == 10 * INDEX_BYTES + 160 + MT19937_STATE_BYTES

    def test_rejects_negative_counts(self):
        report = MemoryReport()
        with pytest.raises(ValueError):
            report.account_indexes(-1)
        with pytest.raises(ValueError):
            report.account_elements(-1, 32)
        with pytest.raises(ValueError):
            report.account_elements(1, 0)
        with pytest.raises(ValueError):
            report.account_prng_snapshots(-1)
