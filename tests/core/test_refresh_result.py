"""The RefreshResult value object."""

import pytest

from repro.core.refresh.base import RefreshResult


class TestRefreshResult:
    def test_valid_construction(self):
        result = RefreshResult(candidates=10, displaced=4)
        assert result.candidates == 10
        assert result.displaced == 4
        assert result.memory.peak_bytes == 0

    def test_displaced_bounded_by_candidates(self):
        # Every displaced slot holds a final candidate, so Psi <= |C|.
        with pytest.raises(ValueError):
            RefreshResult(candidates=3, displaced=4)

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            RefreshResult(candidates=-1, displaced=0)
        with pytest.raises(ValueError):
            RefreshResult(candidates=1, displaced=-1)

