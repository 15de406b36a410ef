"""Unit tests for the instrument primitives (Counter/Gauge/Histogram)."""

import pytest

from repro.obs import (
    Counter,
    Gauge,
    Histogram,
    canonical_labels,
    validate_instrument_name,
)


def test_name_must_be_lowercase_dotted():
    assert validate_instrument_name("maintenance.inserts") == "maintenance.inserts"
    for bad in ("inserts", "Maintenance.inserts", "refresh-cost", "a.", ".a", "a..b"):
        with pytest.raises(ValueError):
            validate_instrument_name(bad)


def test_labels_canonicalise_to_sorted_tuples():
    assert canonical_labels(None) == ()
    assert canonical_labels({}) == ()
    assert canonical_labels({"b": "2", "a": "1"}) == (("a", "1"), ("b", "2"))
    # equal mappings in different orders share one identity key
    assert canonical_labels({"x": "1", "y": "2"}) == canonical_labels(
        {"y": "2", "x": "1"}
    )


def test_counter_is_monotone():
    c = Counter("maintenance.inserts")
    c.inc()
    c.inc(5)
    assert c.value == 6
    with pytest.raises(ValueError):
        c.inc(-1)


def test_counter_restore_is_the_sanctioned_reset():
    c = Counter("maintenance.inserts")
    c.inc(10)
    c.restore(3)
    assert c.value == 3
    with pytest.raises(ValueError):
        c.restore(-1)


def test_gauge_moves_both_ways():
    g = Gauge("sample.pending_log_elements")
    g.set(10)
    g.inc(2.5)
    assert g.value == pytest.approx(12.5)
    g.inc(-1)
    assert g.value == pytest.approx(11.5)


def test_histogram_buckets_are_cumulative():
    h = Histogram("refresh.cost_seconds", buckets=(1.0, 10.0, 100.0))
    for value in (0.5, 5.0, 50.0, 500.0):
        h.observe(value)
    assert h.count == 4
    assert h.sum == pytest.approx(555.5)
    assert h.bucket_counts == [1, 2, 3]  # +Inf bucket == count
    assert h.mean == pytest.approx(555.5 / 4)


def test_histogram_rejects_bad_boundaries():
    with pytest.raises(ValueError):
        Histogram("refresh.cost_seconds", buckets=())
    with pytest.raises(ValueError):
        Histogram("refresh.cost_seconds", buckets=(10.0, 1.0))
