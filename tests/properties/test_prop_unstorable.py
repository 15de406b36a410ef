"""Property-based tests: ingest refuses a value the int64 record cannot hold.

A batch holding such a value raises :class:`ValueError` before it changes
the dataset size, the PRNG stream or the log -- through every entry point
(``SampleCatalog.ingest``, ``SampleMaintainer.insert``/``insert_many``)
and every kind with every strategy it supports.  Before, a uniform sample
counted and logged the value, and every later refresh failed to encode it.

The uniform kind checks only the values it stores: a value a Vitter skip
passes over is counted but never checked.  So for the uniform kind's
immediate and candidate strategies the bad value is put where the
acceptance walk's pending accept lands; full logging stores, and so
checks, every value, and the weighted and window kinds check every value
of a batch before drawing for it.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.kinds import make_kind
from repro.core.maintenance import SampleMaintainer
from repro.core.policies import ManualPolicy
from repro.core.refresh.array import ArrayRefresh
from repro.rng.random_source import RandomSource
from repro.serve.catalog import SampleCatalog
from repro.storage.block_device import SimulatedBlockDevice
from repro.storage.cost_model import CostModel
from repro.storage.files import LogFile, SampleFile

SAMPLE_SIZE = 16

#: Every kind with every strategy it supports.
PAIRS = [
    ("uniform", "immediate"),
    ("uniform", "candidate"),
    ("uniform", "full"),
    ("weighted", "candidate"),
    ("window", "candidate"),
]

UNSTORABLE = [2**63, -(2**63) - 1, 2.5]


def _maintainer(kind_name, strategy, seed):
    rng = RandomSource(seed=seed)
    kind = make_kind(kind_name, SAMPLE_SIZE)
    cost = CostModel()
    codec = kind.codec(32)
    sample = SampleFile(SimulatedBlockDevice(cost, "sample"), codec, SAMPLE_SIZE)
    sample.initialize(kind.build_initial(list(range(4 * SAMPLE_SIZE)), rng))
    return SampleMaintainer(
        sample, rng, strategy=strategy, initial_dataset_size=kind.seen,
        log=LogFile(SimulatedBlockDevice(cost, "log"), codec),
        algorithm=ArrayRefresh(), policy=ManualPolicy(), cost_model=cost, kind=kind,
    )


def _state(maintainer):
    return (
        maintainer.dataset_size,
        maintainer._rng.snapshot(),
        maintainer.pending_log_elements,
        maintainer.kind.pending_accept,
        maintainer.stats.inserts,
        maintainer.sample.peek_all(),
    )


def _stored_at(maintainer, limit):
    """Index within the next batch of an arrival whose value is stored,
    at most ``limit``: feeds good values one by one until the uniform
    acceptance walk has an accept pending."""
    if maintainer.kind.name != "uniform" or maintainer.strategy == "full":
        return limit
    while True:
        pending = maintainer.kind.pending_accept
        if pending is not None and pending - maintainer.dataset_size - 1 <= limit:
            return pending - maintainer.dataset_size - 1
        maintainer.insert(5)


#: Every entry point with every pair it takes: the catalog keeps
#: candidate logs only.
CASES = [("ingest", kind, strategy) for kind, strategy in PAIRS if strategy == "candidate"]
CASES += [(entry, *pair) for entry in ("insert", "insert_many") for pair in PAIRS]


@given(
    case=st.sampled_from(CASES),
    bad=st.sampled_from(UNSTORABLE),
    at=st.integers(0, 40),
    after=st.integers(0, 40),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=120, deadline=None)
def test_unstorable_value_is_refused_without_a_trace(case, bad, at, after, seed):
    entry, kind_name, strategy = case
    if entry == "ingest":
        catalog = SampleCatalog()
        catalog.create("s", sample_size=SAMPLE_SIZE, algorithm="array", seed=seed,
                       kind=kind_name)
        maintainer = catalog.get("s")
    else:
        maintainer = _maintainer(kind_name, strategy, seed)
    if entry == "insert":
        at, after = 0, 0
    at = _stored_at(maintainer, at)
    batch = [7] * at + [bad] + [9] * after

    before = _state(maintainer)
    with pytest.raises(ValueError):
        if entry == "ingest":
            catalog.ingest("s", batch)
        elif entry == "insert":
            maintainer.insert(bad)
        else:
            maintainer.insert_many(batch)
    assert _state(maintainer) == before
    # The refused batch wedges nothing: the sample ingests and refreshes.
    maintainer.insert_many(range(100, 140))
    maintainer.refresh()
    assert maintainer.pending_log_elements == 0


@pytest.mark.parametrize("strategy", ["immediate", "candidate"])
def test_value_a_skip_passes_over_is_counted_unchecked(strategy):
    maintainer = _maintainer("uniform", strategy, seed=3)
    # Until the next arrival is one the acceptance walk passes over.
    while maintainer.kind.pending_accept in (None, maintainer.dataset_size + 1):
        maintainer.insert(5)
    size = maintainer.dataset_size
    maintainer.insert(2**63)
    assert maintainer.dataset_size == size + 1
    maintainer.refresh()
    assert 2**63 not in maintainer.sample.peek_all()
