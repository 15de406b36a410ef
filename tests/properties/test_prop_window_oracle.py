"""Property-based test: the window sample against an independent oracle.

``tests/properties/test_prop_kinds.py`` proves deferred == eager for the
window kind, but its eager reference shares the kind's own draw and
replay code.  This oracle shares none of it: the stream is a plain
Python list, and after any mix of batched inserts and refreshes (Array
or naive) the sample must hold the stream's last ``W`` rows, the row
with arrival index ``i`` in slot ``i mod W`` carrying ``i`` as its
sequence number.
"""

from hypothesis import given, settings, strategies as st

from repro.core.kinds import make_kind
from repro.core.maintenance import SampleMaintainer
from repro.core.policies import ManualPolicy
from repro.core.refresh.array import ArrayRefresh
from repro.core.refresh.naive import NaiveCandidateRefresh
from repro.rng.random_source import RandomSource
from repro.storage.block_device import SimulatedBlockDevice
from repro.storage.cost_model import CostModel, DiskParameters
from repro.storage.files import LogFile, SampleFile

ALGORITHMS = {"array": ArrayRefresh, "naive": NaiveCandidateRefresh}
VALUES = st.integers(min_value=-(2**62), max_value=2**62)
#: 8 records of 32 bytes per block, so windows span several blocks
SMALL_DISK = DiskParameters(block_size=256)


def last_window(stream: list, width: int) -> list:
    """The oracle: slot ``i mod W`` holds ``(stream[i], i)`` for the last
    ``W`` arrival indexes ``i``."""
    rows = [None] * width
    for index in range(len(stream) - width, len(stream)):
        rows[index % width] = (stream[index], index)
    return rows


@given(
    algorithm=st.sampled_from(sorted(ALGORITHMS)),
    width=st.integers(min_value=1, max_value=40),
    data=st.data(),
)
@settings(max_examples=80, deadline=None)
def test_window_sample_is_last_w_rows_of_the_stream(algorithm, width, data):
    stream = data.draw(st.lists(VALUES, min_size=width, max_size=width + 30))
    cost = CostModel(disk=SMALL_DISK)
    rng = RandomSource(seed=data.draw(st.integers(0, 2**32)))
    kind = make_kind("window", width)
    codec = kind.codec(32)
    sample = SampleFile(SimulatedBlockDevice(cost, "sample"), codec, width)
    sample.initialize(kind.build_initial(list(stream), rng))
    maintainer = SampleMaintainer(
        sample,
        rng,
        strategy="candidate",
        initial_dataset_size=len(stream),
        log=LogFile(SimulatedBlockDevice(cost, "log"), codec),
        algorithm=ALGORITHMS[algorithm](),
        policy=ManualPolicy(),
        cost_model=cost,
        kind=kind,
    )
    assert sample.peek_all() == last_window(stream, width)

    batches = data.draw(st.lists(st.lists(VALUES, max_size=3 * width), max_size=6))
    for batch in batches:
        maintainer.insert_many(batch)
        stream += batch
        if data.draw(st.booleans()):
            maintainer.refresh()
            assert sample.peek_all() == last_window(stream, width)
    maintainer.refresh()
    assert sample.peek_all() == last_window(stream, width)
