"""Property-based tests: every spec grammar, and the checkpoint decoder.

For each grammar -- sample kind, freshness, scheduling policy, SLO,
quota, fan-out width -- any string either raises a ``ValueError`` that
names it, or parses to an object whose label parses back to an equal
object.  Strings start with the grammar's own names and go on with
field tokens chosen to hit the edges: empty fields, signs, exponents,
NaN and infinities, non-numbers, and floats that ``:g`` would round.

The decoder property: a real checkpoint, truncated or with one byte
flipped, either raises ``CheckpointError`` or decodes to the identical
checkpoint; re-sealed with its CRC recomputed after the flip, it either
raises ``CheckpointError`` or decodes to a checkpoint.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro import specs
from repro.core.kinds import make_kind
from repro.core.maintenance import SampleMaintainer
from repro.core.refresh.array import ArrayRefresh
from repro.fleet.quota import QuotaSpec
from repro.fleet.workload import parse_width
from repro.obs.slo import SLO
from repro.rng.random_source import RandomSource
from repro.serve.scheduler import make_scheduling_policy
from repro.serve.session import Freshness
from repro.storage.block_device import SimulatedBlockDevice
from repro.storage.cost_model import CostModel
from repro.storage.files import LogFile, SampleFile
from repro.storage.superblock import CheckpointError, MaintenanceCheckpoint
from tests.storage.test_superblock import reseal

#: fields every grammar's numbers accept
VALID = st.one_of(
    st.sampled_from(["1", "5", "16", "64", "0.05", "0.25", "0.99", "1234567",
                     "0.1234571", "0.123456789"]),
    st.integers(1, 10**7).map(str),
    st.floats(0.001, 1).map(repr),
)
#: fields at the edges: empty, signed, exponents, non-finite, non-numbers
FIELD = st.one_of(
    VALID,
    st.sampled_from(["", "0", "-1", "+7", " 3", "1_0", "1.5", "1e6", "1e400",
                     "nan", "inf", "-inf", "0x10", "abc", "reads"]),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.text(max_size=4),
)


def spec_of(*shapes):
    """Specs of one grammar's shapes, with valid or edge fields filled
    in, one field added or dropped, and any text at all."""

    @st.composite
    def filled(draw, fields):
        shape = draw(st.sampled_from(shapes))
        spec = shape.format(*(draw(fields) for _ in range(shape.count("{}"))))
        if draw(st.booleans()):
            return spec
        if draw(st.booleans()):
            return f"{spec}:{draw(FIELD)}"
        return spec.rpartition(":")[0]

    return st.one_of(filled(VALID), filled(FIELD), st.text(max_size=12))


def _policy_state(policy):
    return type(policy), vars(policy)


def _policy_label(policy):
    state = vars(policy)
    return specs.label(policy.name, state.get("_threshold", state.get("_bound")))


def _kind_state(kind):
    return type(kind), kind.capacity, getattr(kind, "weight_mod", None)


#: grammar -> (spec strings, parse, label, comparable state of the object)
GRAMMARS = {
    "sample kind": (
        spec_of("uniform", "window", "weighted", "weighted:{}"),
        lambda s: make_kind(s, 8),
        lambda k: k.spec(),
        _kind_state,
    ),
    "freshness": (
        spec_of(
            "serve_stale", "refresh_on_read", "bounded_staleness:{}", "bounded_expiry:{}"
        ),
        Freshness.parse,
        lambda f: f.label,
        lambda f: f,
    ),
    "scheduling policy": (
        spec_of("fifo", "fifo:{}", "longest-log:{}", "deadline:{}"),
        make_scheduling_policy,
        _policy_label,
        _policy_state,
    ),
    "SLO": (
        spec_of("latency:{}:{}", "staleness:{}:{}", "shed_rate:{}", "freshness"),
        SLO.parse,
        lambda s: s.name,
        lambda s: s,
    ),
    "quota": (
        spec_of("*:reads:{}:{}", "t0:ingest:{}:{}", "t1:writes:{}:{}", "{}:{}:{}:{}"),
        QuotaSpec.parse,
        lambda q: specs.label(q.tenant, q.kind, q.rate, q.burst),
        lambda q: q,
    ),
    "fan-out width": (
        spec_of("{}", "{}:{}"),
        parse_width,
        lambda w: specs.label(*w),
        lambda w: w,
    ),
}


@pytest.mark.parametrize("what", sorted(GRAMMARS))
@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_spec_names_itself_or_round_trips(what, data):
    strings, parse, label, state = GRAMMARS[what]
    spec = data.draw(strings, label="spec")
    try:
        parsed = parse(spec)
    except ValueError as exc:
        assert str(exc).startswith(f"bad {what} spec {spec!r}: ")
        return
    assert state(parse(label(parsed))) == state(parsed)


@settings(max_examples=300, deadline=None)
@given(
    threshold=st.floats(0, 1e12, allow_nan=False),
    objective=st.floats(0, 1),
    kind=st.sampled_from(["latency", "staleness"]),
)
def test_any_slo_label_round_trips(threshold, objective, kind):
    slo = SLO(kind, threshold, objective)
    assert SLO.parse(slo.name) == slo


@settings(max_examples=300, deadline=None)
@given(fraction=st.floats(0, 1, exclude_min=True))
def test_any_bounded_expiry_label_round_trips(fraction):
    freshness = Freshness.bounded_expiry(fraction)
    assert Freshness.parse(freshness.label) == freshness


# -- the checkpoint decoder ---------------------------------------------------


def _checkpoint(kind_and_strategy, seed, inserts):
    """The superblock of a maintainer that ran ``inserts`` insertions."""
    kind_spec, strategy = kind_and_strategy
    cost = CostModel()
    rng = RandomSource(seed=seed)
    kind = make_kind(kind_spec, 16)
    codec = kind.codec(16)
    sample = SampleFile(SimulatedBlockDevice(cost, "sample"), codec, 16)
    sample.initialize(kind.build_initial(list(range(40)), rng))
    maintainer = SampleMaintainer(
        sample, rng, strategy=strategy, initial_dataset_size=kind.seen,
        log=LogFile(SimulatedBlockDevice(cost, "log"), codec),
        algorithm=ArrayRefresh(), cost_model=cost, kind=kind,
    )
    maintainer.insert_many(range(40, 40 + inserts))
    return maintainer.checkpoint_state()


CHECKPOINT = st.builds(
    _checkpoint,
    kind_and_strategy=st.sampled_from(
        [
            ("uniform", "candidate"),
            ("uniform", "immediate"),
            ("uniform", "full"),
            ("weighted", "candidate"),
            ("weighted:5", "candidate"),
            ("window", "candidate"),
        ]
    ),
    seed=st.integers(0, 2**32 - 1),
    inserts=st.integers(0, 200),
)


def _decodes_identically_or_refuses(data, checkpoint):
    try:
        decoded = MaintenanceCheckpoint.from_bytes(data)
    except CheckpointError:
        return
    assert decoded == checkpoint


@settings(max_examples=150, deadline=None)
@given(checkpoint=CHECKPOINT, cut=st.integers(0, 4096))
def test_truncated_checkpoint_refused_or_identical(checkpoint, cut):
    _decodes_identically_or_refuses(checkpoint.to_bytes()[:cut], checkpoint)


@settings(max_examples=300, deadline=None)
@given(
    checkpoint=CHECKPOINT,
    # the CRC-covered payload is the first ~2.6 KB of the 4 KB block
    offset=st.one_of(st.integers(0, 2600), st.integers(0, 4095)),
    mask=st.integers(1, 255),
)
def test_flipped_checkpoint_refused_or_identical(checkpoint, offset, mask):
    data = bytearray(checkpoint.to_bytes())
    data[offset] ^= mask
    _decodes_identically_or_refuses(bytes(data), checkpoint)
    # With the CRC recomputed the flip reaches the field checks, which
    # must refuse with CheckpointError too, never another exception.
    try:
        decoded = MaintenanceCheckpoint.from_bytes(reseal(bytes(data)))
    except CheckpointError:
        return
    assert isinstance(decoded, MaintenanceCheckpoint)
