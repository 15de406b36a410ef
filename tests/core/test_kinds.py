"""Sample kinds: registry, acceptance/replay semantics, plausibility.

The end-to-end deferred-vs-eager bit-identity lives in
``tests/properties/test_prop_kinds.py``; this module pins the unit-level
contracts every kind must honour -- spec parsing, the one-draw-per-record
discipline, per-kind plausibility (including the negative cases), the
manifest round-trip -- and checks the eager oracle that property test
uses (``tests/properties/kind_oracle.py``).
"""

import ast
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import kinds
from repro.core.kinds import (
    DEFAULT_WEIGHT_MOD,
    KINDS,
    KindCandidateLogger,
    UniformKind,
    WeightedKind,
    WindowKind,
    make_kind,
)
from repro.core.logs import CandidateLogger
from repro.core.maintenance import SampleMaintainer
from repro.core.policies import ManualPolicy
from repro.core.refresh.array import ArrayRefresh
from repro.core.refresh.naive import NaiveCandidateRefresh
from repro.core.reservoir import sample_is_plausible
from repro.rng.random_source import RandomSource
from repro.storage import superblock
from repro.storage.block_device import SimulatedBlockDevice
from repro.storage.cost_model import CostModel
from repro.storage.files import LogFile, SampleFile
from tests.properties import kind_oracle


class TestRegistry:
    def test_parse_rejects_unknown_and_bad_params(self):
        with pytest.raises(ValueError, match="unknown sample kind"):
            make_kind("mystery", 16)
        with pytest.raises(ValueError, match="unknown sample kind 'stratified'"):
            make_kind("stratified", 16)
        with pytest.raises(ValueError, match="takes no parameter"):
            make_kind("window:8", 16)
        with pytest.raises(ValueError, match="takes no parameter"):
            make_kind("uniform:1", 16)
        for spec in ("weighted:0", "weighted:-1", f"weighted:{2**63}"):
            with pytest.raises(ValueError, match=f"bad sample kind spec '{spec}'"):
                make_kind(spec, 16)

    def test_make_kind_builds_and_canonicalises(self):
        assert isinstance(make_kind("uniform", 16), UniformKind)
        weighted = make_kind("weighted", 16)
        assert isinstance(weighted, WeightedKind)
        assert weighted.weight_mod == DEFAULT_WEIGHT_MOD
        assert weighted.spec() == "weighted"
        custom = make_kind("weighted:5", 16)
        assert custom.weight_mod == 5
        assert custom.spec() == "weighted:5"
        window = make_kind("window", 16)
        assert isinstance(window, WindowKind)
        assert window.spec() == "window"

    def test_manifest_kind_table_mirrors_registry(self):
        """The storage layer keeps its own copy of the kind index table
        (it must not import core/); any drift corrupts manifests."""
        assert superblock._KINDS == KINDS

    def test_capacity_validation(self):
        for spec in ("uniform", "weighted", "window"):
            with pytest.raises(ValueError):
                make_kind(spec, 0)
        with pytest.raises(ValueError):
            WeightedKind(8, weight_mod=0)


class TestWeightedKind:
    def test_one_draw_per_record(self):
        kind = WeightedKind(4, weight_mod=5)
        rng = RandomSource(seed=3)
        mirror = RandomSource(seed=3)
        # Before the initial build the threshold is +inf: the record logs.
        _, records = kind.offer_many((42,), rng)
        [(value, key)] = records.tolist()
        u = mirror.random()
        assert value == 42
        assert key == -math.log(1.0 - u) / kind.weight(42)
        assert kind.seen == 1
        assert rng.snapshot() == mirror.snapshot()

    def test_weights_cycle_by_mod(self):
        kind = WeightedKind(4, weight_mod=5)
        assert [kind.weight(v) for v in range(6)] == [1, 2, 3, 4, 5, 1]

    def test_build_initial_sets_finite_threshold(self):
        kind = WeightedKind(8)
        rows = kind.build_initial(list(range(40)), RandomSource(seed=1))
        assert len(rows) == 8
        assert kind.seen == 40
        assert math.isfinite(kind.threshold)
        assert kind.threshold == max(key for _, key in rows)

    def test_build_initial_rejects_small_dataset(self):
        with pytest.raises(ValueError):
            WeightedKind(8).build_initial(list(range(7)), RandomSource(seed=1))

    def test_accept_compares_against_stale_threshold(self):
        kind = WeightedKind(4, weight_mod=1)  # every weight is 1
        uniforms = [0.1, 0.5, 0.9, 0.5]
        keys = [-math.log(1.0 - u) for u in uniforms]
        # Before any refresh the threshold is +inf: everything logs.
        consumed, records = kind.offer_many([1, 2, 3, 4], ListUniforms(uniforms))
        assert consumed == 4
        assert records.tolist() == list(zip([1, 2, 3, 4], keys))
        # Only keys strictly below the stale threshold log.
        kind.restore_state(
            _checkpoint(kind_name="weighted", kind_param=1, kind_threshold=keys[1])
        )
        consumed, records = kind.offer_many([1, 2, 3, 4], ListUniforms(uniforms))
        assert consumed == 4
        assert records.tolist() == [(1, keys[0])]
        assert kind.seen == 40 + 4

    def test_victim_is_argmax_with_deterministic_ties(self):
        kind = WeightedKind(3)
        dtype = kind.codec(16).dtype
        replay = kind.begin_replay(np.array([(0, 0.5), (1, 2.0), (2, 1.0)], dtype))
        assert replay.max_key == 2.0
        # A smaller key displaces the arg-max slot; an equal or larger
        # key is rejected without touching the sample.
        log = np.array([(9, 0.25), (8, 1.0), (7, 3.0)], dtype)
        assert replay.apply(log).tolist() == [1, -1, -1]
        assert replay.max_key == 1.0
        # Tied largest keys: the lower slot goes first.
        replay = kind.begin_replay(np.array([(0, 2.0), (1, 1.0), (2, 2.0)], dtype))
        log = np.array([(9, 0.5), (8, 0.5), (7, 0.5)], dtype)
        assert replay.apply(log).tolist() == [0, 2, 1]
        assert replay.max_key == 0.5

    @given(
        keys=st.lists(st.sampled_from([0.25, 0.5, 1.0, 2.0]), min_size=1, max_size=20),
        log=st.lists(st.sampled_from([0.125, 0.25, 0.5, 1.0, 2.0]), max_size=30),
    )
    @settings(max_examples=200, deadline=None)
    def test_replay_matches_oracle_rule_under_ties(self, keys, log):
        # The replay over the on-disk sample builds its heap from the key
        # column; with many tied keys its victims and threshold must
        # still follow the oracle's rule: the largest key, lowest slot.
        kind = WeightedKind(len(keys))
        codec = kind.codec(32)
        sample = SampleFile(SimulatedBlockDevice(CostModel(), "sample"), codec, len(keys))
        sample.initialize(list(enumerate(keys)))
        records = np.array([(100 + i, key) for i, key in enumerate(log)], dtype=codec.dtype)
        replay = kind.begin_replay(sample.scan_records())
        steps = replay.apply(records).tolist()
        live, expected = list(keys), []
        for key in log:
            slot = kind_oracle.victim(live, key)
            if slot is not None:
                live[slot] = key
            expected.append(-1 if slot is None else slot)
        assert steps == expected
        assert replay.max_key == max(live)

    def test_restore_state_rejects_mod_mismatch(self):
        checkpoint = _checkpoint(kind_name="weighted", kind_param=7, kind_threshold=0.5)
        with pytest.raises(ValueError, match="weight_mod"):
            WeightedKind(8, weight_mod=16).restore_state(checkpoint)
        restored = WeightedKind(8, weight_mod=7)
        restored.restore_state(checkpoint)
        assert restored.seen == checkpoint.dataset_size
        assert restored.threshold == 0.5


class ListUniforms:
    """The uniforms a kind draws, served from a list: ``random`` one at a
    time, ``random_array`` in windows of at most ``window``, and
    ``give_back`` -- the random-source surface of an offer."""

    def __init__(self, uniforms, window=5):
        self._uniforms = list(uniforms)
        self._window = window
        self.at = 0

    def random(self):
        self.at += 1
        return self._uniforms[self.at - 1]

    def random_array(self, count):
        start = self.at
        self.at += min(count, self._window)
        return np.array(self._uniforms[start : self.at])

    def give_back(self, count):
        self.at -= count


def libm_keys(u, w):
    """The A-ES keys of uniforms ``u`` at weight ``w``, one ``math.log`` each."""
    return np.array([-math.log(1.0 - x) / w for x in u.tolist()])


def ulp_sweep(u0, width):
    """Uniforms ``width`` steps either side of ``u0``, stepping by the
    coarser of the ULPs of ``u`` and ``1 - u`` so that ``1 - u`` moves."""
    step = max(np.spacing(u0), np.spacing(1.0 - u0))
    u = u0 + np.arange(-width, width + 1) * step
    return u[(u >= 0) & (u < 1)]


def key_boundary_sweep(mod, width=6, per_weight=3):
    """``(weight, threshold, uniforms)`` cases a few ULPs around a key.

    First the crafted cases: uniforms where numpy's key ``-log(1-u)/w``
    exceeds libm's by more than one ULP (numpy's log differs from libm's
    in the last bit on some builds, mostly for small ``u``), with the
    threshold strictly between the two -- libm accepts the row, and only
    the screen's band keeps numpy from rejecting it.  Then a grid: the
    uniform whose key is ``t``, with ``t`` as the threshold.
    """
    probe = np.random.default_rng(0).random(20_000) * 0.2
    for w in range(1, mod + 1):
        exact = libm_keys(probe, w)
        between = np.nextafter(exact, np.inf)
        crafted = np.flatnonzero(between < -np.log(1.0 - probe) / w)
        for index in crafted[:per_weight].tolist():
            yield w, float(between[index]), ulp_sweep(float(probe[index]), width)
    for t in np.geomspace(1e-6, 8.0, 40).tolist():
        for w in range(1, mod + 1):
            yield w, t, ulp_sweep(-math.expm1(-t * w), width)


class TestWeightedKeyScreen:
    """Batched weighted offers screen keys with numpy logs and recompute
    the rows near the threshold with libm: the same records as keys taken
    one ``math.log`` at a time, even where numpy's log differs in its
    last bits."""

    @pytest.mark.parametrize("quota", [None, 1, 3])
    def test_batch_offers_equal_scalar_offers_at_the_threshold(self, quota):
        mod = 16
        straddled = 0
        for w, threshold, uniforms in key_boundary_sweep(mod):
            batch = [w - 1 + mod * i for i in range(len(uniforms))]  # weight w
            state = _checkpoint(kind_name="weighted", kind_param=mod, kind_threshold=threshold)
            kind = WeightedKind(8, mod)
            kind.restore_state(state)
            stream = ListUniforms(uniforms.tolist())
            expected, drawn = [], 0
            for element, key in zip(batch, libm_keys(uniforms, w).tolist()):
                drawn += 1
                if key < threshold:
                    expected.append((element, key))
                    if quota is not None and len(expected) >= quota:
                        break
            consumed, records = kind.offer_many(batch, stream, quota)
            assert records.tolist() == expected, (w, threshold)
            assert consumed == stream.at == drawn
            assert kind.seen == state.dataset_size + drawn
            straddled += 0 < len(expected) < len(batch)
        # The sweeps cross the threshold: rows land on both sides of it.
        assert straddled > 0


class TestWindowKind:
    def test_draw_is_deterministic_and_rng_free(self):
        kind = WindowKind(4)
        rng = RandomSource(seed=5)
        before = rng.snapshot()
        rows = [kind.offer_many((v,), rng)[1].tolist() for v in (7, 8, 9)]
        assert rows == [[(7, 0)], [(8, 1)], [(9, 2)]]
        assert rng.snapshot() == before
        assert kind.seen == 3

    def test_build_initial_keeps_last_window(self):
        kind = WindowKind(4)
        rows = kind.build_initial(list(range(10)), RandomSource(seed=1))
        # Values 6..9 survive, each in slot seq mod 4.
        assert rows == [(8, 8), (9, 9), (6, 6), (7, 7)]

    def test_replay_start_skips_expired_prefix(self):
        kind = WindowKind(4)
        assert kind.replay_start(3) == 0
        assert kind.replay_start(4) == 0
        assert kind.replay_start(100) == 96

    def test_staleness_caps_at_window(self):
        kind = WindowKind(10)
        assert kind.effective_staleness(3) == 3
        assert kind.effective_staleness(10_000) == 10
        assert kind.expired_fraction(5) == 0.5
        assert kind.expired_fraction(10_000) == 1.0

    def test_population_caps_at_window(self):
        kind = WindowKind(4)
        kind.build_initial(list(range(10)), RandomSource(seed=1))
        assert kind.population() == 4

    @pytest.mark.parametrize("algorithm", [ArrayRefresh, NaiveCandidateRefresh])
    def test_refresh_refuses_log_tail_out_of_sequence(self, algorithm):
        # The columnar replay relies on the tail's sequence numbers rising
        # strictly; a log block with a repeated one is refused with a
        # typed error before any sample write.
        maintainer = _maintainer(WindowKind(8), 8, RandomSource(seed=3), algorithm())
        sample, log, codec = maintainer.sample, maintainer.log, maintainer.kind.codec(32)
        maintainer.insert_many(range(100, 106))  # sequences 8..13
        log.flush()
        image = bytearray(log.device.peek_block(0))
        size, seq = codec.record_size, codec.dtype.fields["f1"][1]
        image[3 * size + seq : 3 * size + seq + 8] = image[2 * size + seq : 2 * size + seq + 8]
        log.device.poke_block(0, bytes(image))
        before = [sample.device.peek_block(b) for b in range(sample.block_count)]
        with pytest.raises(ValueError, match="sequence numbers must strictly increase"):
            maintainer.refresh()
        assert [sample.device.peek_block(b) for b in range(sample.block_count)] == before

    def test_restore_state_rejects_capacity_mismatch(self):
        checkpoint = _checkpoint(kind_name="window", kind_param=8)
        with pytest.raises(ValueError, match="window"):
            WindowKind(4).restore_state(checkpoint)
        restored = WindowKind(8)
        restored.restore_state(checkpoint)
        assert restored.seen == checkpoint.dataset_size


LOGGER_KINDS = ("uniform", "weighted", "window")


class TestKindCandidateLogger:
    """The one candidate logger, driven by every kind's acceptance test."""

    def _logger(self, kind):
        log = LogFile(SimulatedBlockDevice(CostModel(), "log"), kind.codec(16))
        return CandidateLogger(log, kind, RandomSource(seed=11))

    def _built(self, spec):
        kind = make_kind(spec, 4)
        kind.build_initial(list(range(8)), RandomSource(seed=1))
        return kind

    def test_requires_full_sample(self):
        assert KindCandidateLogger is CandidateLogger
        for kind in (UniformKind(8), WeightedKind(8), WindowKind(8)):
            # seen == 0 < capacity: no initial sample yet
            log = LogFile(SimulatedBlockDevice(CostModel(), "log"), kind.codec(16))
            with pytest.raises(ValueError, match="existing full sample"):
                CandidateLogger(log, kind, RandomSource(seed=11))

    def test_window_logs_everything(self):
        kind = WindowKind(4)
        kind.build_initial(list(range(8)), RandomSource(seed=1))
        logger = self._logger(kind)
        assert logger.insert(100) is True
        consumed, accepted = logger.insert_many([101, 102, 103])
        assert (consumed, accepted) == (3, 3)
        assert logger.log.peek_all() == [(100, 8), (101, 9), (102, 10), (103, 11)]
        assert logger.dataset_size == 12
        assert logger.pending_accept is None

    def test_insert_many_stops_right_after_quota(self):
        for spec in LOGGER_KINDS:
            batch, scalar = self._built(spec), self._built(spec)
            batch_logger, scalar_logger = self._logger(batch), self._logger(scalar)
            consumed, accepted = batch_logger.insert_many(
                iter(range(100, 300)), max_accepts=3
            )
            assert accepted == 3, spec
            # The scalar twin reaches its third acceptance at the same
            # element, with the same draws and the same log records.
            hits = 0
            for index, element in enumerate(range(100, 300)):
                hits += scalar_logger.insert(element)
                if hits == 3:
                    break
            assert consumed == index + 1, spec
            assert batch_logger.log.peek_all() == scalar_logger.log.peek_all()
            assert batch.seen == scalar.seen == 8 + consumed
            assert batch_logger.pending_accept == scalar_logger.pending_accept
        window = self._built("window")
        consumed, accepted = self._logger(window).insert_many(
            iter(range(100, 110)), max_accepts=3
        )
        # Every window record accepts, so the quota lands on element 3.
        assert (consumed, accepted) == (3, 3)
        assert window.seen == 11

    def test_after_refresh_truncates(self):
        for spec in LOGGER_KINDS:
            batch, scalar = self._built(spec), self._built(spec)
            logger, scalar_logger = self._logger(batch), self._logger(scalar)
            consumed, accepted = logger.insert_many(iter(range(100, 140)))
            for element in range(100, 140):
                scalar_logger.insert(element)
            assert consumed == 40
            assert logger.log.peek_all() == scalar_logger.log.peek_all()
            assert len(logger.log) == accepted > 0
            assert logger.source().count() == accepted
            logger.after_refresh()
            assert len(logger.log) == 0


class TestPlausibility:
    """Satellite (b): per-kind plausibility, negatives included."""

    def test_shape_negatives_for_every_kind(self):
        for kind in (UniformKind(4), WeightedKind(4), WindowKind(4)):
            # Over-capacity sample: more rows than the file can hold.
            assert not sample_is_plausible([_row(kind, i) for i in range(5)], 4, 100, kind=kind)
            # Fewer elements seen than the sample holds.
            assert not sample_is_plausible([_row(kind, i) for i in range(4)], 4, 3, kind=kind)
            assert not sample_is_plausible([], 0, 10, kind=kind)
            assert not sample_is_plausible([], 4, -1, kind=kind)

    def test_uniform_rows_must_be_ints(self):
        kind = UniformKind(4)
        assert sample_is_plausible([1, 2, 3, 4], 4, 100, kind=kind)
        assert not sample_is_plausible([1, 2, (3, 0.5), 4], 4, 100, kind=kind)

    def test_weighted_rows_checked_against_threshold(self):
        kind = WeightedKind(4)
        rows = kind.build_initial(list(range(30)), RandomSource(seed=4))
        assert sample_is_plausible(rows, 4, kind.seen, kind=kind)
        # A key above the stale threshold could never have been accepted.
        bad = list(rows)
        bad[0] = (bad[0][0], kind.threshold * 2)
        assert not sample_is_plausible(bad, 4, kind.seen, kind=kind)
        for poison in (-0.5, math.inf, math.nan):
            bad[0] = (bad[0][0], poison)
            assert not sample_is_plausible(bad, 4, kind.seen, kind=kind)

    def test_window_rows_checked_against_slots_and_seen(self):
        kind = WindowKind(4)
        rows = kind.build_initial(list(range(10)), RandomSource(seed=4))
        assert sample_is_plausible(rows, 4, kind.seen, kind=kind)
        wrong_slot = list(rows)
        wrong_slot[0], wrong_slot[1] = wrong_slot[1], wrong_slot[0]
        assert not sample_is_plausible(wrong_slot, 4, kind.seen, kind=kind)
        future = list(rows)
        future[0] = (99, 12)  # sequence the stream has not reached
        assert not sample_is_plausible(future, 4, kind.seen, kind=kind)
        assert not sample_is_plausible([None] * 4, 4, kind.seen, kind=kind)


class TestManifestRoundTrip:
    def test_kind_fields_survive_serialisation(self):
        for kind_name, param, threshold in (
            ("uniform", 0, 0.0),
            ("weighted", 16, 0.0312519),
            ("weighted", 5, math.inf),
            ("window", 8, 0.0),
        ):
            checkpoint = _checkpoint(
                kind_name=kind_name, kind_param=param, kind_threshold=threshold
            )
            assert (
                superblock.MaintenanceCheckpoint.from_bytes(checkpoint.to_bytes())
                == checkpoint
            )

    def test_unknown_kind_name_rejected(self):
        with pytest.raises(ValueError, match="unknown sample kind"):
            _checkpoint(kind_name="mystery")


class TestScalarOutOfRange:
    """A scalar insert is a one-row batch, so it refuses what a batch
    refuses -- before the kind counts, draws or logs it."""

    @pytest.mark.parametrize("value", [2**63, -(2**63) - 1, 2.5])
    @pytest.mark.parametrize("spec", ["weighted", "window"])
    def test_insert_refused_and_sample_still_refreshes(self, spec, value):
        rng = RandomSource(seed=5)
        maintainer = _maintainer(make_kind(spec, 8), 64, rng, ArrayRefresh())
        maintainer.insert(7)
        kind = maintainer.kind

        def state():
            return kind.seen, maintainer.pending_log_elements, rng.snapshot()

        before = state()
        with pytest.raises(ValueError, match="int64"):
            maintainer.insert(value)
        assert state() == before
        maintainer.refresh()
        assert maintainer.pending_log_elements == 0


class TestKindOracle:
    """The eager oracle of ``test_prop_kinds.py``, checked by hand."""

    def test_window_keeps_last_values_in_their_slots(self):
        rows, seen, threshold = kind_oracle.eager(
            "window", 4, list(range(8)) + list(range(100, 107)), None
        )
        assert rows == [(104, 12), (105, 13), (106, 14), (103, 11)]
        assert (seen, threshold) == (15, None)

    def test_weighted_evicts_largest_key_lowest_slot(self):
        uniforms = [0.5, 0.5, 0.25, 0.75]
        keys = [-math.log(1.0 - u) for u in uniforms]
        rng = ListUniforms(uniforms)
        rows, seen, threshold = kind_oracle.eager("weighted:1", 2, [1, 2, 3, 4], rng)
        # Keys 1 and 2 tie; 3's smaller key evicts the lower slot, and
        # 4's larger key is rejected.
        assert rows == [(3, keys[2]), (2, keys[1])]
        assert (seen, threshold, rng.at) == (4, keys[1], 4)

    def test_weighted_key_divides_by_the_weight(self):
        rng = ListUniforms([0.5, 0.5])
        rows, _, _ = kind_oracle.eager("weighted", 2, [3, 16 + 3], rng)
        assert rows == [(3, -math.log(0.5) / 4), (19, -math.log(0.5) / 4)]

    def test_imports_only_math(self):
        """The oracle must not share code with what it checks: its only
        import is ``math``."""
        tree = ast.parse(Path(kind_oracle.__file__).read_text())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                imported.add("." * node.level + (node.module or ""))
            elif isinstance(node, ast.Name) and node.id == "__import__":
                imported.add(node.id)
        assert imported == {"math"}


def _row(kind, index):
    if kind.name == "uniform":
        return index
    if kind.name == "weighted":
        return (index, 0.1 * (index + 1))
    return (index, index)


def _maintainer(kind, initial, rng, algorithm):
    """A kind's sample of ``initial`` rows under candidate maintenance."""
    cost = CostModel()
    codec = kind.codec(32)
    sample = SampleFile(SimulatedBlockDevice(cost, "sample"), codec, kind.capacity)
    sample.initialize(kind.build_initial(list(range(initial)), rng))
    return SampleMaintainer(
        sample, rng, strategy="candidate", initial_dataset_size=kind.seen,
        log=LogFile(SimulatedBlockDevice(cost, "log"), codec), algorithm=algorithm,
        policy=ManualPolicy(), cost_model=cost, kind=kind,
    )


def _checkpoint(**kind_fields):
    rng = RandomSource(seed=21)
    state, w = rng.snapshot()
    return superblock.MaintenanceCheckpoint(
        strategy="candidate",
        sample_size=8,
        dataset_size=40,
        dataset_size_at_refresh=32,
        log_count=3,
        inserts=8,
        refreshes=1,
        pending_accept=None,
        ops_since_refresh=4,
        rng_seed=rng.seed,
        rng_spawn_count=0,
        rng_state=state,
        rng_w=w,
        **kind_fields,
    )
