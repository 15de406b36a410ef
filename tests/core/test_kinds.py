"""Sample kinds: registry, acceptance/replay semantics, plausibility.

The end-to-end deferred-vs-eager bit-identity lives in
``tests/properties/test_prop_kinds.py``; this module pins the unit-level
contracts every kind must honour -- spec parsing, the one-draw-per-record
discipline, per-kind plausibility (including the negative cases), the
manifest round-trip.
"""

import math

import pytest

from repro.core import kinds
from repro.core.kinds import (
    DEFAULT_WEIGHT_MOD,
    KINDS,
    KindCandidateLogger,
    UniformKind,
    WeightedKind,
    WindowKind,
    eager_oracle,
    make_kind,
)
from repro.core.logs import CandidateLogger
from repro.core.reservoir import sample_is_plausible
from repro.rng.random_source import RandomSource
from repro.storage import superblock
from repro.storage.block_device import SimulatedBlockDevice
from repro.storage.cost_model import CostModel
from repro.storage.files import LogFile


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
        for spec in ("weighted:0", "weighted:-1"):
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
        value, key = kind.draw(42, rng)
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
        kind = WeightedKind(4)
        # Before any refresh the threshold is +inf: everything logs.
        assert kind.accept((1, 1e12))
        kind.build_initial(list(range(16)), RandomSource(seed=2))
        assert kind.accept((1, kind.threshold / 2))
        assert not kind.accept((1, kind.threshold))
        assert not kind.accept((1, kind.threshold * 2))

    def test_victim_is_argmax_with_deterministic_ties(self):
        kind = WeightedKind(3)
        rows = [(0, 0.5), (1, 2.0), (2, 1.0)]
        replay = kind.begin_replay(rows)
        assert replay.max_key == 2.0
        # A smaller key displaces the arg-max slot; an equal or larger
        # key is rejected without touching the sample.
        assert replay.step((9, 0.25)) == 1
        assert rows[1] == (9, 0.25)
        assert replay.step((8, 1.0)) is None
        assert replay.max_key == 1.0

    def test_restore_state_rejects_mod_mismatch(self):
        checkpoint = _checkpoint(kind_name="weighted", kind_param=7, kind_threshold=0.5)
        with pytest.raises(ValueError, match="weight_mod"):
            WeightedKind(8, weight_mod=16).restore_state(checkpoint)
        restored = WeightedKind(8, weight_mod=7)
        restored.restore_state(checkpoint)
        assert restored.seen == checkpoint.dataset_size
        assert restored.threshold == 0.5


class TestWindowKind:
    def test_draw_is_deterministic_and_rng_free(self):
        kind = WindowKind(4)
        rng = RandomSource(seed=5)
        before = rng.snapshot()
        assert [kind.draw(v, rng) for v in (7, 8, 9)] == [(7, 0), (8, 1), (9, 2)]
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


class TestEagerOracle:
    def test_oracle_matches_pure_eager_window(self):
        """The oracle on a window stream is just 'last W values'."""
        kind = WindowKind(4)
        rows = eager_oracle(
            kind, list(range(8)), list(range(100, 107)), RandomSource(seed=6)
        )
        assert rows == [(104, 12), (105, 13), (106, 14), (103, 11)]
        assert kind.seen == 15


def _row(kind, index):
    if kind.name == "uniform":
        return index
    if kind.name == "weighted":
        return (index, 0.1 * (index + 1))
    return (index, index)


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
