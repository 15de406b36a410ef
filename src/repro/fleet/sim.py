"""One-call fleet simulation: config, engine dispatch, canonical report.

``run_fleet_simulation(FleetConfig(...))`` is the fleet analogue of
:func:`repro.serve.sim.run_simulation`: one frozen config in, one
canonical byte-stable report out.  Two engines sit behind it:

* **full** (:class:`~repro.fleet.router.FleetRouter`) -- real per-shard
  catalogs and deterministic schedulers; every sub-query actually runs.
  This is the engine the 1-shard-invisibility property pins against
  ``serve-sim``, and the default at small scale.
* **model** (:mod:`repro.fleet.model`) -- a vectorised queueing model
  (numpy pre-draws + exact per-shard busy-server recursions) that scales
  the same placement, quota and straggler semantics to tens of shards,
  10k+ samples and millions of simulated queries in seconds.

``engine="auto"`` picks **full** while the event volume is small enough
to execute for real and **model** beyond that, so one CLI covers both
the property-test regime and the fleet-scale sweep.  Reports always
carry an ``engine`` field -- the two engines' numbers are *not*
comparable to each other, only runs of the same engine are.

The ``FleetConfig`` deliberately embeds a verbatim copy of every
:class:`~repro.serve.sim.SimConfig` knob (``serve_config()`` returns the
mirrored value): the base single-sample workload and per-sample seeds
are shared bit-for-bit with ``serve-sim``, which is what makes the N=1
fleet invisible.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.serve.sim import SimConfig

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.api import Instrumentation

__all__ = ["FleetConfig", "FleetReport", "run_fleet_simulation", "ENGINES"]

ENGINES = ("auto", "full", "model")

#: ``engine="auto"`` runs the full engine up to this many workload
#: events (base + fan-out) and this many samples; beyond either bound it
#: switches to the vectorised model.
AUTO_FULL_MAX_EVENTS = 5_000
AUTO_FULL_MAX_SAMPLES = 512


@dataclass(frozen=True)
class FleetConfig:
    """Everything a fleet simulation depends on, in one value.

    The first block mirrors :class:`~repro.serve.sim.SimConfig` field for
    field; the second block is fleet-only.  ``seed`` feeds the same two
    serve streams (per-sample, ``workload``) plus fleet-owned children
    (``fanout``, ``model``) -- all decorrelated by spawn label.
    """

    # -- serve-mirrored knobs (see SimConfig for semantics) ----------------
    seed: int = 0
    samples: int = 8
    sample_size: int = 256
    initial_dataset_size: int | None = None
    algorithm: str = "stack"
    events: int = 200
    mean_gap_seconds: float = 0.05
    ingest_fraction: float = 0.5
    batch_range: tuple[int, int] = (64, 512)
    staleness_bound: int = 256
    policy: str = "longest-log:64"
    max_queue_depth: int | None = None
    max_wait_seconds: float | None = None
    overload_action: str = "shed"
    confidence: float = 0.95
    pool_capacity: int = 0
    pool_readahead: int = 8
    slos: tuple[str, ...] = ()
    timeseries_interval: float = 0.0
    replica: bool = False
    replica_lag_budget: float = 0.0
    #: per-sample kind specs, round-robin over the *global* sample index
    #: (placement-independent, so a sample keeps its kind wherever the
    #: ring puts it); () = all uniform.  Kinds require the full engine.
    kinds: tuple[str, ...] = ()

    # -- fleet-only knobs --------------------------------------------------
    #: shard count; shard names are "shard00", "shard01", ...
    shards: int = 4
    #: virtual nodes per shard on the placement ring
    vnodes: int = 64
    #: tenant count; a sample's tenant is its index modulo this
    tenants: int = 4
    #: front-door quota specs, ``tenant:kind:rate:burst`` (tenant ``*``
    #: declares a per-tenant default); empty = no quota gate
    quotas: tuple[str, ...] = ()
    #: cross-shard fan-out queries (0 = none; base workload untouched)
    fanout_queries: int = 0
    fanout_mean_gap_seconds: float = 0.2
    #: samples per fan-out query, uniform in this range (clipped to catalog)
    fanout_width: tuple[int, int] = (2, 8)
    #: hedged re-read accounting: a sub-query slower than multiplier x the
    #: query's median sub-latency is counted hedged and its latency capped
    #: analytically (0 = off; never perturbs shard schedules)
    hedge_multiplier: float = 0.0
    #: "auto" | "full" | "model" (see module docstring)
    engine: str = "auto"
    #: model-engine service-time means, cost seconds per op (the model
    #: draws exponential service times; the full engine measures real ones)
    model_read_service_seconds: float = 0.004
    model_ingest_service_seconds: float = 0.012

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ValueError("shards must be at least 1")
        if self.samples < 1:
            raise ValueError("samples must be at least 1")
        if self.tenants < 1:
            raise ValueError("tenants must be at least 1")
        if self.fanout_queries < 0:
            raise ValueError("fanout_queries must be non-negative")
        if self.hedge_multiplier < 0:
            raise ValueError("hedge_multiplier must be non-negative")
        if self.engine not in ENGINES:
            raise ValueError(f"engine must be one of {ENGINES}, got {self.engine!r}")
        if self.engine == "model" and self.has_non_uniform_kinds():
            raise ValueError(
                "non-uniform sample kinds require the full engine "
                "(the vectorised model only models uniform reservoirs)"
            )

    def sample_names(self) -> list[str]:
        # Identical format to SimConfig.sample_names -- shared names are
        # part of the bit-identity contract with serve-sim.
        return [f"s{index:02d}" for index in range(self.samples)]

    def shard_names(self) -> list[str]:
        return [f"shard{index:02d}" for index in range(self.shards)]

    def tenant_names(self) -> list[str]:
        return [f"tenant{index:02d}" for index in range(self.tenants)]

    @property
    def run_id(self) -> str:
        return f"{self.seed:08x}"

    def serve_config(self) -> SimConfig:
        """The serve-sim config this fleet config embeds, verbatim."""
        return SimConfig(
            seed=self.seed,
            samples=self.samples,
            sample_size=self.sample_size,
            initial_dataset_size=self.initial_dataset_size,
            algorithm=self.algorithm,
            events=self.events,
            mean_gap_seconds=self.mean_gap_seconds,
            ingest_fraction=self.ingest_fraction,
            batch_range=self.batch_range,
            staleness_bound=self.staleness_bound,
            policy=self.policy,
            max_queue_depth=self.max_queue_depth,
            max_wait_seconds=self.max_wait_seconds,
            overload_action=self.overload_action,
            confidence=self.confidence,
            pool_capacity=self.pool_capacity,
            pool_readahead=self.pool_readahead,
            slos=self.slos,
            timeseries_interval=self.timeseries_interval,
            replica=self.replica,
            replica_lag_budget=self.replica_lag_budget,
            kinds=self.kinds,
        )

    def kind_for(self, index: int) -> str:
        """The kind spec of the index-th sample (global round-robin)."""
        if not self.kinds:
            return "uniform"
        return self.kinds[index % len(self.kinds)]

    def has_non_uniform_kinds(self) -> bool:
        return any(k.partition(":")[0] != "uniform" for k in self.kinds)

    def resolve_engine(self) -> str:
        if self.engine != "auto":
            return self.engine
        if self.has_non_uniform_kinds():
            # The model engine has no kind semantics; kinds pin "auto"
            # to the full engine regardless of scale.
            return "full"
        if (
            self.events + self.fanout_queries <= AUTO_FULL_MAX_EVENTS
            and self.samples <= AUTO_FULL_MAX_SAMPLES
        ):
            return "full"
        return "model"


@dataclass
class FleetReport:
    """Canonical outcome of one fleet run; ``to_json`` is byte-stable."""

    engine: str
    config: dict
    ring: dict
    quota: dict
    fanout: dict
    fleet: dict
    shards: dict = field(default_factory=dict)

    def to_dict(self, include_trace: bool = True) -> dict:
        shards = self.shards
        if not include_trace:
            shards = {
                name: {k: v for k, v in report.items() if k != "trace"}
                for name, report in shards.items()
            }
        return {
            "engine": self.engine,
            "config": dict(self.config),
            "ring": dict(self.ring),
            "quota": dict(self.quota),
            "fanout": dict(self.fanout),
            "fleet": dict(self.fleet),
            "shards": shards,
        }

    def to_json(self, include_trace: bool = True, indent: int = 2) -> str:
        return json.dumps(
            self.to_dict(include_trace=include_trace),
            sort_keys=True,
            indent=indent,
        )


def _config_echo(config: FleetConfig, engine: str) -> dict:
    echo = {
        "seed": config.seed,
        "shards": config.shards,
        "samples": config.samples,
        "tenants": config.tenants,
        "events": config.events,
        "fanout_queries": config.fanout_queries,
        "vnodes": config.vnodes,
        "algorithm": config.algorithm,
        "policy": config.policy,
        "hedge_multiplier": config.hedge_multiplier,
        "engine": engine,
    }
    if config.kinds:
        # Only echoed when configured, so kind-less reports keep their
        # pre-kind bytes.
        echo["kinds"] = list(config.kinds)
    return echo


def run_fleet_simulation(
    config: FleetConfig,
    instrumentation: "Instrumentation | None" = None,
    include_trace: bool = True,
) -> FleetReport:
    """Run one fleet simulation to completion under the resolved engine."""
    engine = config.resolve_engine()
    if engine == "full":
        from repro.fleet.router import FleetRouter

        sections = FleetRouter(config, instrumentation=instrumentation).run(
            include_trace=include_trace
        )
    else:
        from repro.fleet.model import run_model_simulation

        sections = run_model_simulation(config, instrumentation=instrumentation)
    return FleetReport(
        engine=engine,
        config=_config_echo(config, engine),
        ring=sections["ring"],
        quota=sections["quota"],
        fanout=sections["fanout"],
        fleet=sections["fleet"],
        shards=sections["shards"],
    )
