"""Extension experiments beyond the paper's evaluation.

Two additions the paper's claims invite but its evaluation does not show:

* ``extra-accuracy`` -- estimator accuracy over many refresh cycles.  The
  correctness claim behind all of Sec. 4 is that deferred refresh leaves
  the sample *uniform*; if it silently biased the sample, estimate error
  would drift as refreshes accumulate.  This experiment maintains a
  sample across many refresh windows and tracks the relative error of the
  sample-mean estimator after each refresh: it should fluctuate around
  the theoretical sampling error and show no trend.
* ``extra-bias`` -- the recency profile of biased acceptance (footnote 3).
  With constant acceptance probability ``p``, sampled-element age should
  be geometric with mean ``M/p``; the experiment sweeps the configured
  half-life and compares measured mean age against theory.
* ``extra-serve-policies`` -- query latency under the serving layer's
  refresh-scheduling policies (docs/serving.md).  Deferred maintenance
  trades read latency for amortised write cost; the sweep shows how the
  staleness threshold moves that trade-off for each background policy.
"""

from __future__ import annotations

import math

from repro.core.acceptance import BiasedAcceptance
from repro.core.kinds import UniformKind
from repro.core.logs import CandidateLogSource
from repro.core.maintenance import SampleMaintainer
from repro.core.refresh.stack import StackRefresh
from repro.core.reservoir import build_reservoir
from repro.experiments.figures import SeriesResult
from repro.experiments.scaling import Scale, resolve_scale
from repro.rng.random_source import RandomSource
from repro.storage.block_device import SimulatedBlockDevice
from repro.storage.cost_model import CostModel
from repro.storage.files import LogFile, SampleFile
from repro.storage.records import IntRecordCodec

__all__ = ["extra_accuracy", "extra_bias", "extra_serve_policies", "EXTRAS"]


def _accuracy_params(scale: Scale) -> tuple[int, int, int, int]:
    """(sample size, window inserts, windows, trials) per scale."""
    if scale.name == "paper":
        return 5_000, 25_000, 40, 10
    if scale.name == "default":
        return 2_000, 10_000, 30, 10
    return 500, 2_500, 20, 8


def extra_accuracy(scale: "str | Scale" = "default", seed: int = 0) -> SeriesResult:
    """Relative estimate error after each of many refresh cycles."""
    s = resolve_scale(scale)
    m, window, windows, trials = _accuracy_params(s)
    errors = [[] for _ in range(windows)]
    for trial in range(trials):
        rng = RandomSource(seed=seed * 1000 + trial)
        cost = CostModel()
        codec = IntRecordCodec()
        sample = SampleFile(SimulatedBlockDevice(cost, "s"), codec, m)
        initial, seen = build_reservoir(range(2 * m), m, rng)
        sample.initialize(initial)
        maintainer = SampleMaintainer(
            sample, rng, strategy="candidate", initial_dataset_size=seen,
            log=LogFile(SimulatedBlockDevice(cost, "l"), codec),
            algorithm=StackRefresh(), cost_model=cost,
        )
        next_value = 2 * m
        for window_index in range(windows):
            maintainer.insert_many(range(next_value, next_value + window))
            next_value += window
            maintainer.refresh()
            estimate = sum(sample.peek_all()) / m
            truth = (next_value - 1) / 2.0
            errors[window_index].append(abs(estimate - truth) / truth)
    mean_error = [sum(es) / len(es) for es in errors]
    # Theoretical sampling error of the mean of 0..N-1 from an M-sample:
    # sd/mean/sqrt(M) with sd/mean = (1/sqrt(3)) for uniform values, and
    # |error| has mean sqrt(2/pi) * stderr.
    theory = []
    n = 2 * m
    for _ in range(windows):
        n += window
        cv = (1.0 / math.sqrt(3.0))
        theory.append(math.sqrt(2.0 / math.pi) * cv / math.sqrt(m))
    return SeriesResult(
        figure="extra-accuracy",
        title="Estimate error across refresh cycles (extension)",
        x_label="Refresh cycle",
        y_label="mean relative error of the sample-mean estimate",
        x=[float(i + 1) for i in range(windows)],
        series={"measured": mean_error, "theory (uniform sampling)": theory},
        scale=s.name,
        log_log=False,
        notes=f"M={m}, {window} inserts/window, {trials} trials",
    )


def _bias_params(scale: Scale) -> tuple[int, int, int]:
    """(sample size, inserts, trials) per scale."""
    if scale.name == "paper":
        return 2_000, 400_000, 5
    if scale.name == "default":
        return 500, 100_000, 5
    return 100, 20_000, 5


def extra_bias(scale: "str | Scale" = "default", seed: int = 0) -> SeriesResult:
    """Measured vs. theoretical mean age under biased acceptance."""
    s = resolve_scale(scale)
    m, inserts, trials = _bias_params(s)
    half_lives = [m // 2, m, 2 * m, 4 * m, 8 * m]
    measured, theory = [], []
    for half_life in half_lives:
        ages = []
        for trial in range(trials):
            rng = RandomSource(seed=seed * 100 + trial)
            cost = CostModel()
            codec = IntRecordCodec()
            sample = SampleFile(SimulatedBlockDevice(cost, "s"), codec, m)
            sample.initialize(list(range(m)))
            acceptance = BiasedAcceptance.with_half_life(m, half_life)
            log = LogFile(SimulatedBlockDevice(cost, "l"), codec)
            # Accepted elements replace uniformly drawn slots, so the
            # candidate log refreshes under the uniform victim rule.
            victims = UniformKind(m)
            algorithm = StackRefresh()
            refresh_every = max(1, m)
            for start in range(m, m + inserts, refresh_every):
                for v in range(start, start + refresh_every):
                    if acceptance.accept(rng):
                        log.append(v)
                algorithm.refresh(sample, CandidateLogSource(log), rng, victims)
                log.truncate()
            newest = m + inserts - 1
            ages.extend(
                newest - v for v in sample.peek_all() if v >= m
            )
            theory_mean = m / acceptance.expected_rate
        measured.append(sum(ages) / len(ages))
        theory.append(theory_mean)
    return SeriesResult(
        figure="extra-bias",
        title="Recency bias: mean sampled-element age vs half-life (extension)",
        x_label="configured half-life (arrivals)",
        y_label="mean age of sampled elements (arrivals)",
        x=[float(h) for h in half_lives],
        series={"measured": measured, "theory M/p": theory},
        scale=s.name,
        log_log=False,
        notes=f"M={m}, {inserts} inserts, {trials} trials; footnote-3 scheme",
    )


def _serve_params(scale: Scale) -> tuple[int, int, int]:
    """(events, samples, sample size) per scale."""
    if scale.name == "paper":
        return 2_000, 4, 512
    if scale.name == "default":
        return 800, 3, 256
    return 200, 2, 128


def extra_serve_policies(
    scale: "str | Scale" = "default", seed: int = 0
) -> SeriesResult:
    """Where refresh work lands vs the staleness threshold, per policy.

    Tight thresholds keep maintenance in the background (many small
    refresh jobs, few reads ever forced to refresh); lax thresholds shed
    background work and push refreshes onto the bounded-staleness read
    path.  The background-job series is plotted per policy; the forced
    read-path refreshes are plotted for the FIFO runs (the other policies
    land within a few jobs of it -- a laxer background scheduler leaves
    slightly more for the read path to mop up, never less).
    """
    from repro.serve.sim import SimConfig, run_simulation

    s = resolve_scale(scale)
    events, samples, sample_size = _serve_params(s)
    thresholds = [16, 32, 64, 128, 256]
    policies = ("fifo", "longest-log", "deadline")
    series: dict[str, list[float]] = {
        **{f"background ({p})": [] for p in policies},
        "forced on read path (fifo)": [],
    }
    for threshold in thresholds:
        forced = None
        for policy in policies:
            report = run_simulation(
                SimConfig(
                    seed=seed,
                    events=events,
                    samples=samples,
                    sample_size=sample_size,
                    policy=f"{policy}:{threshold}",
                    staleness_bound=threshold,
                )
            )
            series[f"background ({policy})"].append(float(report.refresh_jobs))
            if forced is None:
                forced = float(report.forced_refreshes)
        series["forced on read path (fifo)"].append(forced)
    return SeriesResult(
        figure="extra-serve-policies",
        title="Refresh placement vs staleness threshold by policy (extension)",
        x_label="staleness threshold / bound (log elements)",
        y_label="refreshes over the run",
        x=[float(t) for t in thresholds],
        series=series,
        scale=s.name,
        log_log=False,
        notes=(
            f"{events} events, {samples} samples of M={sample_size}; "
            "bounded reads share the sweep bound, so lax thresholds trade "
            "background jobs for read-path refreshes and higher served "
            "staleness"
        ),
    )


#: Extension-experiment registry, merged into the CLI next to FIGURES.
EXTRAS = {
    "extra-accuracy": extra_accuracy,
    "extra-bias": extra_bias,
    "extra-serve-policies": extra_serve_policies,
}
