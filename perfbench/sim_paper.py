"""``sim-paper``: one batch simulation at the paper's scale.

The path ``REPRO_SCALE=paper`` takes: ``repro.api.run(backend="fast",
exchange="matching")`` over 200,000 nodes holding BOINC ``ram`` values
(a stepped CDF, the case MinMax refinement is built for), λ = 50 points,
30 rounds and a chain of 3 instances (bootstrap, then two MinMax
refinements).  The ``(N, λ)`` float64 state is about 82 MB, far beyond
any per-core cache, so the vectorised matching kernel's memory traffic
dominates; the query path is idle.
"""

from __future__ import annotations

import time
from typing import Any

import numpy as np

from perfbench import spans, stats
from perfbench.host import peak_rss_mb_self
from perfbench.report import Outcome, layer_metrics

N_NODES = 200_000
POINTS = 50
ROUNDS = 30
CHAIN = 3
#: chains whose errors make ``estimate_error``: fixed, so the value is
#: exact for a given seed whatever the host's speed
ERROR_CHAINS = 4
#: set-up builds before each chain, so they are spread over the run
SETUP_BUILDS = 3
#: correctness ceilings
SIZE_TOLERANCE = 0.01
ERR_CEILING = 0.02


def chain_inputs(seed: int, index: int) -> tuple[np.ndarray, int]:
    """Population values and run seed of chain ``index``."""
    from repro.workloads.boinc import boinc_ram_mb

    rng = np.random.default_rng([seed, index])
    values = boinc_ram_mb().sample(N_NODES, rng)
    return values, int(rng.integers(0, 2**31 - 1))


def _config() -> Any:
    from repro.core.config import Adam2Config

    return Adam2Config(points=POINTS, rounds_per_instance=ROUNDS)


class _FirstRound(Exception):
    """Raised by the timing kernel: the simulation reached round one."""


def measure_setup(values: np.ndarray, run_seed: int) -> float:
    """Build the simulation up to its first round.

    Times the program's own path: construct ``Adam2Simulation`` as the
    fast backend does and call ``run_instance``, whose kernel on this one
    instance is replaced by a stub that stops the clock and unwinds at
    the first round's call.
    """
    from repro.fastsim.adam2 import Adam2Simulation
    from repro.workloads.base import FixedPopulation

    def first_round(*_args: Any, **_kwargs: Any) -> int:
        raise _FirstRound(time.perf_counter())

    started = time.perf_counter()
    sim = Adam2Simulation(
        FixedPopulation(values), N_NODES, _config(), seed=run_seed, exchange="matching"
    )
    sim.kernel = first_round
    try:
        sim.run_instance()
    except _FirstRound as reached:
        return float(reached.args[0]) - started
    raise RuntimeError("run_instance finished without calling its kernel")


def run_chain(run: Any, values: np.ndarray, run_seed: int) -> tuple[float, float, float]:
    """One chained run; returns ``(wall s, final err_avg, size estimate)``."""
    from repro.workloads.base import FixedPopulation

    population = FixedPopulation(values, name="ram", unit="MB", integral=True)
    started = time.perf_counter()
    result = run(
        _config(), population, backend="fast", exchange="matching",
        n_nodes=N_NODES, instances=CHAIN, seed=run_seed,
    )
    wall = time.perf_counter() - started
    err = result.instances[-1].errors_entire.average
    size = result.estimate.system_size if result.estimate is not None else float("nan")
    return wall, err, float(size if size is not None else float("nan"))


def _check(errors: list[str], err: float, size: float) -> None:
    if not abs(size - N_NODES) <= SIZE_TOLERANCE * N_NODES:
        errors.append(f"size estimate {size} not within 1% of {N_NODES}")
    if not err < ERR_CEILING:
        errors.append(f"err_avg {err} not under the ceiling {ERR_CEILING}")


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    import repro.api

    outcome = Outcome()
    walls: list[float] = []
    errs: list[float] = []
    if not trace:
        setups: list[float] = []
        started = time.perf_counter()
        index = 0
        while index < ERROR_CHAINS or time.perf_counter() - started < seconds:
            inputs = chain_inputs(seed, index)
            setups += [measure_setup(*inputs) for _ in range(SETUP_BUILDS)]
            wall, err, size = run_chain(repro.api.run, *inputs)
            _check(outcome.errors, err, size)
            walls.append(wall)
            if index < ERROR_CHAINS:
                errs.append(err)
            index += 1
        node_rounds_per_s = stats.median([N_NODES * ROUNDS * CHAIN / w for w in walls])
        err_avg = float(np.mean(errs))
        outcome.attempted = len(walls)
        outcome.metrics = {
            "setup_s": (stats.median(setups), "s"),
            "peak_rss_mb": (peak_rss_mb_self(), "MB"),
            "throughput_per_s": (node_rounds_per_s, "1/s"),
            "latency_ms": (stats.median(walls) * 1e3, "ms"),
            "estimate_error": (err_avg, "cdf_err"),
        }
        outcome.report = {
            "sim.node_rounds_per_s": (node_rounds_per_s, "node-rounds/s"),
            "sim.err_avg": (err_avg, "cdf_err"),
            "sim.chains": (len(walls), "count"),
            # too few chains for a percentile with ten samples beyond it
            "sim.slowest_chain_ms": (max(walls) * 1e3, "ms"),
        }
        return outcome

    # Traced run: the same chains untraced, then traced, so the overhead
    # compares identical inputs.
    from perfbench import layers
    from perfbench.spans import Tracer

    traced_chains = 2
    inputs = [chain_inputs(seed, i) for i in range(traced_chains)]
    for values, run_seed in inputs:
        walls.append(run_chain(repro.api.run, values, run_seed)[0])
    tracer = Tracer()
    layers.install_sim(tracer)
    traced_run = tracer.wrap("api.run", repro.api.run)
    traced_walls = []
    for values, run_seed in inputs:
        wall, err, size = run_chain(traced_run, values, run_seed)
        _check(outcome.errors, err, size)
        traced_walls.append(wall)
    outcome.attempted = 2 * traced_chains
    records = tracer.records()
    unattributed = spans.self_busy(records, spans.self_times(records), "api.run")
    outcome.metrics = layer_metrics(
        records,
        spans.totals(tracer.counts),
        coverage=1.0 - unattributed / sum(traced_walls),
        overhead=sum(traced_walls) / sum(walls),
    )
    return outcome
