"""The three simulation backends behind the :func:`repro.api.run` facade.

Each backend adapts one engine to the common contract: build the system,
run ``spec.instances`` consecutive aggregation instances, emit
observability events through the shared :class:`~repro.obs.ObserverHub`,
and reduce the outcome to a :class:`~repro.api.result.RunResult`.

Backends declare the option names they support; the facade rejects
anything else loudly instead of silently dropping it.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Hashable, Iterable

import numpy as np

from repro.api.result import (
    InstanceSummary,
    RunResult,
    completed_for,
    instance_state_of,
    summarise_completed,
)
from repro.core.cdf import EmpiricalCDF, EstimatedCDF
from repro.core.config import Adam2Config
from repro.core.node import Adam2Node
from repro.errors import ConfigurationError
from repro.obs.bridges import RateTracker, instance_round_sample
from repro.obs.events import InstanceCompleted, InstanceStarted
from repro.obs.observer import ObserverHub
from repro.rngs import make_rng, spawn
from repro.workloads.base import AttributeWorkload

__all__ = ["AsyncBackend", "Backend", "FastBackend", "RoundBackend", "RunSpec"]


@dataclass
class RunSpec:
    """Everything a backend needs to execute one run."""

    workload: AttributeWorkload
    n_nodes: int
    config: Adam2Config
    instances: int
    seed: int
    options: dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.n_nodes < 2:
            raise ConfigurationError("need at least 2 nodes")
        if self.instances < 1:
            raise ConfigurationError("need at least one instance")


class Backend(ABC):
    """One simulation substrate runnable through the facade."""

    #: registry name (the ``backend=`` argument of :func:`repro.api.run`)
    name: str = "backend"
    #: option keys this backend understands; anything else fails loudly
    supported_options: frozenset[str] = frozenset()

    @abstractmethod
    def run(self, spec: RunSpec, hub: ObserverHub) -> RunResult:
        """Execute the run described by ``spec``, reporting through ``hub``."""

    def validate_options(self, options: dict[str, object]) -> None:
        unknown = sorted(set(options) - self.supported_options)
        if unknown:
            supported = ", ".join(sorted(self.supported_options)) or "(none)"
            raise ConfigurationError(
                f"backend {self.name!r} does not support option(s) {unknown}; "
                f"supported: {supported}"
            )


# ----------------------------------------------------------------------
# Shared helpers for the object-per-node backends
# ----------------------------------------------------------------------
# The reduction logic itself (completed_for / summarise_completed /
# instance_state_of) lives in repro.api.result, shared with the net
# backend and the process-cluster harness.


def _emit_instance_started(
    hub: ObserverHub, nodes: Iterable[Adam2Node], instance_id: Hashable, index: int
) -> np.ndarray:
    """Emit the instance-start event; returns the instance thresholds."""
    state = instance_state_of(nodes, instance_id)
    if state is None:  # pragma: no cover - trigger always leaves state behind
        raise ConfigurationError(f"instance {instance_id!r} has no live state")
    if hub.probes_enabled:
        hub.instance_started(InstanceStarted(
            instance=index,
            thresholds=tuple(float(t) for t in state.h.thresholds),
            v_thresholds=tuple(float(t) for t in state.v_thresholds),
        ))
    return state.h.thresholds.copy()


# ----------------------------------------------------------------------
# Backends
# ----------------------------------------------------------------------


class FastBackend(Backend):
    """The vectorised simulator (:class:`repro.fastsim.adam2.Adam2Simulation`)."""

    name = "fast"
    supported_options = frozenset({
        "exchange", "churn_rate", "neighbour_sample", "node_sample", "sanitize",
        "track", "track_every", "confidence_sample", "drift",
        "warmup_instances", "system_errors", "dtype", "shards", "shard_mix",
    })

    #: options meaningless under sharding (they need full-state access)
    _SHARD_INCOMPATIBLE = (
        "exchange", "churn_rate", "track", "track_every",
        "confidence_sample", "drift", "warmup_instances", "system_errors",
    )

    def run(self, spec: RunSpec, hub: ObserverHub) -> RunResult:
        from repro.fastsim.adam2 import Adam2Simulation

        opts = dict(spec.options)
        shards = int(opts.get("shards", 1))  # type: ignore[arg-type]
        if shards < 1:
            raise ConfigurationError(f"shards must be >= 1, got {shards}")
        if shards > 1:
            return self._run_sharded(spec, hub, opts, shards)
        sim = Adam2Simulation(
            spec.workload,
            spec.n_nodes,
            spec.config,
            seed=spec.seed,
            exchange=str(opts.get("exchange", "sequential")),
            churn_rate=float(opts.get("churn_rate", 0.0)),  # type: ignore[arg-type]
            neighbour_sample=opts.get("neighbour_sample"),  # type: ignore[arg-type]
            node_sample=int(opts.get("node_sample", 64)),  # type: ignore[arg-type]
            sanitize=opts.get("sanitize"),  # type: ignore[arg-type]
            dtype=str(opts.get("dtype", "float64")),
            obs=hub,
        )
        for _ in range(int(opts.get("warmup_instances", 0))):  # type: ignore[arg-type]
            sim.run_instance()
        track = bool(opts.get("track", False))
        track_every = int(opts.get("track_every", 1))  # type: ignore[arg-type]
        confidence_sample = opts.get("confidence_sample")
        drift = opts.get("drift")

        summaries: list[InstanceSummary] = []
        estimate: EstimatedCDF | None = None
        for index in range(spec.instances):
            with hub.span("instance"):
                outcome = sim.run_instance(
                    track=track,
                    track_every=track_every,
                    confidence_sample=confidence_sample,  # type: ignore[arg-type]
                    drift=drift,
                )
            reached_mask = outcome.joined & outcome.participants
            reached = int(reached_mask.sum())
            if reached:
                estimate = outcome.mean_estimate()
                fractions = estimate.fractions
            else:
                fractions = np.full(outcome.thresholds.shape, np.nan)
            summaries.append(InstanceSummary(
                index=index,
                thresholds=outcome.thresholds,
                fractions=fractions,
                errors_entire=outcome.errors_entire,
                errors_points=outcome.errors_points,
                reached=reached,
                messages=outcome.messages_total,
                bytes=outcome.bytes_total,
                trace=outcome.trace,
                raw=outcome,
            ))

        result = RunResult(
            backend=self.name,
            n_nodes=spec.n_nodes,
            seed=spec.seed,
            config=spec.config,
            instances=summaries,
            estimate=estimate,
        )
        if bool(opts.get("system_errors", False)):
            result.extras["system_errors"] = sim.system_errors()
        result.extras["simulation"] = sim
        return result

    def _run_sharded(
        self, spec: RunSpec, hub: ObserverHub, opts: dict[str, object], shards: int
    ) -> RunResult:
        """Route ``shards=N`` runs through the multiprocessing driver.

        The shard driver targets the static-population N-scaling regime,
        so options that require per-round full-state access are rejected
        loudly rather than silently ignored.
        """
        from repro.fastsim.shard import DEFAULT_SHARD_MIX, ShardedAdam2

        conflicting = sorted(key for key in self._SHARD_INCOMPATIBLE if key in opts)
        if conflicting:
            raise ConfigurationError(
                f"option(s) {conflicting} are not supported with shards > 1"
            )
        summaries: list[InstanceSummary] = []
        estimate: EstimatedCDF | None = None
        with ShardedAdam2(
            spec.workload,
            spec.n_nodes,
            spec.config,
            seed=spec.seed,
            shards=shards,
            shard_mix=float(opts.get("shard_mix", DEFAULT_SHARD_MIX)),  # type: ignore[arg-type]
            neighbour_sample=opts.get("neighbour_sample"),  # type: ignore[arg-type]
            node_sample=int(opts.get("node_sample", 64)),  # type: ignore[arg-type]
            sanitize=opts.get("sanitize"),  # type: ignore[arg-type]
            dtype=str(opts.get("dtype", "float64")),
            obs=hub,
        ) as sim:
            for index in range(spec.instances):
                with hub.span("instance"):
                    outcome = sim.run_instance()
                if outcome.reached:
                    estimate = outcome.estimate
                summaries.append(InstanceSummary(
                    index=index,
                    thresholds=outcome.thresholds,
                    fractions=outcome.estimate.fractions,
                    errors_entire=outcome.errors_entire,
                    errors_points=outcome.errors_points,
                    reached=outcome.reached,
                    messages=outcome.messages_total,
                    bytes=outcome.bytes_total,
                    trace=None,
                    raw=outcome,
                ))
        result = RunResult(
            backend=self.name,
            n_nodes=spec.n_nodes,
            seed=spec.seed,
            config=spec.config,
            instances=summaries,
            estimate=estimate,
        )
        result.extras["shards"] = shards
        return result


class RoundBackend(Backend):
    """The synchronous object-per-node engine (PeerSim-style rounds)."""

    name = "round"
    supported_options = frozenset({
        "overlay", "degree", "loss_rate", "churn", "neighbour_sample",
        "node_sample", "sanitize",
    })

    def run(self, spec: RunSpec, hub: ObserverHub) -> RunResult:
        from repro.core.protocol import Adam2Protocol
        from repro.simulation.runner import build_engine

        opts = dict(spec.options)
        rng = make_rng(spec.seed)
        measure_rng = spawn(rng)
        protocol = Adam2Protocol(
            spec.config,
            scheduler="manual",
            neighbour_sample=opts.get("neighbour_sample"),  # type: ignore[arg-type]
        )
        engine = build_engine(
            spec.workload,
            spec.n_nodes,
            [protocol],
            rng,
            overlay=opts.get("overlay", "mesh"),  # type: ignore[arg-type]
            degree=int(opts.get("degree", 20)),  # type: ignore[arg-type]
            churn=opts.get("churn"),
            loss_rate=float(opts.get("loss_rate", 0.0)),  # type: ignore[arg-type]
            sanitize=opts.get("sanitize"),  # type: ignore[arg-type]
            obs=hub,
        )
        node_sample = int(opts.get("node_sample", 64))  # type: ignore[arg-type]
        rounds = spec.config.rounds_per_instance
        probes = hub if hub.probes_enabled else None
        tracker = RateTracker()

        summaries: list[InstanceSummary] = []
        estimate: EstimatedCDF | None = None
        for index in range(spec.instances):
            instance_id = protocol.trigger_instance(engine)
            thresholds = _emit_instance_started(
                hub, protocol.adam2_nodes(engine), instance_id, index
            )
            messages_start, bytes_start = self._traffic(engine)
            mark_messages, mark_bytes = messages_start, bytes_start
            with hub.span("instance"):
                for round_index in range(rounds):
                    engine.run_round()
                    if probes is not None:
                        messages_now, bytes_now = self._traffic(engine)
                        probes.round_sample(instance_round_sample(
                            protocol.adam2_nodes(engine),
                            instance_id,
                            instance_index=index,
                            round_index=round_index + 1,
                            messages=messages_now - mark_messages,
                            bytes_=bytes_now - mark_bytes,
                            tracker=tracker,
                        ))
                        mark_messages, mark_bytes = messages_now, bytes_now
            messages_end, bytes_end = self._traffic(engine)
            summary, consensus = summarise_completed(
                completed_for(protocol.adam2_nodes(engine), instance_id),
                engine.node_count,
                EmpiricalCDF(engine.attribute_values()),
                thresholds,
                index,
                messages_end - messages_start,
                bytes_end - bytes_start,
                node_sample,
                measure_rng,
            )
            summaries.append(summary)
            if consensus is not None:
                estimate = consensus
            if probes is not None:
                probes.instance_completed(InstanceCompleted(
                    instance=index,
                    rounds=rounds,
                    reached=summary.reached,
                    err_max=summary.errors_entire.maximum,
                    err_avg=summary.errors_entire.average,
                    messages=summary.messages,
                    bytes=summary.bytes,
                ))

        result = RunResult(
            backend=self.name,
            n_nodes=spec.n_nodes,
            seed=spec.seed,
            config=spec.config,
            instances=summaries,
            estimate=estimate,
        )
        result.extras["engine"] = engine
        result.extras["protocol"] = protocol
        return result

    @staticmethod
    def _traffic(engine: object) -> tuple[int, int]:
        network = engine.network  # type: ignore[attr-defined]
        return (
            int(sum(network.messages_sent.values())),
            int(sum(network.bytes_sent.values())),
        )


class AsyncBackend(Backend):
    """The asynchronous discrete-event engine (per-node clocks)."""

    name = "async"
    supported_options = frozenset({
        "gossip_period", "period_jitter", "latency", "loss_rate",
        "neighbour_sample", "node_sample", "sanitize", "drain_periods",
    })

    def run(self, spec: RunSpec, hub: ObserverHub) -> RunResult:
        from repro.asyncsim.adam2 import AsyncAdam2
        from repro.asyncsim.engine import AsyncEngine
        from repro.overlay.random_graph import FullMeshOverlay

        opts = dict(spec.options)
        rng = make_rng(spec.seed)
        measure_rng = spawn(rng)
        protocol = AsyncAdam2(
            spec.config,
            scheduler="manual",
            neighbour_sample=opts.get("neighbour_sample"),  # type: ignore[arg-type]
        )
        period = float(opts.get("gossip_period", 1.0))  # type: ignore[arg-type]
        engine = AsyncEngine(
            FullMeshOverlay([]),
            protocol,
            spawn(rng),
            gossip_period=period,
            period_jitter=float(opts.get("period_jitter", 0.05)),  # type: ignore[arg-type]
            latency=opts.get("latency"),  # type: ignore[arg-type]
            loss_rate=float(opts.get("loss_rate", 0.0)),  # type: ignore[arg-type]
            sanitize=opts.get("sanitize"),  # type: ignore[arg-type]
            obs=hub,
        )
        engine.populate(spec.workload.sample(spec.n_nodes, spawn(rng)))
        node_sample = int(opts.get("node_sample", 64))  # type: ignore[arg-type]
        rounds = spec.config.rounds_per_instance
        # Per-node clocks drift (jitter) and messages ride a latency
        # model, so after `rounds` nominal periods some peers still hold
        # live state; the drain lets the stragglers tick their TTLs out.
        drain = int(opts.get(
            "drain_periods",
            max(3, int(np.ceil(rounds * engine.period_jitter)) + 2),
        ))  # type: ignore[arg-type]
        probes = hub if hub.probes_enabled else None
        tracker = RateTracker()

        summaries: list[InstanceSummary] = []
        estimate: EstimatedCDF | None = None
        for index in range(spec.instances):
            instance_id = protocol.trigger_instance(engine)
            thresholds = _emit_instance_started(
                hub, protocol.adam2_nodes(engine), instance_id, index
            )
            messages_start, bytes_start = engine.messages_sent, engine.bytes_sent
            mark_messages, mark_bytes = messages_start, bytes_start
            with hub.span("instance"):
                for round_index in range(rounds + drain):
                    engine.run_for(period)
                    if probes is not None:
                        probes.round_sample(instance_round_sample(
                            protocol.adam2_nodes(engine),
                            instance_id,
                            instance_index=index,
                            round_index=round_index + 1,
                            messages=engine.messages_sent - mark_messages,
                            bytes_=engine.bytes_sent - mark_bytes,
                            tracker=tracker,
                        ))
                        mark_messages, mark_bytes = engine.messages_sent, engine.bytes_sent
                    if round_index + 1 >= rounds and instance_state_of(
                        protocol.adam2_nodes(engine), instance_id
                    ) is None:
                        break
            summary, consensus = summarise_completed(
                completed_for(protocol.adam2_nodes(engine), instance_id),
                len(engine.nodes),
                EmpiricalCDF(engine.attribute_values()),
                thresholds,
                index,
                engine.messages_sent - messages_start,
                engine.bytes_sent - bytes_start,
                node_sample,
                measure_rng,
            )
            summaries.append(summary)
            if consensus is not None:
                estimate = consensus
            if probes is not None:
                probes.instance_completed(InstanceCompleted(
                    instance=index,
                    rounds=rounds,
                    reached=summary.reached,
                    err_max=summary.errors_entire.maximum,
                    err_avg=summary.errors_entire.average,
                    messages=summary.messages,
                    bytes=summary.bytes,
                ))

        result = RunResult(
            backend=self.name,
            n_nodes=spec.n_nodes,
            seed=spec.seed,
            config=spec.config,
            instances=summaries,
            estimate=estimate,
        )
        result.extras["engine"] = engine
        result.extras["protocol"] = protocol
        return result
