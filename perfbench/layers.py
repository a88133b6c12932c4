"""Wrap the public calls of each layer with spans (traced runs only).

Every wrapper replaces a public name at the place its caller looks it up
at call time: a module global, a class attribute, or a public instance
attribute.  Nothing under ``src/`` is edited, and an untraced run never
imports this module.
"""

from __future__ import annotations

from typing import Any

from perfbench.spans import Tracer


def install_sim(tracer: Tracer) -> None:
    """Time the fastsim kernel, threshold selection and error evaluation."""
    import repro.fastsim.adam2 as adam2
    from repro.fastsim.state import BatchState

    base = adam2.Adam2Simulation

    def count_round(active: Any, args: tuple[Any, ...]) -> None:
        tracer.count("fastsim.exchange.pairs", int(active))
        tracer.count("fastsim.exchange.computed_bytes", float(args[0].nbytes))

    class TracedSimulation(base):  # type: ignore[misc, valid-type]
        def __init__(self, *args: Any, **kwargs: Any) -> None:
            super().__init__(*args, **kwargs)
            self.kernel = tracer.wrap("fastsim.exchange", self.kernel, after=count_round)

        def run_instance(self, *args: Any, **kwargs: Any) -> Any:
            span = tracer.begin("fastsim.instance")
            try:
                return super().run_instance(*args, **kwargs)
            finally:
                tracer.end(span)

    adam2.Adam2Simulation = TracedSimulation  # type: ignore[misc]
    adam2.select_instance_points = tracer.wrap("core.selection", adam2.select_instance_points)
    for name in ("entire_domain_stats", "points_residual_stats", "EmpiricalCDF"):
        setattr(adam2, name, tracer.wrap("metrics.evaluate", getattr(adam2, name)))
    BatchState.begin_instance = tracer.wrap("fastsim.batch", BatchState.begin_instance)


def _request_id(_dispatcher: Any, _codec: Any, line: bytes) -> int | None:
    # The load generator writes ``{"id":N,...}``: the id is the trace id,
    # so client latencies and server spans of one request can be joined.
    try:
        return int(line[6:line.index(b",")])
    except ValueError:
        return None


def install_server(tracer: Tracer) -> None:
    """Time the serving process's layers (the sim layers included)."""
    install_sim(tracer)
    import repro.net.service_endpoint as endpoint
    import repro.persist.log as plog
    import repro.service.protocol as protocol
    import repro.service.scheduler as scheduler
    from repro.service.query import QueryEngine
    from repro.service.store import EstimateStore

    scheduler.run = tracer.wrap("api.run", scheduler.run)
    cycle = scheduler.ContinuousScheduler
    cycle.run_cycle = tracer.wrap(
        "service.scheduler.cycle", cycle.run_cycle,
        trace_of=lambda sched: f"cycle-{sched.tick + 1}",
    )
    EstimateStore.publish = tracer.wrap("service.store.publish", EstimateStore.publish)
    plog.encode_snapshot = tracer.wrap("persist.encode", plog.encode_snapshot)
    plog.SnapshotLog.append_snapshot = tracer.wrap(
        "persist.append", plog.SnapshotLog.append_snapshot
    )
    for method in ("cdf", "quantile", "fraction_between", "network_size"):
        setattr(QueryEngine, method, tracer.wrap("service.query", getattr(QueryEngine, method)))
    protocol.parse_request = tracer.wrap("service.protocol.parse", protocol.parse_request)
    protocol.QueryDispatcher.dispatch_wire = tracer.wrap(
        "service.protocol.dispatch", protocol.QueryDispatcher.dispatch_wire
    )
    endpoint.process_json_line = tracer.wrap(
        "net.endpoint", endpoint.process_json_line, trace_of=_request_id
    )
