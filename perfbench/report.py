"""Result assembly: the outcome of one run and the per-layer metric set."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

from perfbench import spans

#: (name, unit) of every per-layer metric, in the order printed
PER_LAYER: tuple[tuple[str, str], ...] = (
    ("fastsim.exchange.rounds", "count"),
    ("fastsim.exchange.busy_s", "s"),
    ("fastsim.exchange.pairs", "count"),
    ("fastsim.exchange.computed_bytes", "bytes"),
    ("fastsim.batch.busy_s", "s"),
    ("fastsim.instance.self_s", "s"),
    ("core.selection.calls", "count"),
    ("core.selection.busy_s", "s"),
    ("metrics.evaluate.busy_s", "s"),
    ("api.run.busy_s", "s"),
    ("api.unattributed_s", "s"),
    ("service.scheduler.cycles", "count"),
    ("service.scheduler.restarts", "count"),
    ("service.scheduler.cycle_busy_s", "s"),
    ("service.cycle_s", "s"),
    ("service.restart_s", "s"),
    ("service.store.publish_s", "s"),
    ("persist.encode_s", "s"),
    ("persist.append_s", "s"),
    ("persist.bytes_logged", "bytes"),
    ("persist.recovery_s", "s"),
    ("service.query.calls", "count"),
    ("service.query.busy_s", "s"),
    ("service.query.cache_hit_ratio", "ratio"),
    ("service.protocol.parse_s", "s"),
    ("service.protocol.dispatch_s", "s"),
    ("net.endpoint.requests", "count"),
    ("net.endpoint.self_s", "s"),
    ("net.endpoint.unattributed_s", "s"),
    ("net.endpoint.wait_ms", "ms"),
    ("net.endpoint.wait_p99_ms", "ms"),
    ("server.cpu_ms_per_kq", "ms"),
    ("loadgen.lag_p99_ms", "ms"),
    ("loadgen.sent", "count"),
    ("loadgen.failed", "count"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
)


@dataclass
class Outcome:
    """What one workload run produced."""

    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    #: workload-specific figures (`query.max_qps`, `restart_s`, ...) printed
    #: above the result line
    report: dict[str, tuple[Any, str]] = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0


def layer_metrics(
    records: Sequence[tuple[Any, ...]],
    counters: dict[str, float],
    *,
    coverage: float,
    overhead: float,
    extra: dict[str, float] | None = None,
) -> dict[str, tuple[float, str]]:
    """Every per-layer metric from spans, counters and harness figures.

    A layer that did no work in this workload reads 0.
    """
    selfs = spans.self_times(records)
    busy = lambda *n: spans.busy(records, *n)  # noqa: E731
    calls = lambda *n: spans.calls(records, *n)  # noqa: E731
    runs = calls("api.run")
    values: dict[str, float] = {
        "fastsim.exchange.rounds": calls("fastsim.exchange"),
        "fastsim.exchange.busy_s": busy("fastsim.exchange"),
        "fastsim.exchange.pairs": counters.get("fastsim.exchange.pairs", 0.0),
        "fastsim.exchange.computed_bytes": counters.get("fastsim.exchange.computed_bytes", 0.0),
        "fastsim.batch.busy_s": busy("fastsim.batch"),
        "fastsim.instance.self_s": spans.self_busy(records, selfs, "fastsim.instance"),
        "core.selection.calls": calls("core.selection"),
        "core.selection.busy_s": busy("core.selection"),
        "metrics.evaluate.busy_s": busy("metrics.evaluate"),
        "api.run.busy_s": busy("api.run") / runs if runs else 0.0,
        "api.unattributed_s": spans.self_busy(records, selfs, "api.run"),
        "service.scheduler.cycles": calls("service.scheduler.cycle"),
        "service.scheduler.cycle_busy_s": busy("service.scheduler.cycle"),
        "service.store.publish_s": busy("service.store.publish"),
        "persist.encode_s": busy("persist.encode"),
        "persist.append_s": busy("persist.append"),
        "service.query.calls": calls("service.query"),
        "service.query.busy_s": busy("service.query"),
        "service.protocol.parse_s": busy("service.protocol.parse"),
        "service.protocol.dispatch_s": spans.self_busy(records, selfs, "service.protocol.dispatch"),
        "net.endpoint.requests": calls("net.endpoint"),
        "net.endpoint.self_s": spans.self_busy(records, selfs, "net.endpoint"),
        "trace.coverage": coverage,
        "trace.overhead": overhead,
    }
    values.update(extra or {})
    return {name: (float(values.get(name, 0.0)), unit) for name, unit in PER_LAYER}
