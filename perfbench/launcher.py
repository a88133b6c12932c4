"""Server process of the serving workloads: ``build_service`` + ``serve_blocking``.

Run as ``python3 perfbench/launcher.py '<json config>'`` from the root of
a checkout.  It pins itself to its core, builds the default serving
deployment (one event loop, HTTP status surface on) and serves until
SIGTERM.  Only when the config asks for tracing does it wrap the layers'
public calls (``perfbench.layers``) before building the service.

Whatever the mode, two cheap hooks feed the end-to-end figures: a store
subscriber keeps ``(version, restarted, population)`` per publish, so
each estimate's error can be scored against the exact population its
cycle saw, and a timer on ``scheduler.run_cycle`` keeps each cycle's
start and end.  On SIGUSR1 the process writes these (and its spans)
to ``dump_path``.
"""

from __future__ import annotations

import json
import os
import signal
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(raw: str) -> None:
    cfg = json.loads(raw)
    os.sched_setaffinity(0, {int(cfg["core"])})
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    tracer = None
    if cfg["trace"]:
        from perfbench import layers
        from perfbench.spans import Tracer

        tracer = Tracer()
        layers.install_server(tracer)

    from repro.core.config import Adam2Config
    from repro.net.service_endpoint import serve_blocking
    from repro.service import build_service
    from repro.workloads.base import FixedPopulation
    from repro.workloads.dynamic import DriftModel

    population = FixedPopulation(
        json.loads(Path(cfg["population_path"]).read_text()),
        name="ram", unit="MB", integral=True,
    )
    drift = DriftModel(growth_per_round=cfg["drift_growth"]) if cfg["drift_growth"] else None
    handle = build_service(
        Adam2Config(points=cfg["points"], rounds_per_instance=cfg["rounds"]),
        population,
        n_nodes=len(population),
        seed=cfg["seed"],
        drift=drift,
        warm_cycles=0,
        store_dir=cfg["store_dir"],
        fsync=cfg["fsync"],
    )

    # Publish runs before the scheduler advances drift, so population()
    # here is exactly what the published estimate was computed from.
    publishes: list[tuple[int, bool, object, object]] = []
    scheduler = handle.scheduler
    handle.store.subscribe(lambda snap: publishes.append(
        (snap.version, snap.restarted, snap.estimate, scheduler.population())
    ))
    cycles: list[tuple[float, float]] = []
    run_cycle = scheduler.run_cycle

    def timed_cycle() -> object:
        started = time.perf_counter()
        try:
            return run_cycle()
        finally:
            cycles.append((started, time.perf_counter()))

    scheduler.run_cycle = timed_cycle  # type: ignore[method-assign]
    recovered = handle.persistence is not None and handle.persistence.recovered_snapshots > 0
    if not recovered:
        scheduler.run_cycle()  # the warm cycle build_service would run

    def dump(_signum: int, _frame: object) -> None:
        from repro.core.cdf import EmpiricalCDF
        from repro.metrics.error import cdf_errors

        payload = {
            "cycles": list(cycles),
            "publishes": [
                (version, restarted, cdf_errors(EmpiricalCDF(values), estimate).average)
                for version, restarted, estimate, values in list(publishes)
            ],
            "cache": handle.engine.cache_info(),
            "spans": tracer.records() if tracer is not None else [],
            "counts": list(tracer.counts) if tracer is not None else [],
        }
        tmp = Path(cfg["dump_path"] + ".tmp")
        tmp.write_text(json.dumps(payload))
        os.replace(tmp, cfg["dump_path"])

    signal.signal(signal.SIGUSR1, dump)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(0))
    serve_blocking(
        handle,
        port=cfg["port"],
        refresh_every=cfg["refresh_every"],
        announce=None,
        http_port=cfg["http_port"],
    )


if __name__ == "__main__":
    main(sys.argv[1])
