"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload sim-paper --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with no wrappers installed;
``--trace 1`` is the separate traced run that reports the per-layer
metrics.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; a failed correctness
check prints ``"correct": false`` and exits with code 1.  See README.md
in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("sim-paper", "serve-read", "serve-refresh")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    # SIGTERM unwinds like an error, so the workload stops its processes.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    from perfbench import host, serving, sim_paper

    usable = host.usable_cores()
    if args.workload == "sim-paper":
        cores = {"sim": usable[0]}
        host.pin(cores["sim"])
        outcome = sim_paper.run(args.seed, args.seconds, bool(args.trace))
    else:
        cores = serving.assign_cores()
        outcome = serving.run(
            args.workload, args.seed, args.seconds, bool(args.trace), ROOT, cores
        )
    stamp = host.host_stamp(ROOT, args.seed, cores, usable)

    print("host " + json.dumps(stamp, sort_keys=True))
    for name, (value, unit) in {**outcome.report, **outcome.metrics}.items():
        print(f"{args.workload:14s} {name:34s} {value!s:>22} {unit}")
    for error in outcome.errors:
        print(f"CHECK FAILED: {error}")
    print(json.dumps({
        "correct": not outcome.errors,
        "attempted": max(int(outcome.attempted), 1),
        "failed": int(outcome.failed),
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in outcome.metrics.items()
        },
    }))
    return 0 if not outcome.errors else 1


if __name__ == "__main__":
    sys.exit(main())
