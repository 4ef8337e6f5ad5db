"""The repository benchmark: one command, three workloads.

Run from the checkout root::

    python3 perfbench/run.py --workload tables --seed 1 --seconds 20 --trace 0

``--workload`` is ``tables``, ``serve-cut`` or ``serve-mixed`` (see
``perfbench/README.md``).  ``--trace 0`` measures the end-to-end
metrics with no wrapper installed; ``--trace 1`` is the separate traced
run that reports the per-layer metrics.  Human-readable lines (host
header, every metric by name and unit, failed checks) come first; the
last line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is nonzero when any
correctness check failed or the program could not be run.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.common import (  # noqa: E402
    BenchError,
    calibrate,
    host_header,
    metric_units,
    prepare_environment,
    result_line,
    say,
    steal_ticks,
)

WORKLOADS = ("tables", "serve-cut", "serve-mixed")


def run_workload(name: str, seed: int, seconds: float, trace: bool, delay_s: float = 0.0):
    if name == "tables":
        from perfbench import tables

        return tables.run(seed, seconds, trace, delay_s)
    from perfbench import serve

    runner = serve.run_cut if name == "serve-cut" else serve.run_mixed
    return runner(seed, seconds, trace, delay_s)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Repository benchmark.")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--delay-cut-ms", type=float, default=0.0,
        help="sensitivity check only: add this fixed delay to every "
        "CSRGraph.cut_weights_stable call (in the daemon too)",
    )
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        prepare_environment()
        header = host_header()
    except (BenchError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    trace = bool(args.trace)
    say(f"# host: {' '.join(f'{k}={v}' for k, v in header.items())}")
    say(f"# run: workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
        f"trace={args.trace}")
    calib_before = calibrate()
    steal_before = steal_ticks()
    started = time.perf_counter()
    try:
        outcome = run_workload(
            args.workload, args.seed, args.seconds, trace, args.delay_cut_ms / 1e3
        )
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    wall = time.perf_counter() - started
    steal = (steal_ticks() - steal_before) / (wall * os.cpu_count() * os.sysconf("SC_CLK_TCK"))
    calib_after = calibrate()
    say(f"# host.calib_s: before={calib_before:.4f} after={calib_after:.4f} "
        f"(fixed pure-python loop); host.steal_frac={steal:.3f} of CPU time "
        f"taken by the hypervisor during the {wall:.1f}s run")
    failed_frac = outcome.failed / max(outcome.attempted, 1)
    outcome.note("failed_frac", failed_frac, "ratio",
                 f"{outcome.failed} of {outcome.attempted} operations")
    if trace:
        metrics = {name: 0.0 for name in metric_units("per_layer")}
        metrics.update(outcome.layers)
        metrics["host.calib_s"] = (calib_before + calib_after) / 2
        metrics["failed_frac"] = failed_frac
        metrics["host.steal_frac"] = steal
        kind = "per_layer"
    else:
        metrics = outcome.e2e
        kind = "end_to_end"
    correct = outcome.failed == 0
    print(result_line(correct, max(outcome.attempted, 1), outcome.failed, metrics, kind))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
