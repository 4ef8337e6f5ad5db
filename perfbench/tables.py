"""The ``tables`` workload: repeated in-process passes of ``run_all.main``.

Each pass runs all of E1–E9 with run_all's default flags — telemetry
to a temp file, bound certification on, default ``--jobs`` — exactly
what a user regenerating the paper's tables runs.  The inputs are
fixed inside run_all, so ``--seed`` cannot change them; it is accepted
for the common command line and recorded.

Set-up is a fresh interpreter importing run_all and probing the kernel
backend, timed five times.  One untimed ``--no-telemetry`` pass warms
caches and records the stdout digest.  Per-experiment times of the
untraced passes come from run_all's own telemetry spans
(``experiment.eN``), so no wrapper is installed.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import re
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from typing import Dict, List, Optional, Tuple

from perfbench.common import (
    SRC, WORK, BenchError, fmt, median, one_cpu_probe, rss_peak_mb, say,
)
from perfbench.outcome import Outcome
from perfbench.tracer import (
    DELAY_SITE,
    TABLES_HOOKS,
    Patcher,
    Tracer,
    delay_wrapper,
    make_wrapper,
    resolve,
    span_metrics,
)

SETUP_PROBES = 5
PROBE = (
    "from repro.experiments import run_all\n"
    "from repro import kernels\n"
    "kernels.get_backend(); kernels.available_backends()\n"
)
#: E9's true min cut (K36 split over two servers) and its epsilons.
E9_MINCUT = 35.0


def probe_setup() -> Tuple[float, float]:
    """``time.monotonic()`` span of one fresh-process import + kernel probe."""
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-c", PROBE], cwd=str(SRC.parent),
        capture_output=True, text=True, timeout=120,
    )
    end = time.monotonic()
    if proc.returncode != 0:
        raise BenchError(f"set-up probe failed: {proc.stderr[-500:]}")
    return start, end


def parse_table(text: str, title_prefix: str) -> List[Dict[str, str]]:
    """Rows of the fixed-width table whose title starts with the prefix."""
    lines = text.splitlines()
    for i, line in enumerate(lines):
        if line.startswith("== " + title_prefix):
            columns = lines[i + 1].split()
            rows = []
            for row in lines[i + 3:]:
                if not row.strip():
                    break
                rows.append(dict(zip(columns, row.split())))
            return rows
    return []


def check_output(rc: int, text: str) -> List[str]:
    """Problems in one pass's exit code and stdout (empty when correct)."""
    problems = []
    if rc != 0:
        problems.append(f"run_all exited {rc}")
    if not re.search(r"^bounds: \d+ checks, 0 violations$", text, re.M):
        problems.append("bound certification did not report 0 violations")
    e6 = parse_table(text, "E6 ")
    if not e6:
        problems.append("E6 table missing")
    for row in e6:
        expected = 2 * float(row["INT"])
        if not float(row["mincut"]) == float(row["witness"]) == expected:
            problems.append(f"E6 row {row}: mincut/witness != 2*INT")
    hybrid = [r for r in parse_table(text, "E9 ") if r.get("strategy") == "hybrid"]
    if not hybrid:
        problems.append("E9 hybrid rows missing")
    for row in hybrid:
        eps = float(row["eps"])
        if abs(float(row["estimate"]) - E9_MINCUT) > eps * E9_MINCUT:
            problems.append(f"E9 hybrid row {row}: outside (1±eps)*{E9_MINCUT}")
    return problems


class Tables:
    """Runs passes in this process and checks each one's output."""

    def __init__(self) -> None:
        from repro.experiments import run_all

        self.run_all = run_all
        self.attempted = 0
        self.failures: List[str] = []

    def one_pass(self, argv: List[str]) -> Tuple[float, float, str, Tuple[float, float]]:
        """(wall seconds, CPU seconds, stdout, monotonic span) of one pass."""
        out, err = io.StringIO(), io.StringIO()
        start, cpu = time.monotonic(), time.process_time()
        with redirect_stdout(out), redirect_stderr(err):
            rc = self.run_all.main(argv)
        end, cpu = time.monotonic(), time.process_time() - cpu
        text = out.getvalue()
        self.attempted += 1
        problems = check_output(rc, text)
        if problems:
            self.failures.append("; ".join(problems) + " " + err.getvalue()[-300:])
        return end - start, cpu, text, (start, end)

    def timed_passes(self, seconds: float) -> Dict[str, list]:
        """Passes until ``seconds`` elapse (at least one).

        Returns per-pass ``wall`` and ``cpu`` seconds, CPU seconds at
        the reference speed (``norm``, from a speed probe on this
        process's CPU), the experiment ``spans`` from each pass's
        telemetry and the telemetry ``bytes``.
        """
        passes: Dict[str, list] = {
            "wall": [], "cpu": [], "norm": [], "spans": [], "bytes": [], "when": []}
        started = time.perf_counter()
        with one_cpu_probe() as probe:
            while not passes["wall"] or time.perf_counter() - started < seconds:
                path = WORK / "tmp" / f"tables-{os.getpid()}-{len(passes['wall'])}.jsonl"
                elapsed, cpu, _, when = self.one_pass(["--telemetry", str(path)])
                passes["wall"].append(elapsed)
                passes["cpu"].append(cpu)
                passes["when"].append(when)
                passes["spans"].append(experiment_spans(path))
                passes["bytes"].append(path.stat().st_size)
                path.unlink()
        passes["norm"] = [cpu * probe.scale(*when) for cpu, when in zip(passes["cpu"], passes["when"])]
        passes["probe"] = [probe.describe()]
        return passes


def experiment_spans(path) -> Dict[str, float]:
    """``{eN: wall_s}`` from one run_all telemetry file."""
    walls = {}
    with open(path) as fh:
        for line in fh:
            if '"experiment.e' not in line:
                continue
            record = json.loads(line)
            if record.get("event") == "span" and record.get("depth") == 0:
                walls[record["path"].split(".", 1)[1]] = record["wall_s"]
    return walls


def run(seed: int, seconds: float, trace: bool, delay_s: float = 0.0) -> Outcome:
    outcome = Outcome()
    if not trace:
        probe_setup()  # untimed: the first probe in a checkout compiles kernels
        with one_cpu_probe() as speed:
            spans = [probe_setup() for _ in range(SETUP_PROBES)]
        probes = speed.scaled(spans)
        outcome.e2e["setup_s"] = median(probes)
        outcome.note("setup_s", median(probes), "s",
                     f"median of {len(probes)} probes at the reference speed: {fmt(probes)}; "
                     f"unscaled median {median([e - s for s, e in spans]):.4g} s")
    patcher = Patcher()
    if delay_s > 0:
        owner, attr = resolve(DELAY_SITE)
        patcher.patch(owner, attr, delay_wrapper(delay_s))
    with patcher:
        bench = Tables()
        _, _, text, _ = bench.one_pass(["--no-telemetry"])
        digest = hashlib.sha256(text.encode()).hexdigest()
        say(f"# tables: seed {seed} does not change run_all's fixed inputs")
        say(f"# tables: --no-telemetry stdout sha256 {digest} ({len(text.encode())} B)")
        budget = seconds / 2 if trace else seconds
        plain = bench.timed_passes(budget)
        tracer: Optional[Tracer] = None
        traced: Dict[str, list] = {}
        if trace:
            tracer = Tracer()
            with Patcher() as hooks:
                hooks.install(tracer, TABLES_HOOKS)
                for key in bench.run_all.REGISTRY:
                    hooks.patch_item(
                        bench.run_all.REGISTRY, key,
                        lambda fn, key=key: make_wrapper(
                            tracer, "span", f"experiments.{key}", fn),
                    )
                traced = bench.timed_passes(budget)
    outcome.attempted = bench.attempted
    for failure in bench.failures:
        outcome.fail(failure)

    times, spans = plain["wall"], plain["spans"]
    pass_s = median(times)
    outcome.note("tables_s", pass_s, "s", f"median of {len(times)} passes: {fmt(times)}")
    cpu_norm_ms = median(plain["norm"]) * 1e3
    outcome.note("cpu_norm_ms", cpu_norm_ms, "ms",
                 f"process CPU per pass at the reference speed, median of {fmt(plain['norm'])} s; "
                 f"unscaled median {median(plain['cpu']) * 1e3:.0f} ms; {plain['probe'][0]}")
    for key in sorted(spans[0]):
        outcome.note(f"{key}_s", median([s.get(key, 0.0) for s in spans]), "s",
                     "median, from run_all's telemetry")
    outcome.e2e.update(rss_peak_mb=rss_peak_mb(), cpu_norm_ms=cpu_norm_ms)
    outcome.layers["tables_s"] = pass_s
    if tracer is not None:
        traced_s = median(traced["wall"])
        outcome.layers.update(span_metrics([tracer.summary()], len(traced["wall"])))
        outcome.layers["obs.telemetry_bytes"] = median(plain["bytes"])
        outcome.layers["trace.overhead_frac"] = traced_s / pass_s - 1.0
        outcome.note("traced tables_s", traced_s, "s", f"median of {len(traced['wall'])} passes")
        e9_incl = outcome.layers["experiments.e9_s"]
        share = outcome.layers["graphs.sample_near_min_cuts_s"] / e9_incl if e9_incl else 0.0
        say(f"# tables: graphs.sample_near_min_cuts_s is {share:.1%} of experiments.e9_s")
        outcome.trace_file(tracer, f"tables-{seed}")
    return outcome
