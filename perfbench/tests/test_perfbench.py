"""The benchmark's own tests (slow: they run the workloads briefly).

Run from the checkout root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))

from perfbench import serve, tables, tracer  # noqa: E402
from perfbench.common import SpeedProbe, load_spec, prepare_environment  # noqa: E402

prepare_environment()

WORKLOAD_SECONDS = {"tables": 1, "serve-cut": 2, "serve-mixed": 3}


def bench(workload: str, seconds: float, trace: int, *extra: str):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5",
         "--seconds", str(seconds), "--trace", str(trace), *extra],
        cwd=str(ROOT), capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:] + proc.stdout[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    values = {name: m["value"] for name, m in result["metrics"].items()}
    return result, values, proc.stdout


def names(kind: str):
    return [m["name"] for m in load_spec()[kind]]


@pytest.mark.parametrize("workload", sorted(WORKLOAD_SECONDS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_prints_exactly_the_declared_metrics(workload, trace):
    result, values, stdout = bench(workload, WORKLOAD_SECONDS[workload], trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    kind = "per_layer" if trace else "end_to_end"
    assert list(values) == names(kind)
    units = {m["name"]: m["unit"] for m in load_spec()[kind]}
    assert all(result["metrics"][n]["unit"] == units[n] for n in units)
    assert "# host: nproc=" in stdout and "host.calib_s" in stdout
    if trace == 0:
        assert all(v > 0 for v in values.values()), values


def test_traced_tables_attribute_e9_to_the_sampler():
    _, values, _ = bench("tables", 1, 1)
    assert values["graphs.sample_near_min_cuts_s"] > 0.5 * values["experiments.e9_s"]
    assert values["localquery.neighbor_queries"] > 0


def all_hook_sites():
    hooks = tracer.TABLES_HOOKS + tracer.DAEMON_HOOKS + tracer.CLIENT_HOOKS
    return sorted({site for _, _, sites in hooks for site in sites})


def originals():
    out = {}
    for site in all_hook_sites():
        owner, attr = tracer.resolve(site)
        out[site] = vars(owner)[attr]
    return out


def test_wrappers_are_removed_after_a_traced_block_even_on_error():
    before = originals()
    t = tracer.Tracer()
    with pytest.raises(RuntimeError):
        with tracer.Patcher() as patcher:
            for hooks in (tracer.TABLES_HOOKS, tracer.DAEMON_HOOKS, tracer.CLIENT_HOOKS):
                patcher.install(t, hooks)
            assert all(
                vars(tracer.resolve(s)[0])[tracer.resolve(s)[1]] is not before[s]
                for s in before
            )
            raise RuntimeError("boom")
    assert originals() == before


def test_untraced_runs_install_no_wrapper(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("an untraced run installed a wrapper")

    monkeypatch.setattr(tracer.Patcher, "install", refuse)
    outcome = serve.run_cut(3, 1.0, trace=False)
    assert outcome.failed == 0 and outcome.e2e["cpu_norm_ms"] > 0
    outcome = tables.run(3, 0.1, trace=False)
    assert outcome.failed == 0 and outcome.e2e["cpu_norm_ms"] > 0


def test_speed_probe_samples_and_always_stops():
    import time

    with SpeedProbe() as probe:
        time.sleep(0.3)
    assert probe.proc.returncode == 0 and len(probe.samples) >= 5
    start, end = probe.samples[0][0], probe.samples[-1][0]
    (scaled,) = probe.scaled([(start, end)])
    assert scaled > 0
    # A span between two samples still gets the nearest sample's speed.
    assert probe.scale(end + 1, end + 2) > 0

    with pytest.raises(RuntimeError):
        with SpeedProbe() as failing:
            raise RuntimeError("boom")
    assert failing.proc.returncode == 0


def test_busy_trampoline_times_only_running_stretches():
    import asyncio

    async def slow(x):
        await asyncio.sleep(0.05)
        return x + 1

    t = tracer.Tracer()
    wrapped = tracer.make_wrapper(t, "async", "probe", slow)

    async def main():
        return await wrapped(1)

    assert asyncio.run(main()) == 2
    assert t.calls["probe"] == 1
    assert t.self_s["probe"] < 0.02


def printed(stdout: str, name: str) -> float:
    """The value of a ``metric NAME = VALUE`` report line."""
    match = re.search(rf"^metric {re.escape(name)} = (\S+)", stdout, re.M)
    assert match, f"{name} not printed"
    return float(match.group(1))


def test_injected_cut_delay_moves_the_right_layer_and_workload():
    delay_ms = 2.0
    bound = {m["name"]: m["bound"] for m in load_spec()["end_to_end"]}
    slowed = ("--delay-cut-ms", str(delay_ms))

    _, base, base_out = bench("serve-cut", 4, 1)
    _, slow, slow_out = bench("serve-cut", 4, 1, *slowed)
    injected = delay_ms / 1e3 * slow["graphs.csr.cut_weights_stable.calls"]
    assert slow["graphs.csr.cut_weights_stable_s"] >= (
        base["graphs.csr.cut_weights_stable_s"] + 0.8 * injected)
    assert slow["serving.read_s"] < base["serving.read_s"] + 0.5 * injected
    assert printed(slow_out, "cut_p50_ms") > printed(base_out, "cut_p50_ms") + delay_ms / 2

    # Wider batches under the delay amortise it over more rows, so the
    # per-request CPU rises by less than the delay; only its sign is fixed.
    _, base, _ = bench("serve-cut", 4, 0)
    _, slow, _ = bench("serve-cut", 4, 0, *slowed)
    assert slow["cpu_norm_ms"] > base["cpu_norm_ms"]

    _, base, base_out = bench("tables", 8, 0)
    _, slow, slow_out = bench("tables", 8, 0, *slowed)
    assert abs(slow["cpu_norm_ms"] / base["cpu_norm_ms"] - 1) <= bound["cpu_norm_ms"]
    assert abs(printed(slow_out, "tables_s") / printed(base_out, "tables_s") - 1) <= bound["cpu_norm_ms"]
