"""One registry of benchmark gates, written to ``.bench/report.json``.

Each gate is a function ``gate(quick)`` that yields checks shaped
``{requirement, value, bound, verdict, reason}`` (plus ``details``
holding the supporting measurements).  ``verdict`` is ``pass``,
``fail`` or ``skipped``; a check that cannot run here (no native
toolchain, no fork start method, too few cores, no BENCH_PR1
baseline) reads ``skipped`` with its reason and never ``pass``.  A gate
that raises keeps the checks it already yielded and gains one ``fail``.

Gates, in run order:

``cut_kernel``
    one batched ``CSRGraph.cut_weights`` call on 4096 cuts is >= 5x
    faster than 4096 ``DiGraph.cut_weight`` calls.
``obs_guard``
    every later observability layer imported and idle; telemetry off,
    the guard workload stays within 1.05x of the committed BENCH_PR1
    ``csr_batch_median_s``.
``live``
    a live bus + aggregator + default SLO engine costs <= 1.05x of plain
    enabled telemetry on the spanned guard workload.
``memory``
    a sample-mode memory profiler takes RSS samples on the same
    workload; its overhead is recorded.
``slo``
    ``run_all --slo`` exits 6 on a seeded breach and 0 on a loose rule,
    for a ``metric:`` and an ``rss:`` spec.
``digests``
    ``run_all --no-telemetry`` stdout equals the golden file byte for
    byte under python and native kernels and with a live bus, each at
    jobs 1/2/4; ``--memory`` runs agree at jobs 1/2/4.
``parallel``
    16 blocking trials run >= 3x faster on 4 workers.
``kernels``
    native >= 5x geometric-mean speedup over the python reference.
``transport``
    the shared-memory result arena is >= 1.5x faster than the pickle
    pipe.
``serving``
    served digest parity, >= 3x batched-vs-unbatched QPS, p99 <= 250ms
    and k-server min-cut parity against real daemons
    (``scripts/cut_bench.py``).
``pytest_benchmarks``
    the pytest-benchmark sweep runs green; its medians are recorded.

The exit code is 1 if and only if a selected gate has a ``fail``.  The
committed ``BENCH_PR*.json`` files are historical and never written.

Usage::

    PYTHONPATH=src python scripts/bench_report.py [--gate NAME ...] [--quick]
"""

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro import obs  # noqa: E402
from repro.graphs.cuts import all_directed_cut_values  # noqa: E402
from repro.graphs.generators import (  # noqa: E402
    random_balanced_digraph,
    random_regularish_ugraph,
)
from repro.obs.session import EXIT_SLO_BREACH, session  # noqa: E402
from repro.sketch.sparsifier import SparsifierSketch  # noqa: E402

REPORT = Path(".bench") / "report.json"
GOLDEN = Path("tests/experiments/golden/run_all_no_telemetry.txt")
PASS, FAIL, SKIPPED = "pass", "fail", "skipped"
GATE_CUTS = 4096
GATE_NODES = 256
JOBS = (1, 2, 4)
BENCH_FILES = [
    "benchmarks/bench_cut_kernel.py",
    "benchmarks/bench_sparsifier_quality.py",
    "benchmarks/bench_theorem11_foreach.py",
    "benchmarks/bench_theorem12_forall.py",
]


# ----------------------------------------------------------------------
# checks and shared helpers
# ----------------------------------------------------------------------


def check(requirement, value=None, bound=None, ok=True, reason=None,
          skip=None, **details):
    """One report entry; ``skip`` (a reason) overrides ``ok``."""
    entry = {
        "requirement": requirement,
        "value": value,
        "bound": bound,
        "verdict": SKIPPED if skip else PASS if ok else FAIL,
        "reason": skip or reason,
    }
    if details:
        entry["details"] = details
    return entry


def bounded(requirement, value, op, limit, ok=True, **kwargs):
    """A check that ``value op limit`` holds (``op`` is ``>=`` or ``<=``)."""
    holds = value >= limit if op == ">=" else value <= limit
    return check(requirement, value, f"{op} {limit}", ok and holds, **kwargs)


def median_time(fn, repeats=5):
    """Median wall time of ``repeats`` calls of ``fn``."""
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


@contextlib.contextmanager
def environ(**values):
    """Set environment variables for the block, then restore them."""
    saved = {name: os.environ.get(name) for name in values}
    os.environ.update(values)
    try:
        yield
    finally:
        for name, old in saved.items():
            if old is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = old


def guard_workload():
    """The 256-node graph, 4096 random sides, and its warmed CSR batch."""
    rng = np.random.default_rng(7)
    graph = random_balanced_digraph(
        GATE_NODES, beta=2.0, density=0.3, rng=GATE_NODES
    )
    nodes = graph.nodes()
    sides = []
    for _ in range(GATE_CUTS):
        picks = rng.choice(len(nodes), size=int(rng.integers(1, len(nodes))),
                           replace=False)
        sides.append(frozenset(nodes[i] for i in picks))
    csr = graph.freeze()
    member = csr.membership_matrix(sides)
    csr.cut_weights(member)  # warm the dense adjacency cache
    return graph, sides, csr, member


def pr1_baseline():
    """The committed BENCH_PR1 ``csr_batch_median_s``, or ``None``."""
    try:
        data = json.loads((REPO / "BENCH_PR1.json").read_text())
        return float(data["micro"]["cut_kernel_4096"]["csr_batch_median_s"])
    except (OSError, ValueError, KeyError, TypeError):
        return None


def session_overhead(**wiring):
    """Spanned guard workload under ``session(**wiring)`` vs plain
    enabled telemetry: ``(session, plain_s, wired_s)``."""
    _, _, csr, member = guard_workload()

    def spanned():
        with obs.span("bench.cut_weights"):
            csr.cut_weights(member)

    with session(enable=True):
        plain_s = median_time(spanned, repeats=9)
    with session(**wiring) as wired:
        wired_s = median_time(spanned, repeats=9)
    return wired, plain_s, wired_s


def run_all_quiet(argv):
    """``run_all.main(argv)`` with stdout captured: ``(rc, stdout)``."""
    from repro.experiments.run_all import main as run_all_main

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = run_all_main(argv)
    return rc, buf.getvalue()


def run_all_digest(*flags, live=False):
    """Sha256 of the complete E1-E9 ``--no-telemetry`` stdout.

    ``live=True`` installs a bus + aggregator around the run, so worker
    heartbeats and parent-side tick draining are on while telemetry
    (and with it the bound-check lines) stays off.
    """
    from repro.obs import live as live_mod

    with contextlib.ExitStack() as stack:
        if live:
            bus = stack.enter_context(live_mod.publishing())
            live_mod.LiveAggregator().attach(bus)
        rc, text = run_all_quiet(["--no-telemetry", *flags])
    if rc != 0:
        raise RuntimeError(f"run_all {' '.join(flags)} exited {rc}")
    return {
        "flags": list(flags),
        "bytes": len(text),
        "sha256": hashlib.sha256(text.encode()).hexdigest(),
    }


def slo_exit_code(experiment, spec, *flags):
    """Exit code of ``run_all --slo=spec`` on one experiment."""
    with tempfile.TemporaryDirectory() as tmp:
        telemetry = os.path.join(tmp, "telemetry.jsonl")
        rc, _ = run_all_quiet(
            ["--telemetry", telemetry, *flags, f"--slo={spec}", experiment]
        )
    return rc


def native_missing():
    """Why the native kernels cannot load here, or ``None``."""
    from repro.kernels import KernelUnavailableError, native_cc

    try:
        native_cc.load()
    except KernelUnavailableError as exc:
        return f"no native toolchain: {exc}"
    return None


# ----------------------------------------------------------------------
# gates
# ----------------------------------------------------------------------


def gate_cut_kernel(quick):
    graph, sides, csr, member = guard_workload()
    dict_s = median_time(lambda: [graph.cut_weight(s) for s in sides], 3)
    batch_s = median_time(lambda: csr.cut_weights(member))

    # Recorded alongside: full 2^15 cut enumeration on both engines, and
    # sparsifier quality evaluation through query_many vs looped query.
    g16 = random_balanced_digraph(16, beta=2.0, density=0.5, rng=16)
    enum = {
        engine: median_time(
            lambda: list(all_directed_cut_values(g16, engine=engine)), 3
        )
        for engine in ("dict", "csr")
    }
    g14 = random_balanced_digraph(14, beta=2.0, density=0.5, rng=14)
    sketch = SparsifierSketch(g14, 0.5, rng=3, constant=0.4)
    eval_sides = [side for side, _ in all_directed_cut_values(g14, engine="csr")]
    loop_s = median_time(lambda: [sketch.query(set(s)) for s in eval_sides], 3)
    many_s = median_time(lambda: sketch.query_many(eval_sides), 3)
    yield bounded(
        f"cut_weights on {GATE_CUTS} cuts vs looped cut_weight (speedup)",
        dict_s / batch_s, ">=", 5.0,
        nodes=GATE_NODES, edges=graph.num_edges,
        dict_loop_median_s=dict_s, csr_batch_median_s=batch_s,
        cut_enumeration_n16={
            "dict_engine_median_s": enum["dict"],
            "csr_engine_median_s": enum["csr"],
            "speedup": enum["dict"] / enum["csr"],
        },
        sparsifier_quality_n14={
            "cuts": len(eval_sides),
            "query_loop_median_s": loop_s,
            "query_many_median_s": many_s,
            "speedup": loop_s / many_s,
        },
    )


def gate_obs_guard(quick):
    from repro.obs import (  # noqa: F401 - imported to prove they are free
        bounds, capture, export, exporters, live, memory, profile, replay,
        slo,
    )

    active = [
        name
        for name, on in (
            ("bounds", bounds.active()),
            ("capture", capture.active() is not None),
            ("live", live.active() is not None),
            ("memory", memory.active() is not None),
            ("profile", sys.getprofile() is not None),
        )
        if on
    ]
    yield check(
        "bounds, profile, capture, export, replay, live, slo, exporters "
        "and memory imported with none active",
        active, [], not active, reason=f"active: {active}" if active else None,
    )
    requirement = (
        f"instrumented cut_weights on {GATE_CUTS} cuts, telemetry disabled, "
        "every obs layer imported, over the BENCH_PR1 baseline"
    )
    baseline = pr1_baseline()
    if baseline is None:
        yield check(requirement, bound="<= 1.05", skip="no BENCH_PR1 baseline")
        return
    _, _, csr, member = guard_workload()
    obs.disable()
    disabled_s = median_time(lambda: csr.cut_weights(member), repeats=9)
    with session(enable=True):
        enabled_s = median_time(lambda: csr.cut_weights(member), repeats=9)
    yield bounded(
        requirement, disabled_s / baseline, "<=", 1.05,
        pr1_baseline_s=baseline, disabled_median_s=disabled_s,
        enabled_median_s=enabled_s,
        enabled_over_disabled=enabled_s / disabled_s,
    )


def gate_live(quick):
    wired, plain_s, live_s = session_overhead(slo="")
    errors = wired.bus.errors
    yield bounded(
        f"spanned cut_weights on {GATE_CUTS} cuts with a live bus, "
        "aggregator and default SLO engine, over plain enabled telemetry",
        live_s / plain_s, "<=", 1.05,
        ok=not errors, reason=f"subscriber errors: {errors}" if errors else None,
        plain_enabled_median_s=plain_s, live_enabled_median_s=live_s,
        bus_records=wired.bus.published,
    )


def gate_memory(quick):
    from repro.obs import memory

    wired, plain_s, sample_s = session_overhead(memory_mode=memory.SAMPLE)
    yield bounded(
        f"RSS samples taken by a sample-mode memory profiler during "
        f"spanned cut_weights on {GATE_CUTS} cuts (overhead recorded)",
        wired.memory.rss_record()["samples"], ">=", 1,
        plain_enabled_median_s=plain_s, sample_mode_median_s=sample_s,
        overhead_ratio=sample_s / plain_s,
    )


def gate_slo(quick):
    for experiment, flags, tight, loose in (
        ("e3", (), "metric:oracle.query.neighbor<=10",
         "metric:oracle.query.neighbor<=1000000000"),
        ("e1", ("--memory",), "rss:<=1000", "rss:<=1000000000000"),
    ):
        rcs = [slo_exit_code(experiment, spec, *flags) for spec in (tight, loose)]
        want = [EXIT_SLO_BREACH, 0]
        yield check(
            f"run_all {' '.join(flags + ('--slo',))} exits "
            f"{EXIT_SLO_BREACH} on {tight!r} and 0 on {loose!r}",
            rcs, want, rcs == want,
        )


def gate_digests(quick):
    golden = hashlib.sha256((REPO / GOLDEN).read_bytes()).hexdigest()
    no_native = native_missing()
    with environ(REPRO_HEARTBEAT_S="0"):  # heartbeats on every trial
        for label, flags, live, skip in (
            ("python kernels", ("--kernels", "python"), False, None),
            ("native kernels", ("--kernels", "native"), False, no_native),
            ("a live bus and heartbeats", (), True, None),
        ):
            requirement = (
                f"run_all --no-telemetry stdout with {label} at jobs "
                f"1/2/4 equals {GOLDEN} byte for byte"
            )
            if skip:
                yield check(requirement, bound=golden, skip=skip)
                continue
            runs = [run_all_digest("--jobs", str(j), *flags, live=live)
                    for j in JOBS]
            shas = sorted({run["sha256"] for run in runs})
            yield check(requirement, shas, golden, shas == [golden], runs=runs)

        runs = [run_all_digest("--jobs", str(j), "--memory") for j in JOBS]
        shas = sorted({run["sha256"] for run in runs})
        yield check(
            "run_all --no-telemetry --memory stdout (measured space_bytes "
            "bound checks included) byte-identical at jobs 1/2/4",
            len(shas), 1, len(shas) == 1, runs=runs,
        )


def _blocking_trial(rng):
    time.sleep(0.35)
    return float(rng.random())


def _cpu_trial(rng):
    total = 0
    for value in rng.integers(0, 1 << 16, size=20000).tolist():
        total = (total * 31 + value) % 1000003
    return total


def gate_parallel(quick):
    from repro.parallel import fork_available, run_trials

    requirement = "16 blocking trials (0.35s each) on 4 workers vs serial (speedup)"
    cpu_requirement = "16 CPU-bound trials on 4 workers vs serial (speedup, recorded)"
    if not fork_available():
        yield check(requirement, bound=">= 3.0", skip="fork start method unavailable")
        yield check(cpu_requirement, skip="fork start method unavailable")
        return

    results = {}

    def blocking(jobs):
        results[jobs] = run_trials(
            _blocking_trial, 16, np.random.default_rng(1), jobs=jobs
        )

    serial_s = median_time(lambda: blocking(1), repeats=1)
    jobs4_s = median_time(lambda: blocking(4), repeats=1)
    same = results[1] == results[4]
    yield bounded(
        requirement, serial_s / jobs4_s, ">=", 3.0, ok=same,
        reason=None if same else "4-worker results differ from serial",
        serial_s=serial_s, jobs4_s=jobs4_s,
    )
    # CPU-bound fan-out cannot beat physics below 4 cores; the digest
    # gate carries the determinism evidence there.
    cores = os.cpu_count() or 1
    if cores < 4:
        yield check(cpu_requirement, skip="skipped_insufficient_cores")
        return

    def cpu(jobs):
        return median_time(
            lambda: run_trials(_cpu_trial, 16, np.random.default_rng(2),
                               jobs=jobs),
            repeats=3,
        )

    cpu_serial, cpu_jobs4 = cpu(1), cpu(4)
    yield check(cpu_requirement, cpu_serial / cpu_jobs4,
                serial_median_s=cpu_serial, jobs4_median_s=cpu_jobs4)


def gate_kernels(quick):
    from repro.graphs.mincut import stoer_wagner
    from repro.kernels import get_backend, using_backend
    from repro.linalg.hadamard import Lemma32Matrix

    requirement = (
        "native over python reference on dinic + contraction + hadamard "
        "decode + stoer-wagner (geometric-mean speedup)"
    )
    missing = native_missing()
    if missing:
        yield check(requirement, bound=">= 5.0", skip=missing)
        return

    csr = random_balanced_digraph(200, beta=2.0, density=0.15, rng=200).freeze()
    gen = np.random.default_rng(12)
    n, m = 400, 12000
    tails = gen.integers(0, n, size=m).astype(np.int64)
    heads = ((tails + 1 + gen.integers(0, n - 1, size=m)) % n).astype(np.int64)
    weights = gen.random(m) + 0.5
    uniforms = gen.random(n)
    matrix = Lemma32Matrix(16)
    x = gen.integers(-30, 30, size=matrix.row_length).astype(np.float64)
    regular = random_regularish_ugraph(128, 6, rng=128)
    workloads = {
        # 5 max-flow solves on an n=200 balanced digraph
        "dinic": lambda: [csr.max_flow(0, t).value for t in range(1, 6)],
        # full contraction to 2 supernodes, n=400 m=12000
        "contraction": lambda: get_backend().contract_to(
            tails, heads, weights, np.arange(n, dtype=np.int64), n, 2,
            uniforms,
        ),
        # 225 single-coefficient decodes, side=16
        "hadamard_decode": lambda: [
            matrix.decode_coefficient(x, t) for t in range(matrix.num_rows)
        ],
        # one exact global min cut, n=128 degree ~6
        "stoer_wagner": lambda: stoer_wagner(regular),
    }
    timings, equal = {}, True
    for name, fn in workloads.items():
        seconds, outputs = {}, []
        for backend in ("python", "native"):
            with using_backend(backend):
                seconds[f"{backend}_s"] = median_time(fn, repeats=3)
                outputs.append(fn())
        equal = equal and outputs[0] == outputs[1]
        timings[name] = {**seconds,
                         "speedup": seconds["python_s"] / seconds["native_s"]}
    geomean = math.prod(t["speedup"] for t in timings.values()) ** (
        1 / len(timings)
    )
    yield bounded(
        requirement, geomean, ">=", 5.0, ok=equal,
        reason=None if equal else "native outputs differ from the reference",
        kernels=timings,
        gomory_hu=gomory_hu_timing(),
    )


def gomory_hu_timing():
    """Gusfield on a 32-node degree-6 graph under both backends.

    Reported in the kernels gate's details only, outside its geomean:
    the sparsifier's per-edge connectivities come from this tree.
    """
    from repro.graphs.gomory_hu import gomory_hu_tree
    from repro.kernels import using_backend

    graph = random_regularish_ugraph(32, 6, rng=32)

    def build():
        tree = gomory_hu_tree(graph)
        return tree.parent, tree.parent_weight

    seconds, outputs = {}, []
    for backend in ("python", "native"):
        with using_backend(backend):
            seconds[f"{backend}_s"] = median_time(build, repeats=3)
            outputs.append(build())
    return {**seconds, "speedup": seconds["python_s"] / seconds["native_s"],
            "equal": outputs[0] == outputs[1]}


def gate_transport(quick):
    from repro.parallel import TrialPool, fork_available, shmipc

    requirement = (
        "shared-memory arena over the pickle pipe on 96 x 2MiB numeric "
        "results (speedup, median of 5)"
    )
    if not fork_available():
        yield check(requirement, bound=">= 1.5", skip="fork start method unavailable")
        return

    def payload(i):
        return np.full(262144, float(i))  # 2 MiB per result

    def timed(shm):
        with environ(**{shmipc.SHM_ENV: "1" if shm else "0",
                        shmipc.SHM_SLOT_ENV: str(128 << 20)}):
            pool = TrialPool(jobs=2, chunk_factor=2)
            seconds = median_time(lambda: pool.map(payload, list(range(96))))
            return seconds, dict(pool.last_transport_stats)

    pickle_s, pickle_stats = timed(False)
    shm_s, shm_stats = timed(True)
    pure = shm_stats["pickle_chunks"] == 0 and pickle_stats["shm_chunks"] == 0
    # The win is pipe avoidance, observable only end to end: on one core
    # the workers and the parent fight for the CPU, so it cannot show.
    cores = os.cpu_count() or 1
    yield bounded(
        requirement, pickle_s / shm_s, ">=", 1.5, ok=pure,
        reason=None if pure else "a run fell back to the other transport",
        skip="skipped_insufficient_cores" if cores < 2 else None,
        pickle_median_s=pickle_s, shm_median_s=shm_s,
        pickle_stats=pickle_stats, shm_stats=shm_stats,
    )


def gate_serving(quick):
    import cut_bench  # next to this script, so on sys.path

    workdir = REPO / ".bench" / "serving"
    workdir.mkdir(parents=True, exist_ok=True)
    direct, served = cut_bench.parity_digests(workdir)
    shas = sorted({direct, *(d for entry in served.values() for d in entry.values())})
    yield check(
        "served cut values byte-identical to in-process cut_weights_stable "
        "across batched/unbatched servers and the cut_weights batch op "
        "(canonical-JSON sha256)",
        shas, direct, shas == [direct], served=served,
    )

    per_stream = cut_bench.REQUESTS_PER_STREAM // (4 if quick else 1)
    unbatched = cut_bench.measure_config(
        "unbatched", workdir, cut_bench.UNBATCHED, per_stream
    )
    batched = cut_bench.measure_config(
        "batched", workdir, cut_bench.BATCHED, per_stream
    )
    # On one core the load generator and the daemon timeshare the CPU,
    # so the ratio reflects scheduler interleaving, not serving capacity.
    cores = os.cpu_count() or 1
    yield bounded(
        "batched vs unbatched QPS on the concurrent closed-loop workload",
        batched["qps"] / unbatched["qps"] if unbatched["qps"] else 0.0,
        ">=", 3.0,
        skip="skipped_insufficient_cores" if cores < 2 else None,
        unbatched=unbatched, batched=batched,
    )
    yield bounded(
        "batched closed-loop p99 latency (ms) at the sustained QPS",
        batched["latency_ms"]["p99"], "<=", cut_bench.P99_BOUND_MS,
        sustained_qps=batched["qps"], open_loop=cut_bench.open_loop(workdir),
    )

    reference, served = cut_bench.kserver_min_cut(workdir, quick)
    fields = ("value", "sketch_bits", "query_bits")
    want = {f: getattr(reference, f) for f in fields}
    got = {f: getattr(served, f) for f in fields}
    same_side = set(served.side) == set(reference.side)
    yield check(
        "distributed_min_cut over 3 daemon processes returns the in-process "
        "value/side/sketch_bits/query_bits",
        got, want, got == want and same_side,
        reason=None if same_side else "served min-cut side differs",
    )


def gate_pytest_benchmarks(quick):
    requirement = f"pytest-benchmark sweep over {', '.join(BENCH_FILES)} exits 0"
    if importlib.util.find_spec("pytest_benchmark") is None:
        yield check(requirement, skip="pytest-benchmark not installed")
        return
    with tempfile.TemporaryDirectory() as tmp:
        json_path = os.path.join(tmp, "benchmarks.json")
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", *BENCH_FILES, "--benchmark-only",
             f"--benchmark-json={json_path}", "-q"],
            cwd=REPO,
            env={"PYTHONPATH": "src", "PATH": os.environ.get("PATH", "")},
            capture_output=True,
            text=True,
        )
        if proc.returncode != 0:
            yield check(requirement, proc.returncode, 0, False,
                        reason=(proc.stdout + proc.stderr)[-2000:])
            return
        data = json.loads(Path(json_path).read_text())
    yield check(
        requirement, proc.returncode, 0,
        medians_s={b["fullname"]: b["stats"]["median"] for b in data["benchmarks"]},
    )


GATES = {
    "cut_kernel": gate_cut_kernel,
    "obs_guard": gate_obs_guard,
    "live": gate_live,
    "memory": gate_memory,
    "slo": gate_slo,
    "digests": gate_digests,
    "parallel": gate_parallel,
    "kernels": gate_kernels,
    "transport": gate_transport,
    "serving": gate_serving,
    "pytest_benchmarks": gate_pytest_benchmarks,
}


# ----------------------------------------------------------------------
# report
# ----------------------------------------------------------------------


def header():
    """Machine and provenance stamp carried by every report."""
    from repro.kernels import KernelUnavailableError, get_backend
    from repro.obs.store import DEFAULT_STORE, ExperimentStore, StoreError

    out = {
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }
    try:
        backend = get_backend()
        out["kernels"] = {"name": backend.name, "source": backend.source}
    except KernelUnavailableError as exc:
        out["kernels"] = {"error": str(exc)}
    try:
        store_root = REPO / DEFAULT_STORE
        if ExperimentStore.is_store(store_root):
            store = ExperimentStore.open(store_root)
            kind, value = store.refs.head()
            out["store"] = {
                "commit": store.refs.resolve_head(),
                "branch": value if kind == "branch" else None,
            }
    except StoreError as exc:
        out["store"] = {"error": str(exc)}
    return out


def _shown(value):
    if isinstance(value, float):
        return f"{value:.3g}"
    text = value if isinstance(value, str) else json.dumps(value)
    return text if len(text) <= 40 else text[:37] + "..."


def run_gate(name, quick):
    """Every check the gate yields; an exception becomes one ``fail``."""
    checks = []
    try:
        for entry in GATES[name](quick):
            checks.append(entry)
    except Exception as exc:  # one broken gate must not hide the others
        traceback.print_exc()
        checks.append(check(f"gate {name} runs to completion", ok=False,
                            reason=f"{type(exc).__name__}: {exc}"))
    return checks


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--gate", action="extend", nargs="+", choices=list(GATES),
        metavar="NAME",
        help=f"gates to run (default: all): {', '.join(GATES)}",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="CI-sized serving run (fewer requests, smaller k-server graph)",
    )
    args = parser.parse_args(argv)

    report = {"header": header(), "gates": {}}
    for name in dict.fromkeys(args.gate or GATES):
        print(f"== {name} ==", flush=True)
        report["gates"][name] = run_gate(name, args.quick)
        for entry in report["gates"][name]:
            line = f"{entry['verdict'].upper():7} {entry['requirement']}"
            if entry["value"] is not None:
                line += f": {_shown(entry['value'])}"
            if entry["bound"] is not None:
                line += f" (bound {_shown(entry['bound'])})"
            if entry["reason"]:
                line += f" - {entry['reason'].splitlines()[-1]}"
            print(line, flush=True)

    out = REPO / REPORT
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=2) + "\n")
    failed = [
        name
        for name, checks in report["gates"].items()
        if any(entry["verdict"] == FAIL for entry in checks)
    ]
    print(f"wrote {out}")
    print(f"failed gates: {', '.join(failed)}" if failed else "no gate failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
