"""Daemons, workload and load generator for the ``serving`` gate.

``scripts/bench_report.py --gate serving`` drives these: real
``python -m repro.serving.server`` daemons on ephemeral ports (bound
addresses learned from their stderr announcements), a multi-process
load generator, and the k-server min-cut run across three daemons.

Load modes: closed-loop (each of P procs x C streams keeps one request
in flight; the throughput gate's workload) and open-loop (requests
issued on a fixed schedule regardless of completions, the arrival
model that surfaces queueing delay honestly; reported alongside).
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing as mp
import os
import subprocess
import sys
import time
from contextlib import ExitStack
from pathlib import Path
from queue import Empty

import numpy as np

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.graphs.generators import random_regularish_ugraph  # noqa: E402
from repro.obs.announce import read_announcement  # noqa: E402
from repro.serving.client import AsyncServingClient, ServingClient  # noqa: E402

# Workload shape (chosen so the adaptive batcher sees deep in-flight
# queues: per-row kernel work small, concurrency high).
GRAPH_N = 512
GRAPH_DEGREE = 8
GRAPH_SEED = 5
SIDE_POOL = 64
SIDE_SEED = 42
PROCS = 2
STREAMS = 24
REQUESTS_PER_STREAM = 150  # closed-loop
# The bound of the daemon's own default SLO rule, span:serve.request:p99<=0.25.
P99_BOUND_MS = 250.0
OPEN_LOOP_QPS = 500.0  # per process
OPEN_LOOP_S = 3.0
# A load-generator process that gives no result within this is dead or hung.
LOADGEN_TIMEOUT_S = 120.0
BATCHED = {"max_batch": 256, "window_s": 0.002}
UNBATCHED = {"max_batch": 1, "window_s": 0.0}


def build_workload():
    graph = random_regularish_ugraph(GRAPH_N, GRAPH_DEGREE, rng=GRAPH_SEED)
    nodes = list(graph.nodes())
    rng = np.random.default_rng(SIDE_SEED)
    sides = []
    for _ in range(SIDE_POOL):
        size = int(rng.integers(1, len(nodes)))
        picks = rng.choice(len(nodes), size=size, replace=False)
        sides.append([nodes[i] for i in picks])
    return graph, sides


def values_digest(values) -> str:
    """Canonical-JSON sha256 of a float list: byte-level equality."""
    body = json.dumps(
        [float(v) for v in values], separators=(",", ":"), allow_nan=False
    ).encode()
    return hashlib.sha256(body).hexdigest()


# ----------------------------------------------------------------------
# daemon management
# ----------------------------------------------------------------------


class Daemon:
    """One ``repro.serving.server`` subprocess on an ephemeral port."""

    def __init__(self, tag: str, workdir: Path, max_batch: int, window_s: float):
        self.log = workdir / f"server_{tag}.log"
        self.stderr = self.log.open("w")
        self.proc = None
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO / "src")
        try:
            self.proc = subprocess.Popen(
                [
                    sys.executable,
                    "-m",
                    "repro.serving.server",
                    "--port", "0",
                    "--max-batch", str(max_batch),
                    "--batch-window-s", str(window_s),
                ],
                stderr=self.stderr,
                env=env,
            )
            url = read_announcement(self.log, "serving", timeout_s=30.0)
        except BaseException:
            self.stop()
            raise
        self.host, port = url.replace("tcp://", "").rsplit(":", 1)
        self.port = int(port)

    def stop(self) -> None:
        try:
            if self.proc is not None:
                self.proc.terminate()
                try:
                    self.proc.wait(timeout=10)
                except subprocess.TimeoutExpired:
                    self.proc.kill()
                    self.proc.wait()
        finally:
            self.stderr.close()

    def __enter__(self) -> "Daemon":
        return self

    def __exit__(self, *exc_info) -> bool:
        self.stop()
        return False


# ----------------------------------------------------------------------
# load generator workers (run in separate processes)
# ----------------------------------------------------------------------


def _closed_loop_worker(host, port, streams, per_stream, wid, queue):
    """C streams, each keeping exactly one request in flight."""
    import asyncio

    graph, sides = build_workload()

    async def main():
        client = AsyncServingClient(host, port, name=f"loadgen-{wid}")
        await client.connect()
        oid = await client.register_graph(graph)
        latencies = []

        async def stream(sid):
            for i in range(per_stream):
                t0 = time.perf_counter()
                await client.cut_weight(oid, sides[(i + sid) % len(sides)])
                latencies.append(time.perf_counter() - t0)

        await asyncio.gather(*[stream(s) for s in range(streams)])
        await client.close()
        return latencies

    start = time.perf_counter()
    latencies = asyncio.run(main())
    queue.put((wid, len(latencies), time.perf_counter() - start, latencies))


def _open_loop_worker(host, port, rate_qps, duration_s, wid, queue):
    """Fixed-schedule arrivals: send every 1/rate seconds, regardless
    of completions (latency then includes real queueing delay)."""
    import asyncio

    graph, sides = build_workload()

    async def main():
        client = AsyncServingClient(host, port, name=f"openloop-{wid}")
        await client.connect()
        oid = await client.register_graph(graph)
        latencies = []
        tasks = []
        interval = 1.0 / rate_qps
        loop_start = time.perf_counter()
        i = 0

        async def one(side):
            t0 = time.perf_counter()
            await client.cut_weight(oid, side)
            latencies.append(time.perf_counter() - t0)

        while time.perf_counter() - loop_start < duration_s:
            tasks.append(asyncio.ensure_future(one(sides[i % len(sides)])))
            i += 1
            next_send = loop_start + i * interval
            delay = next_send - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
        await asyncio.gather(*tasks)
        await client.close()
        return latencies

    start = time.perf_counter()
    latencies = asyncio.run(main())
    queue.put((wid, len(latencies), time.perf_counter() - start, latencies))


def _run_workers(target, args_per_worker):
    queue = mp.Queue()
    procs = [
        mp.Process(target=target, args=(*args, queue))
        for args in args_per_worker
    ]
    start = time.perf_counter()
    for p in procs:
        p.start()
    try:
        # Drained before the joins below: joining a process that still
        # has queued output can deadlock.
        results = [queue.get(timeout=LOADGEN_TIMEOUT_S) for _ in procs]
    except BaseException as exc:
        for p in procs:
            p.terminate()
        if isinstance(exc, Empty):
            raise RuntimeError(
                f"a load-generator process gave no result within "
                f"{LOADGEN_TIMEOUT_S:.0f}s"
            ) from None
        raise
    finally:
        for p in procs:
            p.join()
    wall = time.perf_counter() - start
    total = sum(r[1] for r in results)
    latencies = sorted(x for r in results for x in r[3])
    return {
        "requests": total,
        "wall_s": wall,
        "qps": total / wall if wall > 0 else 0.0,
        "latency_ms": _latency_stats(latencies),
    }


def _latency_stats(latencies):
    if not latencies:
        return None
    arr = np.asarray(latencies)
    return {
        "p50": float(np.quantile(arr, 0.50)) * 1e3,
        "p95": float(np.quantile(arr, 0.95)) * 1e3,
        "p99": float(np.quantile(arr, 0.99)) * 1e3,
        "max": float(arr.max()) * 1e3,
        "count": int(arr.size),
    }


# ----------------------------------------------------------------------
# measurements
# ----------------------------------------------------------------------


def _warm(daemon):
    """Register the workload graph and answer a few reads, so a timed
    window measures serving, not registration."""
    graph, sides = build_workload()
    with ServingClient(daemon.host, daemon.port) as client:
        oid = client.register_graph(graph)
        for side in sides[:8]:
            client.cut_weight(oid, side)


def measure_config(tag, workdir, config, per_stream):
    """Closed-loop QPS and latency of one daemon configuration."""
    with Daemon(tag, workdir, config["max_batch"], config["window_s"]) as d:
        _warm(d)
        result = _run_workers(
            _closed_loop_worker,
            [(d.host, d.port, STREAMS, per_stream, w) for w in range(PROCS)],
        )
        with ServingClient(d.host, d.port) as client:
            stats = client.stats()
        result["batcher"] = stats["batcher"]
        result["cache"] = {
            k: stats["cache"][k] for k in ("hits", "misses", "hit_rate")
        }
        result["config"] = dict(config)
        result["procs"], result["streams"] = PROCS, STREAMS
        result["requests_per_stream"] = per_stream
        return result


def open_loop(workdir):
    """Achieved QPS and latency under fixed-schedule arrivals."""
    with Daemon("openloop", workdir, **BATCHED) as d:
        _warm(d)
        result = _run_workers(
            _open_loop_worker,
            [(d.host, d.port, OPEN_LOOP_QPS, OPEN_LOOP_S, w)
             for w in range(PROCS)],
        )
    result["offered_qps"] = OPEN_LOOP_QPS * PROCS
    return result


def parity_digests(workdir):
    """Digest of direct in-process ``cut_weights_stable`` values, and of
    the values served one at a time and through the ``cut_weights``
    batch op by a batched and an unbatched daemon."""
    graph, sides = build_workload()
    csr = graph.freeze()
    member = csr.membership_matrix([frozenset(s) for s in sides])
    direct = values_digest(csr.cut_weights_stable(member))
    served = {}
    for tag, config in (("batched", BATCHED), ("unbatched", UNBATCHED)):
        with Daemon(f"parity_{tag}", workdir, **config) as d:
            with ServingClient(d.host, d.port) as client:
                oid = client.register_graph(graph)
                single = [client.cut_weight(oid, side) for side in sides]
                batch_op = client.cut_weights(oid, sides)
        served[tag] = {
            "single_digest": values_digest(single),
            "batch_op_digest": values_digest(batch_op),
        }
    return direct, served


def kserver_min_cut(workdir, quick):
    """Thm 5.7 in process and across 3 daemons: ``(reference, served)``."""
    from repro.distributed.coordinator import distributed_min_cut
    from repro.distributed.server import partition_edges
    from repro.serving.remote import host_shards

    graph = random_regularish_ugraph(32 if quick else 48, 4, rng=3)
    local = partition_edges(graph, 3, rng=123)
    reference = distributed_min_cut(local, epsilon=0.3, rng=77)
    with ExitStack() as stack:
        daemons = [
            stack.enter_context(Daemon(f"shard{i}", workdir, 64, 0.002))
            for i in range(3)
        ]
        clients = [
            stack.enter_context(ServingClient(d.host, d.port, name=f"coord-{i}"))
            for i, d in enumerate(daemons)
        ]
        shards = host_shards(clients, graph, num_servers=3, rng=123)
        served = distributed_min_cut(shards, epsilon=0.3, rng=77)
    return reference, served
