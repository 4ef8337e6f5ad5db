"""The serving workloads: ``serve-cut`` and ``serve-mixed``.

Both start the daemon as a subprocess (``python -m
repro.serving.server``; the benchmark-owned :mod:`perfbench.daemon`
launcher when tracing or injecting a delay) and drive it from this one
process over two :class:`~repro.serving.client.AsyncServingClient`
connections.

``serve-cut``
    Reads only: ``cut_weight`` on a 512-node, degree-8 graph, sides
    drawn from a seeded pool of 64.  A closed loop (16 requests in
    flight per connection) for half the run, then an open loop at a
    fixed 2000 qps, each request timed from when it was due.

``serve-mixed``
    A closed loop of iterations, one at a time, over a seeded pool of
    64–128-node graphs, with ``--cache-bytes`` holding about a third of
    the pool.  Each iteration registers the next graph (a miss that
    builds a snapshot and evicts); sends one ``min_cut`` on it while
    pipelining 16 ``cut_weight`` reads plus one 16-mask ``cut_weights``
    batch on the other connection; then runs one ``sketch_query`` on a
    hot graph whose sketch is built in set-up.

Correctness is checked after the timed windows against in-process
evaluation of the same inputs.
"""

from __future__ import annotations

import asyncio
import gc
import hashlib
import json
import os
import subprocess
import sys
import time
from array import array
from itertools import count
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from perfbench.common import (
    ROOT, WORK, BenchError, Samples, SpeedProbe, cpu_seconds, fmt, median, rss_peak_mb, say,
)
from perfbench.outcome import Outcome
from perfbench.tracer import CLIENT_HOOKS, Patcher, Tracer, span_metrics

perf_counter = time.perf_counter

SETUP_REPEATS = 3
CONNECTIONS = 2
CLOSED_DEPTH = 16
OPEN_QPS = 2000.0
CUT_NODES, CUT_DEGREE, CUT_SIDES = 512, 8, 64
MIXED_POOL, MIXED_DEGREE, MIXED_SIDES, MIXED_BURST = 12, 6, 8, 16
HOT_NODES, HOT_EPSILON = 64, 0.5
#: Sub-window widths of the windowed medians (see common.Samples).
CUT_WIDTH_S, MIXED_WIDTH_S = 1.0, 2.5
#: Closed-loop windows are cut into segments of about this length; the
#: daemon's CPU cost is taken per segment and the median reported.
SEGMENT_S = 2.5
#: Longest a phase may overrun its window before the run is failed.
GRACE_S = 30.0
_daemon_ids = count()


def pin_load_generator() -> Optional[set]:
    """Pin this process to half the CPUs; returns the daemon's half.

    The scheduler pulls a woken process onto its waker's CPU, so a
    ping-ponging client and daemon often end up sharing one CPU while
    the other idles, and throughput halves from one run to the next.
    Giving each process its own CPUs removes that run-to-run swing.
    Returns None (and pins nothing) on a single CPU.
    """
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None
    half = len(cpus) // 2
    os.sched_setaffinity(0, set(cpus[:half]))
    return set(cpus[half:])


def values_digest(values) -> str:
    body = json.dumps([float(v) for v in values], separators=(",", ":"))
    return hashlib.sha256(body.encode()).hexdigest()


class Daemon:
    """One serving daemon subprocess, its log and (traced) summary."""

    def __init__(self, traced: bool = False, delay_s: float = 0.0,
                 cache_bytes: Optional[int] = None, cpus: Optional[set] = None):
        tag = f"daemon-{os.getpid()}-{next(_daemon_ids)}"
        self.spans_path = WORK / "traces" / f"{tag}.npz"
        self.log_path = WORK / "tmp" / f"{tag}.log"
        self.summary_path = WORK / "tmp" / f"{tag}.json"
        server_args = ["--port", "0"]
        if cache_bytes is not None:
            server_args += ["--cache-bytes", str(int(cache_bytes))]
        if traced or delay_s > 0:
            cmd = [sys.executable, str(ROOT / "perfbench" / "daemon.py"),
                   "--summary", str(self.summary_path), "--spans", str(self.spans_path),
                   "--delay-s", str(delay_s)]
            cmd += (["--trace"] if traced else []) + ["--"] + server_args
        else:
            cmd = [sys.executable, "-m", "repro.serving.server"] + server_args
        self._log = open(self.log_path, "w")
        self.proc = subprocess.Popen(
            cmd, stdout=subprocess.DEVNULL, stderr=self._log,
            cwd=str(ROOT),
            preexec_fn=None if cpus is None else lambda: os.sched_setaffinity(0, cpus),
        )

    async def address(self, timeout_s: float = 60.0) -> Tuple[str, int]:
        """Wait for the daemon's ``serving: tcp://host:port`` line."""
        from repro.obs.announce import parse_announcements

        deadline = perf_counter() + timeout_s
        while perf_counter() < deadline:
            url = parse_announcements(self.log_path.read_text()).get("serving")
            if url:
                host, port = url.split("://", 1)[1].rsplit(":", 1)
                return host, int(port)
            if self.proc.poll() is not None:
                break
            await asyncio.sleep(0.005)
        raise BenchError(f"daemon did not announce: {self.log_path.read_text()[-800:]}")

    def stop(self, timeout_s: float = 30.0) -> Optional[Dict[str, Any]]:
        """Wait for exit (terminating if needed); the traced summary."""
        try:
            self.proc.wait(timeout=timeout_s)
        except subprocess.TimeoutExpired:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._log.close()
        summary = None
        if self.summary_path.exists():
            summary = json.loads(self.summary_path.read_text())
            self.summary_path.unlink()
        self.log_path.unlink()
        return summary


class Session:
    """A running daemon plus the load generator's two connections."""

    def __init__(self, daemon: Daemon, clients: list):
        self.daemon = daemon
        self.clients = clients
        self.attempted = 0
        self.errors: List[str] = []

    @classmethod
    async def open(cls, **daemon_kwargs) -> "Session":
        from repro.serving.client import AsyncServingClient

        daemon = Daemon(**daemon_kwargs)
        try:
            host, port = await daemon.address()
            clients = []
            for i in range(CONNECTIONS):
                clients.append(await AsyncServingClient(host, port, name=f"loadgen-{i}").connect())
        except BaseException:
            daemon.proc.kill()
            daemon.stop()
            raise
        return cls(daemon, clients)

    async def close(self) -> Tuple[float, Optional[Dict[str, Any]]]:
        """Shut the daemon down; returns (peak RSS MB, traced summary)."""
        rss = rss_peak_mb(self.daemon.proc.pid)
        for client in self.clients[1:]:
            await client.close()
        try:
            await asyncio.wait_for(self.clients[0].shutdown(), 10)
        finally:
            await self.clients[0].close()
        return rss, self.daemon.stop()

    async def kill(self) -> None:
        for client in self.clients:
            await client.close()
        self.daemon.proc.kill()
        self.daemon.stop()

    async def call(self, coro, latencies: Optional[Samples] = None):
        """Await one request, counting it; None when it failed."""
        self.attempted += 1
        start = perf_counter()
        try:
            value = await coro
        except Exception as exc:  # a failed op counts; the loop goes on
            self.errors.append(f"{type(exc).__name__}: {exc}")
            return None
        if latencies is not None:
            end = perf_counter()
            latencies.add(end, end - start)
        return value

    async def stats(self) -> Dict[str, Any]:
        return await bounded(self.clients[0].stats(), 0)


def settle() -> None:
    """Collect set-up garbage and freeze survivors out of later GC passes.

    The load generator's own collector pauses would otherwise show up as
    latency of the daemon.
    """
    gc.collect()
    gc.freeze()


async def set_up(setup, inp, setups: int, cpus: Optional[set], **daemon_kwargs):
    """Run ``setup`` ``setups`` times, keeping the last session open.

    Returns ``(session, handle, set-up seconds)``, the seconds rescaled
    by a speed probe on the daemon's CPUs.  On failure no daemon is
    left running.
    """
    spans: List[Tuple[float, float]] = []
    session = None
    try:
        with SpeedProbe(cpus) as probe:
            for n in range(setups):
                session, handle, span = await setup(inp, cpus=cpus, **daemon_kwargs)
                spans.append(span)
                if n < setups - 1:
                    closing, session = session, None
                    await closing.close()
        return session, handle, probe.scaled(spans)
    except BaseException:
        if session is not None:
            await session.kill()
        raise


async def bounded(coro, window_s: float):
    """Await ``coro``, failing the run if it takes ``GRACE_S`` past its window."""
    try:
        return await asyncio.wait_for(coro, window_s + GRACE_S)
    except asyncio.TimeoutError:
        raise BenchError(f"phase overran its {window_s:.1f}s window by {GRACE_S}s") from None


# -- serve-cut ------------------------------------------------------------


class CutInputs:
    def __init__(self, seed: int):
        from repro.graphs.generators import random_regularish_ugraph
        from repro.serving.protocol import side_mask

        self.graph = random_regularish_ugraph(CUT_NODES, CUT_DEGREE, rng=seed)
        nodes = list(self.graph.nodes())
        gen = np.random.default_rng(seed + 1)
        self.sides = []
        for _ in range(CUT_SIDES):
            size = int(gen.integers(1, len(nodes)))
            picks = gen.choice(len(nodes), size=size, replace=False)
            self.sides.append(frozenset(nodes[i] for i in picks))
        self.order = gen.integers(0, CUT_SIDES, size=4096).tolist()
        # Packed once, as a client holding its sides would: per request
        # the load generator pays framing only, so the daemon is measured.
        index = {label: i for i, label in enumerate(nodes)}
        self.masks = [side_mask(index, side, len(nodes)) for side in self.sides]
        csr = self.graph.freeze()
        self.expected = [float(v) for v in csr.cut_weights_stable(csr.membership_matrix(self.sides))]


class Served:
    """(side index, value) pairs as flat arrays (no per-reply objects for GC)."""

    def __init__(self) -> None:
        self.idx = array("i")
        self.values = array("d")

    def add(self, idx: int, value: float) -> None:
        self.idx.append(idx)
        self.values.append(value)

    def wrong(self, expected: List[float]) -> int:
        return sum(1 for i, v in zip(self.idx, self.values) if v != expected[i])


async def cut(session: Session, client, oid: str, inp: CutInputs, idx: int,
              served: Served, latencies: Optional[Samples] = None) -> None:
    """One ``serve.cut_weight`` with the side's pre-packed mask."""
    reply = await session.call(
        client.request("serve.cut_weight", {"oid": oid, "mask": inp.masks[idx]}), latencies)
    if reply is not None:
        served.add(idx, float(reply["value"]))


def segments(window_s: float) -> List[float]:
    """``window_s`` cut into equal segments of about ``SEGMENT_S``."""
    n = max(1, round(window_s / SEGMENT_S))
    return [window_s / n] * n


class Segment:
    """One segment of a closed loop: its span and the daemon's CPU cost."""

    def __init__(self, pid: int) -> None:
        self.pid = pid
        self.start, self.cpu0 = time.monotonic(), cpu_seconds(pid)
        self.end = self.cpu_s = 0.0

    def close(self) -> None:
        self.end, self.cpu_s = time.monotonic(), cpu_seconds(self.pid) - self.cpu0


def cost_ms(segments_done: List[Tuple[Segment, int]], probe: SpeedProbe) -> Tuple[float, float]:
    """Median daemon CPU ms per unit of work over segments: as measured,
    and rescaled to the reference speed by ``probe``."""
    raw = [seg.cpu_s / max(1, n) for seg, n in segments_done]
    norm = [r * probe.scale(seg.start, seg.end) for r, (seg, _) in zip(raw, segments_done)]
    return median(raw) * 1e3, median(norm) * 1e3


async def closed_loop(session: Session, oid: str, inp: CutInputs, window_s: float,
                      served: Served):
    """16 in flight per connection for ``window_s``, in segments.

    Returns the latencies and each segment with its request count.
    """
    latencies = Samples()
    done: List[Tuple[Segment, int]] = []
    streams = CONNECTIONS * CLOSED_DEPTH
    position = list(range(streams))
    pid = session.daemon.proc.pid

    async def stream(client, k: int, stop_at: float) -> None:
        while perf_counter() < stop_at:
            i = position[k]
            await cut(session, client, oid, inp, inp.order[i % len(inp.order)], served, latencies)
            position[k] = i + streams

    for segment_s in segments(window_s):
        before, seg = len(latencies), Segment(pid)
        stop_at = perf_counter() + segment_s
        await bounded(asyncio.gather(*(
            stream(session.clients[k % CONNECTIONS], k, stop_at) for k in range(streams)
        )), segment_s)
        seg.close()
        done.append((seg, len(latencies) - before))
    return latencies, done


async def open_loop(session: Session, oid: str, inp: CutInputs, window_s: float, served: Served):
    """Requests due every 1/OPEN_QPS s; latency counted from the due time."""
    latencies, late = Samples(), Samples()
    tasks = []

    async def one(i: int, due: float) -> None:
        started = perf_counter()
        late.add(started, started - due)
        before = len(served.idx)
        await cut(session, session.clients[i % CONNECTIONS], oid, inp,
                  inp.order[i % len(inp.order)], served)
        if len(served.idx) > before:
            end = perf_counter()
            latencies.add(end, end - due)

    async def generate() -> None:
        start = perf_counter()
        for i in range(max(1, int(OPEN_QPS * window_s))):
            due = start + i / OPEN_QPS
            wait = due - perf_counter()
            if wait > 0:
                await asyncio.sleep(wait)
            tasks.append(asyncio.ensure_future(one(i, due)))
        await asyncio.gather(*tasks)

    await bounded(generate(), window_s)
    return latencies, late


async def cut_setup(inp: CutInputs, **daemon_kwargs) -> Tuple[Session, str, Tuple[float, float]]:
    """Spawn, register on both connections, warm up; returns the set-up's
    ``time.monotonic()`` span."""
    start = time.monotonic()
    session = await Session.open(**daemon_kwargs)
    try:
        oid = await session.clients[0].register_graph(inp.graph)
        for client in session.clients[1:]:
            await client.register_graph(inp.graph)
        await bounded(asyncio.gather(*(
            session.clients[k % CONNECTIONS].request(
                "serve.cut_weight", {"oid": oid, "mask": inp.masks[k % CUT_SIDES]})
            for k in range(2000)
        )), 0)
    except BaseException:
        await session.kill()
        raise
    return session, oid, (start, time.monotonic())


def check_cut(outcome: Outcome, inp: CutInputs, served: Served, pool: List[float]) -> None:
    wrong = served.wrong(inp.expected)
    if wrong:
        outcome.fail(f"{wrong} served cut_weight values differ from cut_weights_stable", wrong)
    outcome.attempted += 1
    if values_digest(pool) != values_digest(inp.expected):
        outcome.fail("served side-pool digest differs from in-process cut_weights_stable")


async def cut_session(inp: CutInputs, window_s: float, outcome: Outcome, setups: int = 1,
                      cpus: Optional[set] = None, **daemon_kwargs) -> Dict[str, Any]:
    """Set up (``setups`` times, keeping the last), run both phases, check."""
    session, oid, times = await set_up(cut_setup, inp, setups, cpus, **daemon_kwargs)
    try:
        served = Served()
        with SpeedProbe(cpus) as probe:
            settle()
            closed_lat, closed = await closed_loop(session, oid, inp, window_s / 2, served)
        closed_cpu_ms, cpu_norm_ms = cost_ms(closed, probe)
        open_lat, late = await open_loop(session, oid, inp, window_s / 2, served)
        stats = await session.stats()
        pool = await bounded(asyncio.gather(*(
            session.clients[k % CONNECTIONS].cut_weight(oid, side)
            for k, side in enumerate(inp.sides)
        )), 0)
    except BaseException:
        await session.kill()
        raise
    rss, summary = await session.close()
    outcome.attempted += session.attempted
    if session.errors:
        outcome.fail(f"{len(session.errors)} requests failed, first: {session.errors[0]}",
                     len(session.errors))
    check_cut(outcome, inp, served, pool)
    if not closed_lat or not open_lat:
        raise BenchError("a serve-cut phase completed no request")
    return {
        "setup_s": median(times), "setups": times, "rss": rss, "summary": summary,
        "closed_lat": closed_lat, "open_lat": open_lat,
        "late": late, "stats": stats,
        "closed_cpu_ms": closed_cpu_ms, "cpu_norm_ms": cpu_norm_ms, "probe": probe.describe(),
    }


def run_cut(seed: int, seconds: float, trace: bool, delay_s: float = 0.0) -> Outcome:
    outcome = Outcome()
    inp = CutInputs(seed)
    say(f"# serve-cut: {CUT_NODES} nodes, degree {CUT_DEGREE}, {CUT_SIDES} sides, "
        f"{CONNECTIONS} connections; closed loop {CLOSED_DEPTH}/connection, open loop {OPEN_QPS:g} qps")
    window = seconds / 2 if trace else seconds
    daemon = {"delay_s": delay_s, "cpus": pin_load_generator()}
    plain = asyncio.run(cut_session(
        inp, window, outcome, setups=1 if trace else SETUP_REPEATS, **daemon))
    report_cut(outcome, plain, "")
    if trace:
        tracer = Tracer()
        with Patcher() as patcher:
            patcher.install(tracer, CLIENT_HOOKS)
            traced = asyncio.run(cut_session(inp, window, outcome, traced=True, **daemon))
        report_cut(outcome, traced, "traced ")
        layers = serving_layers(tracer, traced)
        layers["loadgen.late_p99_ms"] = traced["late"].quantile(0.99, CUT_WIDTH_S) * 1e3
        layers["trace.overhead_frac"] = (
            plain["closed_lat"].rate(CUT_WIDTH_S) / traced["closed_lat"].rate(CUT_WIDTH_S) - 1.0
        )
        outcome.layers.update(layers)
        outcome.trace_file(tracer, f"serve-cut-client-{seed}")
    return outcome


def report_cut(outcome: Outcome, r: Dict[str, Any], prefix: str) -> None:
    closed, opened = r["closed_lat"], r["open_lat"]
    qps = closed.rate(CUT_WIDTH_S)
    p50, p99 = (closed.quantile(q, CUT_WIDTH_S) * 1e3 for q in (0.5, 0.99))
    o50, o99 = (opened.quantile(q, CUT_WIDTH_S) * 1e3 for q in (0.5, 0.99))
    note = outcome.note
    if not prefix:
        note("setup_s", r["setup_s"], "s",
             f"median of {len(r['setups'])} set-ups at the reference speed: {fmt(r['setups'])}")
        note("rss_peak_mb", r["rss"], "MB", "daemon VmHWM")
    say(f"# {prefix}closed-loop qps per {CUT_WIDTH_S:g}s window: {fmt(closed.per_window(CUT_WIDTH_S))}")
    note(prefix + "cut_qps", qps, "1/s", f"closed loop, n={len(closed)}")
    note(prefix + "cpu_norm_ms", r["cpu_norm_ms"], "ms",
         f"daemon CPU per closed-loop request at the reference speed, median over "
         f"segments; unscaled {r['closed_cpu_ms']:.4f} ms; {r['probe']} on the daemon's CPUs")
    note(prefix + "cut_p50_ms", p50, "ms")
    note(prefix + "cut_p99_ms", p99, "ms")
    note(prefix + "open_p50_ms", o50, "ms", f"{OPEN_QPS:g} qps, n={len(opened)}")
    note(prefix + "open_p99_ms", o99, "ms")
    note(prefix + "loadgen.late_p99_ms", r["late"].quantile(0.99, CUT_WIDTH_S) * 1e3, "ms")
    if not prefix:
        outcome.e2e.update(setup_s=r["setup_s"], rss_peak_mb=r["rss"], cpu_norm_ms=r["cpu_norm_ms"])
        outcome.layers.update(cut_qps=qps, cut_p50_ms=p50, cut_p99_ms=p99,
                              open_p50_ms=o50, open_p99_ms=o99)


def serving_layers(client_tracer: Tracer, r: Dict[str, Any]) -> Dict[str, float]:
    """Per-layer metrics of a traced session, per 1000 requests served.

    The daemon's tracer and ``stats`` counters cover its whole life
    (set-up, warm-up, window, checks), so they are normalised by the
    daemon's own request count taken at the same moment.
    """
    stats = r["stats"]
    units = stats["requests"] / 1000.0
    layers = span_metrics([r["summary"] or {}, client_tracer.summary()], units)
    batcher, cache = stats["batcher"], stats["cache"]
    layers["serving.batch_flushes"] = batcher["batches"] / units
    layers["serving.batch_width_mean"] = batcher["mean_width"] or 0.0
    for key in ("hits", "misses", "evictions"):
        layers[f"serving.cache_{key}"] = cache[key] / units
    return layers


# -- serve-mixed ------------------------------------------------------------


class MixedInputs:
    def __init__(self, seed: int):
        from repro.graphs.generators import random_regularish_ugraph
        from repro.obs.memory import deep_sizeof
        from repro.serving.protocol import graph_from_payload, graph_payload
        from repro.sketch.sparsifier import DEFAULT_SAMPLING_CONSTANT, SparsifierSketch

        gen = np.random.default_rng(seed)
        sizes = np.linspace(64, 128, MIXED_POOL).round().astype(int)
        gen.shuffle(sizes)
        self.pool = [
            random_regularish_ugraph(int(n), MIXED_DEGREE, rng=seed * 1000 + k)
            for k, n in enumerate(sizes)
        ]
        self.sides = []
        for graph in self.pool:
            nodes = list(graph.nodes())
            picks = []
            for _ in range(MIXED_SIDES):
                size = int(gen.integers(1, len(nodes)))
                picks.append(frozenset(nodes[i] for i in gen.choice(len(nodes), size, replace=False)))
            self.sides.append(picks)
        # In-process twins of what the daemon rebuilds from the payload.
        self.twins = [graph_from_payload(graph_payload(g)) for g in self.pool]
        self.expected_cuts = []
        for twin, sides in zip(self.twins, self.sides):
            csr = twin.freeze()
            self.expected_cuts.append(
                [float(v) for v in csr.cut_weights_stable(csr.membership_matrix(sides))])
        self.hot = random_regularish_ugraph(HOT_NODES, MIXED_DEGREE, rng=seed + 7)
        hot_nodes = list(self.hot.nodes())
        self.hot_sides = [
            frozenset(hot_nodes[i] for i in gen.choice(HOT_NODES, int(gen.integers(1, HOT_NODES)), replace=False))
            for _ in range(MIXED_SIDES)
        ]
        self.sketch_seed = seed
        hot_twin = graph_from_payload(graph_payload(self.hot))
        sketch = SparsifierSketch.from_undirected(
            hot_twin, epsilon=HOT_EPSILON, rng=np.random.default_rng(seed),
            constant=DEFAULT_SAMPLING_CONSTANT, connectivity="exact",
        )
        self.expected_sketch = [float(sketch.query(s)) for s in self.hot_sides]

        def entry_bytes(graph) -> int:
            return deep_sizeof(graph) + deep_sizeof(graph.freeze())

        pool_bytes = sum(entry_bytes(t) for t in self.twins)
        self.cache_bytes = (
            entry_bytes(hot_twin) + deep_sizeof(sketch) + pool_bytes // 3
        )
        self._min_cuts: Dict[int, float] = {}
        self._hot_index = {label: i for i, label in enumerate(graph_payload(self.hot)["nodes"])}

    def sketch_payload(self, oid: str, s: int) -> Dict[str, Any]:
        """A ``serve.sketch_query`` request (the async client has no helper)."""
        from repro.serving.protocol import side_mask

        return {
            "oid": oid, "epsilon": HOT_EPSILON, "seed": self.sketch_seed,
            "connectivity": "exact",
            "mask": side_mask(self._hot_index, self.hot_sides[s], HOT_NODES),
        }

    def expected_min_cut(self, g: int) -> float:
        from repro.graphs.mincut import stoer_wagner

        if g not in self._min_cuts:
            self._min_cuts[g] = float(stoer_wagner(self.twins[g])[0])
        return self._min_cuts[g]


class MixedLoop:
    """One iteration at a time, over both connections.

    Registration and the sketch query run alone, so their latency is
    their own.  The read burst shares the loop with ``min_cut`` on
    purpose: ``min_cut`` is sent first on the second connection and the
    reads follow on the first, so every iteration measures the reads'
    head-of-line wait behind a loop-blocking ``min_cut`` the same way.
    """

    def __init__(self, session: Session, inp: MixedInputs, hot_oid: str):
        self.session = session
        self.inp = inp
        self.hot_oid = hot_oid
        self.lat: Dict[str, Samples] = {
            op: Samples() for op in ("register", "cut_weight", "cut_weights", "min_cut", "sketch_query")}
        self.got: List[Tuple[str, int, int, Any]] = []

    async def iteration(self, it: int) -> None:
        call, inp, lat = self.session.call, self.inp, self.lat
        reader, blocker = self.session.clients[0], self.session.clients[1]
        g = it % MIXED_POOL
        oid = await call(reader.register_graph(inp.pool[g]), lat["register"])
        if oid is None:
            return
        sides = inp.sides[g]

        async def min_cut() -> None:
            reply = await call(blocker.min_cut(oid), lat["min_cut"])
            if reply is not None:
                self.got.append(("min_cut", g, -1, float(reply["value"])))

        async def one(s: int) -> None:
            value = await call(reader.cut_weight(oid, sides[s]), lat["cut_weight"])
            if value is not None:
                self.got.append(("cut_weight", g, s, value))

        async def batch() -> None:
            values = await call(reader.cut_weights(oid, sides + sides), lat["cut_weights"])
            if values is not None:
                self.got.append(("cut_weights", g, -1, values))

        await asyncio.gather(
            min_cut(), *(one((s + it) % MIXED_SIDES) for s in range(MIXED_BURST)), batch())
        s = it % MIXED_SIDES
        reply = await call(reader.request("serve.sketch_query", inp.sketch_payload(self.hot_oid, s)),
                           lat["sketch_query"])
        if reply is not None:
            self.got.append(("sketch_query", -1, s, float(reply["value"])))

    async def run(self, window_s: float, first: int = 0) -> List[Tuple[Segment, int]]:
        """Iterations for ``window_s``; each segment with its iteration count."""
        pid = self.session.daemon.proc.pid
        done: List[Tuple[Segment, int]] = []
        it = first

        async def iterations(stop_at: float) -> None:
            nonlocal it
            while perf_counter() < stop_at:
                await self.iteration(it)
                it += 1

        for segment_s in segments(window_s):
            before, seg = it, Segment(pid)
            await bounded(iterations(perf_counter() + segment_s), segment_s)
            seg.close()
            done.append((seg, it - before))
        return done


def check_mixed(outcome: Outcome, inp: MixedInputs, got) -> None:
    wrong = []
    for kind, g, s, value in got:
        if kind == "cut_weight":
            ok = value == inp.expected_cuts[g][s]
        elif kind == "cut_weights":
            ok = value == inp.expected_cuts[g] + inp.expected_cuts[g]
        elif kind == "min_cut":
            ok = value == inp.expected_min_cut(g)
        else:
            ok = value == inp.expected_sketch[s]
        if not ok:
            wrong.append(kind)
    if wrong:
        outcome.fail(f"{len(wrong)} served values differ from in-process evaluation "
                     f"(first: {wrong[0]})", len(wrong))


async def mixed_setup(inp: MixedInputs, **daemon_kwargs) -> Tuple[Session, str, Tuple[float, float]]:
    """Spawn, register the hot graph, build its sketch, warm up once;
    returns the set-up's ``time.monotonic()`` span."""
    start = time.monotonic()
    session = await Session.open(cache_bytes=inp.cache_bytes, **daemon_kwargs)
    try:
        hot_oid = ""
        for client in session.clients:
            hot_oid = await client.register_graph(inp.hot)
        await session.clients[0].request("serve.sketch_query", inp.sketch_payload(hot_oid, 0))
        await bounded(MixedLoop(session, inp, hot_oid).iteration(0), 0)
        if session.errors:
            raise BenchError(f"serve-mixed warm-up failed: {session.errors[0]}")
    except BaseException:
        await session.kill()
        raise
    session.attempted = 0
    return session, hot_oid, (start, time.monotonic())


async def mixed_session(inp: MixedInputs, window_s: float, outcome: Outcome, setups: int = 1,
                        cpus: Optional[set] = None, **daemon_kwargs) -> Dict[str, Any]:
    session, hot_oid, times = await set_up(mixed_setup, inp, setups, cpus, **daemon_kwargs)
    try:
        loop = MixedLoop(session, inp, hot_oid)
        with SpeedProbe(cpus) as probe:
            settle()
            done = await loop.run(window_s, first=1)
        cpu_ms, cpu_norm_ms = cost_ms(done, probe)
        stats = await session.stats()
    except BaseException:
        await session.kill()
        raise
    rss, summary = await session.close()
    outcome.attempted += session.attempted
    if session.errors:
        outcome.fail(f"{len(session.errors)} requests failed, first: {session.errors[0]}",
                     len(session.errors))
    check_mixed(outcome, inp, loop.got)
    if not loop.lat["register"] or not loop.lat["min_cut"]:
        raise BenchError("serve-mixed completed no iteration")
    ops = Samples()
    for samples in loop.lat.values():
        for end, value in zip(samples.ends, samples.values):
            ops.add(end, value)
    return {
        "setup_s": median(times), "setups": times, "rss": rss, "summary": summary,
        "lat": loop.lat, "all": ops, "stats": stats,
        "cpu_ms": cpu_ms, "cpu_norm_ms": cpu_norm_ms, "probe": probe.describe(),
    }


def report_mixed(outcome: Outcome, r: Dict[str, Any], prefix: str) -> float:
    lat = r["lat"]
    rate = r["all"].rate(MIXED_WIDTH_S)
    reg50 = lat["register"].quantile(0.5, MIXED_WIDTH_S) * 1e3
    cut99 = lat["cut_weight"].quantile(0.99, MIXED_WIDTH_S) * 1e3
    min50 = lat["min_cut"].quantile(0.5, MIXED_WIDTH_S) * 1e3
    note = outcome.note
    if not prefix:
        note("setup_s", r["setup_s"], "s",
             f"median of {len(r['setups'])} set-ups at the reference speed: {fmt(r['setups'])}")
        note("rss_peak_mb", r["rss"], "MB", "daemon VmHWM")
    note(prefix + "mixed_ops_per_s", rate, "1/s", f"n={len(r['all'])}")
    note(prefix + "cpu_norm_ms", r["cpu_norm_ms"], "ms",
         f"daemon CPU per iteration at the reference speed, median over segments; "
         f"unscaled {r['cpu_ms']:.2f} ms; {r['probe']} on the daemon's CPUs")
    note(prefix + "mixed_cut_p99_ms", cut99, "ms", f"n={len(lat['cut_weight'])}")
    note(prefix + "register_p50_ms", reg50, "ms", f"n={len(lat['register'])}")
    note(prefix + "mincut_p50_ms", min50, "ms", f"n={len(lat['min_cut'])}")
    note(prefix + "sketch_query_p50_ms", lat["sketch_query"].quantile(0.5, MIXED_WIDTH_S) * 1e3, "ms")
    if not prefix:
        outcome.e2e.update(setup_s=r["setup_s"], rss_peak_mb=r["rss"], cpu_norm_ms=r["cpu_norm_ms"])
        outcome.layers.update(mixed_ops_per_s=rate, register_p50_ms=reg50,
                              mixed_cut_p99_ms=cut99, mincut_p50_ms=min50)
    return rate


def run_mixed(seed: int, seconds: float, trace: bool, delay_s: float = 0.0) -> Outcome:
    outcome = Outcome()
    inp = MixedInputs(seed)
    say(f"# serve-mixed: pool of {MIXED_POOL} graphs (64-128 nodes), cache {inp.cache_bytes} B "
        f"(~1/3 of the pool), burst {MIXED_BURST} + one batch, hot sketch on {HOT_NODES} nodes")
    window = seconds / 2 if trace else seconds
    daemon = {"delay_s": delay_s, "cpus": pin_load_generator()}
    plain = asyncio.run(mixed_session(
        inp, window, outcome, setups=1 if trace else SETUP_REPEATS, **daemon))
    plain_rate = report_mixed(outcome, plain, "")
    if trace:
        tracer = Tracer()
        with Patcher() as patcher:
            patcher.install(tracer, CLIENT_HOOKS)
            traced = asyncio.run(mixed_session(inp, window, outcome, traced=True, **daemon))
        traced_rate = report_mixed(outcome, traced, "traced ")
        outcome.layers.update(serving_layers(tracer, traced))
        outcome.layers["trace.overhead_frac"] = plain_rate / traced_rate - 1.0
        outcome.trace_file(tracer, f"serve-mixed-client-{seed}")
    return outcome
