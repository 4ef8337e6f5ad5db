"""The batched async sketch server (``python -m repro.serving.server``).

A long-lived asyncio daemon holding frozen CSR snapshots and
precomputed sketches per registered graph, answering cut and min-cut
queries over the :mod:`repro.serving.protocol` framing.  Request ops
(frame ``kind``) and their payloads:

======================  ==================================================
``serve.ping``          liveness + server identity
``serve.register``      ``graph_payload`` -> content-addressed ``oid``
``serve.cut_weight``    ``{oid, mask}`` -> one micro-batched cut value
``serve.cut_weights``   ``{oid, masks}`` -> one vectorized batch call
``serve.min_cut``       ``{oid}`` -> exact global min cut of the snapshot
                        (at most ``MIN_CUT_NODE_LIMIT`` nodes undirected,
                        ``DIRECTED_MIN_CUT_NODE_LIMIT`` directed)
``serve.sketch_query``  ``{oid, mask, epsilon, seed, ...}`` -> sketch
                        estimate from a cached for-all sparsifier
``serve.host_shard``    ``{name, graph}`` -> host a Thm 5.7 edge shard
``serve.shard_sketch``  ``{name, epsilon, rng_state, ...}`` -> the
                        shard's for-all sketch (sparse graph, ordered)
``serve.shard_cut``     ``{name, side, precision}`` -> quantized cut
                        response (value, bits) per the [ACK+16] pricing
``serve.stats``         cache / batcher / request statistics
``serve.shutdown``      acknowledge and stop the daemon
======================  ==================================================

Responses echo the request kind with ``.ok`` appended (``serve.error``
on failure, payload ``{error, op}``).  Every frame in either direction
is recorded into the active wire capture with the digest of the bytes
that crossed the socket, and every answered request emits a synthetic
``serve.request`` span record, so the existing SLO grammar
(``span:serve.request:p99<=0.25``) and the live dashboard work on
served traffic unchanged.

As a daemon it wires observability through
:func:`repro.obs.session.session`, like ``run_all``, and exits 0 after
a clean shutdown or with that module's codes: 2 a malformed ``--slo``,
3 an unopenable ``--capture`` / ``--metrics-port`` or a failed capture
write, 5 an unresolvable baseline SLO rule, 6 an SLO breach.
"""

from __future__ import annotations

import argparse
import asyncio
import signal
import sys
import threading
import time
from typing import Any, Dict, Optional, Tuple

import numpy as np

from repro.errors import GraphError, ProtocolError, ReproError
from repro.graphs.mincut import directed_global_min_cut, stoer_wagner
from repro.obs import count as _obs_count
from repro.obs import observe as _obs_observe
from repro.obs import sink as _sink
from repro.obs.announce import announce
from repro.obs.core import STATE as _OBS
from repro.obs.session import (
    EXIT_SLO_BREACH,
    EXIT_TELEMETRY_FAILURE,
    SessionError,
    session as obs_session,
)
from repro.obs.slo import SERVING_DEFAULT_SLO
from repro.serving.batcher import DEFAULT_MAX_BATCH, DEFAULT_WINDOW_S, MicroBatcher
from repro.serving.cache import DEFAULT_CACHE_BYTES, SnapshotCache, SnapshotEntry
from repro.serving.protocol import (
    ServingError,
    capture_envelope,
    encode_frame,
    graph_from_payload,
    graph_oid,
    mask_to_row,
    read_envelope,
    write_envelope,
)

#: Largest undirected graph ``serve.min_cut`` solves: Stoer–Wagner holds
#: a dense ``8 n^2``-byte weight matrix (32 MiB here) and runs inline on
#: the event loop, so a frame cannot buy an unbounded allocation.
MIN_CUT_NODE_LIMIT = 2048

#: Largest directed graph ``serve.min_cut`` solves.  The exact directed
#: min cut is ``2(n - 1)`` max flows, run inline on the event loop.
#: Timed on random beta=2 balanced digraphs (density 0.3) on a 2-core
#: x86-64 box with native (cc) kernels: 0.10 s at 128 nodes, 0.58 s at
#: 256 and 2.8 s at 400 (python kernels: 3.2 s at 128, 26 s at 256).
#: The ceiling keeps one request under about 0.6 s of native flow time.
DIRECTED_MIN_CUT_NODE_LIMIT = 256


def _request_id(envelope) -> Optional[int]:
    """The client's correlation id, when the request carried one.

    Pipelined connections get replies in *flush* order, not send
    order, so clients tag requests with ``rid`` and match replies.
    """
    payload = envelope.payload
    if isinstance(payload, dict) and isinstance(payload.get("rid"), int):
        return payload["rid"]
    return None


class SketchServer:
    """The asyncio serving daemon; construct, ``await start()``, serve."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        name: str = "sketch-server",
        cache_bytes: int = DEFAULT_CACHE_BYTES,
        batch_window_s: float = DEFAULT_WINDOW_S,
        max_batch: int = DEFAULT_MAX_BATCH,
    ):
        self.host = host
        self.requested_port = port
        self.name = name
        self.cache = SnapshotCache(max_bytes=cache_bytes)
        self.batcher = MicroBatcher(
            self._evaluate,
            window_s=batch_window_s,
            max_batch=max_batch,
            on_flush=self._drain_reply_buffers,
        )
        self.requests = 0
        self._shards: Dict[str, str] = {}  # shard name -> oid
        self._server: Optional[asyncio.AbstractServer] = None
        self._stopping: Optional[asyncio.Event] = None
        self._conn_tasks: set = set()
        #: writer -> encoded reply frames accumulated during a flush;
        #: drained as one write per connection (syscall coalescing).
        self._reply_buffers: Dict[asyncio.StreamWriter, list] = {}

    # -- lifecycle -------------------------------------------------------

    @property
    def port(self) -> int:
        """The bound port (raises before :meth:`start`)."""
        if self._server is None:
            raise ServingError("serving daemon is not running")
        return self._server.sockets[0].getsockname()[1]

    @property
    def url(self) -> str:
        return f"tcp://{self.host}:{self.port}"

    async def start(self) -> "SketchServer":
        if self._server is not None:
            raise ServingError("serving daemon is already running")
        self._stopping = asyncio.Event()
        self._server = await asyncio.start_server(
            self._on_client, self.host, self.requested_port
        )
        return self

    async def serve_until_stopped(self) -> None:
        """Block until :meth:`stop` (or a ``serve.shutdown`` request)."""
        if self._server is None or self._stopping is None:
            raise ServingError("serving daemon is not running")
        async with self._server:
            await self._stopping.wait()
            # Drain still-open connection handlers before the loop dies.
            for task in list(self._conn_tasks):
                task.cancel()
            if self._conn_tasks:
                await asyncio.gather(*self._conn_tasks, return_exceptions=True)
        self._server = None

    def stop(self) -> None:
        """Request shutdown (safe from signal handlers via the loop)."""
        self.batcher.flush_all()
        if self._stopping is not None:
            self._stopping.set()

    # -- per-connection loop ---------------------------------------------

    async def _on_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        peer = "client"
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        try:
            while True:
                try:
                    envelope = await read_envelope(reader)
                except ProtocolError as exc:
                    # Unframeable input: answer once, then hang up.
                    bad = await write_envelope(
                        writer, self.name, peer, "serve.error",
                        {"error": str(exc), "op": "?"},
                    )
                    capture_envelope(bad)
                    break
                if envelope is None:
                    break
                peer = envelope.sender
                capture_envelope(envelope)
                started = time.perf_counter()
                if envelope.kind == "serve.cut_weight":
                    # Hot path: hand the row to the micro-batcher with
                    # a reply callback and loop straight back to the
                    # next frame — a pipelining client keeps many rows
                    # in flight down one connection, and the reply is
                    # written (rid-tagged) at flush time.
                    self._enqueue_cut(envelope, writer, peer, started)
                    continue
                try:
                    kind, payload = await self._dispatch(envelope)
                    status = "ok"
                except (ServingError, ProtocolError, GraphError, ReproError) as exc:
                    kind = "serve.error"
                    payload = {"error": str(exc), "op": envelope.kind}
                    status = "error"
                rid = _request_id(envelope)
                if rid is not None and isinstance(payload, dict):
                    payload["rid"] = rid
                reply = await write_envelope(
                    writer, self.name, peer, kind, payload
                )
                capture_envelope(reply)
                self._observe_request(envelope.kind, started, status)
                if envelope.kind == "serve.shutdown":
                    self.stop()
                    break
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            if task is not None:
                self._conn_tasks.discard(task)
            self._reply_buffers.pop(writer, None)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass

    def _enqueue_cut(
        self,
        envelope,
        writer: asyncio.StreamWriter,
        peer: str,
        started: float,
    ) -> None:
        """Queue one ``serve.cut_weight`` and arrange its deferred reply."""
        rid = _request_id(envelope)
        try:
            entry, masks = self._resolve(envelope.payload, one_mask=True)
        except (ServingError, ProtocolError, GraphError, ReproError) as exc:
            payload = {"error": str(exc), "op": "serve.cut_weight"}
            if rid is not None:
                payload["rid"] = rid
            self._buffer_reply(writer, peer, "serve.error", payload)
            self._drain_reply_buffers()
            self._observe_request("serve.cut_weight", started, "error")
            return
        oid = entry.oid

        def fan_back(value, exc) -> None:
            if exc is not None:
                kind = "serve.error"
                payload = {"error": str(exc), "op": "serve.cut_weight"}
                status = "error"
            else:
                kind = "serve.cut_weight.ok"
                payload = {"oid": oid, "value": value}
                status = "ok"
            if rid is not None:
                payload["rid"] = rid
            self._buffer_reply(writer, peer, kind, payload)
            self._observe_request("serve.cut_weight", started, status)

        self.batcher.enqueue(entry, masks[0], fan_back)

    def _buffer_reply(
        self, writer: asyncio.StreamWriter, peer: str, kind: str, payload
    ) -> None:
        wire, envelope = encode_frame(self.name, peer, kind, payload)
        self._reply_buffers.setdefault(writer, []).append(wire)
        capture_envelope(envelope)

    def _drain_reply_buffers(self) -> None:
        """One transport write per connection for a whole flush's replies.

        Kernel send syscalls dominate small-frame serving; writing the
        concatenation halves the unbatched per-reply cost and turns a
        width-W flush into one write per *connection* instead of one
        per *row*.  Backpressure rides the transport's own buffering —
        cut replies are ~100 bytes, far below any high-water mark.
        """
        buffers = self._reply_buffers
        if not buffers:
            return
        self._reply_buffers = {}
        for writer, frames in buffers.items():
            if not writer.is_closing():
                writer.write(b"".join(frames))

    def _observe_request(self, op: str, started: float, status: str) -> None:
        self.requests += 1
        if not _OBS.enabled:
            return
        elapsed = time.perf_counter() - started
        _obs_count("serving.requests")
        _obs_count(f"serving.op.{op.replace('serve.', '', 1)}")
        _obs_observe("serving.request.seconds", elapsed)
        # Synthetic span record: the trace module's span stack is a
        # plain list and not safe under interleaved asyncio requests,
        # so serving emits the record shape directly.  This is what
        # span:serve.request:p99<=... rules and the dashboard consume.
        _sink.emit(
            {
                "event": "span",
                "name": "request",
                "path": "serve.request",
                "depth": 0,
                "wall_s": elapsed,
                "status": status,
                "op": op,
            }
        )

    # -- evaluation ------------------------------------------------------

    @staticmethod
    def _evaluate(entry: SnapshotEntry, membership: np.ndarray) -> np.ndarray:
        """The batch kernel call: row-stable, so coalescing is invisible."""
        return entry.csr.cut_weights_stable(membership)

    # -- dispatch --------------------------------------------------------

    async def _dispatch(self, envelope) -> Tuple[str, Any]:
        op = envelope.kind
        payload = envelope.payload
        if op == "serve.ping":
            return "serve.ping.ok", {"name": self.name, "requests": self.requests}
        if op == "serve.register":
            return "serve.register.ok", self._op_register(payload)
        if op == "serve.cut_weights":
            entry, masks = self._resolve(payload)
            values = np.atleast_1d(
                np.asarray(self._evaluate(entry, np.stack(masks)))
            )
            return "serve.cut_weights.ok", {
                "oid": entry.oid,
                "values": [float(v) for v in values],
            }
        if op == "serve.min_cut":
            return "serve.min_cut.ok", self._op_min_cut(payload)
        if op == "serve.sketch_query":
            return "serve.sketch_query.ok", self._op_sketch_query(payload)
        if op == "serve.host_shard":
            return "serve.host_shard.ok", self._op_host_shard(payload)
        if op == "serve.shard_sketch":
            return "serve.shard_sketch.ok", self._op_shard_sketch(payload)
        if op == "serve.shard_cut":
            return "serve.shard_cut.ok", self._op_shard_cut(payload)
        if op == "serve.stats":
            return "serve.stats.ok", {
                "name": self.name,
                "requests": self.requests,
                "cache": self.cache.stats(),
                "batcher": self.batcher.stats(),
                "shards": sorted(self._shards),
            }
        if op == "serve.shutdown":
            return "serve.shutdown.ok", {"name": self.name}
        raise ServingError(f"unknown op {op!r}")

    # -- op implementations ----------------------------------------------

    def _op_register(self, payload) -> Dict[str, Any]:
        if not isinstance(payload, dict):
            raise ServingError("serve.register needs a graph payload")
        # The correlation id is transport framing, not graph content —
        # strip it so the content address matches the client's.
        payload = {k: v for k, v in payload.items() if k != "rid"}
        oid = graph_oid(payload)
        cached = oid in self.cache
        if not cached:
            graph = graph_from_payload(payload)
            entry = self.cache.put(oid, graph)
        else:
            entry = self.cache.get(oid)
        return {
            "oid": oid,
            "cached": cached,
            "nodes": entry.csr.num_nodes,
            "edges": entry.csr.num_edges,
        }

    def _resolve(self, payload, one_mask: bool = False):
        if not isinstance(payload, dict):
            raise ServingError("cut ops need an object payload")
        entry = self.cache.get(str(payload.get("oid", "")))
        n = entry.csr.num_nodes
        if one_mask:
            masks = [mask_to_row(str(payload.get("mask", "")), n)]
        else:
            raw = payload.get("masks")
            if not isinstance(raw, list) or not raw:
                raise ServingError("serve.cut_weights needs a non-empty masks list")
            masks = [mask_to_row(str(m), n) for m in raw]
        return entry, masks

    def _op_min_cut(self, payload) -> Dict[str, Any]:
        if not isinstance(payload, dict):
            raise ServingError("serve.min_cut needs an object payload")
        entry = self.cache.get(str(payload.get("oid", "")))
        n = entry.csr.num_nodes
        limit, solver = (
            (MIN_CUT_NODE_LIMIT, "dense")
            if entry.undirected
            else (DIRECTED_MIN_CUT_NODE_LIMIT, "directed")
        )
        if n > limit:
            raise ServingError(
                f"serve.min_cut on {n} nodes exceeds the "
                f"{limit}-node limit of the {solver} solver"
            )
        if entry.undirected:
            value, side = stoer_wagner(entry.graph)
        else:
            value, side = directed_global_min_cut(entry.graph)
        return {
            "oid": entry.oid,
            "value": float(value),
            "side": sorted(side, key=repr),
        }

    def _sketch_for(self, entry: SnapshotEntry, payload) -> Any:
        from repro.sketch.sparsifier import (
            DEFAULT_SAMPLING_CONSTANT,
            SparsifierSketch,
        )

        epsilon = float(payload.get("epsilon", 0.1))
        seed = int(payload.get("seed", 0))
        constant = float(payload.get("constant", DEFAULT_SAMPLING_CONSTANT))
        connectivity = str(payload.get("connectivity", "exact"))
        key = ("sketch", epsilon, seed, constant, connectivity)
        sketch = entry.sketches.get(key)
        if sketch is None:
            rng = np.random.default_rng(seed)
            if entry.undirected:
                sketch = SparsifierSketch.from_undirected(
                    entry.graph, epsilon=epsilon, rng=rng,
                    constant=constant, connectivity=connectivity,
                )
            else:
                sketch = SparsifierSketch(
                    entry.graph, epsilon=epsilon, rng=rng,
                    constant=constant, connectivity=connectivity,
                )
            entry.sketches[key] = sketch
            self.cache.add_sketch_bytes(entry, sketch)
            if _OBS.enabled:
                _obs_count("serving.sketch.builds")
        elif _OBS.enabled:
            _obs_count("serving.sketch.cache_hits")
        return sketch

    def _op_sketch_query(self, payload) -> Dict[str, Any]:
        if not isinstance(payload, dict):
            raise ServingError("serve.sketch_query needs an object payload")
        entry = self.cache.get(str(payload.get("oid", "")))
        sketch = self._sketch_for(entry, payload)
        row = mask_to_row(str(payload.get("mask", "")), entry.csr.num_nodes)
        side = entry.csr.side_from_row(row)
        if not side or len(side) == entry.csr.num_nodes:
            raise ServingError("sketch_query side must be a proper nonempty subset")
        return {
            "oid": entry.oid,
            "value": float(sketch.query(side)),
            "size_bits": int(sketch.size_bits()),
        }

    def _op_host_shard(self, payload) -> Dict[str, Any]:
        from repro.distributed.server import Server as ShardServer

        if not isinstance(payload, dict):
            raise ServingError("serve.host_shard needs an object payload")
        name = str(payload.get("name", ""))
        if not name:
            raise ServingError("serve.host_shard needs a shard name")
        graph_data = payload.get("graph")
        if not isinstance(graph_data, dict) or graph_data.get("directed"):
            raise ServingError("serve.host_shard needs an undirected graph payload")
        oid = graph_oid(graph_data)
        if oid in self.cache:
            entry = self.cache.get(oid)
        else:
            entry = self.cache.put(oid, graph_from_payload(graph_data))
        if entry.server is None or entry.server.name != name:
            entry.server = ShardServer(name, entry.graph)
            self.cache.add_sketch_bytes(entry, entry.server)
        self._shards[name] = oid
        return {"oid": oid, "name": name, "edges": entry.graph.num_edges}

    def _shard(self, payload):
        if not isinstance(payload, dict):
            raise ServingError("shard ops need an object payload")
        name = str(payload.get("name", ""))
        oid = self._shards.get(name)
        if oid is None or oid not in self.cache:
            raise ServingError(f"no hosted shard named {name!r}")
        entry = self.cache.get(oid)
        if entry.server is None:
            raise ServingError(f"shard {name!r} lost its server wrapper")
        return entry.server

    def _op_shard_sketch(self, payload) -> Dict[str, Any]:
        from repro.serving.protocol import graph_payload

        shard = self._shard(payload)
        epsilon = float(payload["epsilon"])
        rng = np.random.default_rng()
        state = payload.get("rng_state")
        if not isinstance(state, dict):
            raise ServingError("serve.shard_sketch needs the caller's rng_state")
        rng.bit_generator.state = state
        kwargs: Dict[str, Any] = {}
        if payload.get("connectivity") is not None:
            kwargs["connectivity"] = str(payload["connectivity"])
        if payload.get("sampling_constant") is not None:
            kwargs["sampling_constant"] = float(payload["sampling_constant"])
        sketch = shard.forall_sketch(epsilon, rng=rng, **kwargs)
        return {
            "name": shard.name,
            "epsilon": epsilon,
            "graph": graph_payload(sketch.sparse),
        }

    def _op_shard_cut(self, payload) -> Dict[str, Any]:
        shard = self._shard(payload)
        side = payload.get("side")
        if not isinstance(side, list):
            raise ServingError("serve.shard_cut needs a side label list")
        value, bits = shard.cut_value_response(
            set(side), float(payload["precision"])
        )
        return {"name": shard.name, "value": float(value), "bits": int(bits)}


# ----------------------------------------------------------------------
# In-thread harness (tests, run_all --serve, the sync client's peer)
# ----------------------------------------------------------------------


class ServerThread:
    """Run a :class:`SketchServer` on a dedicated event loop thread.

    The sync :class:`~repro.serving.client.ServingClient`, the pytest
    suite, and ``run_all --serve`` all need a live daemon without
    owning an event loop themselves.  ``start()`` blocks until the
    socket is bound (so ``.port`` is immediately valid), ``stop()``
    shuts the daemon down and joins the thread.
    """

    def __init__(self, **server_kwargs: Any):
        self.server = SketchServer(**server_kwargs)
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._error: Optional[BaseException] = None

    def start(self) -> "ServerThread":
        self._thread = threading.Thread(
            target=self._run, name="repro-sketch-server", daemon=True
        )
        self._thread.start()
        self._ready.wait(timeout=10.0)
        if self._error is not None:
            raise ServingError(f"serving daemon failed to start: {self._error}")
        if not self._ready.is_set():
            raise ServingError("serving daemon did not start in time")
        return self

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        self._loop = loop
        asyncio.set_event_loop(loop)

        async def main() -> None:
            try:
                await self.server.start()
            except BaseException as exc:  # surface bind errors to start()
                self._error = exc
                self._ready.set()
                return
            self._ready.set()
            await self.server.serve_until_stopped()

        try:
            loop.run_until_complete(main())
        finally:
            loop.close()

    @property
    def port(self) -> int:
        return self.server.port

    def stop(self) -> None:
        if self._loop is not None and self._loop.is_running():
            self._loop.call_soon_threadsafe(self.server.stop)
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc_info) -> bool:
        self.stop()
        return False


# ----------------------------------------------------------------------
# CLI daemon
# ----------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serving.server",
        description="Batched async cut-query / sketch server.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port", type=int, default=0,
        help="TCP port (0 = ephemeral; the bound port is announced on "
        "stderr as 'serving: tcp://...')",
    )
    parser.add_argument("--name", default="sketch-server")
    parser.add_argument(
        "--batch-window-s", type=float, default=DEFAULT_WINDOW_S,
        help="micro-batch coalescing window in seconds (default %(default)s)",
    )
    parser.add_argument(
        "--max-batch", type=int, default=DEFAULT_MAX_BATCH,
        help="flush a snapshot's queue at this many rows (1 = unbatched; "
        "default %(default)s)",
    )
    parser.add_argument(
        "--cache-bytes", type=int, default=DEFAULT_CACHE_BYTES,
        help="measured-bytes LRU budget for snapshots+sketches "
        "(default %(default)s)",
    )
    parser.add_argument(
        "--metrics-port", type=int, default=None, metavar="PORT",
        help="serve Prometheus /metrics (0 = ephemeral; announced on "
        "stderr as 'serving metrics: http://...')",
    )
    parser.add_argument(
        "--slo", nargs="?", const="", default=None, metavar="SPEC",
        help="evaluate SLO rules live; empty SPEC installs the serving "
        "defaults (span:serve.request p99 ceiling); exit 6 on breach",
    )
    parser.add_argument(
        "--capture", default=None, metavar="PATH",
        help="stream the wire transcript to PATH as rotating JSONL",
    )
    parser.add_argument(
        "--capture-rotate-bytes", type=int, default=8 << 20,
        help="rotate the capture file past this size (default %(default)s)",
    )
    parser.add_argument(
        "--capture-retain", type=int, default=4096,
        help="in-memory messages kept by the capture ring (default "
        "%(default)s; totals keep counting dropped ones)",
    )
    args = parser.parse_args(argv)

    slo = args.slo
    if slo is not None and not slo.strip():
        slo = SERVING_DEFAULT_SLO
    try:
        # The daemon is an observability citizen by default: the switch
        # is on so counters and captures flow (scrapes and SLO rules are
        # the whole point of running it).
        with obs_session(
            enable=True,
            slo=slo,
            metrics_port=args.metrics_port,
            metrics_label="serving metrics",
            capture=args.capture,
            capture_meta={"kind": "serving", "server": args.name},
            capture_retain=args.capture_retain,
            capture_rotate_bytes=args.capture_rotate_bytes,
        ) as obs:
            _serve_until_signalled(args)
    except SessionError as exc:
        return exc.report(parser)

    if obs.capture is not None:
        print(
            f"wire capture: {obs.capture.recorded} messages, "
            f"{obs.capture.total_bits} bits -> {args.capture}",
            file=sys.stderr, flush=True,
        )
    failure = obs.write_failure()
    if failure is not None:
        print(f"error: {failure}", file=sys.stderr)
        return EXIT_TELEMETRY_FAILURE
    if obs.engine is not None:
        for line in obs.engine.summary_lines():
            print(line, file=sys.stderr, flush=True)
        if obs.engine.breached:
            return EXIT_SLO_BREACH
    return 0


def _serve_until_signalled(args) -> None:
    """Run the daemon until SIGINT/SIGTERM or a ``serve.shutdown`` op."""
    thread = ServerThread(
        host=args.host,
        port=args.port,
        name=args.name,
        cache_bytes=args.cache_bytes,
        batch_window_s=args.batch_window_s,
        max_batch=args.max_batch,
    )
    thread.start()
    announce("serving", thread.server.url)

    stop_event = threading.Event()

    def _signal(_signum, _frame) -> None:
        stop_event.set()

    previous = {
        signum: signal.signal(signum, _signal)
        for signum in (signal.SIGINT, signal.SIGTERM)
    }
    try:
        # Wake on either a signal or the daemon finishing (shutdown op).
        while not stop_event.is_set() and (
            thread._thread is not None and thread._thread.is_alive()
        ):
            stop_event.wait(timeout=0.2)
    finally:
        thread.stop()
        for signum, handler in previous.items():
            signal.signal(signum, handler)


if __name__ == "__main__":
    sys.exit(main())
