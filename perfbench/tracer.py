"""In-memory span tracer and the wrappers the traced run installs.

The benchmark traces the program from the outside: it replaces public
functions with timing wrappers *where their consumers imported them*
(``repro.distributed.coordinator.sample_near_min_cuts`` as well as
``repro.graphs.mincut.sample_near_min_cuts``; methods on their class),
runs the workload, and restores every original.  Nothing in ``src/``
changes, and an untraced run never has a wrapper installed.

Each call becomes a span ``(name, start, end, parent)`` kept in memory
(up to ``keep`` spans; later ones are aggregated but not kept) and
written by :meth:`Tracer.write` when the run ends.  Self time — a
span's duration minus the part its child spans cover — is aggregated
online per span name.  Coroutine functions (``read_envelope``) get a
trampoline that times only the stretches the coroutine runs, so time
spent suspended waiting for bytes is not charged to the decoder.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from array import array
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

perf_counter = time.perf_counter

#: Span whose start the batch-wait wrapper reads (the batcher's flush).
EVAL_SPAN = "graphs.csr.cut_weights_stable"


class Tracer:
    """Span store plus online per-name aggregates."""

    def __init__(self, keep: int = 1_000_000):
        self.keep = keep
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self._starts = array("d")
        self._ends = array("d")
        self._name_ids = array("i")
        self._parents = array("i")
        self.dropped = 0
        self.self_s: Dict[str, float] = defaultdict(float)
        self.incl_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, float] = defaultdict(float)
        self.waits: Dict[str, float] = defaultdict(float)
        #: Start time of the latest span of a marked name.
        self.marks: Dict[str, float] = {}
        self._local = threading.local()
        self._lock = threading.Lock()

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, nid: int) -> list:
        """Start a span; returns its frame ``[start, child_s, index, nid]``."""
        stack = self._stack()
        parent = stack[-1][2] if stack else -1
        start = perf_counter()
        with self._lock:
            if len(self._starts) < self.keep:
                index = len(self._starts)
                self._starts.append(start)
                self._ends.append(start)
                self._name_ids.append(nid)
                self._parents.append(parent)
            else:
                index = -1
                self.dropped += 1
        frame = [start, 0.0, index, nid]
        stack.append(frame)
        return frame

    def close(self, frame: list, call: bool = True) -> None:
        end = perf_counter()
        stack = self._stack()
        stack.pop()
        duration = end - frame[0]
        if stack:
            stack[-1][1] += duration
        name = self.names[frame[3]]
        self.self_s[name] += duration - frame[1]
        self.incl_s[name] += duration
        if call:
            self.calls[name] += 1
        if frame[2] >= 0:
            self._ends[frame[2]] = end

    def summary(self) -> Dict[str, Any]:
        """JSON-able aggregates (what a traced daemon hands back)."""
        return {
            "self_s": dict(self.self_s),
            "incl_s": dict(self.incl_s),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
            "waits": dict(self.waits),
            "spans_kept": len(self._starts),
            "spans_dropped": self.dropped,
        }

    def write(self, path: Path) -> None:
        """Write the kept spans (name, start, end, parent) as ``.npz``."""
        import numpy as np

        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array(self.names, dtype=str),
            name_id=np.frombuffer(self._name_ids, dtype=np.int32),
            start=np.frombuffer(self._starts, dtype=np.float64),
            end=np.frombuffer(self._ends, dtype=np.float64),
            parent=np.frombuffer(self._parents, dtype=np.int32),
        )


# -- wrappers -----------------------------------------------------------


class _Busy:
    """Awaitable running ``coro`` and timing only its active stretches."""

    __slots__ = ("tracer", "nid", "coro")

    def __init__(self, tracer: Tracer, nid: int, coro):
        self.tracer = tracer
        self.nid = nid
        self.coro = coro

    def __await__(self):
        tracer, nid, coro = self.tracer, self.nid, self.coro
        tracer.calls[tracer.names[nid]] += 1
        value: Any = None
        error: Optional[BaseException] = None
        while True:
            frame = tracer.open(nid)
            try:
                if error is None:
                    yielded = coro.send(value)
                else:
                    yielded = coro.throw(error)
            except StopIteration as stop:
                return stop.value
            finally:
                tracer.close(frame, call=False)
            value, error = None, None
            try:
                value = yield yielded
            except GeneratorExit:
                coro.close()
                raise
            except BaseException as exc:  # re-raised inside the coroutine
                error = exc


def _rows(membership: Any) -> int:
    shape = getattr(membership, "shape", None)
    if shape is None:
        return len(membership)
    return int(shape[0]) if len(shape) == 2 else 1


def make_wrapper(tracer: Tracer, kind: str, name: str, fn: Callable) -> Callable:
    """A wrapper of ``fn`` recording into ``tracer`` as ``kind``."""
    if kind == "count":

        def counted(*args, **kwargs):
            tracer.counts[name] += 1
            return fn(*args, **kwargs)

        wrapper = counted
    elif kind == "async":
        nid = tracer.name_id(name)

        def busy(*args, **kwargs):
            return _Busy(tracer, nid, fn(*args, **kwargs))

        wrapper = busy
    elif kind == "batch_wait":
        # MicroBatcher.enqueue(self, entry, row, callback): the callback
        # fires right after the flush that evaluated the row, so the
        # latest evaluation start is that flush's start.
        def enqueue(self, entry, row, callback):
            queued = perf_counter()

            def timed(value, exc):
                tracer.waits[name] += tracer.marks.get(EVAL_SPAN, queued) - queued
                callback(value, exc)

            return fn(self, entry, row, timed)

        wrapper = enqueue
    elif kind in ("span", "rows"):
        nid = tracer.name_id(name)
        rows = kind == "rows"

        def spanned(*args, **kwargs):
            frame = tracer.open(nid)
            if rows:
                tracer.marks[name] = frame[0]
                tracer.counts[name + ".rows"] += _rows(args[1])
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(frame)

        wrapper = spanned
    else:
        raise ValueError(f"unknown wrapper kind {kind!r}")
    functools.update_wrapper(wrapper, fn)
    return wrapper


def delay_wrapper(seconds: float) -> Callable[[Callable], Callable]:
    """Factory for the sensitivity check: ``fn`` plus a fixed delay.

    The delay spins rather than sleeps, so it costs CPU time the way a
    slower kernel would.
    """

    def make(fn: Callable) -> Callable:
        def delayed(*args, **kwargs):
            until = perf_counter() + seconds
            while perf_counter() < until:
                pass
            return fn(*args, **kwargs)

        functools.update_wrapper(delayed, fn)
        return delayed

    return make


# -- patching -----------------------------------------------------------

#: (span name, wrapper kind, "module:attr" / "module:Class.attr" sites).
Hook = Tuple[str, str, Tuple[str, ...]]

GRAPH_HOOKS: List[Hook] = [
    ("graphs.sample_near_min_cuts", "span", (
        "repro.graphs.mincut:sample_near_min_cuts",
        "repro.distributed.coordinator:sample_near_min_cuts",
    )),
    ("graphs.stoer_wagner", "span", (
        "repro.graphs.mincut:stoer_wagner",
        "repro.distributed.coordinator:stoer_wagner",
        "repro.sketch.sparsifier:stoer_wagner",
        "repro.localquery.verify_guess:stoer_wagner",
        "repro.localquery.baselines:stoer_wagner",
        "repro.serving.server:stoer_wagner",
    )),
    ("graphs.csr.max_flow", "span", ("repro.graphs.csr:CSRGraph.max_flow",)),
    (EVAL_SPAN, "rows", ("repro.graphs.csr:CSRGraph.cut_weights_stable",)),
    ("sketch.sparsifier_build", "span", (
        "repro.sketch.sparsifier:SparsifierSketch.__init__",
    )),
    ("sketch.query_calls", "count", (
        "repro.sketch.sparsifier:SparsifierSketch.query",
        "repro.sketch.sparsifier:SparsifierSketch.query_many",
    )),
    ("obs.emit", "span", ("repro.obs.sink:emit", "repro.obs:emit")),
]

TABLES_HOOKS: List[Hook] = GRAPH_HOOKS + [
    ("distributed.forall_sketch", "span", (
        "repro.distributed.server:Server.forall_sketch",
    )),
    ("distributed.cut_value_response_calls", "count", (
        "repro.distributed.server:Server.cut_value_response",
    )),
    ("localquery.verify_guess", "span", (
        "repro.localquery.verify_guess:verify_guess",
    )),
    ("localquery.estimate_min_cut", "span", (
        "repro.localquery.mincut_query:estimate_min_cut",
    )),
    ("localquery.neighbor_queries", "count", (
        "repro.localquery.oracle:GraphOracle.neighbor",
    )),
    ("foreach_lb.run_index_game", "span", ("repro.foreach_lb.game:run_index_game",)),
    ("forall_lb.run_gap_hamming_game", "span", (
        "repro.forall_lb.game:run_gap_hamming_game",
    )),
    ("linalg.hadamard", "span", (
        "repro.linalg.hadamard:Lemma32Matrix.__init__",
        "repro.linalg.hadamard:Lemma32Matrix.combine",
        "repro.linalg.hadamard:Lemma32Matrix.combine_many",
        "repro.linalg.hadamard:Lemma32Matrix.decode_coefficient",
    )),
]

DAEMON_HOOKS: List[Hook] = GRAPH_HOOKS + [
    ("obs.capture", "span", ("repro.serving.server:capture_envelope",)),
    ("serving.read", "async", ("repro.serving.server:read_envelope",)),
    ("serving.encode", "span", (
        "repro.serving.server:encode_frame",
        "repro.serving.protocol:encode_frame",
    )),
    ("serving.mask", "span", ("repro.serving.server:mask_to_row",)),
    ("serving.graph_decode", "span", (
        "repro.serving.server:graph_oid",
        "repro.serving.server:graph_from_payload",
    )),
    ("serving.batch_wait", "batch_wait", (
        "repro.serving.batcher:MicroBatcher.enqueue",
    )),
    ("serving.cache_get", "span", ("repro.serving.cache:SnapshotCache.get",)),
    ("serving.cache_put", "span", ("repro.serving.cache:SnapshotCache.put",)),
]

CLIENT_HOOKS: List[Hook] = [
    ("client.encode", "span", (
        "repro.serving.client:side_mask",
        "repro.serving.protocol:encode_frame",
    )),
    ("client.decode", "async", ("repro.serving.client:read_envelope",)),
]

#: The site the sensitivity check slows down.
DELAY_SITE = "repro.graphs.csr:CSRGraph.cut_weights_stable"


def resolve(site: str) -> Tuple[Any, str]:
    """``"pkg.mod:Class.attr"`` -> ``(owner object, attribute name)``."""
    module_name, _, path = site.partition(":")
    owner: Any = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


class Patcher:
    """Installs wrappers and restores every original on :meth:`restore`."""

    def __init__(self) -> None:
        self._saved: List[Tuple[Any, str, Any]] = []

    def patch(self, owner: Any, attr: str, make: Callable[[Callable], Callable]) -> None:
        original = vars(owner).get(attr)
        if not callable(original) or isinstance(original, (staticmethod, classmethod)):
            raise TypeError(f"{owner!r}.{attr} is not a plain function")
        setattr(owner, attr, make(original))
        self._saved.append((owner, attr, original))

    def patch_item(self, mapping: Dict, key: Any, make: Callable[[Callable], Callable]) -> None:
        original = mapping[key]
        mapping[key] = make(original)
        self._saved.append((mapping, key, original))

    def install(self, tracer: Tracer, hooks: Sequence[Hook]) -> "Patcher":
        for name, kind, sites in hooks:
            for site in sites:
                owner, attr = resolve(site)
                self.patch(
                    owner, attr, functools.partial(make_wrapper, tracer, kind, name)
                )
        return self

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    def __enter__(self) -> "Patcher":
        return self

    def __exit__(self, *exc_info) -> bool:
        self.restore()
        return False


# -- per-layer metrics ----------------------------------------------------

#: per-layer metric -> (aggregate, span or counter name).  Times are
#: self time except ``experiments.*`` (inclusive time per REGISTRY
#: entry) and ``serving.batch_wait_s`` (waiting, not busy, time).
SPAN_METRICS: Dict[str, Tuple[str, str]] = {
    **{f"experiments.e{i}_s": ("incl_s", f"experiments.e{i}") for i in range(1, 10)},
    "graphs.sample_near_min_cuts_s": ("self_s", "graphs.sample_near_min_cuts"),
    "graphs.sample_near_min_cuts.calls": ("calls", "graphs.sample_near_min_cuts"),
    "graphs.stoer_wagner_s": ("self_s", "graphs.stoer_wagner"),
    "graphs.stoer_wagner.calls": ("calls", "graphs.stoer_wagner"),
    "graphs.csr.max_flow_s": ("self_s", "graphs.csr.max_flow"),
    "graphs.csr.max_flow.calls": ("calls", "graphs.csr.max_flow"),
    "graphs.csr.cut_weights_stable_s": ("self_s", EVAL_SPAN),
    "graphs.csr.cut_weights_stable.calls": ("calls", EVAL_SPAN),
    "graphs.csr.cut_weights_stable.rows": ("counts", EVAL_SPAN + ".rows"),
    "distributed.forall_sketch_s": ("self_s", "distributed.forall_sketch"),
    "distributed.forall_sketch.calls": ("calls", "distributed.forall_sketch"),
    "distributed.cut_value_response_calls": (
        "counts", "distributed.cut_value_response_calls"),
    "sketch.sparsifier_build_s": ("self_s", "sketch.sparsifier_build"),
    "sketch.sparsifier_build.calls": ("calls", "sketch.sparsifier_build"),
    "sketch.query_calls": ("counts", "sketch.query_calls"),
    "localquery.verify_guess_s": ("self_s", "localquery.verify_guess"),
    "localquery.estimate_min_cut_s": ("self_s", "localquery.estimate_min_cut"),
    "localquery.neighbor_queries": ("counts", "localquery.neighbor_queries"),
    "foreach_lb.run_index_game_s": ("self_s", "foreach_lb.run_index_game"),
    "forall_lb.run_gap_hamming_game_s": ("self_s", "forall_lb.run_gap_hamming_game"),
    "linalg.hadamard_s": ("self_s", "linalg.hadamard"),
    "obs.emit_s": ("self_s", "obs.emit"),
    "obs.capture_s": ("self_s", "obs.capture"),
    "serving.read_s": ("self_s", "serving.read"),
    "serving.encode_s": ("self_s", "serving.encode"),
    "serving.mask_s": ("self_s", "serving.mask"),
    "serving.graph_decode_s": ("self_s", "serving.graph_decode"),
    "serving.batch_wait_s": ("waits", "serving.batch_wait"),
    "serving.cache_get_s": ("self_s", "serving.cache_get"),
    "serving.cache_put_s": ("self_s", "serving.cache_put"),
    "client.encode_s": ("self_s", "client.encode"),
    "client.decode_s": ("self_s", "client.decode"),
}


def span_metrics(summaries: Sequence[Dict[str, Any]], units: float) -> Dict[str, float]:
    """Sum the summaries' aggregates into :data:`SPAN_METRICS`, per unit.

    ``units`` is the amount of work traced: E1–E9 passes on tables,
    thousands of completed client operations on the serving workloads.
    A layer the workload never reaches reads 0.
    """
    out: Dict[str, float] = {}
    for metric, (table, key) in SPAN_METRICS.items():
        total = sum(float(s.get(table, {}).get(key, 0.0)) for s in summaries)
        out[metric] = total / units
    return out
