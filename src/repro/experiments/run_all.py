"""Standalone experiment runner: regenerate paper tables without pytest.

Usage::

    python -m repro.experiments.run_all            # every experiment
    python -m repro.experiments.run_all e1 e6      # a subset
    python -m repro.experiments.run_all --list     # show the registry

Each experiment prints the same harness tables as its benchmark twin in
``benchmarks/``; this entry point exists so a user can regenerate one
artifact quickly (and pipe it into a report) without the benchmarking
machinery.

Unless ``--no-telemetry`` is passed, the run records structured
telemetry (spans, per-row metric deltas, and a final ``summary`` with
every global counter/histogram) into ``--telemetry PATH`` (default
``telemetry.jsonl``); ``scripts/trace_report.py`` turns that file back
into tables.  Every run also certifies the metered quantities against
the paper's envelopes (:mod:`repro.obs.bounds`) and prints the verdicts.

The other observability flags are wired by
:func:`repro.obs.session.session`: ``--strict-bounds``, ``--profile``
(span-attributed profiler), ``--memory[=sample|trace]`` (measured
space, certified by the Thm 1.1/1.2/1.3 space companions),
``--capture-wire`` (a wire transcript for ``scripts/wire_report.py``
and ``scripts/wire_replay.py``), ``--slo[=SPEC]`` (live SLO rules;
default: a margin floor of 1.0 on every registered bound plus a 30 s
worker-stall rule), ``--live-export[=PATH]`` and ``--live-port N``
(what ``scripts/obs_watch.py`` tails).  Their status output goes to
stderr, so stdout digests are unaffected at any ``--jobs`` count.

``--kernels {auto,python,native}`` selects the compiled-kernel backend
for the hot loops (Dinic, contraction, Lemma 3.2 products); see
:mod:`repro.kernels`.  The resolved backend is reported on *stderr* so
stdout — and therefore any digest of the tables — is identical across
backends.

``--commit-run`` snapshots the run's artifacts (telemetry, wire
capture when ``--capture-wire`` is on, any ``BENCH_*.json`` in the
working directory, and a bound-check summary) into the versioned
experiment store at ``--store`` (default ``.obs/store``) after the run
completes.  The bare flag commits to the store's checked-out branch;
``--commit-run=lines/kernels`` names one (the ``=`` form is required
when experiment ids follow on the command line).  Inspect history with
``scripts/obs_store.py`` (log / diff / bisect / fsck).

``--slo[=SPEC]`` attaches the live SLO engine (:mod:`repro.obs.slo`):
a :mod:`repro.obs.live` bus is installed for the run, every telemetry
event is teed onto it, parallel workers stream heartbeat delta
snapshots mid-run, and the rules in SPEC (default: a slack-margin
floor of 1.0 on every registered bound plus a 30 s worker-stall rule)
are evaluated per window; any breach emits an ``slo.violation`` event
and turns into exit code 6.  ``--live-export[=PATH]`` streams every
bus record (plus periodic ``live.snapshot`` frames) to a JSONL file,
and ``--live-port N`` serves Prometheus text at
``http://127.0.0.1:N/metrics`` (0 = ephemeral) — both are what
``scripts/obs_watch.py`` tails.  All live status output goes to
stderr, so stdout digests are unaffected.

Exit codes: 0 success; 4 an explicitly requested kernel backend is
unavailable; 7 a ``--serve`` smoke diverged from direct evaluation;
2 (``--strict-bounds`` violation), 3 (output failure), 5 (store
failure) and 6 (SLO breach) as defined in :mod:`repro.obs.session`.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Callable, Dict, List, Optional

from repro.experiments.harness import Table, sweep
from repro.parallel import set_default_jobs
from repro.obs import JsonlSink, span as obs_span
from repro.obs import memory as obs_memory
from repro.obs.session import (
    EXIT_BOUND_VIOLATION,
    EXIT_SLO_BREACH,
    EXIT_STORE_FAILURE,
    EXIT_TELEMETRY_FAILURE,
    SessionError,
    open_jsonl,
    session as obs_session,
)

#: Exit code for an explicitly requested kernel backend that cannot load.
EXIT_KERNELS_UNAVAILABLE = 4
#: Exit code for a ``--serve`` smoke whose served responses diverge
#: from direct in-process evaluation.
EXIT_SERVE_SMOKE_FAILURE = 7


def _e1_foreach() -> List[Table]:
    import math

    from repro.foreach_lb.game import run_index_game
    from repro.foreach_lb.params import ForEachParams
    from repro.sketch.exact import ExactCutSketch
    from repro.sketch.noisy import NoisyForEachSketch

    params = ForEachParams(inv_eps=4, sqrt_beta=1, num_groups=2)
    tolerance = params.epsilon / math.log(params.inv_eps)
    table = Table(
        title="E1 / Theorem 1.1 - Index game success vs sketch error",
        columns=["sketch_error", "success_rate", "fano_bits"],
    )
    for factor in (0.02, 1.0, 16.0):
        sketch_eps = min(0.95, factor * tolerance * 0.25)
        result = run_index_game(
            params,
            lambda g, r, e=sketch_eps: NoisyForEachSketch(g, epsilon=e, rng=r),
            rounds=25,
            rng=int(factor * 100),
        )
        table.add_row(
            sketch_error=sketch_eps,
            success_rate=result.success_rate,
            fano_bits=result.fano_bits(),
        )
    # Valid-sketch sweep certifying the Thm 1.1 envelope: a correct
    # (here exact) sketch of the construction graph must carry
    # Omega~(n sqrt(beta)/eps) bits at every epsilon on the sweep.
    sweep_table = Table(
        title="E1b / Theorem 1.1 - exact sketch bits vs eps",
        columns=["eps", "n", "beta", "mean_bits", "envelope"],
        bounds=["thm11.sketch_bits"],
    )
    for inv_eps in (2, 4, 8):
        p = ForEachParams(inv_eps=inv_eps, sqrt_beta=1, num_groups=2)
        result = run_index_game(
            p, lambda g, r: ExactCutSketch(g), rounds=3, rng=inv_eps
        )
        sweep_table.add_row(
            eps=p.epsilon,
            n=p.num_nodes,
            beta=p.beta,
            mean_bits=result.mean_sketch_bits,
            envelope=p.num_nodes * math.sqrt(p.beta) / p.epsilon,
        )
    return [table, sweep_table]


def _e2_forall() -> List[Table]:
    from repro.forall_lb.game import run_gap_hamming_game
    from repro.forall_lb.params import ForAllParams
    from repro.sketch.exact import ExactCutSketch

    params = ForAllParams(inv_eps_sq=8, beta=1, num_groups=2)
    result = run_gap_hamming_game(
        params, lambda g, r: ExactCutSketch(g), rounds=20, rng=1
    )
    table = Table(
        title="E2 / Theorem 1.2 - Gap-Hamming game (exact sketch)",
        columns=["n", "total_bits", "success_rate", "fano_bits"],
    )
    table.add_row(
        n=params.num_nodes,
        total_bits=params.total_bits,
        success_rate=result.success_rate,
        fano_bits=result.fano_bits(),
    )
    # Valid-sketch sweep certifying the Thm 1.2 envelope over epsilon.
    sweep_table = Table(
        title="E2b / Theorem 1.2 - exact sketch bits vs eps",
        columns=["eps", "n", "beta", "mean_bits", "envelope"],
        bounds=["thm12.sketch_bits"],
    )
    for inv_eps_sq in (2, 4, 8):
        p = ForAllParams(inv_eps_sq=inv_eps_sq, beta=1, num_groups=2)
        res = run_gap_hamming_game(
            p, lambda g, r: ExactCutSketch(g), rounds=3, rng=inv_eps_sq
        )
        sweep_table.add_row(
            eps=p.epsilon,
            n=p.num_nodes,
            beta=p.beta,
            mean_bits=res.mean_sketch_bits,
            envelope=p.num_nodes * p.beta / (p.epsilon * p.epsilon),
        )
    return [table, sweep_table]


def _e3_localquery() -> List[Table]:
    from repro.graphs.generators import planted_min_cut_ugraph
    from repro.localquery.oracle import GraphOracle
    from repro.localquery.verify_guess import fetch_degrees, verify_guess

    graph, k = planted_min_cut_ugraph(40, 20, rng=20)
    m = graph.num_edges

    def run_eps(eps: float) -> Dict[str, float]:
        oracle = GraphOracle(graph)
        degrees = fetch_degrees(oracle)
        result = verify_guess(
            oracle, degrees, t=float(k), eps=eps, rng=0, constant=0.5
        )
        return {
            "queries": result.neighbor_queries,
            "bound": min(2 * m, m / (eps * eps * k)),
        }

    table = Table(
        title="E3 / Theorem 1.3 - VERIFY-GUESS queries vs min{2m, m/(eps^2 k)}",
        columns=["eps", "queries", "bound"],
        meta={"m": m, "k": k, "n": graph.num_nodes},
        bounds=["thm13.queries"],
    )
    for row in sweep([{"eps": e} for e in (0.6, 0.45, 0.3, 0.2)], run_eps):
        table.add_row(
            eps=row["eps"], queries=row["queries"], bound=row["bound"]
        )

    # Same certification over the cut-size sweep: the min{2m, m/(eps^2 k)}
    # curve crosses over from the 2m clamp to the 1/k regime as k grows.
    def run_cut(cut_size: int) -> Dict[str, float]:
        g, planted_k = planted_min_cut_ugraph(40, cut_size, rng=cut_size)
        m_k, eps = g.num_edges, 0.45
        oracle = GraphOracle(g)
        degrees = fetch_degrees(oracle)
        result = verify_guess(
            oracle, degrees, t=float(planted_k), eps=eps, rng=0, constant=0.5
        )
        return {
            "k": planted_k,
            "m": m_k,
            "eps": eps,
            "queries": result.neighbor_queries,
            "bound": min(2 * m_k, m_k / (eps * eps * planted_k)),
        }

    sweep_table = Table(
        title="E3b / Theorem 1.3 - VERIFY-GUESS queries vs k (eps = 0.45)",
        columns=["k", "m", "eps", "queries", "bound"],
        bounds=[("thm13.queries", {"sweep": "k"})],
    )
    for row in sweep([{"cut_size": c} for c in (5, 10, 20, 38)], run_cut):
        sweep_table.add_row(
            k=row["k"],
            m=row["m"],
            eps=row["eps"],
            queries=row["queries"],
            bound=row["bound"],
        )
    return [table, sweep_table]


def _e4_upperbound() -> List[Table]:
    from repro.graphs.generators import planted_min_cut_ugraph
    from repro.localquery.mincut_query import estimate_min_cut
    from repro.localquery.oracle import GraphOracle

    graph, k = planted_min_cut_ugraph(40, 20, rng=0)

    def run_eps(eps: float) -> Dict[str, float]:
        row = {}
        for variant in ("naive", "modified"):
            oracle = GraphOracle(graph)
            estimate = estimate_min_cut(
                oracle, eps=eps, rng=1, variant=variant,
                constant=0.5, search_accuracy=0.5,
            )
            row[f"{variant}_search"] = estimate.search_queries
        return row

    table = Table(
        title="E4 / Theorem 5.7 - naive vs modified search queries",
        columns=["eps", "naive_search", "modified_search"],
        meta={"m": graph.num_edges, "k": k, "n": graph.num_nodes},
        bounds=["thm57.search_queries"],
    )
    for row in sweep([{"eps": e} for e in (0.6, 0.45, 0.3)], run_eps):
        table.add_row(
            eps=row["eps"],
            naive_search=row["naive_search"],
            modified_search=row["modified_search"],
        )
    return [table]


def _e5_figure1() -> List[Table]:
    from repro.foreach_lb.decoder import ForEachDecoder
    from repro.foreach_lb.encoder import ForEachEncoder
    from repro.foreach_lb.params import ForEachParams
    from repro.utils.bitstrings import random_signstring

    def run_config(inv_eps: int, sqrt_beta: int) -> Dict[str, float]:
        params = ForEachParams(inv_eps=inv_eps, sqrt_beta=sqrt_beta)
        encoder = ForEachEncoder(params)
        s = random_signstring(params.string_length, rng=3)
        encoded = encoder.encode(s)
        plan = ForEachDecoder(params).query_plans(0)[0]
        total = encoded.graph.cut_weight(plan.side)
        return {
            "forward_w": total - plan.fixed_backward,
            "backward_w": plan.fixed_backward,
        }

    table = Table(
        title="E5 / Figure 1 - decoder cut decomposition",
        columns=["inv_eps", "sqrt_beta", "forward_w", "backward_w"],
    )
    configs = [
        {"inv_eps": a, "sqrt_beta": b} for a, b in ((4, 1), (8, 1), (8, 2))
    ]
    for row in sweep(configs, run_config):
        table.add_row(
            inv_eps=row["inv_eps"],
            sqrt_beta=row["sqrt_beta"],
            forward_w=row["forward_w"],
            backward_w=row["backward_w"],
        )
    return [table]


def _e6_figure2() -> List[Table]:
    import numpy as np

    from repro.graphs.mincut import stoer_wagner
    from repro.localquery.gxy import build_gxy
    from repro.utils.rng import ensure_rng

    def run_config(side: int, gamma: int, seed: int) -> Dict[str, float]:
        gen = ensure_rng(seed)
        x = gen.integers(0, 2, size=side * side).astype(np.int8)
        y = np.zeros(side * side, dtype=np.int8)
        planted = gen.choice(side * side, size=gamma, replace=False)
        x[planted] = 1
        y[planted] = 1
        gxy = build_gxy(x, y)
        return {
            "INT": gxy.intersection(),
            "mincut": stoer_wagner(gxy.graph)[0],
            "witness": gxy.part_cut_value(),
        }

    table = Table(
        title="E6 / Figure 2 + Lemma 5.5 - MINCUT = 2*INT",
        columns=["sqrt_N", "INT", "mincut", "witness"],
    )
    configs = [
        {"side": side, "gamma": gamma, "seed": seed}
        for side, gamma, seed in ((6, 1, 0), (9, 2, 1), (12, 4, 2))
    ]
    for row in sweep(configs, run_config):
        table.add_row(
            sqrt_N=row["side"],
            INT=row["INT"],
            mincut=row["mincut"],
            witness=row["witness"],
        )
    return [table]


def _e7_figures36() -> List[Table]:
    import numpy as np

    from repro.graphs.connectivity import edge_disjoint_path_count
    from repro.localquery.gxy import build_gxy, representative_figure_pairs
    from repro.utils.rng import ensure_rng

    gen = ensure_rng(4)
    side, gamma = 9, 3
    x = gen.integers(0, 2, size=side * side).astype(np.int8)
    y = np.zeros(side * side, dtype=np.int8)
    planted = gen.choice(side * side, size=gamma, replace=False)
    x[planted] = 1
    y[planted] = 1
    gxy = build_gxy(x, y)
    pairs = list(representative_figure_pairs(gxy))

    def run_pair(index: int) -> Dict[str, float]:
        u, v, figure = pairs[index]
        return {
            "figure": figure,
            "paths": edge_disjoint_path_count(gxy.graph, u, v),
            "2gamma": 2 * gxy.intersection(),
        }

    table = Table(
        title="E7 / Figures 3-6 - edge-disjoint paths per representative pair",
        columns=["figure", "paths", "2gamma"],
    )
    for row in sweep([{"index": i} for i in range(len(pairs))], run_pair):
        table.add_row(
            figure=row["figure"],
            paths=row["paths"],
            **{"2gamma": row["2gamma"]},
        )
    return [table]


def _e8_sparsifier() -> List[Table]:
    from repro.graphs.ugraph import UGraph
    from repro.sketch.sparsifier import SparsifierSketch

    g = UGraph(nodes=range(16))
    for u in range(16):
        for v in range(u + 1, 16):
            g.add_edge(u, v, 1.0)
    def run_eps(eps: float) -> Dict[str, float]:
        sketch = SparsifierSketch.from_undirected(
            g, epsilon=eps, rng=17, constant=0.4
        )
        return {"kept_edges": sketch.sparse_graph.num_edges // 2}

    table = Table(
        title="E8 - sparsifier kept edges vs eps (K16)",
        columns=["eps", "kept_edges"],
    )
    for row in sweep([{"eps": e} for e in (0.9, 0.6, 0.4, 0.25)], run_eps):
        table.add_row(eps=row["eps"], kept_edges=row["kept_edges"])
    return [table]


def _e9_distributed() -> List[Table]:
    from repro.distributed.coordinator import distributed_min_cut
    from repro.distributed.server import partition_edges
    from repro.graphs.ugraph import UGraph

    g = UGraph(nodes=range(36))
    for u in range(36):
        for v in range(u + 1, 36):
            g.add_edge(u, v, 1.0)
    servers = partition_edges(g, 2, rng=1)

    def run_config(eps: float, strategy: str) -> Dict[str, float]:
        result = distributed_min_cut(
            servers, epsilon=eps, strategy=strategy, rng=7,
            sampling_constant=0.3,
        )
        return {"total_bits": result.total_bits, "estimate": result.value}

    table = Table(
        title="E9 - distributed min-cut communication vs eps",
        columns=["eps", "strategy", "total_bits", "estimate"],
    )
    configs = [
        {"eps": eps, "strategy": strategy}
        for eps in (0.4, 0.2)
        for strategy in ("forall_only", "hybrid")
    ]
    for row in sweep(configs, run_config):
        table.add_row(
            eps=row["eps"],
            strategy=row["strategy"],
            total_bits=row["total_bits"],
            estimate=row["estimate"],
        )
    return [table]


def _serve_smoke() -> int:
    """Boot an in-process sketch server and digest-check it.

    Registers a small graph with a :class:`ServerThread` daemon on an
    ephemeral port, then asserts the served ``cut_weight`` /
    ``cut_weights`` values are byte-identical to direct
    :meth:`~repro.graphs.csr.CSRGraph.cut_weights_stable` evaluation
    (canonical-JSON sha256 over the value lists) and that the served
    ``min_cut`` value matches :func:`~repro.graphs.mincut.stoer_wagner`.
    """
    import hashlib
    import json

    from repro.graphs.generators import random_regularish_ugraph
    from repro.graphs.mincut import stoer_wagner
    from repro.serving.client import ServingClient
    from repro.serving.server import ServerThread
    from repro.utils.rng import ensure_rng

    def digest(values: List[float]) -> str:
        body = json.dumps(
            [float(v) for v in values], separators=(",", ":"),
            allow_nan=False,
        ).encode()
        return hashlib.sha256(body).hexdigest()

    graph = random_regularish_ugraph(96, 4, rng=11)
    nodes = list(graph.nodes())
    gen = ensure_rng(29)
    sides = []
    for _ in range(24):
        size = int(gen.integers(1, len(nodes)))
        picks = gen.choice(len(nodes), size=size, replace=False)
        sides.append([nodes[i] for i in picks])

    csr = graph.freeze()
    member = csr.membership_matrix([frozenset(s) for s in sides])
    direct = digest(list(csr.cut_weights_stable(member)))
    direct_min, _ = stoer_wagner(graph)

    with ServerThread(max_batch=16, batch_window_s=0.002) as thread:
        print(
            f"serve smoke: {thread.server.url} "
            f"(n={len(nodes)}, {len(sides)} sides)",
            file=sys.stderr,
        )
        with ServingClient("127.0.0.1", thread.port) as client:
            oid = client.register_graph(graph)
            single = digest([client.cut_weight(oid, s) for s in sides])
            batch = digest(client.cut_weights(oid, sides))
            served_min = client.min_cut(oid)["value"]

    failures = []
    if single != direct:
        failures.append(f"cut_weight digest {single[:12]} != {direct[:12]}")
    if batch != direct:
        failures.append(f"cut_weights digest {batch[:12]} != {direct[:12]}")
    if float(served_min) != float(direct_min):
        failures.append(f"min_cut {served_min} != {direct_min}")
    for failure in failures:
        print(f"serve smoke: MISMATCH: {failure}", file=sys.stderr)
    if failures:
        return EXIT_SERVE_SMOKE_FAILURE
    print(
        f"serve smoke: ok (digest {direct[:12]}..., min_cut {direct_min})",
        file=sys.stderr,
    )
    return 0


REGISTRY: Dict[str, Callable[[], List[Table]]] = {
    "e1": _e1_foreach,
    "e2": _e2_forall,
    "e3": _e3_localquery,
    "e4": _e4_upperbound,
    "e5": _e5_figure1,
    "e6": _e6_figure2,
    "e7": _e7_figures36,
    "e8": _e8_sparsifier,
    "e9": _e9_distributed,
}


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.run_all",
        description="Regenerate the paper-reproduction experiment tables.",
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        help="experiment ids (e1..e9); default: all",
    )
    parser.add_argument(
        "--list", action="store_true", help="list experiment ids and exit"
    )
    parser.add_argument(
        "--serve",
        action="store_true",
        help="serving-tier smoke: boot an in-process sketch server on "
        "an ephemeral port, register a small graph, and digest-check "
        "served cut queries and min_cut against direct evaluation; "
        f"exits {EXIT_SERVE_SMOKE_FAILURE} on divergence (no "
        "experiments run)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="worker processes for parallel trial execution (0 = all "
        "cores, 1 = serial; default: $REPRO_JOBS or serial).  Any value "
        "produces bit-identical tables — see EXPERIMENTS.md, 'Parallel "
        "execution'",
    )
    parser.add_argument(
        "--kernels",
        choices=("auto", "python", "native"),
        default=None,
        metavar="{auto,python,native}",
        help="kernel backend for the hot loops (default: $REPRO_KERNELS "
        "or auto).  'auto' uses compiled kernels when a toolchain is "
        "available and silently degrades to the python reference; "
        "'native' fails fast when no toolchain loads.  Tables are "
        "identical for every backend — see docs/API.md, 'Kernel "
        "backends'",
    )
    parser.add_argument(
        "--telemetry",
        metavar="PATH",
        default="telemetry.jsonl",
        help="where to write the telemetry JSONL (default: %(default)s)",
    )
    parser.add_argument(
        "--no-telemetry",
        action="store_true",
        help="disable telemetry recording for this run",
    )
    parser.add_argument(
        "--strict-bounds",
        action="store_true",
        help=f"exit {EXIT_BOUND_VIOLATION} if any bound_check reports a "
        "violation (bounds are always checked and printed)",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="attach the span-attributed profiler and emit profile events",
    )
    parser.add_argument(
        "--memory",
        nargs="?",
        const=obs_memory.SAMPLE,
        default=None,
        choices=obs_memory.MODES,
        help="attach the measured-space profiler: 'sample' (the bare "
        "flag) tracks peak RSS and structure footprints; 'trace' "
        "additionally attributes tracemalloc deltas to span paths.  "
        "Registers the Thm 1.1/1.2/1.3 space companions so measured "
        "bytes are certified against the theorem envelopes (use the "
        "'=' form when experiment ids follow)",
    )
    parser.add_argument(
        "--capture-wire",
        action="store_true",
        help="record every protocol message (sketch ships, ledger "
        "charges, oracle queries) to --capture-path; render with "
        "scripts/wire_report.py",
    )
    parser.add_argument(
        "--capture-path",
        metavar="PATH",
        default="wire.capture.jsonl",
        help="where --capture-wire writes the transcript "
        "(default: %(default)s)",
    )
    parser.add_argument(
        "--commit-run",
        nargs="?",
        const="",
        default=None,
        metavar="BRANCH",
        help="after the run, commit its artifacts (telemetry, wire "
        "capture, BENCH_*.json reports, bound summary) into the "
        "experiment store; the bare flag uses the checked-out branch, "
        "--commit-run=BRANCH names one (use the '=' form when "
        "experiment ids follow)",
    )
    parser.add_argument(
        "--store",
        metavar="DIR",
        default=None,
        help="experiment store root for --commit-run "
        "(default: .obs/store)",
    )
    parser.add_argument(
        "--slo",
        nargs="?",
        const="",
        default=None,
        metavar="SPEC",
        help="evaluate SLO rules live and exit "
        f"{EXIT_SLO_BREACH} on breach.  SPEC is ';'-separated clauses "
        "(metric:NAME<=V, span:PATH:p99<=SECONDS, bound:SPEC>=FLOOR, "
        "baseline:metric:NAME<=FACTORx@REV, stall:SECONDS) or a JSON "
        "rule file; the bare flag installs a margin floor of 1.0 on "
        "every registered bound plus a 30s stall rule (use the '=' "
        "form when experiment ids follow)",
    )
    parser.add_argument(
        "--live-export",
        nargs="?",
        const="live.jsonl",
        default=None,
        metavar="PATH",
        help="stream every live-bus record (plus periodic "
        "live.snapshot frames) to a JSONL file for scripts/obs_watch.py "
        "(bare flag: %(const)s; use the '=' form when experiment ids "
        "follow)",
    )
    parser.add_argument(
        "--live-port",
        type=int,
        default=None,
        metavar="PORT",
        help="serve Prometheus text at http://127.0.0.1:PORT/metrics "
        "for the duration of the run (0 = ephemeral port; the bound "
        "port is reported on stderr)",
    )
    parser.add_argument(
        "--flush-every",
        type=int,
        default=None,
        metavar="N",
        help="flush the telemetry JSONL every N records so live tails "
        "see events promptly (default: 1 when --slo/--live-export/"
        "--live-port is active, else interpreter buffering)",
    )
    args = parser.parse_args(argv)

    if args.flush_every is not None and args.flush_every <= 0:
        parser.error("--flush-every must be a positive record count")

    if args.commit_run is not None and args.no_telemetry:
        parser.error(
            "--commit-run needs the telemetry stream; "
            "drop --no-telemetry"
        )

    if args.list:
        for key in sorted(REGISTRY):
            print(key)
        return 0

    if args.serve:
        return _serve_smoke()

    chosen = args.experiments or sorted(REGISTRY)
    unknown = [key for key in chosen if key not in REGISTRY]
    if unknown:
        parser.error(f"unknown experiments: {unknown}; use --list")

    # Resolve the kernel backend eagerly — an explicit 'native' on a
    # machine with no toolchain must fail here, not mid-experiment.  The
    # report goes to stderr: stdout carries only the tables, so digests
    # stay comparable across backends.
    from repro import kernels as _kernels

    previous_kernels = _kernels.select_backend(args.kernels)
    try:
        backend = _kernels.get_backend()
    except _kernels.KernelUnavailableError as exc:
        _kernels.select_backend(previous_kernels)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_KERNELS_UNAVAILABLE
    name, origin = _kernels.selection_order()
    print(
        f"kernels: {backend.name} ({backend.source}), "
        f"selection {name!r} via {origin}",
        file=sys.stderr,
    )

    live_on = (
        args.slo is not None
        or args.live_export is not None
        or args.live_port is not None
    )
    # Live tails must see telemetry events promptly.
    flush_every = args.flush_every or (1 if live_on else None)
    # Every sweep and game round below resolves its worker count through
    # this process-wide default (argument > default > $REPRO_JOBS > 1).
    set_default_jobs(args.jobs)
    try:
        sink = None
        if not args.no_telemetry:
            sink = open_jsonl(
                "telemetry sink", JsonlSink, args.telemetry,
                flush_every=flush_every,
            )
            print(f"telemetry sink: {os.path.abspath(sink.path)}")
        # Metric mirroring must be on for bound certification (the
        # sketch-size specs read per-row metric deltas), so
        # --strict-bounds keeps the switch on under --no-telemetry.
        with obs_session(
            enable=args.strict_bounds,
            sink=sink,
            slo=args.slo,
            store=args.store,
            live_export=args.live_export,
            metrics_port=args.live_port,
            capture=args.capture_path if args.capture_wire else None,
            capture_meta={"run": "run_all", "experiments": chosen},
            memory_mode=args.memory,
            profile=args.profile,
        ) as obs:
            if obs.capture is not None:
                path = os.path.abspath(obs.capture_sink.path)
                print(f"wire capture: {path}")
            for key in chosen:
                with obs_span(f"experiment.{key}"):
                    for table in REGISTRY[key]():
                        table.emit()
                if obs.memory is not None:
                    # Main-thread RSS checkpoint between experiments:
                    # fresh memory.rss_* gauges + one rss event for the
                    # live bus / rss: rules while the run is still going.
                    obs.memory.checkpoint()
    except SessionError as exc:
        return exc.report(parser)
    finally:
        set_default_jobs(None)
        _kernels.select_backend(previous_kernels)

    monitor, engine = obs.monitor, obs.engine
    if monitor.checks:
        print("\n== Bound certification ==")
        for line in monitor.summary_lines():
            print(line)
        print(
            f"bounds: {len(monitor.checks)} checks, "
            f"{len(monitor.violations)} violations"
        )

    if engine is not None:
        print("\n== SLO ==")
        for line in engine.summary_lines():
            print(line)
        print(
            f"slo: {len(engine.rules)} rules, "
            f"{len(engine.breaches)} breaches"
        )

    failure = obs.write_failure()
    if failure is not None:
        print(f"error: {failure}", file=sys.stderr)
        return EXIT_TELEMETRY_FAILURE
    if obs.capture is not None:
        print(
            f"\nwire capture written to {args.capture_path}: "
            f"{len(obs.capture)} messages, {obs.capture.total_bits} bits, "
            f"{len(obs.capture.parties())} parties"
        )
    if obs.sink is not None:
        print(f"\ntelemetry written to {args.telemetry}")

    if args.commit_run is not None:
        # Imported here, not at module scope: the store package pulls in
        # repro.obs.report, which imports the harness, which imports
        # repro.obs — fine at call time, a cycle at import time.
        from pathlib import Path

        from repro.obs.store import (
            DEFAULT_STORE,
            ExperimentStore,
            StoreError,
            collect_run_files,
            short_oid,
        )

        store_root = args.store or DEFAULT_STORE
        try:
            store = ExperimentStore.init(store_root)
            files = collect_run_files(
                telemetry_path=args.telemetry,
                capture_path=(
                    args.capture_path if obs.capture is not None else None
                ),
                bench_paths=sorted(Path.cwd().glob("BENCH_*.json")),
            )
            oid = store.commit_artifacts(
                files,
                message=f"run_all {' '.join(chosen)}",
                branch=args.commit_run or None,
                meta={
                    "run": "run_all",
                    "experiments": chosen,
                    "kernels": f"{backend.name} ({backend.source})",
                    "jobs": args.jobs,
                    "bound_checks": len(monitor.checks),
                    "bound_violations": len(monitor.violations),
                },
            )
        except (StoreError, OSError) as exc:
            print(
                f"error: could not commit the run into the experiment "
                f"store at {os.path.abspath(store_root)}: {exc}",
                file=sys.stderr,
            )
            return EXIT_STORE_FAILURE
        branch = args.commit_run or store.refs.current_branch()
        print(
            f"run committed to {store_root}: "
            f"[{branch} {short_oid(oid)}] {len(files)} artifact(s)"
        )

    if args.strict_bounds and monitor.violations:
        print(
            f"error: {len(monitor.violations)} bound violation(s) under "
            "--strict-bounds",
            file=sys.stderr,
        )
        return EXIT_BOUND_VIOLATION
    if engine is not None and engine.breached:
        print(
            f"error: {len(engine.breaches)} SLO breach(es) under --slo",
            file=sys.stderr,
        )
        return EXIT_SLO_BREACH
    return 0


if __name__ == "__main__":
    sys.exit(main())
