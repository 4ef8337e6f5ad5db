"""The distributed min-cut coordinator (Section 1's application).

Two strategies, compared by total communication:

* ``forall_only`` — every server ships an ``eps``-accurate for-all
  sketch; the coordinator takes the union and computes its min cut.
  Shipped bits scale like ``1/eps^2`` (Theorem 1.2 says this is
  unavoidable for a pure for-all approach).
* ``hybrid`` — the [ACK+16] recipe the paper recounts: servers ship
  *constant*-accuracy (``1 +- 0.2``) for-all sketches, the coordinator
  enumerates O(1)-near-minimum candidate cuts on the union (repeated
  Karger contraction — there are only ``poly(n)`` such cuts), then
  re-scores each candidate with high-accuracy per-server queries whose
  responses cost ``O(log 1/eps)`` bits each.  The ``1/eps`` never
  multiplies the shipped sketch, which is the entire point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import FrozenSet, Optional, Sequence, Tuple

from repro.distributed.server import Server
from repro.errors import ParameterError
from repro.graphs.mincut import sample_near_min_cuts, stoer_wagner
from repro.graphs.ugraph import Node, UGraph
from repro.obs import STATE as _OBS
from repro.obs import capture as _capture
from repro.obs import count as _obs_count
from repro.obs import span as _obs_span
from repro.utils.rng import RngLike, ensure_rng, spawn_rngs

#: Constant accuracy of the hybrid strategy's shipped sketches.
HYBRID_SKETCH_ACCURACY = 0.2

#: Candidate cuts within this factor of the sketched minimum are
#: re-scored exactly; 2.0 comfortably covers the 1.2/0.8 sketch error.
CANDIDATE_FACTOR = 2.0


@dataclass
class DistributedMinCutResult:
    """Outcome of a distributed min-cut computation."""

    value: float
    side: FrozenSet[Node]
    strategy: str
    sketch_bits: int
    query_bits: int
    candidates_scored: int

    @property
    def total_bits(self) -> int:
        """All communication: shipped sketches plus query responses."""
        return self.sketch_bits + self.query_bits


def _ship_sketches(
    servers: Sequence[Server], epsilon: float, rng, sampling_constant: Optional[float] = None
) -> Tuple[UGraph, int]:
    """Ship one sparsifier per server; returns ``(union, shipped_bits)``.

    Each shard's sketch is built once, and that same sketch is priced,
    recorded as the ``distributed.ship`` wire event and unioned.
    """
    union = UGraph()
    bits = 0
    for server, child in zip(servers, spawn_rngs(rng, len(servers))):
        sketch = server.forall_sketch(
            epsilon, rng=child, sampling_constant=sampling_constant
        )
        shipped = sketch.size_bits()
        bits += shipped
        if _OBS.enabled:
            _capture.record(
                server.name, "coordinator", "distributed.ship",
                int(shipped), payload=sketch.sparse,
            )
        sparse = sketch.sparse
        for node in sparse.nodes():
            union.add_node(node)
        seen = set()
        for u, v, w in sparse.edges():
            key = frozenset((u, v))
            if key in seen:
                continue
            seen.add(key)
            # Both directions carry the undirected weight; average them
            # back into a single undirected edge.
            undirected = (w + sparse.weight(v, u)) / 2.0
            union.add_edge(u, v, undirected, combine="add")
    return union, bits


def distributed_min_cut(
    servers: Sequence[Server],
    epsilon: float,
    strategy: str = "hybrid",
    rng: RngLike = None,
    contraction_attempts: int = 200,
    sampling_constant: Optional[float] = None,
) -> DistributedMinCutResult:
    """Compute an approximate global min cut of the union of all shards."""
    if not servers:
        raise ParameterError("need at least one server")
    if not 0.0 < epsilon < 1.0:
        raise ParameterError("epsilon must be in (0, 1)")
    if strategy not in ("hybrid", "forall_only"):
        raise ParameterError(f"unknown strategy {strategy!r}")
    gen = ensure_rng(rng)

    if strategy == "forall_only":
        ship_rng, _ = spawn_rngs(gen, 2)
        with _obs_span(
            "distributed.ship", strategy=strategy, servers=len(servers)
        ):
            union, sketch_bits = _ship_sketches(
                servers, epsilon, ship_rng, sampling_constant
            )
        if _OBS.enabled:
            _obs_count("distributed.sketch_bits", sketch_bits)
        with _obs_span("distributed.mincut", strategy=strategy):
            value, side = stoer_wagner(union)
        return DistributedMinCutResult(
            value=value,
            side=frozenset(side),
            strategy=strategy,
            sketch_bits=sketch_bits,
            query_bits=0,
            candidates_scored=0,
        )

    # hybrid: constant-accuracy sketches + high-accuracy candidate queries
    ship_rng, karger_rng = spawn_rngs(gen, 2)
    with _obs_span(
        "distributed.ship", strategy="hybrid", servers=len(servers)
    ):
        union, sketch_bits = _ship_sketches(
            servers, HYBRID_SKETCH_ACCURACY, ship_rng, sampling_constant
        )
    if _OBS.enabled:
        _obs_count("distributed.sketch_bits", sketch_bits)
    with _obs_span("distributed.candidates"):
        candidates = sample_near_min_cuts(
            union, factor=CANDIDATE_FACTOR, attempts=contraction_attempts, rng=karger_rng
        )

    precision = epsilon / 4.0
    query_bits = 0
    best_value = math.inf
    best_side: FrozenSet[Node] = frozenset()
    with _obs_span("distributed.rescore", candidates=len(candidates)):
        for _, side in candidates:
            total = 0.0
            for server in servers:
                response, bits = server.cut_value_response(side, precision)
                total += response
                query_bits += bits
            if total < best_value:
                best_value = total
                best_side = frozenset(side)
    if _OBS.enabled:
        _obs_count("distributed.query_bits", query_bits)
    return DistributedMinCutResult(
        value=best_value,
        side=best_side,
        strategy="hybrid",
        sketch_bits=sketch_bits,
        query_bits=query_bits,
        candidates_scored=len(candidates),
    )
