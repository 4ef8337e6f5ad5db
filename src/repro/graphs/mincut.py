"""Global minimum cut algorithms.

* :func:`stoer_wagner` — deterministic ``O(n m + n^2 log n)`` global min
  cut for undirected weighted graphs.  This is the reference algorithm
  behind Lemma 5.5's ``MINCUT(G_{x,y}) = 2 INT(x, y)`` experiments.
* :func:`karger_min_cut` — Monte-Carlo contraction; also used to *sample*
  near-minimum cuts for the distributed min-cut application (the paper's
  Section 1 observation that there are at most ``n^{O(C)}`` cuts within a
  factor ``C`` of minimum).  Both run on the array-based contraction
  engine of :mod:`repro.graphs.karger_stein`, cross-checked against
  Stoer–Wagner by the suite.
* :func:`directed_global_min_cut` — ``2(n-1)`` max-flow calls; the exact
  reference for directed constructions.
"""

from __future__ import annotations

import math
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.errors import GraphError
from repro.graphs.digraph import DiGraph, Node
from repro.graphs.karger_stein import contraction_cuts
from repro.graphs.maxflow import max_flow
from repro.graphs.ugraph import UGraph
from repro.utils.rng import RngLike, ensure_rng


def stoer_wagner(graph: UGraph) -> Tuple[float, FrozenSet[Node]]:
    """Exact global min cut of a connected undirected weighted graph.

    Returns ``(value, side)``.  Raises on graphs with fewer than two
    nodes.  Disconnected graphs return 0 with one component as the side.
    """
    n = graph.num_nodes
    if n < 2:
        raise GraphError("min cut needs at least two nodes")
    components = graph.connected_components()
    if len(components) > 1:
        return 0.0, frozenset(components[0])

    # Adjacency over "super nodes"; each super node remembers the set of
    # original nodes merged into it.
    adj: Dict[Node, Dict[Node, float]] = {
        u: dict(graph.neighbors(u)) for u in graph.nodes()
    }
    groups: Dict[Node, Set[Node]] = {u: {u} for u in graph.nodes()}

    best_value = math.inf
    best_side: FrozenSet[Node] = frozenset()

    while len(adj) > 1:
        # Minimum-cut-phase: maximum adjacency ordering.
        start = next(iter(adj))
        in_a: Set[Node] = {start}
        weights: Dict[Node, float] = {
            v: w for v, w in adj[start].items()
        }
        order = [start]
        while len(in_a) < len(adj):
            # Pick the most tightly connected remaining node.
            candidate = max(
                (v for v in adj if v not in in_a),
                key=lambda v: weights.get(v, 0.0),
            )
            order.append(candidate)
            in_a.add(candidate)
            for v, w in adj[candidate].items():
                if v not in in_a:
                    weights[v] = weights.get(v, 0.0) + w
        s, t = order[-2], order[-1]
        cut_of_phase = weights.get(t, 0.0)
        if cut_of_phase < best_value:
            best_value = cut_of_phase
            best_side = frozenset(groups[t])
        # Merge t into s.
        groups[s] |= groups[t]
        for v, w in adj[t].items():
            if v == s:
                continue
            adj[s][v] = adj[s].get(v, 0.0) + w
            adj[v][s] = adj[s][v]
            del adj[v][t]
        if t in adj[s]:
            del adj[s][t]
        del adj[t]
    return best_value, best_side


def karger_min_cut(
    graph: UGraph, trials: Optional[int] = None, rng: RngLike = None
) -> Tuple[float, FrozenSet[Node]]:
    """Monte-Carlo global min cut by repeated random contraction.

    ``trials`` defaults to ``ceil(n^2 ln n)`` contraction rounds, giving
    success probability ``1 - 1/n`` for the true minimum.  Weighted edges
    are contracted with probability proportional to weight.
    """
    n = graph.num_nodes
    if n < 2:
        raise GraphError("min cut needs at least two nodes")
    if not graph.is_connected():
        return 0.0, frozenset(graph.connected_components()[0])
    if trials is None:
        trials = max(1, int(math.ceil(n * n * max(1.0, math.log(n)))))
    best = min(
        contraction_cuts(graph, trials, ensure_rng(rng)),
        key=lambda item: item[0],
        default=None,
    )
    if best is None:
        # Only zero-weight edges hold the graph together: every run
        # stalled above two super-nodes, and Stoer–Wagner finds the 0 cut.
        return stoer_wagner(graph)
    return best


def sample_near_min_cuts(
    graph: UGraph,
    factor: float,
    attempts: int,
    rng: RngLike = None,
) -> List[Tuple[float, FrozenSet[Node]]]:
    """Sample distinct cuts with value <= ``factor`` * mincut.

    Used by the distributed min-cut coordinator: an O(1)-approximate
    for-all sketch identifies the regime, and repeated contraction (which
    finds any ``alpha``-near-minimum cut with probability
    ``n^{-O(alpha)}``) enumerates candidate cuts that are then re-scored
    with for-each queries.  The Stoer–Wagner minimum is always included.
    """
    if factor < 1.0:
        raise GraphError("factor must be >= 1")
    base_value, base_side = stoer_wagner(graph)
    found: Dict[FrozenSet[Node], float] = {base_side: base_value}
    threshold = factor * base_value if base_value > 0 else 0.0
    # Contraction sides always contain nodes()[0], so the base cut comes
    # back as base_side or, when that lacks the anchor, its complement.
    base_complement = frozenset(graph.nodes()) - base_side
    for value, side in contraction_cuts(graph, attempts, ensure_rng(rng)):
        if value <= threshold and side not in found and side != base_complement:
            found[side] = value
    return sorted(
        ((value, side) for side, value in found.items()), key=lambda item: item[0]
    )


def directed_global_min_cut(graph: DiGraph) -> Tuple[float, FrozenSet[Node]]:
    """Exact global directed min cut ``min_S w(S, V\\S)``.

    Standard reduction: fix any node ``r``; the optimal ``S`` either
    contains ``r`` (min over sinks t of min r-t cut) or not (min over
    sources s of min s-r cut).  Requires ``2(n-1)`` max-flow calls.
    """
    nodes = graph.nodes()
    if len(nodes) < 2:
        raise GraphError("min cut needs at least two nodes")
    root = nodes[0]
    best_value = math.inf
    best_side: FrozenSet[Node] = frozenset()
    for other in nodes[1:]:
        fwd = max_flow(graph, root, other)
        if fwd.value < best_value:
            best_value = fwd.value
            best_side = fwd.source_side
        bwd = max_flow(graph, other, root)
        if bwd.value < best_value:
            best_value = bwd.value
            best_side = bwd.source_side
    return best_value, best_side
