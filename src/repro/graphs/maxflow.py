"""Maximum flow via Dinic's algorithm, plus s-t min-cut extraction.

The library needs max flow in three places:

* certifying the edge-disjoint path counts of Lemma 5.5 / Figures 3–6
  (Menger's theorem: edge-disjoint ``u``–``v`` paths = max flow with unit
  capacities);
* computing global *directed* min cuts (n - 1 flow calls, used to verify
  balance and directed cut structure on small constructions);
* Gomory–Hu tree construction, which gives the sparsifier every
  per-edge connectivity ``lambda_e`` from ``n - 1`` flows.

Every flow runs on the graph's cached CSR snapshot
(:meth:`repro.graphs.csr.CSRGraph.max_flow`): integer-indexed Dinic over
residual arc arrays built once per snapshot and executed by the selected
kernel backend, whose python kernel is the specification.  Dinic runs in
``O(V^2 E)`` in general and ``O(E sqrt(V))`` on unit-capacity graphs,
which covers everything we do at simulator scale.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.errors import GraphError
from repro.graphs.digraph import DiGraph, Node
from repro.graphs.ugraph import UGraph
from repro.obs import STATE as _OBS
from repro.obs import count as _obs_count


class FlowResult:
    """Outcome of a max-flow computation."""

    __slots__ = ("value", "source_side", "_csr", "_flows", "_edge_flows")

    def __init__(self, value: float, source_side: FrozenSet[Node], csr, flows: List[float]):
        self.value = value
        #: Nodes reachable from the source in the final residual graph;
        #: this is the source side of a minimum s-t cut.
        self.source_side = source_side
        self._csr = csr
        self._flows = flows
        self._edge_flows: Optional[Dict[Tuple[Node, Node], float]] = None

    @property
    def edge_flows(self) -> Dict[Tuple[Node, Node], float]:
        """Flow on each directed snapshot edge ``(u, v) -> f >= 0``.

        An undirected graph's snapshot holds each edge once per
        direction, so both ``(u, v)`` and ``(v, u)`` appear.  Built on
        first read; flow and cut callers never pay for it.
        """
        if self._edge_flows is None:
            labels = self._csr.labels
            self._edge_flows = {
                (labels[u], labels[v]): f
                for u, v, f in zip(
                    self._csr.tails.tolist(),
                    self._csr.heads.tolist(),
                    self._flows,
                )
            }
        return self._edge_flows

    def __repr__(self) -> str:
        return f"FlowResult(value={self.value!r}, source_side={set(self.source_side)!r})"


def max_flow(graph: DiGraph, source: Node, sink: Node) -> FlowResult:
    """Max flow from ``source`` to ``sink`` in a weighted digraph.

    Edge weights are used as capacities.  The returned
    :attr:`FlowResult.source_side` certifies a minimum s-t cut of the
    same value (max-flow/min-cut duality, asserted in tests).  The flow
    runs on the graph's cached CSR snapshot, whose residual network is
    reused across the repeated flow calls of min-cut / connectivity
    certification.
    """
    if not graph.has_node(source) or not graph.has_node(sink):
        raise GraphError("source and sink must be nodes of the graph")
    if _OBS.enabled:
        _obs_count("maxflow.calls.csr")
    csr = graph.freeze()
    result = csr.max_flow(csr.index_of(source), csr.index_of(sink))
    labels = csr.labels
    return FlowResult(
        value=result.value,
        source_side=frozenset(labels[i] for i in result.source_side),
        csr=csr,
        flows=result.edge_flows,
    )


def max_flow_undirected(graph: UGraph, source: Node, sink: Node) -> FlowResult:
    """Max flow in an undirected graph (each edge usable in either direction).

    Runs straight on ``graph.freeze()``: that snapshot already stores
    each edge once per direction, so no doubled digraph is built and the
    ``n - 1`` calls of a Gomory–Hu sweep share one residual network.
    """
    return max_flow(graph, source, sink)


def min_st_cut(graph: DiGraph, source: Node, sink: Node) -> Tuple[float, FrozenSet[Node]]:
    """Minimum s-t cut value and its source side."""
    result = max_flow(graph, source, sink)
    return result.value, result.source_side
