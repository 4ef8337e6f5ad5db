"""Property-based equivalence of the CSR kernel layer vs the dict path.

The CSR snapshot (:mod:`repro.graphs.csr`) is a performance layer: every
kernel must agree with the reference dict-of-dicts implementation on the
same graph.  These tests draw random weighted digraphs (including
zero-weight edges and non-contiguous, mixed hashable labels) and check

* ``cut_weights`` / ``cut_weights_both`` vs ``DiGraph.cut_weight``;
* ``weights_between`` vs ``DiGraph.directed_weight_between``;
* CSR integer-indexed Dinic, on digraph and undirected snapshots, vs
  brute-force s-t cut enumeration (value equality and min-cut duality);
* degree/weight vectors vs per-node dict sums;
* the UGraph freeze path;
* freeze/total_weight cache invalidation across mutations.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GraphError
from repro.graphs.csr import CSRGraph, batched_cut_weights
from repro.graphs.cuts import all_directed_cut_values, enumerate_cut_sides
from repro.graphs.digraph import DiGraph
from repro.graphs.maxflow import max_flow, max_flow_undirected
from repro.graphs.ugraph import UGraph

# Non-contiguous mixed hashable labels: ints with gaps, strings, tuples.
LABEL_POOL = [0, 7, 3, "a", "zz", (1, 2), ("x",), 100, -4, "node-9", 42, (0, 0)]


def _label_strategy(min_nodes=2, max_nodes=8):
    return st.lists(
        st.sampled_from(LABEL_POOL),
        min_size=min_nodes,
        max_size=max_nodes,
        unique=True,
    )


@st.composite
def random_digraphs(draw, min_nodes=2, max_nodes=8):
    """A DiGraph with random weighted edges, some of weight zero."""
    labels = draw(_label_strategy(min_nodes, max_nodes))
    n = len(labels)
    g = DiGraph(nodes=labels)
    max_edges = n * (n - 1)
    num_edges = draw(st.integers(0, min(max_edges, 20)))
    pairs = [(u, v) for u in labels for v in labels if u != v]
    for idx in draw(
        st.lists(st.integers(0, len(pairs) - 1), min_size=num_edges,
                 max_size=num_edges, unique=True)
    ):
        u, v = pairs[idx]
        weight = draw(
            st.one_of(
                st.just(0.0),
                st.floats(0.0, 10.0, allow_nan=False, allow_infinity=False),
            )
        )
        g.add_edge(u, v, weight)
    return g


@st.composite
def random_ugraphs(draw, min_nodes=2, max_nodes=8):
    labels = draw(_label_strategy(min_nodes, max_nodes))
    g = UGraph(nodes=labels)
    pairs = [
        (u, v) for i, u in enumerate(labels) for v in labels[i + 1:]
    ]
    num_edges = draw(st.integers(0, min(len(pairs), 15)))
    for idx in draw(
        st.lists(st.integers(0, len(pairs) - 1), min_size=num_edges,
                 max_size=num_edges, unique=True)
    ):
        u, v = pairs[idx]
        weight = draw(st.floats(0.0, 10.0, allow_nan=False))
        g.add_edge(u, v, weight)
    return g


def _some_sides(graph):
    """A deterministic sample of proper cut sides of ``graph``."""
    nodes = graph.nodes()
    sides = [frozenset(side) for side in enumerate_cut_sides(nodes)]
    return sides[:64]


class TestDirectedKernels:
    @given(random_digraphs())
    @settings(max_examples=50, deadline=None)
    def test_cut_weights_matches_dict(self, g):
        sides = _some_sides(g)
        csr = g.freeze()
        member = csr.membership_matrix(sides)
        batched = csr.cut_weights(member)
        for side, value in zip(sides, batched):
            assert float(value) == pytest.approx(g.cut_weight(side))

    @given(random_digraphs())
    @settings(max_examples=50, deadline=None)
    def test_cut_weights_both_matches_dict(self, g):
        sides = _some_sides(g)
        csr = g.freeze()
        member = csr.membership_matrix(sides)
        forward, backward = csr.cut_weights_both(member)
        node_set = set(g.nodes())
        for side, fwd, bwd in zip(sides, forward, backward):
            assert float(fwd) == pytest.approx(g.cut_weight(side))
            assert float(bwd) == pytest.approx(
                g.cut_weight(frozenset(node_set - set(side)))
            )

    @given(random_digraphs())
    @settings(max_examples=50, deadline=None)
    def test_weights_between_matches_dict(self, g):
        sides = _some_sides(g)
        csr = g.freeze()
        node_set = set(g.nodes())
        src = csr.membership_matrix(sides)
        dst = csr.membership_matrix(
            [frozenset(node_set - set(side)) for side in sides]
        )
        batched = csr.weights_between(src, dst)
        for side, value in zip(sides, batched):
            other = node_set - set(side)
            assert float(value) == pytest.approx(
                g.directed_weight_between(side, other)
            )

    @given(random_digraphs())
    @settings(max_examples=50, deadline=None)
    def test_single_cut_weight_matches(self, g):
        csr = g.freeze()
        for side in _some_sides(g)[:8]:
            assert csr.cut_weight(side) == pytest.approx(g.cut_weight(side))

    @given(random_digraphs(min_nodes=3))
    @settings(max_examples=50, deadline=None)
    def test_degree_and_weight_vectors(self, g):
        csr = g.freeze()
        out_w = csr.out_weight_vector()
        in_w = csr.in_weight_vector()
        out_d = csr.out_degree_vector()
        in_d = csr.in_degree_vector()
        for i, node in enumerate(csr.labels):
            succ = dict(g.iter_successors(node))
            pred = dict(g.iter_predecessors(node))
            assert float(out_w[i]) == pytest.approx(sum(succ.values()))
            assert float(in_w[i]) == pytest.approx(sum(pred.values()))
            assert int(out_d[i]) == len(succ)
            assert int(in_d[i]) == len(pred)

    @given(random_digraphs())
    @settings(max_examples=30, deadline=None)
    def test_enumeration_engines_agree(self, g):
        dict_vals = list(all_directed_cut_values(g, engine="dict"))
        csr_vals = list(all_directed_cut_values(g, engine="csr"))
        assert len(dict_vals) == len(csr_vals)
        for (s1, v1), (s2, v2) in zip(dict_vals, csr_vals):
            assert s1 == s2
            assert v1 == pytest.approx(v2)

    @given(random_digraphs())
    @settings(max_examples=30, deadline=None)
    def test_batched_helper(self, g):
        sides = _some_sides(g)
        values = batched_cut_weights(g, sides)
        for side, value in zip(sides, values):
            assert float(value) == pytest.approx(g.cut_weight(side))


def _assert_min_st_cut(graph, result, source, sink):
    """Flow value and residual side both attain the brute-force min s-t cut."""
    best = min(
        graph.cut_weight(side)
        for side in enumerate_cut_sides(graph.nodes(), pinned=source)
        if sink not in side
    )
    assert result.value == pytest.approx(best, abs=1e-9)
    # Min-cut duality: the residual-reachable side separates the
    # terminals and is itself a minimum s-t cut.
    side = result.source_side
    assert source in side and sink not in side
    assert graph.cut_weight(side) == pytest.approx(best, abs=1e-9)


class TestMaxFlowEquivalence:
    @given(random_digraphs(min_nodes=2, max_nodes=8), st.data())
    @settings(max_examples=50, deadline=None)
    def test_csr_flow_matches_brute_force_cut(self, g, data):
        labels = g.nodes()
        source = data.draw(st.sampled_from(labels))
        sink = data.draw(
            st.sampled_from([v for v in labels if v != source])
        )
        _assert_min_st_cut(g, max_flow(g, source, sink), source, sink)

    @given(random_ugraphs(min_nodes=2, max_nodes=8), st.data())
    @settings(max_examples=50, deadline=None)
    def test_undirected_snapshot_flow_matches_brute_force_cut(self, g, data):
        labels = g.nodes()
        source = data.draw(st.sampled_from(labels))
        sink = data.draw(st.sampled_from([v for v in labels if v != source]))
        _assert_min_st_cut(g, max_flow_undirected(g, source, sink), source, sink)

    @given(random_digraphs(min_nodes=2, max_nodes=7), st.data())
    @settings(max_examples=30, deadline=None)
    def test_flow_conservation(self, g, data):
        labels = g.nodes()
        source = data.draw(st.sampled_from(labels))
        sink = data.draw(st.sampled_from([v for v in labels if v != source]))
        result = max_flow(g, source, sink)
        net = {v: 0.0 for v in labels}
        for (u, v), f in result.edge_flows.items():
            assert -1e-9 <= f <= g.weight(u, v) + 1e-9
            net[u] += f
            net[v] -= f
        for v in labels:
            if v in (source, sink):
                continue
            assert net[v] == pytest.approx(0.0, abs=1e-9)
        assert net[source] == pytest.approx(result.value, abs=1e-9)


class TestUndirectedKernels:
    @given(random_ugraphs())
    @settings(max_examples=50, deadline=None)
    def test_cut_weights_matches_dict(self, g):
        sides = _some_sides(g)
        csr = g.freeze()
        member = csr.membership_matrix(sides)
        batched = csr.cut_weights(member)
        for side, value in zip(sides, batched):
            assert float(value) == pytest.approx(g.cut_weight(side))

    @given(random_ugraphs())
    @settings(max_examples=30, deadline=None)
    def test_total_weight_cached(self, g):
        assert g.total_weight() == pytest.approx(g.total_weight())


class TestCacheInvalidation:
    def test_freeze_reused_until_mutation(self):
        g = DiGraph(edges=[("a", "b", 1.0), ("b", "c", 2.0)])
        first = g.freeze()
        assert g.freeze() is first
        g.add_edge("c", "a", 3.0)
        second = g.freeze()
        assert second is not first
        assert second.cut_weight({"c"}) == pytest.approx(3.0)

    def test_total_weight_invalidated_by_mutation(self):
        g = DiGraph(edges=[("a", "b", 1.0)])
        assert g.total_weight() == pytest.approx(1.0)
        g.add_edge("b", "a", 2.0)
        assert g.total_weight() == pytest.approx(3.0)
        g.remove_edge("a", "b")
        assert g.total_weight() == pytest.approx(2.0)

    def test_remove_node_invalidates(self):
        g = DiGraph(edges=[("a", "b", 1.0), ("b", "c", 2.0)])
        g.freeze()
        g.remove_node("b")
        csr = g.freeze()
        assert csr.num_nodes == 2
        assert csr.num_edges == 0

    def test_ugraph_freeze_invalidation(self):
        g = UGraph(edges=[("a", "b", 1.0)])
        first = g.freeze()
        g.add_edge("b", "c", 5.0)
        second = g.freeze()
        assert second is not first
        assert second.total_weight() == pytest.approx(12.0)  # both directions

    def test_add_existing_node_keeps_cache(self):
        g = DiGraph(edges=[("a", "b", 1.0)])
        first = g.freeze()
        g.add_node("a")
        assert g.freeze() is first


class TestValidation:
    def test_unknown_label_rejected(self):
        g = DiGraph(edges=[("a", "b", 1.0)])
        csr = g.freeze()
        with pytest.raises(GraphError):
            csr.membership_matrix([{"zz"}])

    def test_improper_side_rejected(self):
        g = DiGraph(edges=[("a", "b", 1.0)])
        csr = g.freeze()
        with pytest.raises(GraphError):
            csr.check_proper(csr.membership_matrix([{"a", "b"}]))
        with pytest.raises(GraphError):
            csr.check_proper(csr.membership_matrix([set()]))

    def test_empty_batch(self):
        g = DiGraph(edges=[("a", "b", 1.0)])
        csr = g.freeze()
        member = np.zeros((0, csr.num_nodes), dtype=bool)
        assert csr.cut_weights(member).shape == (0,)
