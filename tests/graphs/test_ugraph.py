"""Tests for repro.graphs.ugraph."""

import pytest

from repro.errors import GraphError
from repro.graphs.digraph import DiGraph
from repro.graphs.ugraph import UGraph, symmetrize

NAN, INF = float("nan"), float("inf")


@pytest.fixture
def square():
    """4-cycle a-b-c-d-a with unit weights."""
    g = UGraph()
    for u, v in (("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")):
        g.add_edge(u, v, 1.0)
    return g


class TestConstruction:
    def test_symmetry(self, square):
        assert square.has_edge("a", "b")
        assert square.has_edge("b", "a")
        assert square.weight("a", "b") == square.weight("b", "a")

    def test_parallel_edges_merge_at_construction(self):
        g = UGraph(edges=[("a", "b", 1.0), ("b", "a", 2.0)])
        assert g.num_edges == 1
        assert g.weight("a", "b") == 3.0

    def test_self_loop_rejected(self):
        with pytest.raises(GraphError):
            UGraph().add_edge("a", "a")

    def test_negative_weight_rejected(self):
        with pytest.raises(GraphError):
            UGraph().add_edge("a", "b", -0.5)

    @pytest.mark.parametrize("weight", [NAN, INF, -INF])
    def test_non_finite_weight_rejected(self, weight):
        g = UGraph()
        with pytest.raises(GraphError, match="non-finite"):
            g.add_edge("a", "b", weight)
        assert g.num_edges == 0
        with pytest.raises(GraphError, match="non-finite"):
            UGraph(edges=[("a", "b", weight)])

    @pytest.mark.parametrize("weight", [NAN, INF])
    def test_non_finite_weight_rejected_when_adding(self, weight):
        g = UGraph(edges=[("a", "b", 1.0)])
        with pytest.raises(GraphError, match="non-finite"):
            g.add_edge("b", "a", weight, combine="add")
        assert g.weight("a", "b") == 1.0

    def test_overflowing_sum_rejected(self):
        g = UGraph(edges=[("a", "b", 1e308)])
        with pytest.raises(GraphError, match="overflows"):
            g.add_edge("a", "b", 1e308, combine="add")
        assert g.weight("b", "a") == 1e308

    def test_duplicate_modes(self):
        g = UGraph()
        g.add_edge("a", "b", 1.0)
        with pytest.raises(GraphError):
            g.add_edge("a", "b", 1.0)
        g.add_edge("b", "a", 2.0, combine="add")
        assert g.weight("a", "b") == 3.0
        g.add_edge("a", "b", 7.0, combine="set")
        assert g.weight("b", "a") == 7.0


class TestInspection:
    def test_edges_listed_once(self, square):
        assert len(list(square.edges())) == 4
        assert square.num_edges == 4

    def test_degree_and_weighted_degree(self, square):
        assert square.degree("a") == 2
        assert square.weighted_degree("a") == 2.0

    def test_total_weight(self, square):
        assert square.total_weight() == 4.0

    def test_neighbors_is_copy(self, square):
        nbrs = square.neighbors("a")
        nbrs["b"] = 42.0
        assert square.weight("a", "b") == 1.0

    def test_unknown_node_raises(self, square):
        with pytest.raises(GraphError):
            square.degree("zzz")


class TestCuts:
    def test_cut_counts_each_edge_once(self, square):
        assert square.cut_weight({"a"}) == 2.0
        assert square.cut_weight({"a", "b"}) == 2.0

    def test_cut_complement_symmetric(self, square):
        assert square.cut_weight({"a", "c"}) == square.cut_weight({"b", "d"})

    def test_trivial_cut_rejected(self, square):
        with pytest.raises(GraphError):
            square.cut_weight(set())
        with pytest.raises(GraphError):
            square.cut_weight({"a", "b", "c", "d"})


class TestCopy:
    def test_copy_keeps_nodes_edges_weights_and_order(self):
        # Neighbour order differs from edge-insertion order at "b", so a
        # copy rebuilt edge by edge would reorder it.
        g = UGraph(nodes=["a", "c", "b", "lonely"])
        g.add_edge("a", "c", 1.5)
        g.add_edge("b", "c", 2.0)
        g.add_edge("a", "b", 0.25)
        clone = g.copy()
        assert clone.nodes() == g.nodes()
        assert list(clone.edges()) == list(g.edges())
        assert clone.num_edges == g.num_edges
        for node in g.nodes():
            assert list(clone.iter_neighbors(node)) == list(g.iter_neighbors(node))
        assert clone.total_weight() == g.total_weight()

    def test_copy_is_independent(self, square):
        snapshot = square.freeze()
        clone = square.copy()
        clone.remove_edge("a", "b")
        clone.add_edge("a", "c", 5.0)
        clone.add_node("e")
        assert square.has_edge("a", "b") and not square.has_edge("a", "c")
        assert not square.has_node("e")
        assert square.num_edges == 4
        assert square.freeze() is snapshot
        square.add_edge("b", "d", 1.0)
        assert not clone.has_edge("b", "d")
        assert clone.freeze().num_edges == 2 * clone.num_edges


class TestContraction:
    def test_contract_merges_and_sums(self):
        g = UGraph(edges=[("a", "b", 1.0), ("a", "c", 2.0), ("b", "c", 4.0)])
        merged = g.contracted("a", "b")
        assert not merged.has_node("b")
        assert merged.weight("a", "c") == 6.0
        assert merged.num_edges == 1

    def test_contract_drops_internal_edge(self):
        g = UGraph(edges=[("a", "b", 1.0)])
        merged = g.contracted("a", "b")
        assert merged.num_edges == 0
        assert merged.num_nodes == 1

    def test_contract_original_untouched(self):
        g = UGraph(edges=[("a", "b", 1.0), ("b", "c", 1.0)])
        g.contracted("a", "b")
        assert g.has_node("b")
        assert g.num_edges == 2

    def test_contract_errors(self):
        g = UGraph(edges=[("a", "b", 1.0)])
        with pytest.raises(GraphError):
            g.contracted("a", "a")
        with pytest.raises(GraphError):
            g.contracted("a", "zzz")


class TestComponents:
    def test_connected(self, square):
        assert square.is_connected()
        assert len(square.connected_components()) == 1

    def test_disconnected(self):
        g = UGraph(edges=[("a", "b", 1.0), ("c", "d", 1.0)])
        comps = g.connected_components()
        assert len(comps) == 2
        assert not g.is_connected()

    def test_isolated_nodes_are_components(self):
        g = UGraph(nodes=["a", "b"])
        assert len(g.connected_components()) == 2

    def test_empty_graph_connected(self):
        assert UGraph().is_connected()

    def test_subgraph(self, square):
        sub = square.subgraph({"a", "b", "c"})
        assert sub.num_edges == 2
        with pytest.raises(GraphError):
            square.subgraph({"a", "zzz"})


class TestSymmetrize:
    def test_weights_sum_directions(self):
        d = DiGraph()
        d.add_edge("a", "b", 1.0)
        d.add_edge("b", "a", 2.5)
        d.add_edge("b", "c", 4.0)
        u = symmetrize(d)
        assert u.weight("a", "b") == 3.5
        assert u.weight("b", "c") == 4.0
        assert u.num_edges == 2

    def test_preserves_isolated_nodes(self):
        d = DiGraph(nodes=["x"])
        assert symmetrize(d).has_node("x")
