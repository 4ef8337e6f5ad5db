"""Tests for repro.graphs.digraph."""

import pytest

from repro.errors import GraphError
from repro.graphs.digraph import DiGraph

NAN, INF = float("nan"), float("inf")


@pytest.fixture
def triangle():
    """Directed triangle a->b->c->a with distinct weights."""
    g = DiGraph()
    g.add_edge("a", "b", 1.0)
    g.add_edge("b", "c", 2.0)
    g.add_edge("c", "a", 3.0)
    return g


class TestConstruction:
    def test_empty(self):
        g = DiGraph()
        assert g.num_nodes == 0
        assert g.num_edges == 0

    def test_add_node_idempotent(self):
        g = DiGraph()
        g.add_node("x")
        g.add_node("x")
        assert g.num_nodes == 1

    def test_edges_add_endpoints(self, triangle):
        assert triangle.num_nodes == 3
        assert triangle.num_edges == 3

    def test_constructor_with_edges(self):
        g = DiGraph(nodes=["z"], edges=[("a", "b", 1.0)])
        assert g.has_node("z")
        assert g.has_edge("a", "b")

    def test_self_loop_rejected(self):
        with pytest.raises(GraphError):
            DiGraph().add_edge("a", "a", 1.0)

    def test_negative_weight_rejected(self):
        with pytest.raises(GraphError):
            DiGraph().add_edge("a", "b", -1.0)

    @pytest.mark.parametrize("weight", [NAN, INF, -INF])
    def test_non_finite_weight_rejected(self, weight):
        g = DiGraph()
        with pytest.raises(GraphError, match="non-finite"):
            g.add_edge("a", "b", weight)
        assert g.num_edges == 0

    @pytest.mark.parametrize("weight", [NAN, INF])
    def test_non_finite_weight_rejected_when_adding(self, weight):
        g = DiGraph(edges=[("a", "b", 1.0)])
        with pytest.raises(GraphError, match="non-finite"):
            g.add_edge("a", "b", weight, combine="add")
        assert g.weight("a", "b") == 1.0

    def test_overflowing_sum_rejected(self):
        g = DiGraph(edges=[("a", "b", 1e308)])
        with pytest.raises(GraphError, match="overflows"):
            g.add_edge("a", "b", 1e308, combine="add")
        assert g.weight("a", "b") == 1e308

    def test_duplicate_edge_modes(self):
        g = DiGraph()
        g.add_edge("a", "b", 1.0)
        with pytest.raises(GraphError):
            g.add_edge("a", "b", 1.0)
        g.add_edge("a", "b", 2.0, combine="add")
        assert g.weight("a", "b") == 3.0
        g.add_edge("a", "b", 5.0, combine="set")
        assert g.weight("a", "b") == 5.0
        assert g.num_edges == 1

    def test_unknown_combine_mode(self):
        g = DiGraph()
        g.add_edge("a", "b", 1.0)
        with pytest.raises(GraphError):
            g.add_edge("a", "b", 1.0, combine="bogus")

    def test_zero_weight_edge_counts_as_edge(self):
        g = DiGraph()
        g.add_edge("a", "b", 0.0)
        assert g.has_edge("a", "b")
        assert g.num_edges == 1


class TestRemoval:
    def test_remove_edge(self, triangle):
        triangle.remove_edge("a", "b")
        assert not triangle.has_edge("a", "b")
        assert triangle.num_edges == 2

    def test_remove_missing_edge_raises(self, triangle):
        with pytest.raises(GraphError):
            triangle.remove_edge("b", "a")

    def test_remove_node_removes_incident_edges(self, triangle):
        triangle.remove_node("b")
        assert triangle.num_nodes == 2
        assert triangle.num_edges == 1  # only c->a survives
        assert triangle.has_edge("c", "a")

    def test_remove_missing_node_raises(self, triangle):
        with pytest.raises(GraphError):
            triangle.remove_node("zzz")


class TestInspection:
    def test_directed_asymmetry(self, triangle):
        assert triangle.has_edge("a", "b")
        assert not triangle.has_edge("b", "a")
        assert triangle.weight("b", "a") == 0.0

    def test_weight_unknown_node_raises(self, triangle):
        with pytest.raises(GraphError):
            triangle.weight("zzz", "a")

    def test_degrees_and_weights(self, triangle):
        assert triangle.out_degree("a") == 1
        assert triangle.in_degree("a") == 1
        assert triangle.out_weight("a") == 1.0
        assert triangle.in_weight("a") == 3.0

    def test_successors_predecessors_are_copies(self, triangle):
        succ = triangle.successors("a")
        succ["b"] = 99.0
        assert triangle.weight("a", "b") == 1.0
        pred = triangle.predecessors("a")
        pred["c"] = 99.0
        assert triangle.weight("c", "a") == 3.0

    def test_total_weight(self, triangle):
        assert triangle.total_weight() == 6.0

    def test_contains(self, triangle):
        assert "a" in triangle
        assert "q" not in triangle

    def test_repr(self, triangle):
        assert "n=3" in repr(triangle)


class TestCuts:
    def test_cut_weight_directed(self, triangle):
        assert triangle.cut_weight({"a"}) == 1.0
        assert triangle.cut_weight({"b", "c"}) == 3.0

    def test_trivial_cut_rejected(self, triangle):
        with pytest.raises(GraphError):
            triangle.cut_weight(set())
        with pytest.raises(GraphError):
            triangle.cut_weight({"a", "b", "c"})

    def test_cut_with_unknown_node_rejected(self, triangle):
        with pytest.raises(GraphError):
            triangle.cut_weight({"a", "zzz"})

    def test_directed_weight_between(self, triangle):
        assert triangle.directed_weight_between({"a"}, {"b"}) == 1.0
        assert triangle.directed_weight_between({"b"}, {"a"}) == 0.0
        assert triangle.directed_weight_between({"a", "b"}, {"c"}) == 2.0

    def test_edges_between(self, triangle):
        found = triangle.edges_between({"a", "b"}, {"c"})
        assert found == [("b", "c", 2.0)]


class TestDerivedGraphs:
    def test_copy_is_independent(self, triangle):
        clone = triangle.copy()
        clone.remove_edge("a", "b")
        assert triangle.has_edge("a", "b")

    def test_copy_keeps_nodes_edges_weights_and_order(self):
        # Predecessor order at "b" differs from tail order, so a copy
        # rebuilt edge by edge would reorder it.
        g = DiGraph(nodes=["a", "c", "b", "lonely"])
        g.add_edge("c", "b", 2.0)
        g.add_edge("a", "b", 0.5)
        g.add_edge("a", "c", 1.5)
        g.add_edge("b", "a", 3.0)
        clone = g.copy()
        assert clone.nodes() == g.nodes()
        assert list(clone.edges()) == list(g.edges())
        assert clone.num_edges == g.num_edges
        for node in g.nodes():
            assert list(clone.iter_successors(node)) == list(g.iter_successors(node))
            assert list(clone.iter_predecessors(node)) == list(g.iter_predecessors(node))
        assert clone.total_weight() == g.total_weight()

    def test_copy_does_not_share_adjacency(self, triangle):
        snapshot = triangle.freeze()
        clone = triangle.copy()
        clone.add_edge("a", "c", 9.0)
        clone.add_node("d")
        assert not triangle.has_edge("a", "c")
        assert triangle.predecessors("c") == {"b": 2.0}
        assert not triangle.has_node("d")
        assert triangle.freeze() is snapshot
        triangle.add_edge("b", "a", 1.0)
        assert not clone.has_edge("b", "a")
        assert clone.num_edges == 4 and triangle.num_edges == 4

    def test_reverse(self, triangle):
        rev = triangle.reverse()
        assert rev.has_edge("b", "a")
        assert rev.weight("b", "a") == 1.0
        assert not rev.has_edge("a", "b")

    def test_subgraph(self, triangle):
        sub = triangle.subgraph({"a", "b"})
        assert sub.num_nodes == 2
        assert sub.has_edge("a", "b")
        assert sub.num_edges == 1

    def test_scale_weights(self, triangle):
        scaled = triangle.scale_weights(2.0)
        assert scaled.weight("b", "c") == 4.0
        with pytest.raises(GraphError):
            triangle.scale_weights(-1.0)
