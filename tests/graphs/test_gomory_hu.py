"""Tests for repro.graphs.gomory_hu."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GraphError
from repro.graphs.generators import random_connected_ugraph
from repro.graphs.gomory_hu import gomory_hu_tree
from repro.graphs.maxflow import max_flow_undirected
from repro.graphs.mincut import stoer_wagner
from repro.graphs.ugraph import UGraph


class TestGomoryHuTree:
    def test_path_graph(self):
        g = UGraph(edges=[("a", "b", 5.0), ("b", "c", 2.0)])
        tree = gomory_hu_tree(g)
        assert tree.min_cut_value("a", "b") == 5.0
        assert tree.min_cut_value("a", "c") == 2.0
        assert tree.min_cut_value("b", "c") == 2.0

    def test_tree_has_n_minus_1_edges(self):
        g = random_connected_ugraph(8, extra_edge_prob=0.4, rng=1)
        tree = gomory_hu_tree(g)
        assert len(tree.tree_edges()) == g.num_nodes - 1

    @given(st.integers(3, 8), st.integers(0, 2**32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_all_pairs_match_flows(self, n, seed):
        g = random_connected_ugraph(
            n, extra_edge_prob=0.4, rng=seed, weight_range=(0.5, 4.0)
        )
        tree = gomory_hu_tree(g)
        nodes = g.nodes()
        for i in range(len(nodes)):
            for j in range(i + 1, len(nodes)):
                expected = max_flow_undirected(g, nodes[i], nodes[j]).value
                assert tree.min_cut_value(nodes[i], nodes[j]) == pytest.approx(expected)

    @given(st.integers(3, 8), st.integers(0, 2**32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_global_min_is_lightest_tree_edge(self, n, seed):
        g = random_connected_ugraph(n, extra_edge_prob=0.5, rng=seed)
        tree = gomory_hu_tree(g)
        assert tree.global_min_cut_value() == pytest.approx(stoer_wagner(g)[0])

    @given(st.integers(2, 8), st.integers(0, 2**32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_pairwise_min_cuts_match_tree_paths(self, n, seed):
        g = random_connected_ugraph(
            n, extra_edge_prob=0.4, rng=seed, weight_range=(0.5, 4.0)
        )
        tree = gomory_hu_tree(g)
        cuts = tree.pairwise_min_cuts()
        nodes = g.nodes()
        assert set(cuts) == set(nodes)
        for u in nodes:
            assert set(cuts[u]) == set(nodes) - {u}
            for v in cuts[u]:
                assert cuts[u][v] == tree.min_cut_value(u, v) == cuts[v][u]

    def test_disconnected_graph_gets_zero_weight_tree_edges(self):
        g = UGraph(edges=[("a", "b", 2.0), ("b", "c", 3.0), ("x", "y", 1.0)])
        g.add_node("lonely")
        cuts = gomory_hu_tree(g).pairwise_min_cuts()
        for u in g.nodes():
            for v in g.nodes():
                if u != v:
                    assert cuts[u][v] == max_flow_undirected(g, u, v).value
        assert cuts["a"]["c"] == 2.0 and cuts["a"]["x"] == 0.0
        assert cuts["lonely"]["y"] == 0.0

    def test_same_node_raises(self):
        g = UGraph(edges=[("a", "b", 1.0)])
        tree = gomory_hu_tree(g)
        with pytest.raises(GraphError):
            tree.min_cut_value("a", "a")

    def test_unknown_node_raises(self):
        g = UGraph(edges=[("a", "b", 1.0)])
        tree = gomory_hu_tree(g)
        with pytest.raises(GraphError):
            tree.min_cut_value("a", "zzz")

    def test_too_small_raises(self):
        with pytest.raises(GraphError):
            gomory_hu_tree(UGraph(nodes=["a"]))
