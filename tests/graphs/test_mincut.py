"""Tests for repro.graphs.mincut: Stoer–Wagner, Karger, directed min cut."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GraphError
from repro.graphs.cuts import brute_force_directed_min_cut, brute_force_min_cut
from repro.graphs.digraph import DiGraph
from repro.graphs.generators import (
    planted_min_cut_ugraph,
    random_balanced_digraph,
    random_connected_ugraph,
)
from repro.graphs.mincut import (
    directed_global_min_cut,
    karger_min_cut,
    sample_near_min_cuts,
    stoer_wagner,
)
from repro.graphs.ugraph import UGraph


def disconnected_graphs():
    """Two components, an isolated node, and three components."""
    isolated = UGraph(edges=[("a", "b", 1.0)])
    isolated.add_node("c")
    return [
        UGraph(edges=[("a", "b", 1.0), ("c", "d", 1.0)]),
        isolated,
        UGraph(edges=[(0, 1, 1.0), (2, 3, 1.0), (4, 5, 1.0)]),
    ]


class TestStoerWagner:
    def test_path_graph(self):
        g = UGraph(edges=[("a", "b", 3.0), ("b", "c", 1.0), ("c", "d", 2.0)])
        value, side = stoer_wagner(g)
        assert value == 1.0
        assert g.cut_weight(side) == 1.0

    def test_disconnected_returns_zero(self):
        for g in disconnected_graphs():
            value, side = stoer_wagner(g)
            assert value == 0.0
            assert g.cut_weight(side) == 0.0

    def test_two_nodes(self):
        g = UGraph(edges=[("a", "b", 4.5)])
        value, _ = stoer_wagner(g)
        assert value == 4.5

    def test_single_node_raises(self):
        with pytest.raises(GraphError):
            stoer_wagner(UGraph(nodes=["a"]))

    def test_planted_cut_found(self):
        g, k = planted_min_cut_ugraph(10, 3, rng=0)
        value, _ = stoer_wagner(g)
        assert value == float(k)

    @given(st.integers(3, 9), st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_matches_brute_force(self, n, seed):
        g = random_connected_ugraph(n, extra_edge_prob=0.4, rng=seed,
                                    weight_range=(0.5, 3.0))
        sw_value, sw_side = stoer_wagner(g)
        bf_value, _ = brute_force_min_cut(g)
        assert sw_value == pytest.approx(bf_value)
        assert g.cut_weight(sw_side) == pytest.approx(bf_value)


class TestKarger:
    @given(st.integers(4, 8), st.integers(0, 2**32 - 1))
    @settings(max_examples=10, deadline=None)
    def test_matches_stoer_wagner(self, n, seed):
        g = random_connected_ugraph(n, extra_edge_prob=0.4, rng=seed)
        k_value, k_side = karger_min_cut(g, rng=seed)
        sw_value, _ = stoer_wagner(g)
        assert k_value == pytest.approx(sw_value)
        assert g.cut_weight(k_side) == pytest.approx(sw_value)

    def test_respects_weights(self):
        # Heavy edge should never be the min cut.
        g = UGraph(edges=[("a", "b", 100.0), ("b", "c", 1.0)])
        value, side = karger_min_cut(g, rng=0)
        assert value == 1.0

    def test_disconnected(self):
        for g in disconnected_graphs():
            value, side = karger_min_cut(g, rng=1)
            assert value == 0.0
            assert g.cut_weight(side) == 0.0

    def test_too_small_raises(self):
        with pytest.raises(GraphError):
            karger_min_cut(UGraph(nodes=["a"]))

    def test_zero_weight_edges_give_zero_cut(self):
        # Connected only through zero-weight edges: every contraction
        # stalls above two super-nodes, yet a 0 cut is still returned.
        g = UGraph(edges=[("a", "b", 0.0), ("c", "d", 0.0), ("b", "c", 1.0)])
        value, side = karger_min_cut(g, rng=1)
        assert value == 0.0
        assert 0 < len(side) < 4 and g.cut_weight(side) == 0.0

    def test_explicit_trials(self):
        g = random_connected_ugraph(5, rng=2)
        value, _ = karger_min_cut(g, trials=50, rng=2)
        assert value >= stoer_wagner(g)[0] - 1e-9


class TestNearMinCuts:
    def test_includes_the_minimum(self):
        g, k = planted_min_cut_ugraph(8, 2, rng=1)
        cuts = sample_near_min_cuts(g, factor=1.5, attempts=100, rng=1)
        assert cuts[0][0] == pytest.approx(float(k))

    def test_all_within_factor(self):
        g = random_connected_ugraph(8, extra_edge_prob=0.5, rng=4)
        base, _ = stoer_wagner(g)
        cuts = sample_near_min_cuts(g, factor=2.0, attempts=200, rng=4)
        for value, side in cuts:
            assert value <= 2.0 * base + 1e-9
            assert g.cut_weight(side) == pytest.approx(value)

    def test_sides_are_distinct(self):
        g = random_connected_ugraph(8, extra_edge_prob=0.5, rng=5)
        cuts = sample_near_min_cuts(g, factor=3.0, attempts=200, rng=5)
        sides = [side for _, side in cuts]
        assert len(sides) == len(set(sides))

    def test_base_cut_is_not_found_again_as_its_complement(self):
        # Stoer-Wagner returns {1, 2}; contraction sides always hold
        # node 0, so the same cut comes back as {0}.  It is one cut.
        g = UGraph()
        g.add_edge(0, 1, 1.0)
        g.add_edge(1, 2, 2.0)
        cuts = sample_near_min_cuts(g, factor=2.0, attempts=50, rng=0)
        assert cuts[0] == stoer_wagner(g)
        cuts_as_partitions = [
            frozenset({side, frozenset(g.nodes()) - side}) for _, side in cuts
        ]
        assert len(cuts_as_partitions) == len(set(cuts_as_partitions))

    def test_factor_below_one_raises(self):
        g = random_connected_ugraph(4, rng=0)
        with pytest.raises(GraphError):
            sample_near_min_cuts(g, factor=0.5, attempts=10)

    def test_disconnected(self):
        # Contractions of a graph with three or more components stall
        # above two super-nodes and are skipped, leaving the base cut.
        for g in disconnected_graphs():
            cuts = sample_near_min_cuts(g, factor=2.0, attempts=20, rng=3)
            assert cuts[0] == stoer_wagner(g)
            assert all(value == 0.0 for value, _ in cuts)
        three = disconnected_graphs()[-1]
        assert sample_near_min_cuts(three, 2.0, 20, rng=3) == [stoer_wagner(three)]


class TestDirectedGlobalMinCut:
    def test_simple_cycle(self):
        g = DiGraph()
        g.add_edge("a", "b", 2.0)
        g.add_edge("b", "c", 3.0)
        g.add_edge("c", "a", 1.0)
        value, side = directed_global_min_cut(g)
        assert value == 1.0
        assert g.cut_weight(side) == 1.0

    def test_asymmetric_pair(self):
        g = DiGraph()
        g.add_edge("a", "b", 9.0)
        g.add_edge("b", "a", 2.0)
        value, side = directed_global_min_cut(g)
        assert value == 2.0
        assert side == frozenset({"b"})

    @given(st.integers(3, 7), st.integers(0, 2**32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_matches_brute_force(self, n, seed):
        g = random_balanced_digraph(n, beta=4.0, density=0.4, rng=seed)
        flow_value, flow_side = directed_global_min_cut(g)
        bf_value, _ = brute_force_directed_min_cut(g)
        assert flow_value == pytest.approx(bf_value)
        assert g.cut_weight(flow_side) == pytest.approx(bf_value)

    def test_too_small_raises(self):
        with pytest.raises(GraphError):
            directed_global_min_cut(DiGraph(nodes=["a"]))
