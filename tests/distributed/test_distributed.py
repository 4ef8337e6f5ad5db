"""Tests for repro.distributed (servers + coordinator)."""

import pytest

from repro import obs
from repro.distributed import coordinator
from repro.distributed.coordinator import distributed_min_cut
from repro.distributed.server import Server, partition_edges, quantize_relative
from repro.errors import ParameterError
from repro.graphs.generators import random_regularish_ugraph
from repro.graphs.mincut import stoer_wagner
from repro.graphs.ugraph import UGraph
from repro.obs.capture import capturing


@pytest.fixture(scope="module")
def workload():
    g = random_regularish_ugraph(24, 8, rng=0)
    servers = partition_edges(g, 3, rng=1)
    true_value, _ = stoer_wagner(g)
    return g, servers, true_value


class TestQuantization:
    def test_relative_error_bound(self):
        for value in (1.0, 3.7, 123.456, 1e6):
            q, bits = quantize_relative(value, 0.01)
            assert abs(q - value) <= 0.01 * value
            assert bits > 0

    def test_zero_value(self):
        q, bits = quantize_relative(0.0, 0.1)
        assert q == 0.0
        assert bits > 0

    def test_more_precision_costs_more_bits(self):
        _, coarse = quantize_relative(100.0, 0.25)
        _, fine = quantize_relative(100.0, 0.001)
        assert fine > coarse

    def test_bad_precision(self):
        with pytest.raises(ParameterError):
            quantize_relative(1.0, 0.0)
        with pytest.raises(ParameterError):
            quantize_relative(1.0, 1.0)


class TestPartition:
    def test_edges_partitioned_exactly(self, workload):
        g, servers, _ = workload
        assert sum(s.num_edges for s in servers) == g.num_edges

    def test_every_server_knows_all_vertices(self, workload):
        g, servers, _ = workload
        for server in servers:
            assert set(server.shard.nodes()) == set(g.nodes())

    def test_bad_server_count(self, workload):
        g, _, _ = workload
        with pytest.raises(ParameterError):
            partition_edges(g, 0)


class TestServer:
    def test_cut_response_quantizes_local_cut(self, workload):
        g, servers, _ = workload
        side = set(list(g.nodes())[:5])
        for server in servers:
            response, bits = server.cut_value_response(side, 0.01)
            exact = server.shard.cut_weight(side)
            assert response == pytest.approx(exact, rel=0.01)

    def test_responses_sum_to_global_cut(self, workload):
        g, servers, _ = workload
        side = set(list(g.nodes())[:7])
        total = sum(s.cut_value_response(side, 0.0001)[0] for s in servers)
        assert total == pytest.approx(g.cut_weight(side), rel=0.001)

    def test_sketch_has_positive_size(self, workload):
        _, servers, _ = workload
        sketch = servers[0].forall_sketch(0.5, rng=2)
        assert sketch.size_bits() > 0

    def test_shard_copy_is_isolated(self, workload):
        _, servers, _ = workload
        shard = servers[0].shard
        before = servers[0].num_edges
        u, v, w = next(shard.edges())
        shard.remove_edge(u, v)
        assert servers[0].num_edges == before


class TestCoordinator:
    def test_hybrid_finds_near_minimum(self, workload):
        _, servers, true_value = workload
        result = distributed_min_cut(servers, epsilon=0.1, strategy="hybrid", rng=3)
        assert result.value == pytest.approx(true_value, rel=0.3)
        assert result.candidates_scored >= 1
        assert result.total_bits == result.sketch_bits + result.query_bits

    def test_forall_only_reports_no_query_bits(self, workload):
        _, servers, _ = workload
        result = distributed_min_cut(
            servers, epsilon=0.4, strategy="forall_only", rng=4
        )
        assert result.query_bits == 0
        assert result.sketch_bits > 0

    def test_returned_side_is_a_cut_of_the_union(self, workload):
        g, servers, _ = workload
        result = distributed_min_cut(servers, epsilon=0.2, strategy="hybrid", rng=5)
        assert 0 < len(result.side) < g.num_nodes
        # Re-scoring the reported side on the true graph approximates
        # the reported value within the quantization error.
        assert g.cut_weight(set(result.side)) == pytest.approx(
            result.value, rel=0.1
        )

    def test_bad_params(self, workload):
        _, servers, _ = workload
        with pytest.raises(ParameterError):
            distributed_min_cut([], epsilon=0.1)
        with pytest.raises(ParameterError):
            distributed_min_cut(servers, epsilon=0.0)
        with pytest.raises(ParameterError):
            distributed_min_cut(servers, epsilon=0.1, strategy="bogus")

    def test_hybrid_query_bits_grow_with_precision(self, workload):
        _, servers, _ = workload
        coarse = distributed_min_cut(servers, epsilon=0.5, strategy="hybrid", rng=6)
        fine = distributed_min_cut(servers, epsilon=0.01, strategy="hybrid", rng=6)
        assert fine.query_bits >= coarse.query_bits


class CountingServer(Server):
    """A :class:`Server` that keeps every sketch it hands out."""

    def __init__(self, name, shard):
        super().__init__(name, shard)
        self.sketches = []

    def forall_sketch(self, *args, **kwargs):
        sketch = super().forall_sketch(*args, **kwargs)
        self.sketches.append(sketch)
        return sketch


class TestShipOnce:
    """Each shard sketch is built once, then priced, captured and unioned."""

    @pytest.fixture
    def counting(self):
        # Dense shards and a small sampling constant: both the eps = 0.4
        # and the hybrid's 0.2 sketches really sample, so two builds of
        # one shard's sketch differ.
        g = UGraph(nodes=range(16))
        for u in range(16):
            for v in range(u + 1, 16):
                g.add_edge(u, v, 1.0)
        return [
            CountingServer(s.name, s.shard)
            for s in partition_edges(g, 2, rng=1)
        ]

    @pytest.fixture
    def unions(self, monkeypatch):
        """The union graph each strategy computes its cut(s) on."""
        seen = []

        def grab(real):
            def wrapper(graph, *args, **kwargs):
                seen.append(graph)
                return real(graph, *args, **kwargs)
            return wrapper

        monkeypatch.setattr(
            coordinator, "stoer_wagner", grab(coordinator.stoer_wagner)
        )
        monkeypatch.setattr(
            coordinator, "sample_near_min_cuts",
            grab(coordinator.sample_near_min_cuts),
        )
        return seen

    @pytest.mark.parametrize("strategy", ["hybrid", "forall_only"])
    def test_one_forall_sketch_call_per_shard(self, counting, strategy):
        distributed_min_cut(
            counting, epsilon=0.4, strategy=strategy, rng=5,
            contraction_attempts=20, sampling_constant=0.1,
        )
        assert [len(s.sketches) for s in counting] == [1] * len(counting)

    @pytest.mark.parametrize("strategy", ["hybrid", "forall_only"])
    def test_priced_sketches_are_the_unioned_ones(
        self, counting, unions, strategy
    ):
        with obs.enabled():
            with capturing() as cap:
                result = distributed_min_cut(
                    counting, epsilon=0.4, strategy=strategy, rng=5,
                    contraction_attempts=20, sampling_constant=0.1,
                )
        shipped = [s.sketches[0] for s in counting]
        assert cap.bits_by_kind()["distributed.ship"] == result.sketch_bits
        assert result.sketch_bits == sum(s.size_bits() for s in shipped)
        # Each undirected union edge averages the sketch's two directed
        # copies, so the union carries half the sketches' directed weight.
        union = unions[0]
        assert union.total_weight() == pytest.approx(
            sum(s.sparse.total_weight() for s in shipped) / 2.0
        )
