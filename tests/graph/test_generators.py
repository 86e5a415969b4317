"""Random-graph generators: determinism, shape, structural properties."""

import numpy as np
import pytest

from repro.errors import GraphError
from repro.graph.digraph import DirectedGraph
from repro.graph.generators import (
    bipartite_gadget,
    community_graph,
    complete_graph,
    cycle_graph,
    erdos_renyi,
    power_law_graph,
    star_graph,
)
from repro.utils.rng import as_generator


class TestErdosRenyi:
    def test_deterministic_under_seed(self):
        a = erdos_renyi(50, 0.1, seed=1)
        b = erdos_renyi(50, 0.1, seed=1)
        assert a == b

    def test_zero_probability_empty(self):
        assert erdos_renyi(10, 0.0, seed=1).num_edges == 0

    def test_full_probability_complete(self):
        g = erdos_renyi(6, 1.0, seed=1)
        assert g.num_edges == 30

    def test_edge_count_near_expectation(self):
        g = erdos_renyi(100, 0.05, seed=3)
        expected = 100 * 99 * 0.05
        assert 0.7 * expected < g.num_edges < 1.3 * expected

    def test_invalid_probability_raises(self):
        with pytest.raises(GraphError):
            erdos_renyi(10, 1.5)


class TestPowerLaw:
    def test_deterministic(self):
        assert power_law_graph(100, 5, seed=2) == power_law_graph(100, 5, seed=2)

    def test_avg_degree_roughly_matches(self):
        g = power_law_graph(500, 8.0, reciprocity=0.0, seed=4)
        avg = g.num_edges / g.num_nodes
        assert 5.0 < avg < 9.0  # dedup removes a few

    def test_heavy_tail(self):
        g = power_law_graph(2000, 6.0, seed=5)
        in_deg = g.in_degrees()
        # Some node should collect far more than the average in-degree.
        assert in_deg.max() > 8 * in_deg.mean()

    def test_reciprocity_adds_edges(self):
        none = power_law_graph(300, 5.0, reciprocity=0.0, seed=6)
        lots = power_law_graph(300, 5.0, reciprocity=0.9, seed=6)
        assert lots.num_edges > none.num_edges

    def test_rejects_bad_exponent(self):
        with pytest.raises(GraphError):
            power_law_graph(10, 2.0, exponent=1.0)

    def test_rejects_tiny(self):
        with pytest.raises(GraphError):
            power_law_graph(1, 2.0)

    @pytest.mark.parametrize("num_nodes", [2, 3, 50, 951, 4_000])
    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_code_dedup_keeps_the_pair_dedup_graph(self, num_nodes, seed):
        """The edges are deduplicated as ``src * n + dst`` codes; they
        must be the graph the row-wise ``np.unique`` over the stacked
        pairs (which also dropped self-loops) built from the same draws."""
        for reciprocity in (0.0, 0.3, 1.0):
            assert power_law_graph(
                num_nodes, 4.0, reciprocity=reciprocity, seed=seed
            ) == _pair_dedup_power_law(num_nodes, 4.0, reciprocity, seed)


def _pair_dedup_power_law(num_nodes, avg_out_degree, reciprocity, seed):
    """``power_law_graph`` as it stood with the row-wise pair dedup."""
    rng = as_generator(seed)
    weights = np.arange(1, num_nodes + 1, dtype=np.float64) ** (-1.0 / 1.2)
    weights /= weights.sum()
    popularity = rng.permutation(num_nodes)
    out_degrees = rng.poisson(avg_out_degree, size=num_nodes)
    src = np.repeat(np.arange(num_nodes, dtype=np.int64), out_degrees)
    dst = popularity[rng.choice(num_nodes, size=int(out_degrees.sum()), p=weights)]
    keep = src != dst
    src, dst = src[keep], dst[keep]
    if reciprocity > 0.0 and src.size:
        flip = rng.random(src.size) < reciprocity
        src, dst = np.concatenate((src, dst[flip])), np.concatenate((dst, src[flip]))
    pairs = np.unique(np.stack((src, dst), axis=1), axis=0)
    pairs = pairs[pairs[:, 0] != pairs[:, 1]]
    return DirectedGraph(num_nodes, pairs[:, 0], pairs[:, 1])


class TestCommunityGraph:
    def test_symmetric(self):
        g = community_graph(200, 4, seed=7)
        for eid in range(g.num_edges):
            u, v = int(g.edge_sources[eid]), int(g.edge_targets[eid])
            assert g.has_edge(v, u)

    def test_deterministic(self):
        assert community_graph(100, 3, seed=8) == community_graph(100, 3, seed=8)

    def test_rejects_bad_community_count(self):
        with pytest.raises(GraphError):
            community_graph(10, 0)
        with pytest.raises(GraphError):
            community_graph(10, 11)


class TestDeterministicShapes:
    def test_complete(self):
        g = complete_graph(5)
        assert g.num_edges == 20

    def test_cycle(self):
        g = cycle_graph(4)
        assert g.num_edges == 4
        assert g.has_edge(3, 0)

    def test_cycle_too_small(self):
        with pytest.raises(GraphError):
            cycle_graph(1)

    def test_star(self):
        g = star_graph(6)
        assert g.num_nodes == 7
        assert list(g.out_degrees())[0] == 6
        assert g.in_degrees()[0] == 0


class TestBipartiteGadget:
    """The Theorem-1 reduction gadget: spread of U-node i equals x_i."""

    def test_spreads_equal_inputs(self):
        from repro.diffusion.exact import exact_spread
        from repro.graph.probabilities import constant_probabilities

        sizes = [3, 4, 2]
        graph, u_nodes = bipartite_gadget(sizes)
        probs = constant_probabilities(graph, 1.0)
        for x, u in zip(sizes, u_nodes):
            assert exact_spread(graph, probs, [int(u)]) == pytest.approx(x)

    def test_total_nodes(self):
        graph, u_nodes = bipartite_gadget([3, 3, 3])
        assert graph.num_nodes == 9
        assert len(u_nodes) == 3

    def test_rejects_zero_size(self):
        with pytest.raises(GraphError):
            bipartite_gadget([0])

    def test_empty(self):
        graph, u_nodes = bipartite_gadget([])
        assert graph.num_nodes == 0
        assert u_nodes.size == 0
