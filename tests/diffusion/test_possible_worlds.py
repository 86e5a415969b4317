"""Possible worlds: world probability and reachability, the helpers of the
reference enumerator in ``_reference_exact.py``."""

import numpy as np
import pytest

from repro.graph.digraph import DirectedGraph
from tests.diffusion._reference_exact import reachable_from, world_probability


def test_world_probability():
    probs = np.asarray([0.5, 0.25])
    assert world_probability(probs, [True, True]) == pytest.approx(0.125)
    assert world_probability(probs, [False, False]) == pytest.approx(0.375)


def test_world_probabilities_sum_to_one():
    probs = np.asarray([0.3, 0.6, 0.9])
    total = 0.0
    for code in range(8):
        mask = [(code >> b) & 1 == 1 for b in range(3)]
        total += world_probability(probs, mask)
    assert total == pytest.approx(1.0)


def test_world_probability_shape_checked():
    with pytest.raises(ValueError):
        world_probability(np.asarray([0.5]), [True, False])


class TestReachability:
    def test_all_live_line(self, line_graph):
        reached = reachable_from(line_graph, np.ones(3, dtype=bool), [0])
        assert reached.all()

    def test_blocked_edge_stops(self, line_graph):
        live = np.asarray([True, False, True])
        reached = reachable_from(line_graph, live, [0])
        assert reached.tolist() == [True, True, False, False]

    def test_multiple_sources(self, line_graph):
        live = np.zeros(3, dtype=bool)
        reached = reachable_from(line_graph, live, [0, 2])
        assert reached.tolist() == [True, False, True, False]

    def test_empty_sources(self, line_graph):
        reached = reachable_from(line_graph, np.ones(3, dtype=bool), [])
        assert not reached.any()

    def test_matches_networkx(self):
        networkx = pytest.importorskip("networkx")
        rng = np.random.default_rng(11)
        edges = {(int(u), int(v)) for u, v in rng.integers(0, 15, size=(60, 2)) if u != v}
        g = DirectedGraph.from_edges(sorted(edges), num_nodes=15)
        live = rng.random(g.num_edges) < 0.6
        live_edges = [
            (int(g.edge_sources[e]), int(g.edge_targets[e]))
            for e in np.flatnonzero(live)
        ]
        nxg = networkx.DiGraph(live_edges)
        nxg.add_nodes_from(range(15))
        expected = networkx.descendants(nxg, 3) | {3}
        got = set(np.flatnonzero(reachable_from(g, live, [3])).tolist())
        assert got == expected
