"""Forest-fire generator."""

import pytest

from repro.errors import GraphError
from repro.graph.generators import forest_fire_graph


def test_deterministic():
    assert forest_fire_graph(60, seed=1) == forest_fire_graph(60, seed=1)


def test_connected_by_construction():
    """Every new node links to an ambassador, so the graph is one
    weakly connected component."""
    g = forest_fire_graph(120, seed=2)
    parent = list(range(g.num_nodes))

    def find(node):
        while parent[node] != node:
            parent[node] = node = parent[parent[node]]
        return node

    for u, v in zip(g.edge_sources.tolist(), g.edge_targets.tolist()):
        parent[find(u)] = find(v)
    assert len({find(node) for node in range(g.num_nodes)}) == 1


def test_densification_with_forward_probability():
    sparse = forest_fire_graph(150, forward_probability=0.1, seed=3)
    dense = forest_fire_graph(150, forward_probability=0.5, seed=3)
    assert dense.num_edges > sparse.num_edges


def test_heavy_tail():
    g = forest_fire_graph(400, forward_probability=0.4, seed=4)
    in_deg = g.in_degrees()
    assert in_deg.max() > 5 * max(in_deg.mean(), 1e-9)


def test_no_self_loops_or_duplicates():
    # DirectedGraph construction would reject both; building succeeds.
    g = forest_fire_graph(80, seed=5)
    assert g.num_edges >= 79  # at least the ambassador links


@pytest.mark.parametrize(
    "kwargs",
    [
        {"num_nodes": 1},
        {"num_nodes": 10, "forward_probability": 1.0},
        {"num_nodes": 10, "backward_probability": -0.1},
    ],
)
def test_validation(kwargs):
    n = kwargs.pop("num_nodes")
    with pytest.raises(GraphError):
        forest_fire_graph(n, **kwargs)
