"""Graph substrate: a compact CSR directed graph plus generators and I/O.

The social graph ``G = (V, E)`` of the paper (§3) is represented by
:class:`repro.graph.DirectedGraph`: nodes are dense integers ``0..n-1`` and
edges carry a canonical id so that per-edge influence probabilities (and the
per-topic probabilities of the TIC model) can be stored as flat numpy arrays
indexed the same way from both the forward (diffusion) and reverse (RR-set
sampling) directions.
"""

from repro.graph.builder import GraphBuilder
from repro.graph.digraph import DirectedGraph
from repro.graph.generators import (
    bipartite_gadget,
    community_graph,
    complete_graph,
    cycle_graph,
    erdos_renyi,
    forest_fire_graph,
    power_law_graph,
    star_graph,
)
from repro.graph.io import read_edge_list, write_edge_list
from repro.graph.probabilities import (
    constant_probabilities,
    exponential_probabilities,
    trivalency_probabilities,
    weighted_cascade_probabilities,
)
from repro.graph.stats import GraphStats, graph_stats

__all__ = [
    "DirectedGraph",
    "GraphBuilder",
    "erdos_renyi",
    "power_law_graph",
    "forest_fire_graph",
    "community_graph",
    "complete_graph",
    "cycle_graph",
    "star_graph",
    "bipartite_gadget",
    "read_edge_list",
    "write_edge_list",
    "constant_probabilities",
    "weighted_cascade_probabilities",
    "trivalency_probabilities",
    "exponential_probabilities",
    "GraphStats",
    "graph_stats",
]
