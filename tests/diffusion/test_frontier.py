"""The vectorised frontier-expansion primitive."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph._traversal import gather_edge_slots
from repro.graph.digraph import DirectedGraph


def _reference(indptr, frontier):
    pieces = [np.arange(indptr[u], indptr[u + 1]) for u in frontier]
    if not pieces:
        return np.empty(0, dtype=np.int64)
    return np.concatenate(pieces)


def test_empty_frontier(diamond_graph):
    out = gather_edge_slots(diamond_graph.out_indptr, np.empty(0, dtype=np.int64))
    assert out.size == 0


def test_single_node(diamond_graph):
    out = gather_edge_slots(diamond_graph.out_indptr, np.asarray([0]))
    assert out.tolist() == [0, 1]


def test_node_without_edges(diamond_graph):
    out = gather_edge_slots(diamond_graph.out_indptr, np.asarray([3]))
    assert out.size == 0


@given(
    edges=st.lists(
        st.tuples(st.integers(0, 11), st.integers(0, 11)).filter(lambda e: e[0] != e[1]),
        max_size=50,
        unique=True,
    ),
    frontier=st.lists(st.integers(0, 11), max_size=8, unique=True),
)
@settings(max_examples=60, deadline=None)
def test_matches_reference(edges, frontier):
    g = DirectedGraph.from_edges(edges, num_nodes=12)
    frontier = np.asarray(sorted(frontier), dtype=np.int64)
    got = gather_edge_slots(g.out_indptr, frontier)
    expected = _reference(g.out_indptr, frontier)
    assert np.array_equal(np.sort(got), np.sort(expected))
    # also on the in-CSR
    got_in = gather_edge_slots(g.in_indptr, frontier)
    expected_in = _reference(g.in_indptr, frontier)
    assert np.array_equal(np.sort(got_in), np.sort(expected_in))
