"""CSR DirectedGraph: construction, queries, invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GraphError
from repro.graph.digraph import DirectedGraph


class TestConstruction:
    def test_empty_graph(self):
        g = DirectedGraph(3, [], [])
        assert g.num_nodes == 3
        assert g.num_edges == 0
        assert g.out_neighbors(0).size == 0
        assert g.in_neighbors(2).size == 0

    def test_basic_edges(self, line_graph):
        assert line_graph.num_edges == 3
        assert list(line_graph.out_neighbors(0)) == [1]
        assert list(line_graph.in_neighbors(2)) == [1]

    def test_rejects_self_loop(self):
        with pytest.raises(GraphError, match="self-loop"):
            DirectedGraph(2, [0], [0])

    def test_rejects_duplicate_edge(self):
        with pytest.raises(GraphError, match="duplicate"):
            DirectedGraph(3, [0, 0], [1, 1])

    def test_rejects_out_of_range_node(self):
        with pytest.raises(GraphError, match="endpoints"):
            DirectedGraph(2, [0], [5])

    def test_rejects_negative_node(self):
        with pytest.raises(GraphError):
            DirectedGraph(2, [-1], [1])

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(GraphError, match="equal length"):
            DirectedGraph(3, [0, 1], [1])

    def test_rejects_negative_num_nodes(self):
        with pytest.raises(GraphError):
            DirectedGraph(-1, [], [])

    def test_from_edges_infers_num_nodes(self):
        g = DirectedGraph.from_edges([(0, 4)])
        assert g.num_nodes == 5

    def test_from_undirected_edges_doubles(self):
        g = DirectedGraph.from_undirected_edges([(0, 1), (1, 2)])
        assert g.num_edges == 4
        assert g.has_edge(0, 1) and g.has_edge(1, 0)
        assert g.has_edge(1, 2) and g.has_edge(2, 1)

    def test_from_undirected_deduplicates_both_orientations(self):
        g = DirectedGraph.from_undirected_edges([(0, 1), (1, 0)])
        assert g.num_edges == 2


class TestQueries:
    def test_degrees(self, diamond_graph):
        assert list(diamond_graph.out_degrees()) == [2, 1, 1, 0]
        assert list(diamond_graph.in_degrees()) == [0, 1, 1, 2]

    def test_has_edge(self, diamond_graph):
        assert diamond_graph.has_edge(0, 1)
        assert not diamond_graph.has_edge(1, 0)
        assert not diamond_graph.has_edge(0, 3)

    def test_edge_id_roundtrip(self, diamond_graph):
        for eid in range(diamond_graph.num_edges):
            u = int(diamond_graph.edge_sources[eid])
            v = int(diamond_graph.edge_targets[eid])
            assert diamond_graph.edge_id(u, v) == eid

    def test_edge_id_missing_raises(self, diamond_graph):
        with pytest.raises(GraphError):
            diamond_graph.edge_id(3, 0)

    def test_edges_matrix(self, line_graph):
        edges = line_graph.edges()
        assert edges.shape == (3, 2)
        assert edges.tolist() == [[0, 1], [1, 2], [2, 3]]

    def test_reverse(self, line_graph):
        rev = line_graph.reverse()
        assert rev.has_edge(1, 0)
        assert rev.reverse() == line_graph

    def test_memory_bytes_positive(self, line_graph):
        assert line_graph.memory_bytes() > 0

    def test_equality_and_hash(self, line_graph):
        clone = DirectedGraph.from_edges([(0, 1), (1, 2), (2, 3)], num_nodes=4)
        assert clone == line_graph
        assert hash(clone) == hash(line_graph)
        assert line_graph != DirectedGraph(4, [0], [1])


class TestFrozen:
    _ARRAYS = (
        "edge_sources", "edge_targets", "out_indptr", "out_targets",
        "out_edge_ids", "in_indptr", "in_sources", "in_edge_ids",
    )

    @pytest.mark.parametrize("name", _ARRAYS)
    def test_in_place_writes_are_refused(self, diamond_graph, name):
        array = getattr(diamond_graph, name)
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1
        with pytest.raises(ValueError, match="read-only"):
            array += 1

    def test_views_are_read_only_too(self, diamond_graph):
        with pytest.raises(ValueError, match="read-only"):
            diamond_graph.out_neighbors(0)[0] = 3
        with pytest.raises(ValueError, match="read-only"):
            diamond_graph.in_edges_of(3).sort()

    def test_the_digest_is_hashed_once(self, diamond_graph, monkeypatch):
        from repro.utils import hashing

        first = hashing.graph_digest(diamond_graph)
        monkeypatch.setattr(hashing.hashlib, "blake2b", None)  # no more hashing
        assert hashing.graph_digest(diamond_graph) == first


class TestCSRInvariants:
    """The in-CSR and out-CSR views must describe the same edge set and
    agree on canonical edge ids — the property the probability arrays
    rely on."""

    @given(
        edges=st.lists(
            st.tuples(st.integers(0, 14), st.integers(0, 14)).filter(lambda e: e[0] != e[1]),
            max_size=60,
            unique=True,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_views_agree(self, edges):
        g = DirectedGraph.from_edges(edges, num_nodes=15)
        # Rebuild the edge set from each view.
        out_view = set()
        for u in range(15):
            for v, eid in zip(g.out_neighbors(u), g.out_edges_of(u)):
                out_view.add((u, int(v), int(eid)))
        in_view = set()
        for v in range(15):
            for u, eid in zip(g.in_neighbors(v), g.in_edges_of(v)):
                in_view.add((int(u), v, int(eid)))
        assert out_view == in_view
        assert len(out_view) == g.num_edges
        # Canonical ids label (source, target) consistently.
        for u, v, eid in out_view:
            assert g.edge_sources[eid] == u
            assert g.edge_targets[eid] == v

    @given(
        edges=st.lists(
            st.tuples(st.integers(0, 9), st.integers(0, 9)).filter(lambda e: e[0] != e[1]),
            max_size=40,
            unique=True,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_degree_sums_match_edge_count(self, edges):
        g = DirectedGraph.from_edges(edges, num_nodes=10)
        assert int(g.out_degrees().sum()) == g.num_edges
        assert int(g.in_degrees().sum()) == g.num_edges

    def test_matches_networkx_reachability(self):
        """Independent oracle: adjacency agrees with networkx."""
        networkx = pytest.importorskip("networkx")
        rng = np.random.default_rng(5)
        edges = set()
        while len(edges) < 40:
            u, v = rng.integers(0, 20, size=2)
            if u != v:
                edges.add((int(u), int(v)))
        g = DirectedGraph.from_edges(sorted(edges), num_nodes=20)
        nxg = networkx.DiGraph(sorted(edges))
        nxg.add_nodes_from(range(20))
        for u in range(20):
            assert set(map(int, g.out_neighbors(u))) == set(nxg.successors(u))
            assert set(map(int, g.in_neighbors(u))) == set(nxg.predecessors(u))
