"""Compressed-sparse-row directed graph.

The representation keeps *both* adjacency directions:

* the out-CSR drives forward Monte-Carlo diffusion (§3 of the paper);
* the in-CSR drives reverse-reachable-set sampling (§5.1).

Edges have a canonical id — their position in the lexicographically sorted
``(source, target)`` order — and both CSR views carry an ``edge_ids`` array
mapping adjacency slots back to canonical ids.  Per-edge data (influence
probabilities, per-topic probabilities) is stored once, in canonical order,
and gathered through those maps; the two directions can therefore never
disagree about an edge's probability.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.errors import GraphError


class DirectedGraph:
    """An immutable directed graph over nodes ``0..n-1``.

    Parameters
    ----------
    num_nodes:
        Number of nodes ``n``; node ids are ``0..n-1``.
    sources, targets:
        Parallel integer arrays describing the edge list.  Self-loops and
        duplicate edges are rejected: neither occurs in the paper's model
        (a duplicate edge would double-count one influence attempt).

    Notes
    -----
    The constructor sorts the edge list once; all queries afterwards are
    O(1) slicing into flat numpy arrays.  The arrays are read-only (an
    in-place write raises ``ValueError``), so the content digest
    :func:`~repro.utils.hashing.graph_digest` caches on the graph stays
    true.
    """

    __slots__ = (
        "num_nodes",
        "num_edges",
        "edge_sources",
        "edge_targets",
        "out_indptr",
        "out_targets",
        "out_edge_ids",
        "in_indptr",
        "in_sources",
        "in_edge_ids",
        "_digest",
    )

    def __init__(self, num_nodes: int, sources, targets) -> None:
        if num_nodes < 0:
            raise GraphError(f"num_nodes must be non-negative, got {num_nodes}")
        src = np.asarray(sources, dtype=np.int64).ravel()
        dst = np.asarray(targets, dtype=np.int64).ravel()
        if src.shape != dst.shape:
            raise GraphError(
                f"sources and targets must have equal length, got {src.size} vs {dst.size}"
            )
        if src.size:
            lo = min(src.min(), dst.min())
            hi = max(src.max(), dst.max())
            if lo < 0 or hi >= num_nodes:
                raise GraphError(
                    f"edge endpoints must lie in [0, {num_nodes - 1}], found [{lo}, {hi}]"
                )
            if np.any(src == dst):
                bad = int(src[src == dst][0])
                raise GraphError(f"self-loops are not allowed (node {bad})")

        # Canonical edge order: lexicographic by (source, target).
        order = np.lexsort((dst, src))
        src = src[order]
        dst = dst[order]
        if src.size > 1:
            dup = (src[1:] == src[:-1]) & (dst[1:] == dst[:-1])
            if np.any(dup):
                k = int(np.flatnonzero(dup)[0])
                raise GraphError(f"duplicate edge ({src[k]}, {dst[k]})")

        self.num_nodes = int(num_nodes)
        self.num_edges = int(src.size)
        self.edge_sources = src
        self.edge_targets = dst

        # Out-CSR follows the canonical order directly.
        out_degree = np.bincount(src, minlength=num_nodes)
        self.out_indptr = np.concatenate(([0], np.cumsum(out_degree))).astype(np.int64)
        self.out_targets = dst.copy()
        self.out_edge_ids = np.arange(self.num_edges, dtype=np.int64)

        # In-CSR: sort canonical ids by (target, source).
        in_order = np.lexsort((src, dst)).astype(np.int64)
        in_degree = np.bincount(dst, minlength=num_nodes)
        self.in_indptr = np.concatenate(([0], np.cumsum(in_degree))).astype(np.int64)
        self.in_sources = src[in_order]
        self.in_edge_ids = in_order
        for array in self._arrays():
            array.flags.writeable = False
        self._digest: str | None = None  # graph_digest() fills it

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(
        cls, edges: Iterable[tuple[int, int]], num_nodes: int | None = None
    ) -> "DirectedGraph":
        """Build a graph from an iterable of ``(source, target)`` pairs.

        If ``num_nodes`` is omitted it is inferred as ``max id + 1``.
        """
        edge_list = list(edges)
        if edge_list:
            array = np.asarray(edge_list, dtype=np.int64)
            if array.ndim != 2 or array.shape[1] != 2:
                raise GraphError("edges must be (source, target) pairs")
            src, dst = array[:, 0], array[:, 1]
        else:
            src = dst = np.empty(0, dtype=np.int64)
        if num_nodes is None:
            num_nodes = int(max(src.max(initial=-1), dst.max(initial=-1)) + 1)
        return cls(num_nodes, src, dst)

    @classmethod
    def from_undirected_edges(
        cls, edges: Iterable[tuple[int, int]], num_nodes: int | None = None
    ) -> "DirectedGraph":
        """Build a graph with every undirected edge directed both ways.

        This mirrors the paper's treatment of the DBLP co-authorship graph
        (§6: "We direct all edges in both directions").
        """
        edge_list = [tuple(e) for e in edges]
        undirected = {(min(u, v), max(u, v)) for u, v in edge_list if u != v}
        both = [(u, v) for u, v in undirected] + [(v, u) for u, v in undirected]
        return cls.from_edges(both, num_nodes=num_nodes)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def out_neighbors(self, node: int) -> np.ndarray:
        """Targets of edges leaving ``node`` (the followers who see its posts)."""
        return self.out_targets[self.out_indptr[node] : self.out_indptr[node + 1]]

    def in_neighbors(self, node: int) -> np.ndarray:
        """Sources of edges entering ``node`` (the users it follows)."""
        return self.in_sources[self.in_indptr[node] : self.in_indptr[node + 1]]

    def out_edges_of(self, node: int) -> np.ndarray:
        """Canonical edge ids of edges leaving ``node``."""
        return self.out_edge_ids[self.out_indptr[node] : self.out_indptr[node + 1]]

    def in_edges_of(self, node: int) -> np.ndarray:
        """Canonical edge ids of edges entering ``node``."""
        return self.in_edge_ids[self.in_indptr[node] : self.in_indptr[node + 1]]

    def out_degrees(self) -> np.ndarray:
        """Array of out-degrees for all nodes."""
        return np.diff(self.out_indptr)

    def in_degrees(self) -> np.ndarray:
        """Array of in-degrees for all nodes."""
        return np.diff(self.in_indptr)

    def has_edge(self, source: int, target: int) -> bool:
        """True iff the edge ``(source, target)`` exists."""
        row = self.out_neighbors(source)
        idx = np.searchsorted(row, target)
        return bool(idx < row.size and row[idx] == target)

    def edge_id(self, source: int, target: int) -> int:
        """Canonical id of edge ``(source, target)``; raises if absent."""
        start = self.out_indptr[source]
        row = self.out_targets[start : self.out_indptr[source + 1]]
        idx = np.searchsorted(row, target)
        if idx >= row.size or row[idx] != target:
            raise GraphError(f"edge ({source}, {target}) does not exist")
        return int(start + idx)

    def edges(self) -> np.ndarray:
        """``(m, 2)`` array of edges in canonical order."""
        return np.column_stack((self.edge_sources, self.edge_targets))

    def reverse(self) -> "DirectedGraph":
        """The transpose graph (every edge flipped)."""
        return DirectedGraph(self.num_nodes, self.edge_targets, self.edge_sources)

    def _arrays(self) -> Sequence[np.ndarray]:
        return (
            self.edge_sources,
            self.edge_targets,
            self.out_indptr,
            self.out_targets,
            self.out_edge_ids,
            self.in_indptr,
            self.in_sources,
            self.in_edge_ids,
        )

    def memory_bytes(self) -> int:
        """Bytes held by the CSR arrays (used in the Table-4 accounting)."""
        return int(sum(a.nbytes for a in self._arrays()))

    # ------------------------------------------------------------------
    # Dunder methods
    # ------------------------------------------------------------------
    def __setstate__(self, state) -> None:
        # An unpickled or deep-copied graph holds fresh, writable arrays.
        for name, value in state[1].items():
            setattr(self, name, value)
        for array in self._arrays():
            array.flags.writeable = False

    def __repr__(self) -> str:
        return f"DirectedGraph(num_nodes={self.num_nodes}, num_edges={self.num_edges})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DirectedGraph):
            return NotImplemented
        return (
            self.num_nodes == other.num_nodes
            and self.num_edges == other.num_edges
            and bool(np.array_equal(self.edge_sources, other.edge_sources))
            and bool(np.array_equal(self.edge_targets, other.edge_targets))
        )

    def __hash__(self) -> int:  # graphs are immutable; hash by shape only
        return hash((self.num_nodes, self.num_edges))
