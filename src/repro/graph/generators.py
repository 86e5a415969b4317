"""Random-graph generators.

The paper evaluates on four real social networks (Table 1).  Those exact
datasets are not redistributable, so the :mod:`repro.datasets` package
simulates them on top of the structural generators below:

* :func:`power_law_graph` — directed preferential-attachment graph whose
  in-degree distribution is heavy-tailed like Flixster/Epinions/LiveJournal;
* :func:`community_graph` — overlapping dense communities, the structure of
  a co-authorship network like DBLP;
* :func:`erdos_renyi` and the small deterministic graphs — test fixtures.

Every generator is a deterministic function of its ``seed``.
"""

from __future__ import annotations

import numpy as np

from repro.errors import GraphError
from repro.graph.builder import GraphBuilder
from repro.graph.digraph import DirectedGraph
from repro.utils.rng import as_generator


def erdos_renyi(num_nodes: int, edge_probability: float, *, seed=None) -> DirectedGraph:
    """G(n, p) over ordered pairs (directed, no self-loops).

    Sampling is vectorised: the number of edges is drawn binomially, then
    that many distinct ordered pairs are drawn without replacement.
    """
    if not 0.0 <= edge_probability <= 1.0:
        raise GraphError(f"edge_probability must be in [0, 1], got {edge_probability}")
    rng = as_generator(seed)
    possible = num_nodes * (num_nodes - 1)
    if possible == 0 or edge_probability == 0.0:
        return DirectedGraph(num_nodes, [], [])
    count = int(rng.binomial(possible, edge_probability))
    # Sample ordered-pair codes without replacement, then decode.
    codes = rng.choice(possible, size=count, replace=False)
    src = codes // (num_nodes - 1)
    offset = codes % (num_nodes - 1)
    dst = np.where(offset >= src, offset + 1, offset)  # skip the diagonal
    return DirectedGraph(num_nodes, src, dst)


def power_law_graph(
    num_nodes: int,
    avg_out_degree: float,
    *,
    exponent: float = 2.2,
    reciprocity: float = 0.3,
    seed=None,
) -> DirectedGraph:
    """Directed graph with power-law in-degrees and tunable reciprocity.

    Construction: sample target "popularity" weights ``w_v ∝ v^{-1/(γ-1)}``
    (a Zipf-like profile giving a power-law in-degree tail with exponent
    ``γ``), draw each node's out-degree from a Poisson around
    ``avg_out_degree``, connect to targets by weighted sampling, then flip a
    ``reciprocity`` coin per edge to add the reverse edge (follower graphs
    such as Flixster and LiveJournal show substantial reciprocity).
    """
    if num_nodes < 2:
        raise GraphError("power_law_graph needs at least 2 nodes")
    if exponent <= 1.0:
        raise GraphError(f"exponent must be > 1, got {exponent}")
    rng = as_generator(seed)
    ranks = np.arange(1, num_nodes + 1, dtype=np.float64)
    weights = ranks ** (-1.0 / (exponent - 1.0))
    weights /= weights.sum()
    # Shuffle so popularity is not correlated with node id.
    popularity = rng.permutation(num_nodes)

    out_degrees = rng.poisson(avg_out_degree, size=num_nodes)
    total = int(out_degrees.sum())
    src = np.repeat(np.arange(num_nodes, dtype=np.int64), out_degrees)
    dst = popularity[rng.choice(num_nodes, size=total, p=weights)]

    keep = src != dst
    src, dst = src[keep], dst[keep]
    if reciprocity > 0.0 and src.size:
        flip = rng.random(src.size) < reciprocity
        extra_src, extra_dst = dst[flip], src[flip]
        src = np.concatenate((src, extra_src))
        dst = np.concatenate((dst, extra_dst))
    # Dedup on one code per pair: the codes sort as the pairs do.
    src, dst = np.divmod(np.unique(src * num_nodes + dst), num_nodes)
    return DirectedGraph(num_nodes, src, dst)


def community_graph(
    num_nodes: int,
    num_communities: int,
    *,
    within_probability: float = 0.08,
    between_edges_per_node: float = 0.3,
    seed=None,
) -> DirectedGraph:
    """Undirected community graph, returned with both edge directions.

    Nodes are split into ``num_communities`` groups with dense G(n, p)
    blocks inside groups and a sprinkle of random bridges between them —
    the classic structure of co-authorship networks like DBLP (§6).
    """
    if num_communities < 1 or num_communities > num_nodes:
        raise GraphError("need 1 <= num_communities <= num_nodes")
    rng = as_generator(seed)
    membership = rng.integers(0, num_communities, size=num_nodes)
    builder = GraphBuilder(num_nodes, skip_self_loops=True, skip_duplicates=True)
    for c in range(num_communities):
        members = np.flatnonzero(membership == c)
        k = members.size
        if k < 2:
            continue
        possible = k * (k - 1) // 2
        count = int(rng.binomial(possible, within_probability))
        if count == 0:
            continue
        codes = rng.choice(possible, size=count, replace=False)
        # Decode unordered-pair codes to (j, i) with j < i; correct the
        # floating-point row estimate where sqrt rounded across a boundary.
        i = (np.floor((1 + np.sqrt(1 + 8 * codes.astype(np.float64))) / 2)).astype(np.int64)
        j = codes - i * (i - 1) // 2
        too_low = j < 0
        i[too_low] -= 1
        too_high = codes - i * (i - 1) // 2 >= i
        i[too_high] += 1
        j = codes - i * (i - 1) // 2
        for a, b in zip(members[i], members[j]):
            builder.add_undirected_edge(int(a), int(b))
    num_bridges = int(between_edges_per_node * num_nodes)
    if num_bridges:
        u = rng.integers(0, num_nodes, size=num_bridges)
        v = rng.integers(0, num_nodes, size=num_bridges)
        for a, b in zip(u, v):
            if a != b:
                builder.add_undirected_edge(int(a), int(b))
    return builder.build()


def forest_fire_graph(
    num_nodes: int,
    *,
    forward_probability: float = 0.35,
    backward_probability: float = 0.2,
    seed=None,
) -> DirectedGraph:
    """Leskovec's forest-fire model: densifying, community-rich growth.

    Each new node picks a random ambassador, links to it, then "burns"
    recursively: from each burned node it links to a geometrically
    distributed number of its out-neighbors (``forward_probability``)
    and in-neighbors (``backward_probability``).  Produces the shrinking
    diameters and heavy tails of real social graphs — an alternative
    stand-in generator for the Table-1 networks.
    """
    if num_nodes < 2:
        raise GraphError("forest_fire_graph needs at least 2 nodes")
    if not 0 <= forward_probability < 1 or not 0 <= backward_probability < 1:
        raise GraphError("burning probabilities must be in [0, 1)")
    rng = as_generator(seed)
    out_adj: list[list[int]] = [[] for _ in range(num_nodes)]
    in_adj: list[list[int]] = [[] for _ in range(num_nodes)]
    edges: set[tuple[int, int]] = set()

    def link(u: int, v: int) -> None:
        if u != v and (u, v) not in edges:
            edges.add((u, v))
            out_adj[u].append(v)
            in_adj[v].append(u)

    for node in range(1, num_nodes):
        ambassador = int(rng.integers(0, node))
        link(node, ambassador)
        burned = {ambassador}
        frontier = [ambassador]
        while frontier:
            current = frontier.pop()
            # Geometric numbers of forward/backward links to burn.
            forward = int(rng.geometric(1.0 - forward_probability) - 1)
            backward = int(rng.geometric(1.0 - backward_probability) - 1)
            candidates = [w for w in out_adj[current] if w not in burned][:forward]
            candidates += [w for w in in_adj[current] if w not in burned][:backward]
            for target in candidates:
                burned.add(target)
                link(node, target)
                frontier.append(target)
    pairs = sorted(edges)
    return DirectedGraph.from_edges(pairs, num_nodes=num_nodes)


def complete_graph(num_nodes: int) -> DirectedGraph:
    """All ordered pairs — the dense extreme discussed in §4.1."""
    idx = np.arange(num_nodes)
    src = np.repeat(idx, num_nodes)
    dst = np.tile(idx, num_nodes)
    keep = src != dst
    return DirectedGraph(num_nodes, src[keep], dst[keep])


def cycle_graph(num_nodes: int) -> DirectedGraph:
    """Directed cycle ``0 → 1 → ... → n-1 → 0``."""
    if num_nodes < 2:
        raise GraphError("cycle_graph needs at least 2 nodes")
    src = np.arange(num_nodes, dtype=np.int64)
    dst = (src + 1) % num_nodes
    return DirectedGraph(num_nodes, src, dst)


def star_graph(num_leaves: int) -> DirectedGraph:
    """Node 0 pointing at ``num_leaves`` leaves — a one-hop influencer."""
    src = np.zeros(num_leaves, dtype=np.int64)
    dst = np.arange(1, num_leaves + 1, dtype=np.int64)
    return DirectedGraph(num_leaves + 1, src, dst)


def bipartite_gadget(spread_sizes) -> tuple[DirectedGraph, np.ndarray]:
    """The reduction gadget from the Theorem-1 hardness proof.

    For each integer ``x_i`` in ``spread_sizes`` the gadget has one "U"
    node with ``x_i − 1`` private out-neighbors, all edge probabilities 1,
    so the spread of U-node ``i`` is exactly ``x_i``.

    Returns
    -------
    (graph, u_nodes):
        ``u_nodes[i]`` is the node id of the U node for ``x_i``.
    """
    sizes = [int(x) for x in spread_sizes]
    if any(x < 1 for x in sizes):
        raise GraphError("spread sizes must be >= 1")
    builder = GraphBuilder(skip_self_loops=False)
    u_nodes = []
    next_id = 0
    for x in sizes:
        u = next_id
        u_nodes.append(u)
        next_id += 1
        for _ in range(x - 1):
            builder.add_edge(u, next_id)
            next_id += 1
    if next_id == 0:
        return DirectedGraph(0, [], []), np.empty(0, dtype=np.int64)
    builder._num_nodes = next_id  # all ids are allocated densely
    return builder.build(), np.asarray(u_nodes, dtype=np.int64)
