"""Exact expected spread by possible-world enumeration.

A possible world ``X`` fixes each edge as live or blocked; node ``v``
clicks iff some seed ``s`` that accepted its CTP coin reaches ``v`` in
``X``.  Because seed coins are independent of edge coins,

``Pr[v clicks | X] = 1 − Π_{s ∈ S : s ⇝_X v} (1 − δ(s))``

and the expectation is the ``Pr[X]``-weighted sum.  An edge at ``p = 1``
is live in every world and one at ``p = 0`` in none, so only the ``k``
*uncertain* edges (``0 < p < 1``) are enumerated: ``2^k`` worlds, taken
:data:`WORLD_BLOCK` at a time so memory stays ``O(WORLD_BLOCK · (m + n))``.
The cost is exponential in ``k`` and guarded accordingly — this exists to
verify the Monte-Carlo and RR-set machinery on toy instances such as the
Fig. 1 gadget (6 edges).
"""

from __future__ import annotations

import numpy as np

from repro.graph.digraph import DirectedGraph
from repro.utils.validation import check_probability_array

#: Refuse enumeration beyond this many uncertain edges (2^20 ≈ 1M worlds).
MAX_EXACT_EDGES = 20

#: Worlds enumerated together in one block of arrays.
WORLD_BLOCK = 1 << 12


def exact_click_probabilities(
    graph: DirectedGraph,
    edge_probabilities,
    seeds,
    *,
    ctps=None,
) -> np.ndarray:
    """Exact per-node click probabilities under TIC-CTP.

    Parameters mirror :func:`repro.diffusion.ic.simulate_clicks`.

    Raises
    ------
    ValueError
        If more than :data:`MAX_EXACT_EDGES` edges have ``0 < p < 1``, a
        seed lies outside ``[0, n)``, or a probability is out of range.
    """
    m, n = graph.num_edges, graph.num_nodes
    probs = check_probability_array("edge_probabilities", edge_probabilities)
    if probs.shape != (m,):
        raise ValueError(f"edge_probabilities must have shape ({m},)")
    uncertain = np.flatnonzero((probs > 0.0) & (probs < 1.0))
    k = uncertain.size
    if k > MAX_EXACT_EDGES:
        raise ValueError(
            f"exact enumeration supports at most {MAX_EXACT_EDGES} edges with "
            f"0 < p < 1, graph has {k}"
        )
    seeds = np.unique(np.asarray(seeds, dtype=np.int64))
    if seeds.size and not (seeds[0] >= 0 and seeds[-1] < n):
        raise ValueError(f"seeds must lie in [0, {n}), found [{seeds[0]}, {seeds[-1]}]")
    delta = np.ones(n) if ctps is None else check_probability_array("ctps", ctps)
    if delta.shape != (n,):
        raise ValueError(f"ctps must have shape ({n},)")

    click = np.zeros(n, dtype=np.float64)
    if seeds.size == 0:
        return click
    # Pull along the in-CSR: a node with in-edges is reached in a world iff
    # one of its in-edges is live there and its source is reached.
    heads = np.flatnonzero(np.diff(graph.in_indptr))
    starts = graph.in_indptr[heads]
    p = probs[uncertain]
    for first in range(0, 1 << k, WORLD_BLOCK):
        codes = np.arange(first, min(first + WORLD_BLOCK, 1 << k))
        bits = ((codes[:, None] >> np.arange(k)) & 1).astype(bool)
        pr = np.prod(np.where(bits, p, 1.0 - p), axis=1)
        live = np.repeat((probs == 1.0)[None, :], codes.size, axis=0)
        live[:, uncertain] = bits
        live_in = live[:, graph.in_edge_ids]
        # miss[w, v] = Π over seeds reaching v in world w of (1 - δ(s))
        miss = np.ones((codes.size, n))
        for s in seeds:
            reach = np.zeros((codes.size, n), dtype=bool)
            reach[:, s] = True
            while True:
                fired = reach[:, graph.in_sources] & live_in
                grown = reach.copy()
                grown[:, heads] |= np.logical_or.reduceat(fired, starts, axis=1)
                if np.array_equal(grown, reach):
                    break
                reach = grown
            miss *= np.where(reach, 1.0 - delta[s], 1.0)
        click += pr @ (1.0 - miss)
    return click


def exact_spread(graph: DirectedGraph, edge_probabilities, seeds, *, ctps=None) -> float:
    """Exact ``σ_i(S)`` — the sum of exact per-node click probabilities."""
    return float(exact_click_probabilities(graph, edge_probabilities, seeds, ctps=ctps).sum())
