"""Exact enumeration as it stood before the oracle enumerated only the
uncertain edges, kept verbatim as the in-test reference.

This is the per-world loop over all ``2^m`` worlds with one reachability
walk per seed per world — unoptimized, obviously correct — together with
its two helpers, :func:`world_probability` and :func:`reachable_from`,
which lived in ``repro.diffusion.possible_worlds`` until the shipped
oracle stopped needing them.  ``test_exact.py`` holds the shipped oracle
within 1e-12 of :func:`exact_click_probabilities` here.
"""

from __future__ import annotations

import numpy as np

from repro.graph.digraph import DirectedGraph
from repro.utils.validation import check_probability_array

from tests.diffusion._reference_ic import gather_edge_slots


def world_probability(edge_probabilities, live_mask) -> float:
    """``Pr[X]`` of a fully specified world (used by the exact enumerator)."""
    probs = check_probability_array("edge_probabilities", edge_probabilities)
    live_mask = np.asarray(live_mask, dtype=bool)
    if live_mask.shape != probs.shape:
        raise ValueError("live_mask must align with edge_probabilities")
    factors = np.where(live_mask, probs, 1.0 - probs)
    return float(np.prod(factors))


def reachable_from(graph: DirectedGraph, live_mask, sources) -> np.ndarray:
    """Boolean array: which nodes are reachable from ``sources`` via live
    edges (sources are reachable from themselves)."""
    live_mask = np.asarray(live_mask, dtype=bool)
    if live_mask.shape != (graph.num_edges,):
        raise ValueError(f"live_mask must have shape ({graph.num_edges},)")
    reached = np.zeros(graph.num_nodes, dtype=bool)
    frontier = np.unique(np.asarray(sources, dtype=np.int64))
    if frontier.size == 0:
        return reached
    reached[frontier] = True
    while frontier.size:
        slots = gather_edge_slots(graph.out_indptr, frontier)
        if slots.size == 0:
            break
        # Out-CSR slots coincide with canonical edge ids.
        slots = slots[live_mask[slots]]
        targets = graph.out_targets[slots]
        fresh = np.unique(targets[~reached[targets]])
        reached[fresh] = True
        frontier = fresh
    return reached


#: Refuse enumeration beyond this many edges (2^20 ≈ 1M worlds).
MAX_EXACT_EDGES = 20


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
        If the graph has more than :data:`MAX_EXACT_EDGES` edges.
    """
    m = graph.num_edges
    if m > MAX_EXACT_EDGES:
        raise ValueError(
            f"exact enumeration supports at most {MAX_EXACT_EDGES} edges, graph has {m}"
        )
    probs = check_probability_array("edge_probabilities", edge_probabilities)
    if probs.shape != (m,):
        raise ValueError(f"edge_probabilities must have shape ({m},)")
    seeds = np.unique(np.asarray(seeds, dtype=np.int64))
    n = graph.num_nodes
    if seeds.size == 0:
        return np.zeros(n)
    if ctps is None:
        delta = np.ones(n)
    else:
        delta = np.asarray(ctps, dtype=np.float64)
        if delta.shape != (n,):
            raise ValueError(f"ctps must have shape ({n},)")

    click = np.zeros(n, dtype=np.float64)
    bits = np.arange(m)
    for code in range(1 << m):
        live = ((code >> bits) & 1).astype(bool)
        pr_world = world_probability(probs, live)
        if pr_world == 0.0:
            continue
        # miss[v] = Π over seeds reaching v of (1 - δ(s))
        miss = np.ones(n)
        for s in seeds:
            reached = reachable_from(graph, live, [s])
            miss[reached] *= 1.0 - delta[s]
        click += pr_world * (1.0 - miss)
    return click
