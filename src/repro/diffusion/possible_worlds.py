"""Possible-world semantics (Lemma 1's proof device).

A possible world ``X`` fixes each edge as *live* (with probability
``p_{u,v}``) or *blocked*; a node is activated by a seed set iff a seed
reaches it through live edges.  The Monte-Carlo engines flip edge coins
lazily, but tests and the exact enumerator need materialised worlds —
this module provides them.
"""

from __future__ import annotations

import numpy as np

from repro.graph._traversal import gather_edge_slots
from repro.graph.digraph import DirectedGraph
from repro.utils.rng import as_generator
from repro.utils.validation import check_probability_array


def sample_live_edges(edge_probabilities, *, seed=None) -> np.ndarray:
    """One possible world: a boolean live-mask over canonical edge ids."""
    probs = check_probability_array("edge_probabilities", edge_probabilities)
    rng = as_generator(seed)
    return rng.random(probs.size) < probs


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
