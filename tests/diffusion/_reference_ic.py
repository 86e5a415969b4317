"""The numpy IC cascade loop as it stood before forward cascades ran on
the compiled BFS kernel, kept verbatim as the in-test reference.

:func:`simulate_rounds` draws one ``Generator.random`` block per cascade
level over the frontier's out-CSR slots (:func:`gather_edge_slots`, which
lived in ``repro.graph._traversal``).  The shipped
:func:`repro.diffusion.ic.simulate_rounds` must return the same rounds
and leave the generator in the same state for every input.
"""

from __future__ import annotations

import numpy as np

from repro.graph._traversal import gather_slices
from repro.graph.digraph import DirectedGraph
from repro.utils.rng import as_generator
from repro.utils.validation import check_probability_array

_EMPTY = np.empty(0, dtype=np.int64)


def gather_edge_slots(indptr: np.ndarray, frontier: np.ndarray) -> np.ndarray:
    """Flat CSR slot indices for all edges of all ``frontier`` nodes.

    Equivalent to ``np.concatenate([np.arange(indptr[u], indptr[u+1])
    for u in frontier])`` but fully vectorised.
    """
    if frontier.size == 0:
        return _EMPTY
    starts = indptr[frontier]
    return gather_slices(starts, indptr[frontier + 1] - starts)


def simulate_rounds(
    graph: DirectedGraph,
    edge_probabilities,
    seeds,
    *,
    ctps=None,
    rng=None,
) -> np.ndarray:
    """One TIC-CTP run returning per-node activation rounds.

    Round 0 holds the seeds whose CTP coin succeeded; round ``t+1`` holds
    nodes first activated by round-``t`` clickers; ``-1`` marks nodes that
    never click.  This is the cascade trace the TIC learning module
    (:mod:`repro.topics.learning`) consumes — the paper's Flixster
    probabilities were learned from exactly such traces [3].
    """
    probs = check_probability_array("edge_probabilities", edge_probabilities)
    if probs.shape != (graph.num_edges,):
        raise ValueError(f"edge_probabilities must have shape ({graph.num_edges},)")
    rng = as_generator(rng)
    seeds = np.unique(np.asarray(seeds, dtype=np.int64))
    rounds = np.full(graph.num_nodes, -1, dtype=np.int64)
    if seeds.size == 0:
        return rounds
    if ctps is None:
        accepted = seeds
    else:
        delta = np.asarray(ctps, dtype=np.float64)
        accepted = seeds[rng.random(seeds.size) < delta[seeds]]
    if accepted.size == 0:
        return rounds
    rounds[accepted] = 0
    frontier = accepted
    step = 0
    while frontier.size:
        step += 1
        slots = gather_edge_slots(graph.out_indptr, frontier)
        if slots.size == 0:
            break
        # Out-CSR slots are canonical edge ids, so probs index directly.
        success = rng.random(slots.size) < probs[slots]
        targets = graph.out_targets[slots[success]]
        fresh = np.unique(targets[rounds[targets] < 0])
        rounds[fresh] = step
        frontier = fresh
    return rounds


