"""Vectorised IC / IC-CTP simulation.

One simulation run flips the seed coins (CTPs), then runs the independent
cascade forward with *lazy* edge coins: an edge's coin is flipped exactly
when its source first becomes active, which matches the "one independent
attempt" semantics of §3 and never touches edges outside the cascade.
"""

from __future__ import annotations

import numpy as np

from repro.diffusion._frontier import gather_edge_slots
from repro.diffusion.montecarlo import SpreadEstimate, combine_mean_variance
from repro.graph.digraph import DirectedGraph
from repro.utils.rng import as_generator
from repro.utils.validation import check_probability_array


def simulate_clicks(
    graph: DirectedGraph,
    edge_probabilities,
    seeds,
    *,
    ctps=None,
    rng=None,
) -> np.ndarray:
    """One TIC-CTP run; returns the boolean click/activation vector —
    :func:`simulate_rounds` ``>= 0``, with the same coin draws.

    Parameters
    ----------
    graph:
        The social graph.
    edge_probabilities:
        Per-canonical-edge probabilities ``p^i_{u,v}`` for the ad.
    seeds:
        User ids directly targeted (the seed set ``S_i``).
    ctps:
        Per-node CTPs ``δ(u, i)``; ``None`` means every targeted seed
        clicks (plain IC).  A seed whose CTP coin fails is *not* initially
        active but remains activatable through in-neighbors.
    rng:
        Seed or generator.
    """
    return simulate_rounds(graph, edge_probabilities, seeds, ctps=ctps, rng=rng) >= 0


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


def estimate_spread(
    graph: DirectedGraph,
    edge_probabilities,
    seeds,
    *,
    ctps=None,
    num_runs: int = 10_000,
    seed=None,
) -> SpreadEstimate:
    """Monte-Carlo estimate of ``σ_i(S_i)`` (expected number of clicks).

    The paper evaluates final allocations with 10 000 runs (§6); that is
    the default here, overridable for speed.
    """
    if num_runs < 1:
        raise ValueError(f"num_runs must be >= 1, got {num_runs}")
    rng = as_generator(seed)
    seeds = np.unique(np.asarray(seeds, dtype=np.int64))
    if seeds.size == 0:
        return SpreadEstimate(mean=0.0, std_error=0.0, num_runs=num_runs)
    counts = [
        int(simulate_clicks(graph, edge_probabilities, seeds, ctps=ctps, rng=rng).sum())
        for _ in range(num_runs)
    ]
    mean, std_error = combine_mean_variance(counts)
    return SpreadEstimate(mean=mean, std_error=std_error, num_runs=num_runs)
