"""IC / TIC-CTP simulation on the package's one BFS kernel.

One simulation run flips the seed coins (CTPs), then runs the independent
cascade forward with *lazy* edge coins: an edge's coin is flipped exactly
when its source first becomes active, which matches the "one independent
attempt" semantics of §3 and never touches edges outside the cascade.
The cascade is one run of a prepared one-batch
:class:`repro.graph._traversal.BfsTable` over the out-CSR (whose slots
are canonical edge ids), rooted at the seeds that clicked.  It draws the
coins of a numpy loop taking one ``Generator.random`` block per level
(``tests/diffusion/_reference_ic.py``), so a run's rounds and the
generator state it leaves are that loop's.
"""

from __future__ import annotations

import numpy as np

from repro.diffusion.montecarlo import SpreadEstimate, combine_mean_variance
from repro.graph._traversal import BfsTable
from repro.graph.digraph import DirectedGraph
from repro.utils.rng import as_generator
from repro.utils.validation import check_probability_array

_NO_CLICKS = np.empty(0, dtype=np.int32)


class _Cascade:
    """One ad's cascade with its arguments checked once; calling it on a
    generator simulates one run and returns the clickers (int32) and,
    if ``depth``, the round each clicked in (else ``None``).

    The kernel's batch is prepared once: the CSR and probability
    addresses are resolved here, a run writes only its roots and, for a
    new generator, the generator's address."""

    def __init__(self, graph: DirectedGraph, edge_probabilities, seeds, ctps) -> None:
        n, m = graph.num_nodes, graph.num_edges
        probs = check_probability_array("edge_probabilities", edge_probabilities)
        if probs.shape != (m,):
            raise ValueError(f"edge_probabilities must have shape ({m},)")
        seeds = np.unique(np.asarray(seeds, dtype=np.int64))
        if seeds.size and not (seeds[0] >= 0 and seeds[-1] < n):
            raise ValueError(f"seeds must lie in [0, {n}), found [{seeds[0]}, {seeds[-1]}]")
        self.seed_ctps = None
        if ctps is not None:
            delta = check_probability_array("ctps", ctps)
            if delta.shape != (n,):
                raise ValueError(f"ctps must have shape ({n},)")
            self.seed_ctps = delta[seeds]
        self.graph, self.seeds, self.probs = graph, seeds, np.ascontiguousarray(probs)
        # The batch's roots are the first ``_root_indptr[1]`` of ``_roots``.
        self._roots = seeds.copy()
        self._root_indptr = np.array([0, seeds.size], dtype=np.int64)
        self._table = BfsTable(1)
        self._task = self._table.tasks[0]
        self._bit_generator = None
        self._table.set(
            0, n, self._roots, np.ascontiguousarray(graph.out_indptr, dtype=np.int64),
            np.ascontiguousarray(graph.out_targets, dtype=np.int64), self.probs,
            None, np.empty(1, dtype=np.int64),
            root_indptr=self._root_indptr,
        )

    def __call__(self, rng: np.random.Generator, depth: bool = False):
        roots = self.seeds
        if roots.size and self.seed_ctps is not None:
            roots = roots[rng.random(roots.size) < self.seed_ctps]
            self._roots[: roots.size] = roots
            self._root_indptr[1] = roots.size
        if roots.size == 0:
            return _NO_CLICKS, _NO_CLICKS if depth else None
        table, bit_generator = self._table, rng.bit_generator
        if bit_generator is not self._bit_generator:
            table.bind(0, bit_generator)
            self._bit_generator = bit_generator
        self._task.want_depth = depth
        with bit_generator.lock:
            table.rearm()
            table.run()
        return table.take(0)


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
    cascade = _Cascade(graph, edge_probabilities, seeds, ctps)
    clicked, depth = cascade(as_generator(rng), depth=True)
    rounds = np.full(graph.num_nodes, -1, dtype=np.int64)
    rounds[clicked] = depth
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
    cascade = _Cascade(graph, edge_probabilities, seeds, ctps)
    rng = as_generator(seed)
    if cascade.seeds.size == 0:
        return SpreadEstimate(mean=0.0, std_error=0.0, num_runs=num_runs)
    counts = [cascade(rng)[0].size for _ in range(num_runs)]
    mean, std_error = combine_mean_variance(counts)
    return SpreadEstimate(mean=mean, std_error=std_error, num_runs=num_runs)
