"""TIM ingredients (Tang et al. [25]) reused by TIRM (§5.1).

* :func:`required_rr_sets` — Eq. (5): the sample size ``L(s, ε)`` that
  makes ``n · F_R(S)`` an ``(ε/2)·OPT_s``-accurate spread estimator for
  all seed sets of size ≤ s (Proposition 2);
* :func:`estimate_opt_lower_bound` — the greedy-cover estimate of a
  lower bound on ``OPT_s`` from a pilot sample (the greedy cover's
  spread is achievable, hence a lower bound on the optimum);
* :func:`greedy_max_coverage` — the Max s-Cover greedy of TIM's phase 2;
* :class:`TIMInfluenceMaximizer` — a standalone (1 − 1/e − ε)
  influence maximizer, used by the AB2 ablation and as a public API for
  classic influence maximization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import EstimationError
from repro.graph.digraph import DirectedGraph
from repro.rrset.pool import RRSetPool
from repro.rrset.sharded import ShardedSamplingEngine


def log_binomial(n: int, k: int) -> float:
    """``log C(n, k)`` via lgamma (exact enough for Eq. 5)."""
    if k < 0 or k > n:
        return float("-inf")
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


def required_rr_sets(
    num_nodes: int,
    s: int,
    epsilon: float,
    opt_lower_bound: float,
    *,
    ell: float = 1.0,
) -> int:
    """Eq. (5): ``L(s, ε) = (8 + 2ε) n (ℓ log n + log C(n, s) + log 2) /
    (OPT_s · ε²)``, rounded up.

    ``opt_lower_bound`` stands in for the unknown ``OPT_s``; a lower bound
    keeps the guarantee (more samples than strictly necessary).
    """
    if num_nodes < 1:
        raise ValueError("num_nodes must be >= 1")
    if not 0 < epsilon < 1:
        raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
    if opt_lower_bound <= 0:
        raise ValueError(f"opt_lower_bound must be > 0, got {opt_lower_bound}")
    if ell <= 0:
        raise ValueError(f"ell must be > 0, got {ell}")
    s = min(max(int(s), 1), num_nodes)
    n = float(num_nodes)
    numerator = (8.0 + 2.0 * epsilon) * n * (
        ell * math.log(n) + log_binomial(num_nodes, s) + math.log(2.0)
    )
    return int(math.ceil(numerator / (opt_lower_bound * epsilon**2)))


def greedy_max_coverage(sets, num_nodes: int, k: int) -> tuple[list[int], int]:
    """Greedy Max k-Cover over RR-sets (TIM phase 2).

    ``sets`` is an :class:`RRSetPool` or a :class:`CSRSetView` (e.g. from
    :meth:`RRSetPool.prefix_view`); it is bulk-copied into a fresh pool
    in O(members) and never mutated.  Returns the chosen nodes (in
    selection order) and the number of sets they jointly cover.
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    if isinstance(sets, RRSetPool):
        sets = sets.prefix_view()
    collection = RRSetPool(num_nodes)
    collection.add_flat(sets.members, np.diff(sets.indptr))
    coverage = collection.coverage()
    chosen: list[int] = []
    covered = 0
    for _ in range(min(k, num_nodes)):
        best = int(np.argmax(coverage))
        if coverage[best] <= 0:
            break
        covered += collection.remove_covered(best)
        chosen.append(best)
    return chosen, covered


def estimate_opt_lower_bound(sets, num_nodes: int, s: int) -> float:
    """Lower bound on ``OPT_s`` under plain IC from a pilot sample.

    Greedily covers ``s`` seeds on ``sets`` (an :class:`RRSetPool` or a
    :class:`CSRSetView`, never mutated); ``n · (covered/θ)`` estimates
    the greedy set's spread, which lower-bounds the optimum.  The result
    is floored at ``s`` because any ``s`` distinct seeds have spread at
    least ``s`` under IC without CTPs.
    """
    if isinstance(sets, RRSetPool):
        sets = sets.prefix_view()
    if not sets.num_sets:
        raise EstimationError("cannot estimate OPT from zero RR-sets")
    _, covered = greedy_max_coverage(sets, num_nodes, s)
    estimate = num_nodes * covered / sets.num_sets
    return float(max(estimate, min(s, num_nodes), 1.0))


@dataclass(frozen=True)
class TIMResult:
    """Output of the standalone TIM influence maximizer."""

    seeds: list[int]
    estimated_spread: float
    num_rr_sets: int


class TIMInfluenceMaximizer:
    """Classic TIM: near-linear-time influence maximization (§5.1).

    Provides a ``(1 − 1/e − ε)``-approximate seed set of a requested size
    under the IC model.  TIRM does *not* call this class (its seed count
    is dynamic); it exists as a public API and as the fixed-``s``
    comparator in the AB2 ablation bench.
    """

    def __init__(
        self,
        graph: DirectedGraph,
        edge_probabilities,
        *,
        epsilon: float = 0.1,
        ell: float = 1.0,
        max_rr_sets: int = 1_000_000,
        pilot_sets: int = 2_000,
        seed=None,
    ) -> None:
        if max_rr_sets < 1:
            raise ValueError("max_rr_sets must be >= 1")
        self.graph = graph
        self.epsilon = float(epsilon)
        self.ell = float(ell)
        self.max_rr_sets = int(max_rr_sets)
        self.pilot_sets = int(pilot_sets)
        # One ad, in-process: the engine owns the stream and the pool,
        # so the sets are the replayable ``(seed, 0, set_index)`` ones.
        self._engine = ShardedSamplingEngine(graph, [edge_probabilities], seeds=seed)

    def select(self, k: int) -> TIMResult:
        """Choose ``k`` seeds; returns them with the estimated spread."""
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        n = self.graph.num_nodes
        pool = self._engine.shard(0)
        self._engine.ensure({0: self.pilot_sets})
        opt_lb = estimate_opt_lower_bound(pool, n, k)
        theta = min(
            required_rr_sets(n, k, self.epsilon, opt_lb, ell=self.ell), self.max_rr_sets
        )
        self._engine.ensure({0: theta})
        seeds, covered = greedy_max_coverage(pool, n, k)
        spread = n * covered / pool.num_total
        return TIMResult(
            seeds=seeds, estimated_spread=spread, num_rr_sets=pool.num_total
        )
