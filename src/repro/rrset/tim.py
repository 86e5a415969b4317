"""TIM ingredients (Tang et al. [25]) reused by TIRM (§5.1).

* :func:`required_rr_sets` — Eq. (5): the sample size ``L(s, ε)`` that
  makes ``n · F_R(S)`` an ``(ε/2)·OPT_s``-accurate spread estimator for
  all seed sets of size ≤ s (Proposition 2);
* :func:`estimate_opt_lower_bound` — the greedy-cover estimate of a
  lower bound on ``OPT_s`` from a pilot sample (the greedy cover's
  spread is achievable, hence a lower bound on the optimum);
* :func:`kpt_estimation` — the original KPT* estimator of TIM's phase 1,
  kept for reference and cross-checking;
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
from repro.rrset.pool import CSRSetView, RRSetPool
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


def _working_pool(sets, num_nodes: int) -> RRSetPool:
    """A fresh, mutable pool over ``sets`` for one greedy-cover run.

    ``sets`` may be a ``list[np.ndarray]`` (compat), an
    :class:`RRSetPool`, or a :class:`CSRSetView` — pool/view inputs are
    bulk-copied from their flat CSR buffers in O(members), never mutated.
    """
    pool = RRSetPool(num_nodes)
    if isinstance(sets, RRSetPool):
        sets = sets.prefix_view()
    if isinstance(sets, CSRSetView):
        pool.add_flat(sets.members, np.diff(sets.indptr))
    else:
        pool.add_sets(sets)
    return pool


def greedy_max_coverage(
    sets,
    num_nodes: int,
    k: int,
    *,
    eligible=None,
) -> tuple[list[int], int]:
    """Greedy Max k-Cover over RR-sets (TIM phase 2).

    ``sets`` may be a list of member arrays, an :class:`RRSetPool`, or a
    :class:`CSRSetView` (e.g. from :meth:`RRSetPool.prefix_view`); the
    input is never mutated.  Returns the chosen nodes (in selection
    order) and the number of sets they jointly cover.  ``eligible``
    optionally restricts candidates to a boolean mask over nodes.
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    collection = _working_pool(sets, num_nodes)
    coverage = collection.coverage()
    mask = None
    if eligible is not None:
        # Copy: the mask is consumed destructively as seeds are chosen.
        mask = np.array(eligible, dtype=bool, copy=True)
        if mask.shape != (num_nodes,):
            raise ValueError(f"eligible must have shape ({num_nodes},)")
    chosen: list[int] = []
    covered = 0
    for _ in range(min(k, num_nodes)):
        if mask is None:
            best = int(np.argmax(coverage))
        else:
            if not mask.any():
                break
            scores = np.where(mask, coverage, -1)
            best = int(np.argmax(scores))
        if coverage[best] <= 0:
            break
        covered += collection.remove_covered(best)
        chosen.append(best)
        if mask is not None:
            mask[best] = False
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


def kpt_estimation(
    graph: DirectedGraph,
    edge_probabilities,
    s: int,
    *,
    ell: float = 1.0,
    seed=None,
) -> float:
    """TIM's phase-1 KPT estimator (Algorithm 2 of Tang et al. [25]).

    Returns a value that, with high probability, lower-bounds ``OPT_s``.
    Kept for reference/cross-checks; TIRM defaults to the greedy pilot of
    :func:`estimate_opt_lower_bound`, which behaves better at the small
    scales this reproduction runs at.

    Round ``i`` reads its ``c_i`` sets as the prefix ``[0, c_i)`` of one
    stream: each round still sees ``c_i`` i.i.d. sets, and the guarantee
    is a union bound over rounds, which needs no independence between
    them.
    """
    n, m = graph.num_nodes, graph.num_edges
    if n < 2 or m == 0:
        return 1.0
    in_degrees = graph.in_degrees()
    log2n = max(int(math.floor(math.log2(n))), 1)
    s = min(max(int(s), 1), n)
    base = 6.0 * ell * math.log(n) + 6.0 * math.log(log2n)
    with ShardedSamplingEngine(graph, [edge_probabilities], seeds=seed) as engine:
        for i in range(1, log2n):
            c_i = int(math.ceil(base * 2.0**i))
            engine.ensure({0: c_i})
            view = engine.shard(0).prefix_view(c_i)
            lengths = np.diff(view.indptr)
            owners = np.repeat(np.arange(c_i), lengths)
            widths = np.bincount(
                owners,
                weights=in_degrees[view.members].astype(np.float64),
                minlength=c_i,
            )
            kappa_sum = float(np.sum(1.0 - (1.0 - widths / m) ** s))
            if kappa_sum / c_i > 1.0 / (2.0**i):
                return max(n * kappa_sum / (2.0 * c_i), 1.0)
    return 1.0


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
