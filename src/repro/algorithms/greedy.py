"""Algorithm 1: the greedy regret-minimizing allocator (§4.1).

Repeatedly pick the (user, advertiser) pair whose assignment yields the
largest *strict* decrease in regret, subject to the user's attention
bound, until no pair decreases regret.

Spread evaluation is delegated to a pluggable
:class:`~repro.diffusion.spread.SpreadOracle`; marginal revenues are
submodular (Lemma 1 corollary), which justifies the CELF-style lazy
priority queues used to avoid re-evaluating every candidate each round.
Near the budget crossover the max-marginal-gain node is the one Claim 1's
analysis reasons about, so the default keeps the paper's behaviour; pass
``exhaustive=True`` to score *every* eligible pair per iteration exactly
as the pseudocode's argmax is written (only viable on small instances).
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.advertising.problem import AdAllocationProblem
from repro.advertising.regret import regret_of
from repro.algorithms.base import AllocationResult, Allocator
from repro.diffusion.spread import MonteCarloSpreadOracle, SpreadOracle
from repro.errors import ConfigurationError


class GreedyAllocator(Allocator):
    """Algorithm 1 with a pluggable spread oracle.

    Parameters
    ----------
    oracle_factory:
        Callable ``problem -> SpreadOracle``; defaults to a Monte-Carlo
        oracle with common random numbers (``num_runs`` below).
    num_runs:
        MC runs for the default oracle.
    exhaustive:
        If true, evaluate every eligible (user, ad) pair per iteration
        (the literal pseudocode); otherwise use CELF lazy evaluation.
    seed:
        RNG seed for the default oracle.
    """

    name = "Greedy"

    def __init__(
        self,
        *,
        oracle_factory=None,
        num_runs: int = 200,
        exhaustive: bool = False,
        seed=None,
    ) -> None:
        if num_runs < 1:
            raise ConfigurationError("num_runs must be >= 1")
        self._oracle_factory = oracle_factory
        self._num_runs = num_runs
        self._exhaustive = bool(exhaustive)
        self._seed = seed

    # ------------------------------------------------------------------
    def _make_oracle(self, problem: AdAllocationProblem) -> SpreadOracle:
        if self._oracle_factory is not None:
            return self._oracle_factory(problem)
        return MonteCarloSpreadOracle(problem, num_runs=self._num_runs, seed=self._seed)

    # ------------------------------------------------------------------
    def _allocate(self, problem: AdAllocationProblem) -> AllocationResult:
        oracle = self._make_oracle(problem)
        allocation = self._empty_allocation(problem)
        h, n = problem.num_ads, problem.num_nodes
        budgets = problem.catalog.budgets()
        revenues = np.zeros(h)
        iterations = 0

        if self._exhaustive:
            picker = _ExhaustivePicker(problem, oracle)
        else:
            picker = _LazyPicker(problem, oracle)

        while True:
            pick = picker.best_pair(allocation, revenues)
            if pick is None:
                break
            user, ad, new_revenue = pick
            allocation.assign(user, ad)
            revenues[ad] = new_revenue
            picker.notify_assigned(user, ad)
            iterations += 1

        return AllocationResult(
            algorithm=self.name,
            allocation=allocation,
            estimated_revenues=revenues,
            budgets=budgets,
            penalty=problem.penalty,
            stats={
                "iterations": iterations,
                "oracle_evaluations": getattr(oracle, "cache_size", None),
                "mode": "exhaustive" if self._exhaustive else "celf",
            },
        )


def _regret_drop(budget: float, revenue: float, new_revenue: float, penalty: float,
                 num_seeds: int) -> float:
    """Regret decrease from growing a seed set by one node."""
    current = regret_of(budget, revenue, penalty, num_seeds)
    proposed = regret_of(budget, new_revenue, penalty, num_seeds + 1)
    return current - proposed


def _beats(drop: float, fits: bool, best_drop: float, best_fits: bool) -> bool:
    """Candidate comparison: larger drop wins; on (numerical) ties a
    candidate that stays within budget beats one that overshoots.

    The paper breaks ties arbitrarily; preferring the non-overshooting
    side keeps room for further regret reduction (e.g. it recovers the
    zero-regret allocation on the Theorem-1 gadget).
    """
    if drop > best_drop + 1e-12:
        return True
    return abs(drop - best_drop) <= 1e-12 and fits and not best_fits


class _ExhaustivePicker:
    """Literal Algorithm-1 argmax over all eligible (user, ad) pairs."""

    def __init__(self, problem: AdAllocationProblem, oracle: SpreadOracle) -> None:
        self.problem = problem
        self.oracle = oracle

    def best_pair(self, allocation, revenues):
        problem = self.problem
        budgets = problem.catalog.budgets()
        best = None
        best_drop = 0.0
        best_fits = False
        for ad in range(problem.num_ads):
            seeds = allocation.seeds(ad)
            num_seeds = len(seeds)
            for user in range(problem.num_nodes):
                if not allocation.can_assign(user, ad, problem.attention):
                    continue
                new_revenue = self.oracle.revenue(ad, seeds | {user})
                drop = _regret_drop(
                    budgets[ad], revenues[ad], new_revenue, problem.penalty, num_seeds
                )
                fits = new_revenue <= budgets[ad]
                if drop > 1e-12 and _beats(drop, fits, best_drop, best_fits):
                    best = (user, ad, new_revenue)
                    best_drop, best_fits = drop, fits
        return best

    def notify_assigned(self, user: int, ad: int) -> None:  # stateless
        return None


class _LazyPicker:
    """CELF lazy evaluation: per-ad max-heaps keyed by marginal revenue.

    Marginal revenues only shrink as seed sets grow (submodularity), so a
    popped entry whose stamp is stale is re-scored and pushed back; a
    fresh top entry is the true max-marginal node for its ad.
    """

    def __init__(self, problem: AdAllocationProblem, oracle: SpreadOracle) -> None:
        self.problem = problem
        self.oracle = oracle
        self.budgets = problem.catalog.budgets()
        # heap entries: (-marginal_revenue, stamp, user)
        self.heaps: list[list[tuple[float, int, int]]] = []
        self.stamps = [0] * problem.num_ads
        for ad in range(problem.num_ads):
            heap = []
            empty = frozenset()
            base = 0.0
            for user in range(problem.num_nodes):
                marginal = self.oracle.revenue(ad, frozenset({user})) - base
                heap.append((-marginal, 0, user))
            heapq.heapify(heap)
            self.heaps.append(heap)

    def _pop_fresh(self, ad: int, allocation) -> tuple[int, float] | None:
        """Pop the eligible node with the largest *fresh* marginal revenue."""
        heap = self.heaps[ad]
        seeds = None
        while heap:
            neg_marginal, stamp, user = heap[0]
            if not allocation.can_assign(user, ad, self.problem.attention):
                heapq.heappop(heap)  # permanently ineligible for this ad
                continue
            if stamp == self.stamps[ad]:
                heapq.heappop(heap)
                return user, -neg_marginal
            heapq.heappop(heap)
            if seeds is None:
                seeds = allocation.seeds(ad)
            base = self.oracle.revenue(ad, seeds)
            marginal = self.oracle.revenue(ad, seeds | {user}) - base
            heapq.heappush(heap, (-marginal, self.stamps[ad], user))
        return None

    def _best_for_ad(self, ad: int, allocation, revenue: float):
        """Exact argmax-drop node for one ad.

        Scanning candidates in decreasing marginal-revenue order, the
        drop is ``2·remaining − mg − λ`` while ``mg > remaining`` and
        ``mg − λ`` once ``mg ≤ remaining``; past that point drops only
        shrink, so the scan stops at the first such candidate.
        """
        remaining = self.budgets[ad] - revenue
        if remaining <= 0:
            # Already at/over budget: any positive marginal adds regret.
            return None
        num_seeds = len(allocation.seeds(ad))
        scanned: list[tuple[float, int, int]] = []
        best = None
        best_drop = 0.0
        best_fits = False
        while True:
            top = self._pop_fresh(ad, allocation)
            if top is None:
                break
            user, marginal = top
            scanned.append((-marginal, self.stamps[ad], user))
            drop = _regret_drop(
                self.budgets[ad],
                revenue,
                revenue + marginal,
                self.problem.penalty,
                num_seeds,
            )
            fits = marginal <= remaining
            if drop > 1e-12 and _beats(drop, fits, best_drop, best_fits):
                best = (user, revenue + marginal, drop)
                best_drop, best_fits = drop, fits
            if fits:
                break  # every later candidate has a smaller drop
        for entry in scanned:
            heapq.heappush(self.heaps[ad], entry)
        return best

    def best_pair(self, allocation, revenues):
        best = None
        best_drop = 0.0
        for ad in range(self.problem.num_ads):
            candidate = self._best_for_ad(ad, allocation, revenues[ad])
            if candidate is None:
                continue
            user, new_revenue, drop = candidate
            if drop > best_drop + 1e-12:
                best = (user, ad, new_revenue)
                best_drop = drop
        return best

    def notify_assigned(self, user: int, ad: int) -> None:
        """Invalidate the assigned ad's stamps (its marginals changed)."""
        self.stamps[ad] += 1
