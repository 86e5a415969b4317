"""The Myopic and Myopic+ baselines (§6 "Algorithms").

* **Myopic** assigns every user its ``κ_u`` most relevant ads by the
  no-network expected revenue ``δ(u, i) · cpe(i)`` — CTR-style matching
  that ignores both virality and budgets (Allocation A of Fig. 1).
* **Myopic+** is budget-conscious but still virality-blind: per ad, rank
  users by CTP and take them in order until the (no-network) expected
  revenue exhausts the budget, visiting ads round-robin and skipping
  users whose attention bound is already saturated.

Both report the no-network revenue estimate they used internally; their
true (virality-included) revenue is what the Monte-Carlo referee measures
— the systematic *overshoot* that comparison exposes is the paper's
motivating observation.
"""

from __future__ import annotations

import numpy as np

from repro.advertising.problem import AdAllocationProblem
from repro.algorithms.base import AllocationResult, Allocator


class MyopicAllocator(Allocator):
    """Assign each user its top-``κ_u`` ads by ``δ(u, i)·cpe(i)``."""

    name = "Myopic"

    def _allocate(self, problem: AdAllocationProblem) -> AllocationResult:
        allocation = self._empty_allocation(problem)
        # scores[i, u] = expected no-network revenue of seeding u with ad i
        scores = problem.ctps * problem.catalog.cpes()[:, None]
        order = np.argsort(-scores, axis=0, kind="stable")
        revenues = np.zeros(problem.num_ads)
        kappa = problem.attention.kappa
        for user in range(problem.num_nodes):
            take = min(int(kappa[user]), problem.num_ads)
            for rank in range(take):
                ad = int(order[rank, user])
                allocation.assign(user, ad)
                revenues[ad] += scores[ad, user]
        return AllocationResult(
            algorithm=self.name,
            allocation=allocation,
            estimated_revenues=revenues,
            budgets=problem.catalog.budgets(),
            penalty=problem.penalty,
            stats={"model": "no-network CTP ranking"},
        )


class MyopicPlusAllocator(Allocator):
    """Budget-aware Myopic: per-ad CTP ranking, round-robin, stop at
    budget exhaustion (no-network accounting)."""

    name = "Myopic+"

    def _allocate(self, problem: AdAllocationProblem) -> AllocationResult:
        allocation = self._empty_allocation(problem)
        h = problem.num_ads
        budgets = problem.catalog.budgets()
        cpes = problem.catalog.cpes()
        # Per-ad user ranking by CTP (descending, stable for determinism).
        rankings = [np.argsort(-problem.ctps[ad], kind="stable") for ad in range(h)]
        pointers = [0] * h
        revenues = np.zeros(h)
        done = [False] * h
        while not all(done):
            progressed = False
            for ad in range(h):
                if done[ad]:
                    continue
                if revenues[ad] >= budgets[ad]:
                    done[ad] = True
                    continue
                user = self._next_eligible(problem, allocation, rankings[ad], pointers, ad)
                if user is None:
                    done[ad] = True
                    continue
                allocation.assign(user, ad)
                revenues[ad] += problem.ctps[ad, user] * cpes[ad]
                progressed = True
            if not progressed:
                break
        return AllocationResult(
            algorithm=self.name,
            allocation=allocation,
            estimated_revenues=revenues,
            budgets=budgets,
            penalty=problem.penalty,
            stats={"model": "no-network CTP ranking, budget-stopped"},
        )

    @staticmethod
    def _next_eligible(problem, allocation, ranking, pointers, ad):
        """Advance the ad's pointer to its next attention-eligible user."""
        pointer = pointers[ad]
        while pointer < ranking.size:
            user = int(ranking[pointer])
            pointer += 1
            if allocation.can_assign(user, ad, problem.attention):
                pointers[ad] = pointer
                return user
        pointers[ad] = pointer
        return None
