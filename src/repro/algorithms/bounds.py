"""The regret bounds of Theorems 2, 3 and 4 (§4.2–4.3).

With ``p_i = max_x Π_i({x}) / B_i`` (the largest single-node marginal as
a budget fraction) and ``p_max = max_i p_i``:

* **Theorem 2** (κ_u ≥ h, λ ≤ δ·cpe): Greedy's regret is at most
  ``Σ_i (p_i B_i + λ)/2  +  λ Σ_i (1 + s_opt^i ⌈ln 1/(p_i/2 − λ/2B_i)⌉)``;
* **Theorem 3** (λ = 0): total regret ≤ ``B/3``;
* **Theorem 4** (λ = 0): total regret ≤ ``min(p_max/2, 1 − p_max) · B``
  (generalises Theorem 3 — the two meet at ``p_max = 2/3``).

``p_i`` and ``s_opt^i`` are not observable exactly; :func:`compute_bounds`
estimates them from RR-set samples (single-node revenue = CTP-weighted
coverage; ``s_opt`` = greedy seeds until the budget is reached).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.advertising.problem import AdAllocationProblem
from repro.rrset.sharded import ShardedSamplingEngine


def theorem2_bound(budgets, p_values, penalty, s_opt_values) -> float:
    """The Theorem-2 upper bound on Greedy's total regret.

    Returns ``inf`` when the Theorem-2 assumptions fail for some ad
    (``p_i/2 − λ/(2B_i) ≤ 0`` makes the logarithmic term undefined).
    """
    budgets = np.asarray(budgets, dtype=np.float64)
    p_values = np.asarray(p_values, dtype=np.float64)
    s_opts = np.asarray(s_opt_values, dtype=np.float64)
    if not budgets.shape == p_values.shape == s_opts.shape:
        raise ValueError("budgets, p_values and s_opt_values must be aligned")
    if penalty < 0:
        raise ValueError(f"penalty must be >= 0, got {penalty}")
    total = 0.0
    for b, p, s_opt in zip(budgets, p_values, s_opts):
        total += (p * b + penalty) / 2.0
        if penalty > 0:
            margin = p / 2.0 - penalty / (2.0 * b)
            if margin <= 0:
                return float("inf")
            total += penalty * (1.0 + s_opt * math.ceil(math.log(1.0 / margin)))
        else:
            total += 0.0  # the seed-regret term vanishes at λ = 0
    return float(total)


def theorem3_bound(total_budget: float) -> float:
    """Theorem 3: ``B/3`` (λ = 0, premise: such an allocation exists)."""
    return float(total_budget) / 3.0


def theorem4_bound(p_max: float, total_budget: float) -> float:
    """Theorem 4: ``min(p_max/2, 1 − p_max) · B`` (λ = 0)."""
    if not 0 < p_max < 1:
        raise ValueError(f"Theorem 4 assumes p_max in (0, 1), got {p_max}")
    return min(p_max / 2.0, 1.0 - p_max) * float(total_budget)


@dataclass(frozen=True)
class RegretBounds:
    """Estimated theorem bounds for one problem instance."""

    p_values: np.ndarray
    s_opt_values: np.ndarray
    total_budget: float
    penalty: float
    budgets: np.ndarray

    @property
    def p_max(self) -> float:
        """``max_i p_i``."""
        return float(np.max(self.p_values))

    @property
    def theorem4_applicable(self) -> bool:
        """Theorems 2–4 assume every ``p_i ∈ (0, 1)`` (§4.1 "Practical
        considerations"); instances where one seed can overshoot a whole
        budget fall outside them."""
        return bool(0.0 < self.p_max < 1.0)

    @property
    def theorem2(self) -> float:
        """Theorem-2 bound (``inf`` if its assumptions fail)."""
        return theorem2_bound(self.budgets, self.p_values, self.penalty, self.s_opt_values)

    @property
    def theorem3(self) -> float:
        """Theorem-3 bound ``B/3``."""
        return theorem3_bound(self.total_budget)

    @property
    def theorem4(self) -> float:
        """Theorem-4 bound."""
        return theorem4_bound(self.p_max, self.total_budget)

    def __repr__(self) -> str:
        return (
            f"RegretBounds(p_max={self.p_max:.4f}, theorem3={self.theorem3:.4g}, "
            f"theorem4={self.theorem4:.4g})"
        )


def compute_bounds(
    problem: AdAllocationProblem,
    *,
    rr_sets_per_ad: int = 5_000,
    seed=None,
) -> RegretBounds:
    """Estimate ``p_i`` and ``s_opt^i`` from RR-set samples.

    * ``p_i``: the largest single-node revenue ``cpe·n·δ(v)·cov(v)/θ``
      divided by ``B_i``;
    * ``s_opt^i``: seeds chosen greedily (by CTP-weighted marginal
      coverage, attention ignored — it is the *optimal* algorithm's
      count) until the estimated revenue reaches ``B_i``.
    """
    if rr_sets_per_ad < 1:
        raise ValueError("rr_sets_per_ad must be >= 1")
    h, n = problem.num_ads, problem.num_nodes
    budgets = problem.catalog.budgets()
    cpes = problem.catalog.cpes()
    p_values = np.zeros(h)
    s_opts = np.zeros(h)
    # One serial engine over all ads: one seed, per-ad streams separated
    # by the spawn key.  The greedy below consumes the shards in place.
    with ShardedSamplingEngine(
        problem.graph,
        [problem.ad_edge_probabilities(ad) for ad in range(h)],
        seeds=seed,
    ) as engine:
        engine.ensure({ad: rr_sets_per_ad for ad in range(h)})
        collections = [engine.shard(ad) for ad in range(h)]
    for ad, collection in enumerate(collections):
        theta = collection.num_total
        delta = problem.ad_ctps(ad)
        weight = cpes[ad] * n / theta
        single_revenues = weight * delta * collection.coverage()
        p_values[ad] = float(single_revenues.max()) / budgets[ad]
        # Greedy until budget: marginal revenue of the best remaining node.
        revenue = 0.0
        count = 0
        while revenue < budgets[ad] and count < n:
            scores = delta * collection.coverage()
            best = int(np.argmax(scores))
            if scores[best] <= 0:
                break
            gain = weight * scores[best]
            collection.remove_covered(best)
            revenue += gain
            count += 1
        s_opts[ad] = count
    return RegretBounds(
        p_values=p_values,
        s_opt_values=s_opts,
        total_budget=problem.catalog.total_budget(),
        penalty=problem.penalty,
        budgets=budgets,
    )
