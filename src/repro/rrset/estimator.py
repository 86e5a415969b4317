"""Spread estimation from sampled sets (Proposition 1 / Lemma 2).

For a pool ``R`` of random RR-sets, ``n · F_R(S)`` — where ``F_R(S)``
is the fraction of sets intersecting ``S`` — is an unbiased estimator of
the IC spread ``σ_ic(S)``; with RRC-sets it estimates the IC-CTP spread
``σ_icctp(S)`` instead (Lemma 2).  The :class:`RRSetSpreadOracle` wraps
the latter as a drop-in oracle for the Greedy allocator; its sets come
out of one serial sharded engine, like every other sample in
:mod:`repro.rrset`.
"""

from __future__ import annotations

import numpy as np

from repro.advertising.problem import AdAllocationProblem
from repro.diffusion.spread import CachingSpreadOracle
from repro.errors import EstimationError
from repro.rrset.pool import RRSetPool
from repro.rrset.rrc import thin_shard
from repro.rrset.sharded import ShardedSamplingEngine


def coverage_fraction(sets: RRSetPool, seeds) -> float:
    """``F_R(S)``: the fraction of the pool's sets that intersect
    ``seeds``, counted over *all* sampled sets (alive or removed) with
    one vectorized index query — so a pool that has been through
    ``remove_covered`` still estimates over its whole sample."""
    if not sets.num_total:
        raise EstimationError("cannot estimate coverage from zero sets")
    return sets.coverage_of_set(seeds, alive_only=False) / sets.num_total


def estimate_spread_from_sets(sets: RRSetPool, num_nodes: int, seeds) -> float:
    """``n · F_R(S)`` — the Proposition-1 / Lemma-2 estimator."""
    return num_nodes * coverage_fraction(sets, seeds)


class RRSetSpreadOracle(CachingSpreadOracle):
    """Greedy-compatible oracle backed by per-ad RRC-set samples.

    RRC-sets estimate the IC-CTP spread directly (Lemma 2), so arbitrary
    seed sets can be scored without the marginal-gain trick of Theorem 5.
    The §5.2 caveat applies: with CTPs in the 1–3% range, many more
    RRC-sets than RR-sets are needed for the same accuracy — this oracle
    is intended for the AB1 ablation and moderate-scale Greedy runs, not
    as a TIRM replacement.

    Every ad's RR-sets are drawn by one serial engine under ``seed``
    (per-ad streams separated by the spawn key) and, with ``use_ctps``,
    thinned into RRC-sets (:func:`~repro.rrset.rrc.thin_shard`).
    """

    def __init__(
        self,
        problem: AdAllocationProblem,
        *,
        sets_per_ad: int = 20_000,
        use_ctps: bool = True,
        seed=None,
    ) -> None:
        super().__init__(problem)
        if sets_per_ad < 1:
            raise ValueError("sets_per_ad must be >= 1")
        self.sets_per_ad = int(sets_per_ad)
        self.use_ctps = bool(use_ctps)
        ads = range(problem.num_ads)
        with ShardedSamplingEngine(
            problem.graph,
            [problem.ad_edge_probabilities(ad) for ad in ads],
            seeds=seed,
        ) as engine:
            engine.ensure({ad: self.sets_per_ad for ad in ads})
            self._sets: list[RRSetPool] = [
                thin_shard(engine, ad, problem.ad_ctps(ad)) if use_ctps
                else engine.shard(ad)
                for ad in ads
            ]

    def _compute(self, ad: int, seeds: frozenset[int]) -> float:
        if not seeds:
            return 0.0
        return estimate_spread_from_sets(
            self._sets[ad], self.problem.num_nodes, np.fromiter(seeds, dtype=np.int64)
        )
