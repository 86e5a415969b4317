"""Theorem 2/3/4 bounds."""

import numpy as np
import pytest

from repro.algorithms.bounds import (
    compute_bounds,
    theorem2_bound,
    theorem3_bound,
    theorem4_bound,
)
from repro.datasets.toy import figure1_problem
from repro.rrset.sharded import ShardedSamplingEngine


class TestTheorem4:
    def test_meets_theorem3_at_two_thirds(self):
        """The paper notes p_max/2 and 1 − p_max meet at 1/3 when
        p_max = 2/3."""
        assert theorem4_bound(2.0 / 3.0, 9.0) == pytest.approx(theorem3_bound(9.0))

    def test_small_pmax_tightens(self):
        assert theorem4_bound(0.1, 100.0) == pytest.approx(5.0)

    def test_large_pmax_uses_other_branch(self):
        assert theorem4_bound(0.9, 100.0) == pytest.approx(10.0)

    def test_validates_pmax(self):
        with pytest.raises(ValueError):
            theorem4_bound(0.0, 10.0)
        with pytest.raises(ValueError):
            theorem4_bound(1.0, 10.0)


class TestTheorem2:
    def test_lambda_zero_reduces_to_half_sum(self):
        bound = theorem2_bound([10.0, 20.0], [0.2, 0.1], 0.0, [5, 5])
        assert bound == pytest.approx((0.2 * 10 + 0.1 * 20) / 2.0)

    def test_positive_lambda_adds_seed_term(self):
        without = theorem2_bound([10.0], [0.4], 0.0, [3])
        with_pen = theorem2_bound([10.0], [0.4], 0.1, [3])
        assert with_pen > without

    def test_violated_assumption_gives_inf(self):
        # p/2 - λ/(2B) <= 0  ->  inf
        assert theorem2_bound([10.0], [0.01], 1.0, [3]) == float("inf")

    def test_misaligned_shapes(self):
        with pytest.raises(ValueError):
            theorem2_bound([1.0, 2.0], [0.1], 0.0, [1, 2])

    def test_negative_penalty(self):
        with pytest.raises(ValueError):
            theorem2_bound([1.0], [0.1], -0.1, [1])


class TestComputeBounds:
    def test_on_figure1(self):
        problem = figure1_problem()
        bounds = compute_bounds(problem, rr_sets_per_ad=4_000, seed=1)
        assert bounds.p_values.shape == (4,)
        assert np.all(bounds.p_values > 0)
        assert bounds.total_budget == pytest.approx(9.0)
        assert bounds.theorem3 == pytest.approx(3.0)
        # Ad d (budget 1, δ=0.6) can overshoot with a single seed, so the
        # gadget violates the p_i < 1 assumption: theorem4 must refuse.
        assert not bounds.theorem4_applicable
        with pytest.raises(ValueError):
            _ = bounds.theorem4

    def test_theorem4_applicable_on_big_budget_variant(self):
        """Scaling all budgets up by 4x brings every p_i below 1."""
        from repro.advertising.advertiser import Advertiser
        from repro.advertising.catalog import AdCatalog
        from repro.advertising.problem import AdAllocationProblem

        base = figure1_problem()
        catalog = AdCatalog(
            [
                Advertiser(name=ad.name, budget=ad.budget * 4, cpe=ad.cpe)
                for ad in base.catalog
            ]
        )
        problem = AdAllocationProblem(
            base.graph, catalog, base.edge_probabilities, base.ctps, base.attention
        )
        bounds = compute_bounds(problem, rr_sets_per_ad=4_000, seed=1)
        assert bounds.theorem4_applicable
        assert 0 < bounds.theorem4 <= bounds.theorem3 + 1e-9

    def test_s_opt_reasonable(self):
        """Ad a (budget 4): a handful of seeds suffice on the gadget."""
        problem = figure1_problem()
        bounds = compute_bounds(problem, rr_sets_per_ad=4_000, seed=2)
        assert 1 <= bounds.s_opt_values[0] <= 6

    def test_seeded_run_replays_the_engines_streams(self):
        """Same seed, same bounds — and ``p_i`` is the best single-node
        revenue on the sets any engine re-derives from that seed."""
        problem = figure1_problem()
        theta, n, h = 1_500, problem.num_nodes, problem.num_ads
        bounds = compute_bounds(problem, rr_sets_per_ad=theta, seed=3)
        again = compute_bounds(problem, rr_sets_per_ad=theta, seed=3)
        assert bounds.p_values.tolist() == again.p_values.tolist()
        assert bounds.s_opt_values.tolist() == again.s_opt_values.tolist()
        budgets, cpes = problem.catalog.budgets(), problem.catalog.cpes()
        with ShardedSamplingEngine(
            problem.graph,
            [problem.ad_edge_probabilities(ad) for ad in range(h)],
            seeds=3,
        ) as engine:
            engine.ensure({ad: theta for ad in range(h)})
            for ad in range(h):
                revenues = (
                    cpes[ad] * n / theta * problem.ad_ctps(ad)
                    * engine.shard(ad).coverage()
                )
                assert bounds.p_values[ad] == revenues.max() / budgets[ad]

    def test_validates_rr_sets(self):
        with pytest.raises(ValueError):
            compute_bounds(figure1_problem(), rr_sets_per_ad=0)
