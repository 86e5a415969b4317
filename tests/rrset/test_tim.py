"""TIM ingredients: Eq. (5), OPT estimation, greedy cover, full TIM."""

import math

import numpy as np
import pytest

from repro.errors import EstimationError
from repro.graph.generators import erdos_renyi, star_graph
from repro.graph.probabilities import constant_probabilities
from repro.rrset.dsan import digest_block
from repro.rrset.pool import RRSetPool
from repro.rrset.sharded import ShardedSamplingEngine
from repro.rrset.tim import (
    TIMInfluenceMaximizer,
    estimate_opt_lower_bound,
    greedy_max_coverage,
    log_binomial,
    required_rr_sets,
)

from tests.rrset._pool_helpers import pool_of


def _pilot(graph, probs, count, seed):
    """The first ``count`` RR sets of a one-ad stream, as its shard."""
    with ShardedSamplingEngine(graph, [probs], seeds=seed) as engine:
        engine.ensure({0: count})
        return engine.shard(0)


def _digest(pool) -> str:
    view = pool.prefix_view()
    return digest_block(view.members, np.diff(view.indptr))


class TestLogBinomial:
    def test_exact_small_values(self):
        assert log_binomial(5, 2) == pytest.approx(math.log(10))
        assert log_binomial(10, 0) == pytest.approx(0.0)
        assert log_binomial(10, 10) == pytest.approx(0.0)

    def test_out_of_range(self):
        assert log_binomial(3, 5) == float("-inf")
        assert log_binomial(3, -1) == float("-inf")


class TestRequiredRRSets:
    def test_eq5_formula(self):
        n, s, eps, ell, opt = 100, 3, 0.2, 1.0, 25.0
        expected = math.ceil(
            (8 + 2 * eps) * n * (ell * math.log(n) + log_binomial(n, s) + math.log(2))
            / (opt * eps**2)
        )
        assert required_rr_sets(n, s, eps, opt, ell=ell) == expected

    def test_smaller_opt_needs_more_samples(self):
        many = required_rr_sets(100, 3, 0.2, 5.0)
        few = required_rr_sets(100, 3, 0.2, 50.0)
        assert many > few

    def test_tighter_epsilon_needs_more_samples(self):
        assert required_rr_sets(100, 3, 0.1, 10.0) > required_rr_sets(100, 3, 0.3, 10.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_nodes": 0, "s": 1, "epsilon": 0.1, "opt_lower_bound": 1.0},
            {"num_nodes": 10, "s": 1, "epsilon": 0.0, "opt_lower_bound": 1.0},
            {"num_nodes": 10, "s": 1, "epsilon": 1.0, "opt_lower_bound": 1.0},
            {"num_nodes": 10, "s": 1, "epsilon": 0.1, "opt_lower_bound": 0.0},
            {"num_nodes": 10, "s": 1, "epsilon": 0.1, "opt_lower_bound": 1.0, "ell": 0.0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            required_rr_sets(**kwargs)


class TestGreedyMaxCoverage:
    def test_picks_best_cover(self):
        sets = pool_of([[0, 1], [0, 2], [0, 3], [4]], 5)
        chosen, covered = greedy_max_coverage(sets, 5, 2)
        assert chosen[0] == 0  # covers three sets
        assert covered == 4
        assert sets.num_alive == 4  # the input is never mutated

    def test_stops_when_nothing_left(self):
        chosen, covered = greedy_max_coverage(pool_of([[0]], 3), 3, 3)
        assert chosen == [0]
        assert covered == 1

    def test_k_zero(self):
        chosen, covered = greedy_max_coverage(pool_of([[0]], 2), 2, 0)
        assert chosen == []
        assert covered == 0

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            greedy_max_coverage(RRSetPool(2), 2, -1)


class TestOptEstimation:
    def test_star_graph_lower_bound(self):
        """On a star with p=1 the true OPT_1 is n; the estimator must
        lower-bound it (within sampling noise) and be ≥ 1."""
        g = star_graph(30)
        pilot = _pilot(g, constant_probabilities(g, 1.0), 2000, seed=0)
        estimate = estimate_opt_lower_bound(pilot, g.num_nodes, 1)
        assert 1.0 <= estimate <= g.num_nodes * 1.05
        # hub reaches everyone: estimate should be close to n
        assert estimate > 0.8 * g.num_nodes

    def test_floor_at_s(self):
        g = erdos_renyi(30, 0.01, seed=1)
        pilot = _pilot(g, constant_probabilities(g, 0.0), 500, seed=2)
        estimate = estimate_opt_lower_bound(pilot.prefix_view(200), g.num_nodes, 5)
        assert estimate >= 5.0
        assert pilot.num_alive == pilot.num_total == 500  # a pure function

    def test_needs_a_sample(self):
        with pytest.raises(EstimationError):
            estimate_opt_lower_bound(RRSetPool(4), 4, 1)


class TestTIM:
    def test_star_graph_selects_hub(self):
        g = star_graph(20)
        tim = TIMInfluenceMaximizer(
            g, constant_probabilities(g, 1.0), epsilon=0.2, max_rr_sets=20_000, seed=4
        )
        result = tim.select(1)
        assert result.seeds == [0]
        assert result.estimated_spread == pytest.approx(21, rel=0.1)

    def test_seed_count_respected(self, small_random_graph):
        probs = constant_probabilities(small_random_graph, 0.1)
        tim = TIMInfluenceMaximizer(
            small_random_graph, probs, epsilon=0.3, max_rr_sets=5_000, seed=5
        )
        result = tim.select(4)
        assert len(result.seeds) <= 4
        assert result.num_rr_sets <= 5_000

    def test_seeded_run_replays_the_engines_stream(self, small_random_graph):
        """Same seed, same answer — and the sets behind it are the
        addressable ``(seed, ad 0, set_index)`` ones any engine re-derives."""
        probs = constant_probabilities(small_random_graph, 0.1)

        def run():
            tim = TIMInfluenceMaximizer(
                small_random_graph, probs, epsilon=0.3, max_rr_sets=5_000, seed=5
            )
            return tim, tim.select(3)

        (tim, first), (_, second) = run(), run()
        assert first == second
        fresh = _pilot(small_random_graph, probs, first.num_rr_sets, seed=5)
        assert _digest(tim._engine.shard(0)) == _digest(fresh)

    def test_k_validation(self, small_random_graph):
        probs = constant_probabilities(small_random_graph, 0.1)
        tim = TIMInfluenceMaximizer(small_random_graph, probs, seed=6)
        with pytest.raises(ValueError):
            tim.select(0)
