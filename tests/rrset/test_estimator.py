"""Coverage-fraction spread estimation and the RRC oracle."""

import pytest

from repro.diffusion.exact import exact_spread
from repro.errors import EstimationError
from repro.rrset.estimator import (
    RRSetSpreadOracle,
    coverage_fraction,
    estimate_spread_from_sets,
)
from repro.rrset.pool import RRSetPool

from tests.rrset._pool_helpers import pool_of


def _sets(*members):
    return pool_of(members, 5)


class TestCoverageFraction:
    def test_basic(self):
        sets = _sets([0, 1], [2], [1, 3])
        assert coverage_fraction(sets, [1]) == pytest.approx(2 / 3)
        assert coverage_fraction(sets, [0, 2]) == pytest.approx(2 / 3)
        assert coverage_fraction(sets, [4]) == 0.0

    def test_empty_seed_set(self):
        assert coverage_fraction(_sets([0]), []) == 0.0

    def test_no_sets_raises(self):
        with pytest.raises(EstimationError):
            coverage_fraction(RRSetPool(5), [0])

    def test_estimate_scales_by_n(self):
        sets = _sets([0], [1])
        assert estimate_spread_from_sets(sets, 10, [0]) == pytest.approx(5.0)


class TestRRSetSpreadOracle:
    def test_close_to_exact_ctp_spread(self, two_ad_problem):
        oracle = RRSetSpreadOracle(two_ad_problem, sets_per_ad=40_000, seed=1)
        for ad in range(2):
            seeds = frozenset({0, 1})
            exact = exact_spread(
                two_ad_problem.graph,
                two_ad_problem.ad_edge_probabilities(ad),
                [0, 1],
                ctps=two_ad_problem.ad_ctps(ad),
            )
            assert oracle.spread(ad, seeds) == pytest.approx(exact, rel=0.1, abs=0.05)

    def test_without_ctps_estimates_ic_spread(self, two_ad_problem):
        oracle = RRSetSpreadOracle(
            two_ad_problem, sets_per_ad=30_000, use_ctps=False, seed=2
        )
        exact = exact_spread(
            two_ad_problem.graph, two_ad_problem.ad_edge_probabilities(0), [0]
        )
        assert oracle.spread(0, frozenset({0})) == pytest.approx(exact, rel=0.1)

    def test_empty_is_zero(self, two_ad_problem):
        oracle = RRSetSpreadOracle(two_ad_problem, sets_per_ad=100, seed=3)
        assert oracle.spread(0, frozenset()) == 0.0

    def test_validates_sets_per_ad(self, two_ad_problem):
        with pytest.raises(ValueError):
            RRSetSpreadOracle(two_ad_problem, sets_per_ad=0)

    def test_counts_removed_sets_too(self):
        """``F_R(S)`` is over the whole sample, not the alive sets."""
        pool = _sets([0, 1], [2], [1, 3])
        pool.remove_covered(1)
        assert coverage_fraction(pool, [3]) == pytest.approx(1 / 3)

    def test_same_seed_same_oracle(self, two_ad_problem):
        """The oracle's sets are addressed by ``(seed, ad, set_index)``."""
        seeds = frozenset({0, 2})
        a = RRSetSpreadOracle(two_ad_problem, sets_per_ad=500, seed=4)
        b = RRSetSpreadOracle(two_ad_problem, sets_per_ad=500, seed=4)
        assert [a.spread(ad, seeds) for ad in range(2)] == [
            b.spread(ad, seeds) for ad in range(2)
        ]
