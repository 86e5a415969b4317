"""Monte-Carlo IC / TIC-CTP simulation."""

import numpy as np
import pytest

from repro.diffusion.exact import exact_spread
from repro.diffusion.ic import estimate_spread, simulate_clicks
from repro.graph.digraph import DirectedGraph
from repro.graph.generators import erdos_renyi
from repro.graph.probabilities import constant_probabilities

from tests.diffusion._reference_ic import gather_edge_slots


def _reference_simulate_clicks(graph, probs, seeds, ctps, rng):
    """The boolean cascade loop ``simulate_clicks`` ran before it became
    ``simulate_rounds(...) >= 0``, verbatim."""
    seeds = np.unique(np.asarray(seeds, dtype=np.int64))
    active = np.zeros(graph.num_nodes, dtype=bool)
    if seeds.size == 0:
        return active
    if ctps is None:
        accepted = seeds
    else:
        ctps = np.asarray(ctps, dtype=np.float64)
        accepted = seeds[rng.random(seeds.size) < ctps[seeds]]
    if accepted.size == 0:
        return active
    active[accepted] = True
    frontier = accepted
    while frontier.size:
        slots = gather_edge_slots(graph.out_indptr, frontier)
        if slots.size == 0:
            break
        success = rng.random(slots.size) < probs[slots]
        targets = graph.out_targets[slots[success]]
        fresh = np.unique(targets[~active[targets]])
        active[fresh] = True
        frontier = fresh
    return active


class TestSimulateClicks:
    def test_deterministic_probabilities(self, line_graph):
        active = simulate_clicks(line_graph, np.ones(3), [0], rng=0)
        assert active.all()
        active = simulate_clicks(line_graph, np.zeros(3), [0], rng=0)
        assert active.tolist() == [True, False, False, False]

    def test_no_seeds(self, line_graph):
        active = simulate_clicks(line_graph, np.ones(3), [], rng=0)
        assert not active.any()

    def test_seed_ctp_zero_never_starts(self, line_graph):
        active = simulate_clicks(
            line_graph, np.ones(3), [0], ctps=np.zeros(4), rng=0
        )
        assert not active.any()

    def test_failed_seed_activated_via_influence(self):
        """Seed 1's coin always fails but edge 0→1 always fires."""
        g = DirectedGraph.from_edges([(0, 1)])
        ctps = np.asarray([1.0, 0.0])
        active = simulate_clicks(g, np.ones(1), [0, 1], ctps=ctps, rng=0)
        assert active.tolist() == [True, True]

    def test_duplicate_seeds_collapse(self, line_graph):
        a = simulate_clicks(line_graph, np.ones(3), [0, 0], rng=5)
        b = simulate_clicks(line_graph, np.ones(3), [0], rng=5)
        assert np.array_equal(a, b)

    def test_shape_validation(self, line_graph):
        with pytest.raises(ValueError):
            simulate_clicks(line_graph, np.ones(2), [0])

    @pytest.mark.parametrize("p", [0.0, 0.15, 0.5, 1.0])
    @pytest.mark.parametrize("seeds", [[], [0], [3, 3, 17], list(range(0, 40, 7))])
    @pytest.mark.parametrize("ctp", [None, 0.0, 0.3, 1.0])
    def test_equals_the_boolean_loop(self, p, seeds, ctp):
        """Same vector, same generator state after the call: the
        Monte-Carlo referee's numbers do not depend on which loop ran."""
        graph = erdos_renyi(40, 0.08, seed=11)
        probs = constant_probabilities(graph, p)
        ctps = None if ctp is None else np.full(graph.num_nodes, ctp)
        for run in range(5):
            expected_rng = np.random.default_rng(run)
            actual_rng = np.random.default_rng(run)
            expected = _reference_simulate_clicks(graph, probs, seeds, ctps, expected_rng)
            actual = simulate_clicks(graph, probs, seeds, ctps=ctps, rng=actual_rng)
            assert actual.dtype == np.bool_
            assert np.array_equal(actual, expected)
            assert actual_rng.bit_generator.state == expected_rng.bit_generator.state


class TestEstimateSpread:
    def test_agrees_with_exact_no_ctp(self, diamond_graph):
        probs = np.full(4, 0.5)
        exact = exact_spread(diamond_graph, probs, [0])
        estimate = estimate_spread(diamond_graph, probs, [0], num_runs=4000, seed=1)
        assert estimate.mean == pytest.approx(exact, abs=4 * estimate.std_error + 0.02)

    def test_agrees_with_exact_with_ctp(self, diamond_graph):
        probs = np.full(4, 0.6)
        ctps = np.asarray([0.5, 0.9, 0.2, 0.7])
        exact = exact_spread(diamond_graph, probs, [0, 2], ctps=ctps)
        estimate = estimate_spread(
            diamond_graph, probs, [0, 2], ctps=ctps, num_runs=4000, seed=2
        )
        assert estimate.mean == pytest.approx(exact, abs=4 * estimate.std_error + 0.02)

    def test_empty_seed_zero(self, diamond_graph):
        estimate = estimate_spread(diamond_graph, np.full(4, 0.5), [], num_runs=10)
        assert estimate.mean == 0.0
        assert estimate.std_error == 0.0

    def test_deterministic_under_seed(self, small_random_graph):
        probs = constant_probabilities(small_random_graph, 0.1)
        a = estimate_spread(small_random_graph, probs, [0, 1], num_runs=50, seed=3)
        b = estimate_spread(small_random_graph, probs, [0, 1], num_runs=50, seed=3)
        assert a.mean == b.mean

    def test_validates_num_runs(self, diamond_graph):
        with pytest.raises(ValueError):
            estimate_spread(diamond_graph, np.full(4, 0.5), [0], num_runs=0)

    def test_spread_at_least_expected_seed_clicks(self):
        g = erdos_renyi(40, 0.05, seed=4)
        probs = constant_probabilities(g, 0.1)
        ctps = np.full(40, 0.5)
        seeds = [0, 1, 2, 3]
        estimate = estimate_spread(g, probs, seeds, ctps=ctps, num_runs=800, seed=5)
        # At minimum the seeds themselves click in expectation 4 * 0.5.
        assert estimate.mean >= 4 * 0.5 - 4 * estimate.std_error

    def test_confidence_interval_contains_mean(self, diamond_graph):
        estimate = estimate_spread(diamond_graph, np.full(4, 0.5), [0], num_runs=100, seed=6)
        low, high = estimate.confidence_interval()
        assert low <= estimate.mean <= high
