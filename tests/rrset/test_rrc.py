"""RRC-sets: thinned engine RR-sets, Lemma 2 unbiasedness and the
Theorem-5 equivalence."""

import numpy as np
import pytest

from repro.diffusion.exact import exact_spread
from repro.graph.digraph import DirectedGraph
from repro.graph.probabilities import constant_probabilities
from repro.rrset.estimator import estimate_spread_from_sets
from repro.rrset.rrc import sample_rrc_sets
from repro.rrset.sharded import ShardedSamplingEngine


def _rows(pool):
    """A pool's packed ``(members, lengths)`` bytes, comparable with ``==``."""
    view = pool.prefix_view()
    return view.members.tobytes(), np.diff(view.indptr).tobytes()


def _rr_pool(graph, probs, count, seed):
    with ShardedSamplingEngine(graph, [probs], seeds=seed) as engine:
        engine.ensure({0: count})
        return engine.shard(0)


class TestStructure:
    def test_zero_ctp_gives_empty_sets(self, small_random_graph):
        probs = constant_probabilities(small_random_graph, 0.3)
        pool = sample_rrc_sets(
            small_random_graph, probs, np.zeros(small_random_graph.num_nodes),
            1_500, seed=1,
        )
        assert pool.num_total == 1_500
        assert pool.prefix_view().members.size == 0

    def test_unit_ctp_equals_rr_set(self, small_random_graph):
        """With all CTPs 1, thinning keeps every member: the RRC rows are
        the engine's RR rows byte for byte (across a chunk boundary)."""
        probs = constant_probabilities(small_random_graph, 0.3)
        ones = np.ones(small_random_graph.num_nodes)
        rrc = sample_rrc_sets(small_random_graph, probs, ones, 1_500, seed=5)
        rr = _rr_pool(small_random_graph, probs, 1_500, seed=5)
        assert _rows(rrc) == _rows(rr)

    def test_thinned_rows_are_subsets_of_the_rr_rows(self, small_random_graph):
        probs = constant_probabilities(small_random_graph, 0.3)
        delta = np.full(small_random_graph.num_nodes, 0.5)
        rrc = sample_rrc_sets(small_random_graph, probs, delta, 300, seed=6)
        rr = _rr_pool(small_random_graph, probs, 300, seed=6)
        assert any(rrc.get_set(i).size < rr.get_set(i).size for i in range(300))
        for i in range(300):
            assert set(rrc.get_set(i).tolist()) <= set(rr.get_set(i).tolist())

    def test_same_seed_same_bytes(self, small_random_graph):
        probs = constant_probabilities(small_random_graph, 0.3)
        delta = np.full(small_random_graph.num_nodes, 0.4)
        a = sample_rrc_sets(small_random_graph, probs, delta, 700, seed=3)
        b = sample_rrc_sets(small_random_graph, probs, delta, 700, seed=3)
        c = sample_rrc_sets(small_random_graph, probs, delta, 700, seed=4)
        assert _rows(a) == _rows(b)
        assert _rows(a) != _rows(c)

    def test_shorter_sample_is_a_prefix(self, small_random_graph):
        """An RRC-set is addressed by ``(seed, ad, set_index)``: its
        coins do not depend on how many sets were asked for."""
        probs = constant_probabilities(small_random_graph, 0.3)
        delta = np.full(small_random_graph.num_nodes, 0.4)
        short = sample_rrc_sets(small_random_graph, probs, delta, 100, seed=8)
        long = sample_rrc_sets(small_random_graph, probs, delta, 300, seed=8)
        view = long.prefix_view(100)
        assert _rows(short) == (
            view.members.tobytes(), np.diff(view.indptr).tobytes()
        )

    def test_validation(self, line_graph):
        with pytest.raises(ValueError):
            sample_rrc_sets(line_graph, np.ones(2), np.ones(4), 1)
        with pytest.raises(ValueError):
            sample_rrc_sets(line_graph, np.ones(3), np.ones(3), 1)
        with pytest.raises(ValueError):
            sample_rrc_sets(line_graph, np.ones(3), np.ones(4), -2)


class TestLemma2:
    """``n · F_Q(S)`` is unbiased for the IC-CTP spread σ_icctp(S)."""

    def test_matches_exact_with_ctps(self, diamond_graph):
        probs = np.full(4, 0.5)
        ctps = np.asarray([0.6, 0.3, 0.8, 0.5])
        seeds = [0, 2]
        exact = exact_spread(diamond_graph, probs, seeds, ctps=ctps)
        sets = sample_rrc_sets(diamond_graph, probs, ctps, 40_000, seed=1)
        estimate = estimate_spread_from_sets(sets, diamond_graph.num_nodes, seeds)
        assert estimate == pytest.approx(exact, rel=0.08)

    def test_blocked_node_traversal_matters(self):
        """A middle node with CTP 0 can never be a seed but must still
        relay reachability: seeding its parent still activates the root."""
        g = DirectedGraph.from_edges([(0, 1), (1, 2)])
        probs = np.ones(2)
        ctps = np.asarray([1.0, 0.0, 1.0])
        sets = sample_rrc_sets(g, probs, ctps, 6_000, seed=2)
        estimate = estimate_spread_from_sets(sets, 3, [0])
        # exact: 0 clicks (1.0), 1 never clicks itself... it relays but
        # cannot click -> wait, relaying means 2 becomes active: spread =
        # node0 (1.0) + node1 (activated via edge but CTP only gates
        # seeding, influence activates it: 1.0) + node2 (1.0) = 3.
        exact = exact_spread(g, probs, [0], ctps=ctps)
        assert estimate == pytest.approx(exact, rel=0.08)


class TestTheorem5:
    """δ(u)·(E F_R(S∪u) − E F_R(S)) ≈ E F_Q(S∪u) − E F_Q(S).

    The identity is exact for S = ∅ and approximate otherwise (the
    paper's proof treats already-chosen seeds as deterministic); we test
    the exact singleton case statistically.
    """

    def test_singleton_marginal(self, diamond_graph):
        probs = np.full(4, 0.5)
        delta = np.asarray([0.4, 0.7, 0.2, 0.9])
        u = 0
        rr = _rr_pool(diamond_graph, probs, 30_000, seed=3)
        rrc = sample_rrc_sets(diamond_graph, probs, delta, 30_000, seed=4)
        f_rr = rr.coverage_of(u) / rr.num_total
        f_rrc = rrc.coverage_of(u) / rrc.num_total
        assert delta[u] * f_rr == pytest.approx(f_rrc, rel=0.1, abs=0.01)
