"""Exact enumeration: hand-computable cases, the Fig.-1 numbers, Lemma 1,
and the shipped oracle against the per-world reference enumerator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets.toy import (
    PAPER_EXPECTED_CLICKS_A,
    PAPER_EXPECTED_CLICKS_B,
    figure1_allocation_a,
    figure1_allocation_b,
    figure1_problem,
)
from repro.diffusion.exact import WORLD_BLOCK, exact_click_probabilities, exact_spread
from repro.diffusion.ic import estimate_spread
from repro.graph.digraph import DirectedGraph
from repro.topics.distribution import TopicDistribution
from repro.topics.model import TopicModel
from tests.diffusion import _reference_exact as reference


class TestHandComputable:
    def test_single_edge(self):
        g = DirectedGraph.from_edges([(0, 1)])
        # seed 0 always clicks; 1 clicks iff the 0.3-edge fires
        assert exact_spread(g, [0.3], [0]) == pytest.approx(1.3)

    def test_ctp_scales_everything(self):
        g = DirectedGraph.from_edges([(0, 1)])
        # 0 clicks w.p. 0.5; 1 clicks w.p. 0.5*0.3
        assert exact_spread(g, [0.3], [0], ctps=[0.5, 1.0]) == pytest.approx(0.5 + 0.15)

    def test_failed_seed_still_activatable(self):
        """A seed whose CTP coin fails can be activated by a neighbor —
        the TIC-CTP semantics behind Allocation A's v3 computation."""
        g = DirectedGraph.from_edges([(0, 1)])
        # Seeds {0, 1}, delta = (1.0, 0.5), edge 1.0:
        # node1 clicks unless its own coin fails AND ... edge always fires
        # so node 1 clicks w.p. 1 - (1-0.5)*(1-1.0*1.0) = 1.0
        assert exact_spread(g, [1.0], [0, 1], ctps=[1.0, 0.5]) == pytest.approx(2.0)

    def test_diamond_convergent_paths(self, diamond_graph):
        # p=1 everywhere: everything is reached
        assert exact_spread(diamond_graph, np.ones(4), [0]) == pytest.approx(4.0)
        # p=0.5: node3 active w.p. 1-(1-0.25)... two indep paths of prob .25
        p = exact_click_probabilities(diamond_graph, np.full(4, 0.5), [0])
        assert p[0] == pytest.approx(1.0)
        assert p[1] == pytest.approx(0.5)
        assert p[3] == pytest.approx(1 - (1 - 0.25) ** 2)

    def test_empty_seeds(self, diamond_graph):
        assert exact_spread(diamond_graph, np.full(4, 0.5), []) == 0.0

    def test_monotone_in_seeds(self, diamond_graph):
        probs = np.full(4, 0.4)
        s1 = exact_spread(diamond_graph, probs, [1])
        s2 = exact_spread(diamond_graph, probs, [1, 2])
        assert s2 >= s1

    def test_submodular_on_diamond(self, diamond_graph):
        """σ(S∪{x}) − σ(S) shrinks as S grows (Lemma 1 corollary)."""
        probs = np.full(4, 0.6)
        gain_small = exact_spread(diamond_graph, probs, [1, 0]) - exact_spread(
            diamond_graph, probs, [1]
        )
        gain_large = exact_spread(diamond_graph, probs, [1, 2, 0]) - exact_spread(
            diamond_graph, probs, [1, 2]
        )
        assert gain_large <= gain_small + 1e-12

    def test_edge_limit_guard(self):
        g = DirectedGraph.from_edges([(0, i) for i in range(1, 22)])
        with pytest.raises(ValueError, match="at most"):
            exact_spread(g, np.full(21, 0.5), [0])

    def test_certain_edges_are_not_enumerated(self):
        """The guard counts only edges with 0 < p < 1: 21 edges at p = 0
        or p = 1 form one world, whose spread is the deterministic reach."""
        g = DirectedGraph.from_edges([(i, i + 1) for i in range(21)])
        probs = np.ones(21)
        probs[[5, 12]] = 0.0
        # 0..5 reached from 0; 9..12 from 9; 13..21 cut off from both
        assert exact_spread(g, probs, [0, 9]) == 10.0
        clicks = exact_click_probabilities(g, probs, [0, 9])
        assert clicks.tolist() == [1.0] * 6 + [0.0] * 3 + [1.0] * 4 + [0.0] * 9

    @pytest.mark.parametrize("seeds", [[-1], [0, 4]])
    def test_seed_out_of_range(self, diamond_graph, seeds):
        with pytest.raises(ValueError, match="seeds"):
            exact_spread(diamond_graph, np.full(4, 0.5), seeds)

    @pytest.mark.parametrize("bad", [1.7, np.nan])
    def test_ctps_must_be_probabilities(self, diamond_graph, bad):
        with pytest.raises(ValueError, match="ctps"):
            exact_spread(diamond_graph, np.full(4, 0.5), [0], ctps=[bad, 1, 1, 1])


class TestFigure1:
    """The paper's Fig. 1 numbers (independence-approximated, rounded to
    two decimals) against exact possible-world enumeration."""

    def test_allocation_a_expected_clicks(self):
        problem = figure1_problem()
        alloc = figure1_allocation_a()
        total = sum(
            exact_spread(
                problem.graph,
                problem.ad_edge_probabilities(i),
                alloc.seed_array(i),
                ctps=problem.ad_ctps(i),
            )
            for i in range(problem.num_ads)
        )
        assert total == pytest.approx(PAPER_EXPECTED_CLICKS_A, abs=0.05)

    def test_allocation_b_expected_clicks(self):
        problem = figure1_problem()
        alloc = figure1_allocation_b()
        total = sum(
            exact_spread(
                problem.graph,
                problem.ad_edge_probabilities(i),
                alloc.seed_array(i),
                ctps=problem.ad_ctps(i),
            )
            for i in range(problem.num_ads)
        )
        assert total == pytest.approx(PAPER_EXPECTED_CLICKS_B, abs=0.05)

    def test_allocation_a_node_probabilities(self):
        """Spot-check the per-node click probabilities of Fig. 1's
        Allocation A (paper values, rounded)."""
        problem = figure1_problem()
        clicks = exact_click_probabilities(
            problem.graph,
            problem.ad_edge_probabilities(0),
            np.arange(6),
            ctps=problem.ad_ctps(0),
        )
        assert clicks[0] == pytest.approx(0.9)
        assert clicks[1] == pytest.approx(0.9)
        assert clicks[2] == pytest.approx(0.93, abs=0.005)
        assert clicks[3] == pytest.approx(0.95, abs=0.005)
        assert clicks[5] == pytest.approx(0.92, abs=0.01)

    def test_allocation_b_ad_a_nodes(self):
        """Allocation B, ad a seeded at {v1, v2}: v3 clicks w.p. 0.33."""
        problem = figure1_problem()
        clicks = exact_click_probabilities(
            problem.graph,
            problem.ad_edge_probabilities(0),
            [0, 1],
            ctps=problem.ad_ctps(0),
        )
        assert clicks[2] == pytest.approx(1 - (1 - 0.18) ** 2, abs=1e-9)


@st.composite
def gadgets(draw):
    """A graph of ≤ 10 edges over ≤ 6 nodes whose edges sit at p = 0,
    p = 1 or in between, optional CTPs, and a possibly empty seed set."""
    n = draw(st.integers(1, 6))
    edges = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                lambda e: e[0] != e[1]
            ),
            max_size=10,
            unique=True,
        )
    )
    graph = DirectedGraph.from_edges(edges, num_nodes=n)
    probability = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
    probs = np.asarray(draw(st.lists(probability, min_size=len(edges), max_size=len(edges))))
    ctps = draw(st.none() | st.lists(probability, min_size=n, max_size=n))
    seeds = draw(st.lists(st.integers(0, n - 1), max_size=4, unique=True))
    return graph, probs, seeds, ctps


class TestAgainstReference:
    """The shipped oracle enumerates only the uncertain edges, a block of
    worlds at a time; the reference walks all ``2^m`` worlds one by one.
    Their sums run in a different order, so they agree to 1e-12."""

    @given(gadgets())
    @settings(max_examples=80, deadline=None)
    def test_matches_reference(self, case):
        graph, probs, seeds, ctps = case
        got = exact_click_probabilities(graph, probs, seeds, ctps=ctps)
        want = reference.exact_click_probabilities(graph, probs, seeds, ctps=ctps)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_several_blocks(self):
        """14 uncertain edges are four blocks of worlds."""
        rng = np.random.default_rng(5)
        edges = [(i, i + 1) for i in range(9)] + [(0, 3), (2, 6), (4, 1), (8, 2), (5, 9)]
        graph = DirectedGraph.from_edges(edges)
        probs = rng.uniform(0.05, 0.95, size=14)
        ctps = rng.uniform(0.2, 1.0, size=10)
        assert 1 << 14 > WORLD_BLOCK
        got = exact_click_probabilities(graph, probs, [0, 7], ctps=ctps)
        want = reference.exact_click_probabilities(graph, probs, [0, 7], ctps=ctps)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


@pytest.fixture
def model(diamond_graph):
    edge_probs = np.asarray([[0.8] * 4, [0.2] * 4])
    seed_probs = np.asarray([[0.9] * 4, [0.3] * 4])
    return TopicModel(diamond_graph, edge_probs, seed_probs)


def test_matches_exact_after_collapse(model, diamond_graph):
    """TIC-CTP for one ad is IC-with-CTP over the Eq.-(1) mixed edge
    probabilities and the topic-derived CTPs; Monte Carlo on the collapse
    agrees with exact enumeration."""
    gamma = TopicDistribution([0.5, 0.5])
    edge_probs = model.ad_edge_probabilities(gamma)
    ctps = model.ad_ctps(gamma)
    exact = exact_spread(diamond_graph, edge_probs, [0], ctps=ctps)
    estimate = estimate_spread(
        model.graph, edge_probs, [0], ctps=ctps, num_runs=4000, seed=1
    )
    assert estimate.mean == pytest.approx(exact, abs=4 * estimate.std_error + 0.03)


def test_lemma1_marginal_identity(model, diamond_graph):
    """Lemma 1: δ(u,i)·[σ_ic(S∪u) − σ_ic(S)] = σ_i(S∪u) − σ_i(S) when the
    seeds of S click deterministically.

    The identity is exact when nodes of S have CTP 1 (the case the
    paper's possible-world argument covers); we verify that form.
    """
    gamma = TopicDistribution.point(2, 0)
    edge_probs = model.ad_edge_probabilities(gamma)
    n = diamond_graph.num_nodes
    u, seeds = 1, [0]
    delta_u = 0.35
    ctps = np.ones(n)
    ctps[u] = delta_u
    ic_gain = exact_spread(diamond_graph, edge_probs, seeds + [u]) - exact_spread(
        diamond_graph, edge_probs, seeds
    )
    ctp_gain = exact_spread(
        diamond_graph, edge_probs, seeds + [u], ctps=ctps
    ) - exact_spread(diamond_graph, edge_probs, seeds, ctps=ctps)
    assert ctp_gain == pytest.approx(delta_u * ic_gain, rel=1e-9)
