"""Hypothesis property tests on the core mathematical invariants.

These cover the submodularity/monotonicity structure that every
approximation argument in the paper leans on, plus estimator coherence
between the independent evaluation paths (exact enumeration, Monte
Carlo, RR-set coverage).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.diffusion.exact import exact_click_probabilities, exact_spread
from repro.graph.digraph import DirectedGraph
from repro.rrset.backends import NumpyBackend
from repro.rrset.pool import RRSetPool


def tiny_graphs():
    """Graphs with ≤ 12 edges over ≤ 7 nodes (exact-enumerable)."""
    return st.lists(
        st.tuples(st.integers(0, 6), st.integers(0, 6)).filter(lambda e: e[0] != e[1]),
        max_size=12,
        unique=True,
    ).map(lambda edges: DirectedGraph.from_edges(edges, num_nodes=7))


@st.composite
def graph_probs_seeds(draw):
    graph = draw(tiny_graphs())
    probs = draw(
        st.lists(
            st.floats(0.0, 1.0), min_size=graph.num_edges, max_size=graph.num_edges
        )
    )
    seeds = draw(st.lists(st.integers(0, 6), max_size=4, unique=True))
    extra = draw(st.integers(0, 6))
    return graph, np.asarray(probs), seeds, extra


class TestSpreadStructure:
    @given(graph_probs_seeds())
    @settings(max_examples=40, deadline=None)
    def test_monotone(self, case):
        """σ(S) ≤ σ(S ∪ {x}) — the monotonicity behind footnote 3."""
        graph, probs, seeds, extra = case
        base = exact_spread(graph, probs, seeds)
        grown = exact_spread(graph, probs, sorted(set(seeds) | {extra}))
        assert grown >= base - 1e-9

    @given(graph_probs_seeds(), st.integers(0, 6))
    @settings(max_examples=40, deadline=None)
    def test_submodular(self, case, w):
        """σ(S∪{w}) − σ(S) ≥ σ(T∪{w}) − σ(T) for S ⊆ T (footnote 4)."""
        graph, probs, seeds, extra = case
        small = sorted(set(seeds[:2]))
        large = sorted(set(seeds) | {extra})
        if w in large:
            return
        gain_small = exact_spread(graph, probs, sorted(set(small) | {w})) - exact_spread(
            graph, probs, small
        )
        gain_large = exact_spread(graph, probs, sorted(set(large) | {w})) - exact_spread(
            graph, probs, large
        )
        assert gain_small >= gain_large - 1e-9

    @given(graph_probs_seeds())
    @settings(max_examples=40, deadline=None)
    def test_spread_bounds(self, case):
        """0 ≤ σ(S) ≤ n, and σ(S) ≥ |S| when CTPs are 1."""
        graph, probs, seeds, _ = case
        spread = exact_spread(graph, probs, seeds)
        assert -1e-9 <= spread <= graph.num_nodes + 1e-9
        assert spread >= len(set(seeds)) - 1e-9

    @given(graph_probs_seeds(), st.lists(st.floats(0.0, 1.0), min_size=7, max_size=7))
    @settings(max_examples=40, deadline=None)
    def test_ctps_only_reduce_spread(self, case, ctps):
        graph, probs, seeds, _ = case
        full = exact_spread(graph, probs, seeds)
        gated = exact_spread(graph, probs, seeds, ctps=np.asarray(ctps))
        assert gated <= full + 1e-9

    @given(graph_probs_seeds())
    @settings(max_examples=30, deadline=None)
    def test_click_probabilities_valid(self, case):
        graph, probs, seeds, _ = case
        clicks = exact_click_probabilities(graph, probs, seeds)
        assert np.all(clicks >= -1e-12)
        assert np.all(clicks <= 1.0 + 1e-12)
        for s in set(seeds):
            assert clicks[s] == pytest.approx(1.0)


class TestRRSetStructure:
    @given(
        tiny_graphs(),
        st.floats(0.1, 1.0),
        st.integers(0, 6),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=40, deadline=None)
    def test_rr_set_no_duplicates_and_contains_root(self, graph, p, root, _pyrandom):
        rr, _ = NumpyBackend().sample_flat(
            graph, np.full(graph.num_edges, p),
            np.random.default_rng(int(p * 1e6) + root), 1, roots=[root],
        )
        assert root in rr
        assert len(set(rr.tolist())) == len(rr)

    @given(
        sets=st.lists(
            st.lists(st.integers(0, 5), min_size=1, max_size=3, unique=True),
            min_size=1,
            max_size=12,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_greedy_cover_never_worse_than_single_best(self, sets):
        """Greedy max-cover with k≥1 covers at least as much as the best
        single node (a weak but universal sanity bound)."""
        from repro.rrset.tim import greedy_max_coverage

        arrays = [np.asarray(s, dtype=np.int64) for s in sets]
        collection = RRSetPool(6)
        collection.add_sets(arrays)
        best_single = int(collection.coverage().max())
        _, covered = greedy_max_coverage(arrays, 6, 2)
        assert covered >= best_single
