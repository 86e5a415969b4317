"""Forward cascades on the compiled BFS kernel.

Three checks, each against something other than the shipped code:

* the oracle — :mod:`tests.diffusion._reference_ic`, the numpy level
  loop the cascades ran on before: same rounds, same generator state;
* the model — each node's activation share over many runs lies in a
  Bonferroni-corrected 99.9 % Wilson interval around its exact click
  probability (:func:`exact_click_probabilities`);
* the argument checks that keep bad seeds and CTPs out of the kernel.
"""

from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.diffusion import ic
from repro.diffusion.exact import exact_click_probabilities
from repro.diffusion.ic import estimate_spread, simulate_clicks, simulate_rounds
from repro.diffusion.montecarlo import combine_mean_variance
from repro.diffusion.spread import MonteCarloSpreadOracle
from repro.graph.digraph import DirectedGraph
from repro.utils.rng import keyed_generator

from tests.diffusion._reference_ic import simulate_rounds as reference_rounds
from tests.test_properties import _wilson

#: Probabilities drawn for gadget edges: the two certain values and
#: values in between.
PROBABILITIES = st.sampled_from([0.0, 1.0, 0.1, 0.5, 0.9]) | st.floats(0.0, 1.0)


@st.composite
def gadgets(draw):
    """A graph of up to 12 nodes, its edge probabilities, seeds (with
    duplicates allowed), and CTPs or ``None``."""
    n = draw(st.integers(1, 12))
    pairs = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        .filter(lambda e: e[0] != e[1]),
        max_size=40, unique=True,
    ))
    graph = DirectedGraph.from_edges(pairs, num_nodes=n)
    probs = np.asarray(
        draw(st.lists(PROBABILITIES, min_size=graph.num_edges, max_size=graph.num_edges)),
        dtype=np.float64,
    )
    seeds = draw(st.lists(st.integers(0, n - 1), max_size=6))
    ctps = draw(st.none() | st.lists(PROBABILITIES, min_size=n, max_size=n))
    return graph, probs, seeds, None if ctps is None else np.asarray(ctps)


def _philox_state(rng: np.random.Generator) -> tuple:
    """A Philox generator's full state, comparable with ``==``."""
    state = rng.bit_generator.state
    return (
        state["state"]["counter"].tolist(), state["state"]["key"].tolist(),
        state["buffer"].tolist(), state["buffer_pos"],
        state["has_uint32"], state["uinteger"],
    )


class TestAgainstTheNumpyLoop:
    @given(gadgets(), st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_rounds_and_generator_state(self, case, entropy):
        """Several runs from one generator: every run's rounds and the
        generator state after it equal the numpy loop's."""
        graph, probs, seeds, ctps = case
        actual_rng = np.random.default_rng(entropy)
        expected_rng = np.random.default_rng(entropy)
        for _ in range(4):
            actual = simulate_rounds(graph, probs, seeds, ctps=ctps, rng=actual_rng)
            expected = reference_rounds(graph, probs, seeds, ctps=ctps, rng=expected_rng)
            assert actual.dtype == expected.dtype
            assert np.array_equal(actual, expected)
            assert actual_rng.bit_generator.state == expected_rng.bit_generator.state

    @given(gadgets(), st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_clicks_on_philox(self, case, entropy):
        """The draws come from the bit generator itself, so the match
        holds on the engine's Philox as on PCG64."""
        graph, probs, seeds, ctps = case
        actual_rng = np.random.Generator(np.random.Philox(entropy))
        expected_rng = np.random.Generator(np.random.Philox(entropy))
        for _ in range(3):
            actual = simulate_clicks(graph, probs, seeds, ctps=ctps, rng=actual_rng)
            expected = reference_rounds(graph, probs, seeds, ctps=ctps, rng=expected_rng)
            assert np.array_equal(actual, expected >= 0)
            assert _philox_state(actual_rng) == _philox_state(expected_rng)

    @given(gadgets(), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_estimate_spread(self, case, entropy):
        graph, probs, seeds, ctps = case
        estimate = estimate_spread(
            graph, probs, seeds, ctps=ctps, num_runs=25, seed=entropy
        )
        if not seeds:
            assert (estimate.mean, estimate.std_error) == (0.0, 0.0)
            return
        rng = np.random.default_rng(entropy)
        counts = [
            int((reference_rounds(graph, probs, seeds, ctps=ctps, rng=rng) >= 0).sum())
            for _ in range(25)
        ]
        assert (estimate.mean, estimate.std_error) == combine_mean_variance(counts)

    @pytest.mark.parametrize("seeds", [{0}, {1, 2}, {0, 1, 3}])
    def test_monte_carlo_oracle(self, two_ad_problem, seeds):
        oracle = MonteCarloSpreadOracle(two_ad_problem, num_runs=40, seed=9)
        run_seeds = np.random.SeedSequence(9).generate_state(40, dtype=np.uint64)
        for ad in range(two_ad_problem.num_ads):
            total = sum(
                int((reference_rounds(
                    two_ad_problem.graph, two_ad_problem.ad_edge_probabilities(ad),
                    sorted(seeds), ctps=two_ad_problem.ad_ctps(ad),
                    rng=keyed_generator(int(run_seed), ad),
                ) >= 0).sum())
                for run_seed in run_seeds
            )
            assert oracle.spread(ad, frozenset(seeds)) == total / 40


#: Runs per gadget in the forward law test.
LAW_RUNS = 20_000


def _law_gadgets():
    """Fixed gadgets: certain and uncertain edges, converging paths,
    cycles, and seeds whose CTP coin fails but who stay reachable."""
    diamond = DirectedGraph.from_edges([(0, 1), (0, 2), (1, 3), (2, 3)])
    chain = DirectedGraph.from_edges([(0, 1), (1, 2), (2, 3), (3, 1)], num_nodes=5)
    rng = np.random.default_rng(4)
    pairs = sorted({
        (int(u), int(v)) for u, v in rng.integers(0, 9, size=(24, 2)) if u != v
    })
    mesh = DirectedGraph.from_edges(pairs, num_nodes=9)
    mesh_probs = rng.choice([0.0, 0.2, 0.5, 0.8, 1.0], size=mesh.num_edges)
    return [
        ("diamond", diamond, np.full(4, 0.5), [0], None),
        ("diamond-ctp", diamond, np.full(4, 0.6), [0, 2],
         np.asarray([0.5, 0.9, 0.2, 0.7])),
        ("chain-failed-seed", chain, np.asarray([0.8, 0.6, 1.0, 0.3]), [0, 1],
         np.asarray([0.7, 0.3, 0.5, 0.5, 0.5])),
        ("mesh", mesh, mesh_probs, [0, 4, 7], rng.uniform(0.2, 1.0, size=9)),
    ]


class TestForwardLaw:
    @pytest.mark.parametrize(
        "name, graph, probs, seeds, ctps", _law_gadgets(),
        ids=[case[0] for case in _law_gadgets()],
    )
    def test_node_share_is_its_click_probability(self, name, graph, probs, seeds, ctps):
        """§3's TIC-CTP model: node ``v`` clicks in a run with probability
        ``exact_click_probabilities(...)[v]``.  Over fixed-seed runs each
        node's click share must hold it in a 99.9 % Wilson interval,
        Bonferroni-corrected over the gadget's nodes."""
        n = graph.num_nodes
        z = NormalDist().inv_cdf(1.0 - 0.001 / (2 * n))
        rng = np.random.Generator(np.random.Philox(7))
        clicks = np.zeros(n, dtype=np.int64)
        for _ in range(LAW_RUNS):
            clicks += simulate_clicks(graph, probs, seeds, ctps=ctps, rng=rng)
        exact = exact_click_probabilities(graph, probs, seeds, ctps=ctps)
        for v in range(n):
            low, high = _wilson(int(clicks[v]), LAW_RUNS, z)
            assert low - 1e-12 <= exact[v] <= high + 1e-12, (name, v)


class TestArgumentChecks:
    ENTRY_POINTS = {
        "simulate_rounds": lambda g, p, s, c: simulate_rounds(g, p, s, ctps=c, rng=0),
        "simulate_clicks": lambda g, p, s, c: simulate_clicks(g, p, s, ctps=c, rng=0),
        "estimate_spread": lambda g, p, s, c: estimate_spread(
            g, p, s, ctps=c, num_runs=3, seed=0
        ),
    }

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    @pytest.mark.parametrize("seeds", [[-1], [0, 4]], ids=["negative", "n"])
    def test_seed_out_of_range(self, diamond_graph, entry, seeds):
        with pytest.raises(ValueError, match="seeds"):
            self.ENTRY_POINTS[entry](diamond_graph, np.full(4, 0.5), seeds, None)

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    @pytest.mark.parametrize("bad", [1.7, np.nan], ids=["above-one", "nan"])
    def test_ctps_must_be_probabilities(self, diamond_graph, entry, bad):
        with pytest.raises(ValueError, match="ctps"):
            self.ENTRY_POINTS[entry](
                diamond_graph, np.full(4, 0.5), [0], np.asarray([bad, 1, 1, 1])
            )

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_ctps_must_cover_every_node(self, entry):
        graph = DirectedGraph.from_edges([(i, i + 1) for i in range(9)])
        with pytest.raises(ValueError, match="ctps"):
            self.ENTRY_POINTS[entry](graph, np.full(9, 0.5), [0], np.ones(3))

    def test_estimate_spread_checks_once(self, diamond_graph, monkeypatch):
        """The probabilities and CTPs are checked once per call, not once
        per run."""
        checked = []

        def spy(name, values, _check=ic.check_probability_array):
            checked.append(name)
            return _check(name, values)

        monkeypatch.setattr(ic, "check_probability_array", spy)
        estimate_spread(
            diamond_graph, np.full(4, 0.5), [0], ctps=np.full(4, 0.5),
            num_runs=50, seed=1,
        )
        assert checked == ["edge_probabilities", "ctps"]
