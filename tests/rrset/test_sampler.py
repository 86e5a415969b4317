"""RR-set sampling: structure and Proposition-1 unbiasedness."""

import inspect

import numpy as np
import pytest

from repro.diffusion.exact import exact_spread
from repro.errors import ConfigurationError
from repro.graph.generators import erdos_renyi
from repro.graph.probabilities import constant_probabilities
from repro.rrset.backends import drive_blocked
from repro.rrset.estimator import estimate_spread_from_sets
from repro.rrset.pool import RRSetPool
from repro.rrset.sampler import RRSetSampler, StreamPlan
from repro.rrset.sharded import ShardedSamplingEngine


def _rooted(graph, probs, root, seed=0):
    """One RR-set from a fixed root, straight from the driver."""
    members, _ = drive_blocked(
        graph, np.asarray(probs, dtype=np.float64)[graph.in_edge_ids],
        np.random.default_rng(seed), 1, roots=[root],
    )
    return members


def _engine_pool(graph, probs, count, seed):
    with ShardedSamplingEngine(graph, [probs], seeds=seed) as engine:
        engine.ensure({0: count})
        return engine.shard(0)


class TestStructure:
    def test_contains_root(self, line_graph):
        assert _rooted(line_graph, np.zeros(3), 2).tolist() == [2]

    def test_full_probability_collects_ancestors(self, line_graph):
        assert sorted(_rooted(line_graph, np.ones(3), 3).tolist()) == [0, 1, 2, 3]

    def test_source_has_no_ancestors(self, line_graph):
        assert _rooted(line_graph, np.ones(3), 0).tolist() == [0]

    def test_members_reach_root(self, small_random_graph):
        """Every member of an RR-set must have a directed path to the root
        in the full graph (a necessary structural condition)."""
        networkx = pytest.importorskip("networkx")
        probs = constant_probabilities(small_random_graph, 0.5)
        nxg = networkx.DiGraph(
            [
                (int(u), int(v))
                for u, v in zip(
                    small_random_graph.edge_sources, small_random_graph.edge_targets
                )
            ]
        )
        nxg.add_nodes_from(range(small_random_graph.num_nodes))
        pool = _engine_pool(small_random_graph, probs, 20, seed=3)
        for i in range(20):
            rr = pool.get_set(i)
            root = rr[0]
            ancestors = networkx.ancestors(nxg, int(root)) | {int(root)}
            assert set(rr.tolist()) <= ancestors

    def test_sample_many(self, small_random_graph):
        probs = constant_probabilities(small_random_graph, 0.2)
        pool = _engine_pool(small_random_graph, probs, 25, seed=1)
        assert pool.num_total == 25
        assert all(pool.get_set(i).size >= 1 for i in range(25))

    def test_count_validation(self, small_random_graph):
        probs = constant_probabilities(small_random_graph, 0.2)
        with ShardedSamplingEngine(small_random_graph, [probs], seeds=1) as engine:
            with pytest.raises(ConfigurationError, match="must be >= 0"):
                engine.ensure({0: -1})

    def test_shape_validation(self, small_random_graph):
        with pytest.raises(ValueError):
            RRSetSampler(small_random_graph, np.ones(3))


def _frozen(value):
    """``vars(sampler)`` values in a form ``==`` can compare."""
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, tuple):
        return tuple(_frozen(item) for item in value)
    return value


class TestSamplerObject:
    def test_deterministic(self, small_random_graph):
        """A block is a function of its stream address, not of which
        sampler object — or which call — computes it."""
        probs = constant_probabilities(small_random_graph, 0.1)
        plan = StreamPlan(4, ad=0, chunk_size=5)
        a = RRSetSampler(small_random_graph, probs).sample_chunk_block(plan, 1)
        b = RRSetSampler(small_random_graph, probs).sample_chunk_block(plan, 1)
        assert a[0].tobytes() == b[0].tobytes()
        assert a[1].tolist() == b[1].tolist()
        other = RRSetSampler(small_random_graph, probs).sample_chunk_block(plan, 2)
        assert (a[0].tobytes(), a[1].tolist()) != (other[0].tobytes(), other[1].tolist())

    def test_is_immutable(self, small_random_graph):
        """Sampling reads the kernel and writes nothing: no stream
        position, no counter, no scratch array."""
        assert "seed" not in inspect.signature(RRSetSampler.__init__).parameters
        probs = constant_probabilities(small_random_graph, 0.1)
        sampler = RRSetSampler(small_random_graph, probs)
        before = {name: _frozen(value) for name, value in vars(sampler).items()}
        for chunk in (0, 3, 0):
            sampler.sample_chunk_block(StreamPlan(9, ad=1, chunk_size=16), chunk)
        after = {name: _frozen(value) for name, value in vars(sampler).items()}
        assert after == before


class TestBlockedSampler:
    """Structure and distribution of the blocked (RNG-in-blocks) BFS,
    through its one entry point :meth:`RRSetSampler.sample_chunk_block`."""

    def test_structure_root_first_and_unique(self, small_random_graph):
        probs = constant_probabilities(small_random_graph, 0.3)
        sampler = RRSetSampler(small_random_graph, probs)
        pool = RRSetPool(small_random_graph.num_nodes)
        pool.add_flat(*sampler.sample_chunk_block(StreamPlan(1, 0, 200), 0))
        for i in range(200):
            members = pool.get_set(i)
            assert members.size >= 1  # root always present
            assert np.unique(members).size == members.size

    def test_matches_exact_spread(self, diamond_graph):
        """Proposition 1 holds for the blocked path — its sets follow
        the RR distribution, chunk after chunk."""
        probs = np.full(4, 0.5)
        sampler = RRSetSampler(diamond_graph, probs)
        plan = StreamPlan(7, 0, chunk_size=10_000)
        pool = RRSetPool(diamond_graph.num_nodes)
        for chunk in range(3):
            pool.add_flat(*sampler.sample_chunk_block(plan, chunk))
        for seeds in ([0], [0, 1], [3]):
            exact = exact_spread(diamond_graph, probs, seeds)
            estimate = estimate_spread_from_sets(pool, diamond_graph.num_nodes, seeds)
            assert estimate == pytest.approx(exact, rel=0.07)


class TestProposition1:
    """``n · F_R(S)`` is an unbiased estimator of σ_ic(S)."""

    @pytest.mark.parametrize("seeds", [[0], [0, 1], [3]])
    def test_matches_exact_spread(self, diamond_graph, seeds):
        probs = np.full(4, 0.5)
        exact = exact_spread(diamond_graph, probs, seeds)
        sets = _engine_pool(diamond_graph, probs, 30_000, seed=7)
        estimate = estimate_spread_from_sets(sets, diamond_graph.num_nodes, seeds)
        assert estimate == pytest.approx(exact, rel=0.07)

    def test_on_random_graph(self):
        g = erdos_renyi(12, 0.15, seed=9)
        probs = constant_probabilities(g, 0.4)
        # keep the graph enumerable for the exact oracle
        if g.num_edges > 20:
            pytest.skip("random draw too dense for exact enumeration")
        seeds = [0, 5]
        exact = exact_spread(g, probs, seeds)
        sets = _engine_pool(g, probs, 20_000, seed=10)
        estimate = estimate_spread_from_sets(sets, g.num_nodes, seeds)
        assert estimate == pytest.approx(exact, rel=0.1, abs=0.1)
