"""The blocked BFS's one level op and the names kept for ``bench/``.

``repro.rrset.backends`` holds one RNG-owning driver over one level op.
The driver is pinned against the pre-prefilter reference in
``test_driver_equivalence.py`` and against recorded digests in
``test_golden_blocks.py``; this file covers the level-op paths random
graphs may not reliably hit, and the one-value ``backend`` knob: the
recorded name is ``"numpy"`` and every other value is refused.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.advertising.advertiser import Advertiser
from repro.advertising.attention import AttentionBounds
from repro.advertising.catalog import AdCatalog
from repro.advertising.problem import AdAllocationProblem
from repro.algorithms.tirm import TIRMAllocator
from repro.errors import ConfigurationError
from repro.graph.generators import erdos_renyi
from repro.graph.probabilities import constant_probabilities
from repro.rrset.backends import NumpyBackend, drive_blocked, resolve_backend


def _graph_and_probs(seed=5, n=80, p=0.05, prob=0.12):
    graph = erdos_renyi(n, p, seed=seed)
    probs = np.asarray(constant_probabilities(graph, prob), dtype=np.float64)
    return graph, probs


def _problem(seed: int, num_ads: int = 2, budget: float = 6.0):
    graph = erdos_renyi(60, 0.05, seed=seed)
    catalog = AdCatalog(
        [Advertiser(name=f"a{i}", budget=budget, cpe=1.0) for i in range(num_ads)]
    )
    return AdAllocationProblem(
        graph,
        catalog,
        constant_probabilities(graph, 0.08),
        0.4,
        AttentionBounds.uniform(graph.num_nodes, num_ads),
    )


class TestResolution:
    def test_names_resolve(self):
        assert resolve_backend("numpy").name == "numpy"
        assert isinstance(resolve_backend("numpy"), NumpyBackend)

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigurationError, match="backend must be 'numpy'"):
            resolve_backend("cuda")

    def test_auto_is_refused(self):
        with pytest.raises(ConfigurationError, match="backend must be 'numpy'"):
            resolve_backend("auto")


class TestTIRMBackendInvariance:
    _kwargs = dict(
        seed=3, initial_pilot=300, min_rr_sets_per_ad=300,
        max_rr_sets_per_ad=2_000, epsilon=0.25,
    )

    def test_stats_and_provenance_record_resolved_backend(self):
        problem = _problem(9)
        result = TIRMAllocator(backend="numpy", **self._kwargs).allocate(problem)
        assert result.stats["backend"] == "numpy"
        assert result.allocation.provenance["backend"] == "numpy"

    def test_rejects_unknown_backend_at_construction(self):
        with pytest.raises(ConfigurationError, match="backend"):
            TIRMAllocator(backend="cuda")

    def test_auto_is_refused_at_construction(self):
        with pytest.raises(ConfigurationError, match="backend must be 'numpy'"):
            TIRMAllocator(backend="auto")


class TestKernelEdgeCases:
    """Level-op paths the random graphs may not reliably hit."""

    def test_isolated_roots(self):
        graph = erdos_renyi(10, 0.0, seed=0)  # no edges at all
        probs = np.empty(0, dtype=np.float64)
        members, lengths = drive_blocked(
            graph, probs, np.random.default_rng(0), 5
        )
        assert lengths.tolist() == [1] * 5  # each set is just its root
        assert members.size == 5

    def test_zero_count(self):
        graph, probs = _graph_and_probs()
        members, lengths = drive_blocked(
            graph, probs[graph.in_edge_ids], np.random.default_rng(0), 0
        )
        assert members.size == 0 and lengths.size == 0

    def test_dense_probabilities_saturate_sets(self):
        """p=1 edges: every node that reaches the root joins its set
        exactly once, so the dedup works hard."""
        graph, probs = _graph_and_probs(seed=2, n=30, p=0.2, prob=1.0)
        roots = np.arange(graph.num_nodes)
        members, lengths = drive_blocked(
            graph, probs[graph.in_edge_ids], np.random.default_rng(1),
            roots.size, roots=roots,
        )
        starts = np.concatenate(([0], np.cumsum(lengths)[:-1]))
        for root, start, length in zip(roots, starts, lengths):
            reached, frontier = {int(root)}, [int(root)]
            while frontier:
                v = frontier.pop()
                for u in graph.in_sources[graph.in_indptr[v]:graph.in_indptr[v + 1]]:
                    if int(u) not in reached:
                        reached.add(int(u))
                        frontier.append(int(u))
            got = members[start:start + length].tolist()
            assert got[0] == root
            assert len(got) == len(set(got)) and set(got) == reached
