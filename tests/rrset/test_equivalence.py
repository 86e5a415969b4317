"""Equivalence of the flat-CSR engine with the frozen seed implementation.

The pool must be a *drop-in* replacement: identical coverage counts,
removal results, greedy-cover picks, and — fed the same RR-set stream —
bit-identical TIRM allocations for the same master seed.  The
reference implementations live in ``tests/rrset/_legacy.py`` (verbatim
copies of the pre-pool code).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.advertising.advertiser import Advertiser
from repro.advertising.attention import AttentionBounds
from repro.advertising.catalog import AdCatalog
from repro.advertising.problem import AdAllocationProblem
from repro.algorithms.tirm import TIRMAllocator
from repro.graph.generators import erdos_renyi
from repro.graph.probabilities import constant_probabilities
from repro.rrset.pool import RRSetPool
from repro.rrset.tim import greedy_max_coverage

from tests.rrset._pool_helpers import (
    add_sets,
    get_set,
    is_alive,
    pool_of,
    sets_containing,
)
from tests.rrset._legacy import (
    LegacyRRSetCollection,
    LegacyTIRMAllocator,
    legacy_greedy_max_coverage,
)

N_NODES = 12

set_lists = st.lists(
    st.lists(st.integers(0, N_NODES - 1), min_size=1, max_size=5, unique=True),
    max_size=40,
)


def _as_arrays(sets):
    return [np.asarray(s, dtype=np.int64) for s in sets]


@given(sets=set_lists, removals=st.lists(st.integers(0, N_NODES - 1), max_size=8))
@settings(max_examples=80, deadline=None)
def test_mutation_equivalence(sets, removals):
    """Appends + remove_covered march in lockstep with the seed code."""
    pool = RRSetPool(N_NODES)
    legacy = LegacyRRSetCollection(N_NODES)
    assert list(add_sets(pool, _as_arrays(sets))) == list(
        legacy.add_sets(_as_arrays(sets))
    )
    assert np.array_equal(pool.coverage(), legacy.coverage())
    for node in removals:
        assert pool.remove_covered(node) == legacy.remove_covered(node)
        assert np.array_equal(pool.coverage(), legacy.coverage())
        assert pool.num_alive == legacy.num_alive
    assert pool.num_total == legacy.num_total
    for i in range(pool.num_total):
        assert is_alive(pool, i) == legacy.is_alive(i)
        assert get_set(pool, i).tolist() == legacy.get_set(i).tolist()


@given(sets=set_lists, removals=st.lists(st.integers(0, N_NODES - 1), max_size=4))
@settings(max_examples=60, deadline=None)
def test_query_equivalence(sets, removals):
    """Coverage counts and the sets containing a node match the seed
    semantics; ``coverage_of_set`` counts removed sets too, so it equals
    the seed code's count before any removal (``F_R(S)`` over the whole
    sample)."""
    pool = RRSetPool(N_NODES)
    legacy = LegacyRRSetCollection(N_NODES)
    add_sets(pool, _as_arrays(sets))
    legacy.add_sets(_as_arrays(sets))
    unremoved = LegacyRRSetCollection(N_NODES)
    unremoved.add_sets(_as_arrays(sets))
    for node in removals:
        pool.remove_covered(node)
        legacy.remove_covered(node)
    for node in range(N_NODES):
        assert sets_containing(pool, node) == legacy.sets_containing(node)
        assert sets_containing(pool, node, alive_only=False) == legacy.sets_containing(
            node, alive_only=False
        )
        assert pool.coverage()[node] == legacy.coverage_of(node)
    for query in ([0], [1, 3], list(range(N_NODES)), [5, 5, 2]):
        assert pool.coverage_of_set(query) == unremoved.coverage_of_set(query)


@given(sets=set_lists, k=st.integers(0, 6))
@settings(max_examples=60, deadline=None)
def test_greedy_cover_equivalence(sets, k):
    """Same picks and the same covered count, for pool and view inputs."""
    arrays = _as_arrays(sets)
    expected = legacy_greedy_max_coverage(arrays, N_NODES, k)
    pool = pool_of(arrays, N_NODES)
    assert greedy_max_coverage(pool, N_NODES, k) == expected
    assert greedy_max_coverage(pool.prefix_view(), N_NODES, k) == expected
    # the greedy never mutates a pool handed to it
    assert pool.num_alive == pool.num_total


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


@pytest.mark.parametrize("seed", [0, 7])
def test_tirm_allocation_bit_identical(seed):
    """The default TIRM (session state machine, sharded engine, pool)
    reproduces the seed TIRM loop exactly on the same stream: same
    allocation, same revenues, same θ and seed-size trajectories."""
    problem = _problem(seed)
    kwargs = dict(
        seed=seed, initial_pilot=400, max_rr_sets_per_ad=4_000, epsilon=0.2
    )
    new = TIRMAllocator(**kwargs).allocate(problem)
    old = LegacyTIRMAllocator(**kwargs).allocate(problem)
    assert new.allocation == old.allocation
    assert np.array_equal(new.estimated_revenues, old.estimated_revenues)
    assert new.stats["theta_per_ad"] == old.stats["theta_per_ad"]
    assert new.stats["seed_size_estimates"] == old.stats["seed_size_estimates"]
    assert new.stats["iterations"] == old.stats["iterations"]


def test_tirm_blocked_mode_is_deterministic_and_valid():
    problem = _problem(3)
    kwargs = dict(seed=5, initial_pilot=400, max_rr_sets_per_ad=4_000, epsilon=0.2)
    a = TIRMAllocator(**kwargs).allocate(problem)
    b = TIRMAllocator(**kwargs).allocate(problem)
    assert a.allocation == b.allocation
    assert np.array_equal(a.estimated_revenues, b.estimated_revenues)
    assert a.allocation.is_valid(problem.attention)
