"""The compiled pool kernels equal the numpy code they replaced.

``RRSetPool.remove_covered``, the main inverted-index build and the
coverage bump run in C (``rrset/_pool.c``); ``tests/rrset/_reference_pool.py``
keeps the numpy versions of the first two, and the bump is held to
``np.add.at`` directly.  A hypothesis state machine drives a shipped pool and a
:class:`ReferencePool` through the same operations — small appends
with repeated members and ``add_flat`` chunks large enough to cross
the main/pending tiering, ``rewind`` and ``reveal`` (so a kept index
lists hidden sets), removals of in-range and out-of-range nodes, and
index reads — and after every one holds the return value,
``coverage()``, the alive flags, ``num_alive``, ``memory_bytes()`` and
both tiers' index arrays equal.
"""

from __future__ import annotations

import copy
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.rrset.pool import RRSetPool, _bump_counts

from tests.rrset._pool_helpers import add_sets, alive_mask
from tests.rrset._reference_pool import ReferencePool

N = 12


class PoolMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.pools = (RRSetPool(N), ReferencePool(N))

    def _both(self, call) -> None:
        """``call(pool)`` on both pools: equal results, or equal errors."""
        outcomes = []
        for pool in self.pools:
            try:
                outcomes.append(("ok", call(pool)))
            except (IndexError, ValueError) as exc:
                outcomes.append(("raised", type(exc)))
        assert outcomes[0] == outcomes[1]

    @rule(sets=st.lists(st.lists(st.integers(0, N - 1), max_size=5), max_size=6))
    def append_sets(self, sets):
        """Small appends (the pending tier), members repeated in a set."""
        self._both(lambda pool: add_sets(pool, sets))

    @rule(num_sets=st.integers(1, 1_500), seed=st.integers(0, 2**16))
    def add_chunk(self, num_sets, seed):
        """A chunk of up to ~4 500 members: enough to rebuild the main tier."""
        rng = np.random.default_rng(seed)
        lengths = rng.integers(0, 7, size=num_sets)
        members = rng.integers(0, N, size=int(lengths.sum()))
        self._both(lambda pool: pool.add_flat(members, lengths))

    @rule(node=st.integers(-2, N + 1))
    def remove_covered(self, node):
        self._both(lambda pool: pool.remove_covered(node))

    @rule(nodes=st.lists(st.integers(0, N - 1), min_size=1, max_size=3))
    def read_index(self, nodes):
        self._both(lambda pool: pool.coverage_of_set(nodes))

    @rule()
    def rewind(self):
        self._both(lambda pool: pool.rewind())

    @rule(share=st.floats(0.0, 1.0))
    def reveal(self, share):
        pool = self.pools[0]
        count = int(share * (pool.num_resident - pool.num_total))
        self._both(lambda pool: pool.reveal(count))

    @invariant()
    def same_state(self):
        shipped, reference = self.pools
        assert np.array_equal(shipped.coverage(), reference.coverage())
        assert np.array_equal(alive_mask(shipped), alive_mask(reference))
        assert shipped.num_alive == reference.num_alive
        assert shipped.num_total == reference.num_total
        assert shipped.memory_bytes() == reference.memory_bytes()
        for name in ("_idx_indptr", "_idx_sets", "_pend_nodes", "_pend_sets"):
            mine, theirs = getattr(shipped, name), getattr(reference, name)
            assert mine.dtype == theirs.dtype and np.array_equal(mine, theirs)
        assert shipped._main_sets == reference._main_sets
        assert shipped._index_sets == reference._index_sets


PoolMachine.TestCase.settings = settings(
    max_examples=150, stateful_step_count=30, deadline=None
)
TestPoolKernels = PoolMachine.TestCase


def test_a_set_naming_the_node_twice_dies_once():
    """The index lists such a set twice; the kernel finds it dead the
    second time, so it is counted, and its members decremented, once."""
    pool = RRSetPool(4)
    add_sets(pool, [[2, 1, 2], [2, 3], [0]])
    assert pool.remove_covered(2) == 2
    assert pool.coverage().tolist() == [1, 0, 0, 0]
    assert pool.num_alive == 1


def test_out_of_range_nodes_raise_before_the_kernel():
    pool = RRSetPool(3)
    add_sets(pool, [[0, 1, 2]])
    for node in (-1, 3):
        with pytest.raises(IndexError):
            pool.remove_covered(node)
    assert pool.num_alive == 1


@pytest.mark.parametrize("clone", [copy.deepcopy, lambda p: pickle.loads(pickle.dumps(p))])
def test_a_copied_pool_removes_from_its_own_buffers(clone):
    """The kernel's buffer addresses are cached per pool; a copy taken
    after a removal must not write through the original's."""
    pool = RRSetPool(4)
    add_sets(pool, [[0, 1], [1, 2], [3]])
    assert pool.remove_covered(3) == 1
    twin = clone(pool)
    assert twin.remove_covered(1) == 2
    assert twin.coverage().tolist() == [0, 0, 0, 0]
    assert pool.coverage().tolist() == [1, 2, 1, 0] and pool.num_alive == 2


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(1, 3_000),
    size=st.integers(0, 5_000),
    seed=st.integers(0, 2**16),
)
def test_the_compiled_bump_is_add_at(n, size, seed):
    """Small and large batches alike (the numpy code switched to
    ``bincount`` above n / 16 members), repeated members included."""
    rng = np.random.default_rng(seed)
    members = rng.integers(0, n, size=size).astype(np.int32)
    counts = rng.integers(0, 50, size=n)
    expected = counts.copy()
    np.add.at(expected, members, 1)
    _bump_counts(counts, members)
    assert np.array_equal(counts, expected)
