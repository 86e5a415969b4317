"""Coverage bookkeeping of :class:`RRSetPool` as TIRM's set collection:
appends, ``remove_covered`` and the coverage queries, on literal small
cases (``test_pool.py`` covers the flat/bulk storage surface)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rrset.pool import RRSetPool

from tests.rrset._pool_helpers import (
    add_sets,
    all_sets,
    get_set,
    is_alive,
    sets_containing,
)


def _sets(*members):
    return [np.asarray(m, dtype=np.int64) for m in members]


def test_add_and_coverage():
    c = RRSetPool(5)
    add_sets(c, _sets([0, 1], [1, 2], [2]))
    assert c.num_total == 3
    assert c.num_alive == 3
    assert c.coverage().tolist() == [1, 2, 2, 0, 0]


def test_remove_covered():
    c = RRSetPool(5)
    add_sets(c, _sets([0, 1], [1, 2], [2]))
    removed = c.remove_covered(1)
    assert removed == 2
    assert c.num_alive == 1
    assert c.coverage().tolist() == [0, 0, 1, 0, 0]
    # idempotent
    assert c.remove_covered(1) == 0


def test_coverage_of_set():
    c = RRSetPool(5)
    add_sets(c, _sets([0, 1], [1, 2], [3]))
    assert c.coverage_of_set([0, 3]) == 2
    assert c.coverage_of_set([1]) == 2
    assert c.coverage_of_set([4]) == 0
    c.remove_covered(1)
    # F_R(S) counts over the whole sample, removed sets included.
    assert c.coverage_of_set([0, 2]) == 2
    assert c.coverage_of_set([3]) == 1


def test_sets_containing_alive_filter():
    c = RRSetPool(4)
    ids = add_sets(c, _sets([0], [0, 1]))
    c.remove_covered(1)
    assert sets_containing(c, 0) == [ids[0]]
    assert set(sets_containing(c, 0, alive_only=False)) == set(ids)


def test_get_set_and_is_alive():
    c = RRSetPool(3)
    (set_id,) = add_sets(c, _sets([1, 2]))
    assert get_set(c, set_id).tolist() == [1, 2]
    assert is_alive(c, set_id)
    c.remove_covered(2)
    assert not is_alive(c, set_id)


def test_all_sets_keeps_covered():
    c = RRSetPool(3)
    add_sets(c, _sets([0], [1]))
    c.remove_covered(0)
    assert len(all_sets(c)) == 2


def test_memory_bytes_grows():
    c = RRSetPool(10)
    before = c.memory_bytes()
    add_sets(c, _sets([0, 1, 2], [3, 4]))
    assert c.memory_bytes() > before


def test_negative_num_nodes_rejected():
    with pytest.raises(ValueError):
        RRSetPool(-1)


@given(
    sets=st.lists(
        st.lists(st.integers(0, 7), min_size=1, max_size=4, unique=True),
        max_size=15,
    ),
    removals=st.lists(st.integers(0, 7), max_size=5),
)
@settings(max_examples=60, deadline=None)
def test_coverage_invariant(sets, removals):
    """coverage[v] always equals the count of alive sets containing v."""
    c = RRSetPool(8)
    add_sets(c, [np.asarray(s, dtype=np.int64) for s in sets])
    for node in removals:
        c.remove_covered(node)
    expected = np.zeros(8, dtype=int)
    for set_id in range(c.num_total):
        if is_alive(c, set_id):
            expected[get_set(c, set_id)] += 1
    assert np.array_equal(c.coverage(), expected)
    assert c.num_alive == sum(is_alive(c, i) for i in range(c.num_total))
