"""Allocation: assignment bookkeeping and validity."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.advertising.allocation import Allocation
from repro.advertising.attention import AttentionBounds
from repro.errors import AllocationError


def test_assign_and_query():
    alloc = Allocation(2, 5)
    alloc.assign(3, 0)
    alloc.assign(3, 1)
    assert alloc.seeds(0) == {3}
    assert alloc.ads_of_user(3) == [0, 1]
    assert alloc.user_assignment_counts()[3] == 2


def test_double_assign_same_ad_rejected():
    alloc = Allocation(1, 3)
    alloc.assign(0, 0)
    with pytest.raises(AllocationError):
        alloc.assign(0, 0)


def test_out_of_range_user_rejected():
    alloc = Allocation(1, 3)
    with pytest.raises(AllocationError):
        alloc.assign(3, 0)


def test_unassign():
    alloc = Allocation(1, 3)
    alloc.assign(1, 0)
    alloc.unassign(1, 0)
    assert alloc.seeds(0) == frozenset()
    assert alloc.user_assignment_counts()[1] == 0
    with pytest.raises(AllocationError):
        alloc.unassign(1, 0)


def test_from_seed_sets():
    alloc = Allocation.from_seed_sets([[0, 1], [2]], num_nodes=4)
    assert alloc.seed_counts().tolist() == [2, 1]
    assert alloc.targeted_users() == {0, 1, 2}


def test_from_seed_sets_validates_attention_bounds():
    """§3: a deserialized allocation must respect κ_u when bounds are
    provided — user 0 appears in two seed sets but κ=1."""
    with pytest.raises(AllocationError, match="attention bounds.*0"):
        Allocation.from_seed_sets(
            [[0, 1], [0]], num_nodes=3, bounds=AttentionBounds.uniform(3, 1)
        )


def test_from_seed_sets_accepts_valid_allocation_with_bounds():
    alloc = Allocation.from_seed_sets(
        [[0, 1], [0]], num_nodes=3, bounds=AttentionBounds.uniform(3, 2)
    )
    assert alloc.seed_counts().tolist() == [2, 1]
    assert alloc.is_valid(AttentionBounds.uniform(3, 2))


def test_from_seed_sets_without_bounds_stays_permissive():
    # compat: no bounds, no validation — the historical behaviour
    alloc = Allocation.from_seed_sets([[0], [0], [0]], num_nodes=1)
    assert alloc.user_assignment_counts()[0] == 3


def test_seed_array_sorted():
    alloc = Allocation.from_seed_sets([[3, 0, 2]], num_nodes=4)
    assert alloc.seed_array(0).tolist() == [0, 2, 3]


def test_validity_and_violations():
    alloc = Allocation.from_seed_sets([[0], [0]], num_nodes=2)
    tight = AttentionBounds.uniform(2, 1)
    loose = AttentionBounds.uniform(2, 2)
    assert not alloc.is_valid(tight)
    assert alloc.violations(tight).tolist() == [0]
    assert alloc.is_valid(loose)


def test_validity_shape_checked():
    alloc = Allocation(1, 2)
    with pytest.raises(AllocationError):
        alloc.is_valid(AttentionBounds.uniform(3, 1))


def test_can_assign_respects_bounds():
    alloc = Allocation(2, 2)
    bounds = AttentionBounds.uniform(2, 1)
    assert alloc.can_assign(0, 0, bounds)
    alloc.assign(0, 0)
    assert not alloc.can_assign(0, 0, bounds)  # already a seed
    assert not alloc.can_assign(0, 1, bounds)  # attention exhausted


def test_total_seeds_counts_multiplicity():
    alloc = Allocation.from_seed_sets([[0], [0]], num_nodes=1)
    assert alloc.total_seeds() == 2
    assert len(alloc.targeted_users()) == 1


def test_copy_is_independent():
    alloc = Allocation.from_seed_sets([[0]], num_nodes=2)
    clone = alloc.copy()
    clone.assign(1, 0)
    assert alloc.seeds(0) == {0}
    assert clone.seeds(0) == {0, 1}


def test_equality():
    a = Allocation.from_seed_sets([[0, 1]], num_nodes=3)
    b = Allocation.from_seed_sets([[1, 0]], num_nodes=3)
    assert a == b


@given(
    ops=st.lists(
        st.tuples(st.integers(0, 4), st.integers(0, 2)), max_size=30
    )
)
@settings(max_examples=50, deadline=None)
def test_counts_invariant_under_random_assignments(ops):
    """user_assignment_counts always equals the per-user multiplicity of
    the seed sets, whatever sequence of assigns happened."""
    alloc = Allocation(3, 5)
    for user, ad in ops:
        if user not in alloc.seeds(ad):
            alloc.assign(user, ad)
    expected = np.zeros(5, dtype=int)
    for ad in range(3):
        for user in alloc.seeds(ad):
            expected[user] += 1
    assert np.array_equal(alloc.user_assignment_counts(), expected)
    assert alloc.total_seeds() == int(expected.sum())


@given(
    kappa=st.lists(st.integers(0, 3), min_size=6, max_size=6),
    ops=st.lists(
        st.tuples(st.booleans(), st.integers(0, 5), st.integers(0, 2)), max_size=40
    ),
)
@settings(max_examples=100, deadline=None)
def test_assignable_is_can_assign_for_every_user(kappa, ops):
    """The mask agrees with the scalar test node by node after any
    sequence of assigns and unassigns, and is the caller's to mutate."""
    bounds = AttentionBounds(np.asarray(kappa))
    alloc = Allocation(3, 6)
    for add, user, ad in ops:
        if add and user not in alloc.seeds(ad):
            alloc.assign(user, ad)
        elif not add and user in alloc.seeds(ad):
            alloc.unassign(user, ad)
    for ad in range(3):
        expected = [bool(alloc.can_assign(user, ad, bounds)) for user in range(6)]
        mask = alloc.assignable(ad, bounds)
        assert mask.dtype == bool and mask.tolist() == expected
        mask[:] = True
        assert alloc.assignable(ad, bounds).tolist() == expected


def test_provenance_roundtrip_and_equality_exclusion():
    """Provenance records the producer's reproducibility contract; it is
    metadata — merged across calls, copied with the allocation, and
    excluded from equality."""
    a = Allocation(2, 4)
    assert a.provenance is None
    a.set_provenance(rng="philox", chunk_size=64)
    a.set_provenance(stream_entropy=7)
    assert a.provenance == {"rng": "philox", "chunk_size": 64, "stream_entropy": 7}
    clone = a.copy()
    assert clone.provenance == a.provenance
    clone.set_provenance(rng="other")
    assert a.provenance["rng"] == "philox"  # copies do not share the dict
    b = Allocation(2, 4)
    assert a == b  # provenance never participates in equality
