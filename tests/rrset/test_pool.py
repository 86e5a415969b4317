"""RRSetPool: flat-CSR storage, bulk index maintenance, and views."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.rrset import pool as pool_module
from repro.rrset.pool import (
    MAX_SETS,
    CSRSetView,
    RRSetPool,
    _build_csr_index,
    _build_pending_index,
)


def _sets(*members):
    return [np.asarray(m, dtype=np.int64) for m in members]


class TestAddFlat:
    def test_bulk_append(self):
        pool = RRSetPool(6)
        pool.add_flat(np.asarray([0, 1, 2, 3, 1]), np.asarray([2, 3]))
        assert pool.num_total == 2
        assert pool.get_set(0).tolist() == [0, 1]
        assert pool.get_set(1).tolist() == [2, 3, 1]
        assert pool.coverage().tolist() == [1, 2, 1, 1, 0, 0]

    def test_empty_sets_are_registered(self):
        pool = RRSetPool(4)
        pool.add_flat(np.asarray([2]), np.asarray([0, 1, 0]))
        assert pool.num_total == 3
        assert pool.get_set(0).size == 0
        assert pool.get_set(1).tolist() == [2]
        assert pool.get_set(2).size == 0
        assert pool.coverage_of_set([2]) == 1

    def test_length_mismatch_rejected(self):
        pool = RRSetPool(4)
        with pytest.raises(ValueError):
            pool.add_flat(np.asarray([0, 1]), np.asarray([3]))

    def test_negative_length_rejected(self):
        pool = RRSetPool(4)
        with pytest.raises(ValueError):
            pool.add_flat(np.asarray([0]), np.asarray([2, -1]))

    def test_out_of_range_members_rejected(self):
        pool = RRSetPool(4)
        with pytest.raises(ValueError):
            pool.add_flat(np.asarray([4]), np.asarray([1]))
        with pytest.raises(ValueError):
            pool.add_flat(np.asarray([-1]), np.asarray([1]))

    def test_growth_across_many_batches(self):
        """Appends far past the initial capacities keep all data intact."""
        pool = RRSetPool(50)
        rng = np.random.default_rng(0)
        reference = []
        for _ in range(40):
            batch = [rng.choice(50, size=rng.integers(1, 6), replace=False)
                     for _ in range(rng.integers(1, 60))]
            pool.add_sets(batch)
            reference.extend(batch)
        assert pool.num_total == len(reference)
        for i, members in enumerate(reference):
            assert pool.get_set(i).tolist() == list(members)
        expected = np.zeros(50, dtype=np.int64)
        for members in reference:
            expected[members] += 1
        assert np.array_equal(pool.coverage(), expected)


class TestAddFlatFromBuffer:
    """Single-copy ingest of a packed ``[int64 lengths][int32 members]``
    block — the parent-side splice path of the shm transport."""

    @staticmethod
    def _packed(members, lengths, pad_before=0):
        lengths = np.asarray(lengths, dtype=np.int64)
        members = np.asarray(members, dtype=np.int32)
        return b"\x00" * pad_before + lengths.tobytes() + members.tobytes()

    def test_matches_add_flat(self):
        a, b = RRSetPool(6), RRSetPool(6)
        members, lengths = [0, 1, 2, 3, 1], [2, 3]
        a.add_flat(np.asarray(members), np.asarray(lengths))
        b.add_flat_from_buffer(
            self._packed(members, lengths), num_sets=2, num_members=5
        )
        assert b.num_total == a.num_total
        va, vb = a.prefix_view(), b.prefix_view()
        assert va.members.tobytes() == vb.members.tobytes()
        assert va.indptr.tobytes() == vb.indptr.tobytes()
        assert a.coverage().tolist() == b.coverage().tolist()

    def test_offsets_select_a_sub_block(self):
        """The engine splices ``[lo, hi)`` of a chunk by pointing the
        offsets into the middle of a worker's block."""
        pool = RRSetPool(6)
        members, lengths = [0, 1, 2, 3, 1, 4], [2, 3, 1]
        buf = self._packed(members, lengths)
        # take sets [1, 3): lengths start at entry 1, members at element 2
        pool.add_flat_from_buffer(
            buf, num_sets=2, num_members=4,
            lengths_offset=1 * 8, members_offset=3 * 8 + 2 * 4,
        )
        assert pool.num_total == 2
        assert pool.get_set(0).tolist() == [2, 3, 1]
        assert pool.get_set(1).tolist() == [4]

    def test_leading_padding_via_lengths_offset(self):
        pool = RRSetPool(6)
        buf = self._packed([5, 0], [1, 1], pad_before=16)
        pool.add_flat_from_buffer(
            buf, num_sets=2, num_members=2, lengths_offset=16
        )
        assert pool.get_set(0).tolist() == [5]
        assert pool.get_set(1).tolist() == [0]

    def test_empty_block(self):
        pool = RRSetPool(4)
        pool.add_flat_from_buffer(b"", num_sets=0, num_members=0)
        assert pool.num_total == 0

    def test_validation_mirrors_add_flat(self):
        pool = RRSetPool(4)
        with pytest.raises(ValueError):  # lengths do not sum to members
            pool.add_flat_from_buffer(
                self._packed([0, 1], [3]), num_sets=1, num_members=2
            )
        with pytest.raises(ValueError):  # out-of-range member
            pool.add_flat_from_buffer(
                self._packed([7], [1]), num_sets=1, num_members=1
            )
        with pytest.raises(ValueError):  # negative length
            pool.add_flat_from_buffer(
                self._packed([0], [2, -1]), num_sets=2, num_members=1
            )
        with pytest.raises(ValueError):  # negative counts
            pool.add_flat_from_buffer(b"", num_sets=-1, num_members=0)
        with pytest.raises(ValueError):  # buffer too small for the counts
            pool.add_flat_from_buffer(
                self._packed([0], [1]), num_sets=1, num_members=9
            )
        assert pool.num_total == 0  # refused appends leave the pool untouched

    def test_pool_keeps_no_reference_to_the_buffer(self):
        """The caller may unlink/release the source immediately — the
        pool's arrays must own their bytes."""
        pool = RRSetPool(6)
        buf = bytearray(self._packed([0, 1, 2], [1, 2]))
        pool.add_flat_from_buffer(bytes(buf), num_sets=2, num_members=3)
        before = pool.prefix_view().members.tobytes()
        buf[:] = b"\xff" * len(buf)  # clobber the source
        assert pool.prefix_view().members.tobytes() == before
        assert pool.get_set(1).tolist() == [1, 2]

    def test_add_flat_still_accepts_int64_convenience_input(self):
        """``add_flat`` keeps the legacy wide-dtype convenience path (one
        explicit astype) while int32 input goes straight through."""
        pool = RRSetPool(6)
        pool.add_flat(
            np.asarray([0, 1], dtype=np.int64), np.asarray([2], dtype=np.int64)
        )
        pool.add_flat(
            np.asarray([2], dtype=np.int32), np.asarray([1], dtype=np.int32)
        )
        assert pool.num_total == 2
        assert pool.get_set(0).tolist() == [0, 1]
        assert pool.get_set(1).tolist() == [2]


class TestIndexMaintenance:
    def test_pending_mini_index_serves_queries(self):
        """A small batch after a large one must not trigger a full
        rebuild, yet queries must still see the new sets."""
        pool = RRSetPool(30)
        rng = np.random.default_rng(1)
        big = [rng.choice(30, size=8, replace=False) for _ in range(700)]
        pool.add_sets(big)
        assert pool._indexed_sets == 0  # appends index nothing ...
        assert pool.coverage_of_set([4]) == sum(4 in s for s in big)
        assert pool._indexed_sets == 700  # ... the first read covers the batch
        pool.add_sets(_sets([3, 4], [4, 5]))
        assert pool._pend_sets.size == 0  # still nothing indexed by the append
        assert pool.num_total == 702
        assert set(pool.sets_containing(4)) >= {700, 701}
        assert pool._indexed_sets == 700  # mini-index path engaged
        assert pool._pend_nodes.tolist() == [3, 4, 4, 5]
        assert pool._pend_sets.tolist() == [700, 700, 701, 701]
        assert pool.coverage_of(4) == int(
            sum(4 in set(map(int, s)) for s in big)
        ) + 2
        # removal through the mixed main+mini index stays consistent
        before = pool.num_alive
        removed = pool.remove_covered(4)
        assert pool.num_alive == before - removed
        assert pool.coverage_of(4) == 0

    def test_full_rebuild_when_pending_grows(self):
        pool = RRSetPool(10)
        pool.add_sets(_sets(*[[i % 10] for i in range(5_000)]))
        assert pool.remove_covered(0) == 500
        assert pool._indexed_sets == 5_000
        pool.add_sets(_sets(*[[i % 10] for i in range(1_249)]))
        assert pool.coverage_of_set([0]) == 125
        assert (pool._indexed_sets, pool._pend_sets.size) == (5_000, 1_249)
        pool.add_sets(_sets([0]))  # pending reaches 1/4 of the indexed members
        assert pool.set_ids_containing(0).tolist()[-2:] == [6_240, 6_249]
        assert pool._indexed_sets == pool.num_total  # pending forced rebuild
        assert pool._pend_sets.size == 0

    def test_builds_once_per_growth_event_at_the_first_index_read(self, build_calls):
        """The complexity guard, as a count: appends never build, the
        first index read after growth builds exactly once, and only index
        reads build at all."""
        pool = RRSetPool(40)
        rng = np.random.default_rng(3)

        def chunk(num_sets):
            lengths = rng.integers(0, 7, size=num_sets)
            return rng.integers(0, 40, size=int(lengths.sum())), lengths

        appended = 0
        for _ in range(16):
            members, lengths = chunk(200)
            pool.add_flat(members, lengths)
            appended += members.size
        assert build_calls == []
        assert pool.remove_covered(7) > 0
        assert build_calls == [appended]  # one build for the whole event
        pool.remove_covered(8)
        pool.coverage_of_set([1, 2, 3])
        pool.set_ids_containing(4)
        assert len(build_calls) == 1
        members, lengths = chunk(5)  # a +5 top-up: mini-index tier
        pool.add_flat(members, lengths)
        assert len(build_calls) == 1
        pool.coverage_of_set([9], alive_only=False)
        assert build_calls == [appended, members.size]
        # The resume path (re-derive the sets, re-apply the alive mask)
        # and every non-index accessor build nothing.
        resumed = RRSetPool(40)
        view = pool.prefix_view()
        resumed.add_flat(view.members, np.diff(view.indptr))
        resumed.kill_sets(np.flatnonzero(~pool.alive_mask()))
        assert np.array_equal(resumed.coverage(), pool.coverage())
        pool.add_flat(*chunk(300))
        for p in (pool, resumed):
            p.prefix_view(50).get_set(3)
            p.first_k_sets(10)
            p.coverage()
            p.coverage_of(7)
            p.memory_bytes()
            p.allocated_bytes()
        assert len(build_calls) == 2


def _reference_index(members, first_set, lengths):
    """The stable-argsort construction the packed-key kernel replaced,
    kept as the reference: ``(sorted members, owning set ids)``."""
    owners = np.repeat(
        np.arange(first_set, first_set + len(lengths), dtype=np.int64), lengths
    )
    order = np.argsort(members, kind="stable")
    return members[order], owners[order]


def _assert_builders_match_reference(members, first_set, lengths, num_nodes):
    members = np.asarray(members, dtype=np.int32)
    lengths = np.asarray(lengths, dtype=np.int64)
    nodes, owners = _reference_index(members, first_set, lengths)
    indptr, set_ids = _build_csr_index(members, first_set, lengths, num_nodes)
    assert set_ids.dtype == np.int32 and indptr.dtype == np.int64
    assert np.array_equal(set_ids, owners)
    assert np.array_equal(
        indptr, np.searchsorted(nodes, np.arange(num_nodes + 1))
    )
    pend_nodes, pend_sets = _build_pending_index(members, first_set, lengths)
    assert pend_nodes.dtype == np.int32 and pend_sets.dtype == np.int32
    assert np.array_equal(pend_nodes, nodes)
    assert np.array_equal(pend_sets, owners)


class TestBuildKernel:
    """Both index tiers are built by one packed-key sort; it must leave
    exactly the order of the stable argsort it replaced."""

    @given(data=st.data())
    @settings(max_examples=120, deadline=None)
    def test_matches_stable_argsort(self, data):
        num_nodes = data.draw(st.sampled_from([1, 3, 40, 70_000]))
        node = st.one_of(
            st.integers(0, num_nodes - 1), st.just(num_nodes - 1), st.just(0)
        )
        # Not ``unique``: a node may repeat inside one set (equal keys).
        sets = data.draw(st.lists(st.lists(node, max_size=6), max_size=30))
        first_set = data.draw(
            st.sampled_from([0, 1, 700, 2**16, MAX_SETS - len(sets)])
        )
        _assert_builders_match_reference(
            [v for members in sets for v in members],
            first_set,
            [len(members) for members in sets],
            num_nodes,
        )

    @pytest.mark.parametrize(
        "members, first_set, lengths, num_nodes",
        [
            ([], 0, [], 4),  # nothing at all
            ([], 5, [0, 0, 0], 4),  # only empty sets
            ([2, 2, 2, 0, 2], 0, [3, 2], 3),  # a node repeated inside one set
            ([1, 0, 1], 9, [0, 2, 0, 0, 1], 2),  # empty sets, first_set > 0
            ([6, 0, 6, 6], 3, [1, 3], 7),  # node num_nodes - 1
            ([69_999, 65_536, 0, 65_535, 69_999], 2, [2, 3], 70_000),  # n > 2^16
            # Set ids up to MAX_SETS - 1 on a tiny array: the low word
            # uses all 31 bits and must not come back sign-wrapped.
            ([3, 0, 3, 1, 3], MAX_SETS - 3, [2, 1, 2], 4),
        ],
    )
    def test_explicit_edges(self, members, first_set, lengths, num_nodes):
        _assert_builders_match_reference(members, first_set, lengths, num_nodes)

    def test_both_words_at_the_int32_limit(self):
        """The largest node id beside the largest set ids (pending tier:
        no O(num_nodes) indptr to allocate)."""
        top = 2**31 - 2
        nodes, set_ids = _build_pending_index(
            np.asarray([top, 0, top], dtype=np.int32),
            MAX_SETS - 2,
            np.asarray([1, 2], dtype=np.int64),
        )
        assert nodes.tolist() == [0, top, top]
        assert set_ids.tolist() == [MAX_SETS - 1, MAX_SETS - 2, MAX_SETS - 1]

    def test_repeated_node_through_the_public_api(self):
        """``add_sets`` accepts a set naming a node twice; the index lists
        that set twice and removal still kills it once."""
        pool = RRSetPool(4)
        pool.add_sets(_sets([1, 1, 2], [3], [1, 0, 1]))
        assert pool.set_ids_containing(1).tolist() == [0, 0, 2, 2]
        assert pool.coverage_of_set([1]) == 2
        assert pool.remove_covered(1) == 2
        assert pool.coverage().tolist() == [0, 0, 0, 1]


class _ModelPool:
    """Brute-force list-of-sets model of :class:`RRSetPool`."""

    def __init__(self, num_nodes):
        self.num_nodes = num_nodes
        self.sets: list[list[int]] = []
        self.alive: list[bool] = []

    def add(self, sets):
        self.sets.extend(sets)
        self.alive.extend([True] * len(sets))

    def ids_containing(self, node, alive_only):
        return [
            i
            for i, members in enumerate(self.sets)
            for v in members
            if v == node and (self.alive[i] or not alive_only)
        ]

    def kill(self, ids):
        killed = {i for i in ids if self.alive[i]}
        for i in killed:
            self.alive[i] = False
        return len(killed)

    def coverage_of_set(self, nodes, alive_only):
        return len(
            {i for node in nodes for i in self.ids_containing(node, alive_only)}
        )

    def coverage(self):
        counts = [0] * self.num_nodes
        for members, alive in zip(self.sets, self.alive):
            for v in members if alive else ():
                counts[v] += 1
        return counts


class TestAgainstModel:
    """A forgotten sync is the bug class of an index built on first read:
    some reader answers from an index that lags the sets.  Random
    interleavings of every mutation and every reader, each answer checked
    against the brute-force model."""

    @pytest.mark.parametrize("seed", range(6))
    def test_random_interleavings(self, seed, monkeypatch):
        # A small main-tier floor lets short schedules reach both sides
        # of the 1/4 rebuild threshold.
        monkeypatch.setattr(pool_module, "_MIN_INDEXED_MEMBERS", 24)
        rng = np.random.default_rng(seed)
        n = 9
        pool, model = RRSetPool(n), _ModelPool(n)
        tiers = set()
        for _ in range(150):
            op = rng.integers(0, 6)
            node = int(rng.integers(0, n))
            nodes = rng.integers(0, n, size=rng.integers(0, 4)).tolist()
            alive_only = bool(rng.integers(0, 2))
            if op == 0:  # batches on both sides of the threshold
                count = int(rng.choice([1, 2, 12, 40]))
                sets = [
                    rng.integers(0, n, size=rng.integers(0, 4)).tolist()
                    for _ in range(count)
                ]
                pool.add_flat(
                    np.asarray([v for s in sets for v in s], dtype=np.int32),
                    np.asarray([len(s) for s in sets]),
                )
                model.add(sets)
            elif op == 1:
                assert pool.remove_covered(node) == model.kill(
                    model.ids_containing(node, True)
                )
            elif op == 2 and model.sets:
                ids = rng.integers(0, len(model.sets), size=3).tolist()
                assert pool.kill_sets(ids) == model.kill(ids)
            elif op == 3:
                assert pool.coverage_of_set(
                    nodes, alive_only=alive_only
                ) == model.coverage_of_set(nodes, alive_only)
            elif op == 4:
                ids = pool.set_ids_containing(node, alive_only=alive_only)
                assert ids.tolist() == model.ids_containing(node, alive_only)
            elif op == 5:
                assert pool.coverage_of(node) == model.coverage()[node]
            # After every step — through accessors that never read
            # (hence never sync) the index, so a reader that forgot
            # its own sync is not rescued by this check.
            assert pool.num_total == len(model.sets)
            assert pool.num_alive == sum(model.alive)
            assert pool.alive_mask().tolist() == model.alive
            assert pool.coverage().tolist() == model.coverage()
            if pool._synced_sets == pool.num_total:
                tiers.add("pending" if pool._pend_sets.size else "main")
            else:
                tiers.add("lagging")
        assert tiers == {"main", "pending", "lagging"}


_N = 9
_NODES = st.integers(0, _N - 1)
_SET_LISTS = st.lists(st.lists(_NODES, max_size=3), min_size=1, max_size=14)
_POOL_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("add"), _SET_LISTS),
        st.tuples(st.just("rewind")),
        st.tuples(st.just("reveal"), st.integers(0, 16)),
        st.tuples(st.just("remove"), _NODES),
        st.tuples(st.just("cover"), st.lists(_NODES, max_size=3), st.booleans()),
        st.tuples(st.just("ids"), _NODES, st.booleans()),
    ),
    max_size=40,
)


def _flat(sets):
    return (
        np.asarray([v for s in sets for v in s], dtype=np.int32),
        np.asarray([len(s) for s in sets], dtype=np.int64),
    )


#: Fourteen sets, 29 members: past the test's 24-member main-tier floor.
_FIRST = [
    [0, 1, 2], [3, 4], [5], [6, 7, 8], [0, 3], [1, 4, 7], [2],
    [8, 0], [4, 5, 6], [1], [7, 2], [3, 3], [0, 8, 4], [6],
]
_MORE = [[0, 4], [8], [1, 2, 0]]

#: The schedules a kept index exists for: rewind, reveal part of the
#: sample, read (the kept index lists hidden sets), append once all is
#: visible, read again (the kept index covers less than is visible).
_KEPT_INDEX_SCHEDULES = [
    [
        ("add", _FIRST), ("ids", 0, False),
        ("rewind",), ("reveal", 5), ("ids", 0, False),
        ("cover", [0, 4, 8], False), ("remove", 4), ("ids", 4, False),
        ("add", _MORE), ("reveal", 9), ("add", _MORE),
        ("ids", 0, False), ("cover", [0, 8], True), ("remove", 0),
    ],
    [
        ("add", _FIRST), ("add", _MORE), ("cover", [1], True),
        ("rewind",), ("reveal", 3), ("ids", 1, True), ("remove", 2),
        ("reveal", 14), ("add", _MORE), ("ids", 1, True),
        ("rewind",), ("reveal", 20), ("ids", 1, False), ("cover", [0, 2], False),
    ],
    [
        ("add", _FIRST), ("remove", 3), ("add", _MORE),
        ("rewind",), ("reveal", 10), ("cover", [8], True),
        ("reveal", 7), ("ids", 0, True), ("remove", 0), ("cover", [1, 2], True),
    ],
]


class TestRewindReveal:
    """A pool is an immutable sample plus a run state: ``rewind`` drops
    the run state, ``reveal`` replays appends without the copy."""

    @settings(max_examples=300, deadline=None)
    @given(ops=_POOL_OPS)
    @example(ops=_KEPT_INDEX_SCHEDULES[0])
    @example(ops=_KEPT_INDEX_SCHEDULES[1])
    @example(ops=_KEPT_INDEX_SCHEDULES[2])
    def test_equals_a_fresh_pool_fed_the_visible_sets(self, ops):
        """Model: a *fresh* pool — rebuilt at every rewind — fed by
        ``add_flat`` exactly the sets the pool under test was asked to
        show, in the same steps.  Everything observable must agree,
        ``memory_bytes()`` (the index as held) included."""
        with pytest.MonkeyPatch.context() as patch:
            # Short schedules reach both sides of the rebuild threshold.
            patch.setattr(pool_module, "_MIN_INDEXED_MEMBERS", 24)
            pool, twin = RRSetPool(_N), RRSetPool(_N)
            resident: list[list[int]] = []
            for op, *args in ops:
                hidden = len(resident) - pool.num_total
                if op == "add":
                    if hidden:
                        with pytest.raises(ValueError, match="hidden"):
                            pool.add_flat(*_flat(args[0]))
                    else:
                        pool.add_flat(*_flat(args[0]))
                        twin.add_flat(*_flat(args[0]))
                        resident.extend(args[0])
                elif op == "rewind":
                    pool.rewind()
                    twin = RRSetPool(_N)
                elif op == "reveal":
                    count = args[0]
                    if count > hidden:
                        with pytest.raises(ValueError, match="hidden"):
                            pool.reveal(count)
                        count %= hidden + 1  # then one that fits
                    shown = resident[pool.num_total : pool.num_total + count]
                    pool.reveal(count)
                    twin.add_flat(*_flat(shown))
                elif op == "remove":
                    assert pool.remove_covered(args[0]) == twin.remove_covered(
                        args[0]
                    )
                elif op == "cover":
                    assert pool.coverage_of_set(
                        args[0], alive_only=args[1]
                    ) == twin.coverage_of_set(args[0], alive_only=args[1])
                elif op == "ids":
                    assert np.array_equal(
                        pool.set_ids_containing(args[0], alive_only=args[1]),
                        twin.set_ids_containing(args[0], alive_only=args[1]),
                    )
                # Through accessors that never sync the index, so the
                # as-held index bytes are compared as the ops left them.
                assert pool.num_total == twin.num_total
                assert pool.num_alive == twin.num_alive
                assert pool.num_resident == len(resident)
                assert np.array_equal(pool.alive_mask(), twin.alive_mask())
                assert np.array_equal(pool.coverage(), twin.coverage())
                assert pool.memory_bytes() == twin.memory_bytes()
                assert [s.tolist() for s in pool.all_sets()] == [
                    s.tolist() for s in twin.all_sets()
                ]

    def test_reveal_copies_nothing_and_rewind_keeps_the_rows(self):
        pool = RRSetPool(6)
        pool.add_sets(_sets([0, 1], [2], [], [3, 4, 5]))
        first = pool.get_set(3)
        pool.remove_covered(2)
        allocated = pool.allocated_bytes()
        pool.rewind()
        assert (pool.num_total, pool.num_alive, pool.num_resident) == (0, 0, 4)
        assert not pool.coverage().any()
        assert pool.memory_bytes() == RRSetPool(6).memory_bytes()
        assert pool.allocated_bytes() == allocated  # the sample stays
        with pytest.raises(IndexError):
            pool.get_set(0)  # hidden sets are not visible to queries
        pool.reveal(4)
        assert np.shares_memory(pool.get_set(3), first)
        assert pool.alive_mask().tolist() == [True] * 4  # alive again
        assert pool.coverage().tolist() == [1, 1, 1, 1, 1, 1]
        assert pool.set_ids_containing(2).tolist() == [1]

    def test_resident_rows_reach_hidden_sets(self):
        pool = RRSetPool(6)
        pool.add_sets(_sets([0, 1], [2], [], [3, 4, 5]))
        pool.rewind()
        members, lengths = pool.resident_rows(1, 4)
        assert members.tolist() == [2, 3, 4, 5]
        assert lengths.tolist() == [1, 0, 3] and lengths.dtype == np.int64
        assert members.dtype == np.int32
        with pytest.raises(IndexError):
            pool.resident_rows(2, 5)

    def test_append_is_refused_while_sets_are_hidden(self):
        pool = RRSetPool(4)
        pool.add_sets(_sets([0], [1, 2]))
        pool.rewind()
        pool.reveal(1)
        with pytest.raises(ValueError, match="hidden"):
            pool.add_sets(_sets([3]))
        with pytest.raises(ValueError, match="hidden"):
            pool.reveal(2)
        with pytest.raises(ValueError, match="hidden"):
            pool.reveal(-1)
        assert pool.num_total == 1 and pool.coverage().tolist() == [1, 0, 0, 0]
        pool.reveal(1)
        assert pool.add_sets(_sets([3])) == [2]
        assert pool.num_resident == 3


class TestViews:
    def test_prefix_view_is_zero_copy(self):
        pool = RRSetPool(5)
        pool.add_sets(_sets([0, 1], [2], [3, 4]))
        view = pool.prefix_view(2)
        assert isinstance(view, CSRSetView)
        assert view.num_sets == 2
        assert view.members.base is not None  # a view, not a copy
        assert view.get_set(0).tolist() == [0, 1]
        assert view.get_set(1).tolist() == [2]

    def test_prefix_view_defaults_to_all(self):
        pool = RRSetPool(5)
        pool.add_sets(_sets([0], [1], [2]))
        assert pool.prefix_view().num_sets == 3

    def test_prefix_view_clamps(self):
        pool = RRSetPool(5)
        pool.add_sets(_sets([0]))
        assert pool.prefix_view(10).num_sets == 1
        assert pool.prefix_view(-3).num_sets == 0

    def test_first_k_sets(self):
        pool = RRSetPool(5)
        pool.add_sets(_sets([0, 1], [2], [3]))
        first = pool.first_k_sets(2)
        assert [s.tolist() for s in first] == [[0, 1], [2]]

    def test_set_ids_containing_array(self):
        pool = RRSetPool(5)
        ids = pool.add_sets(_sets([0, 1], [1, 2], [2]))
        hits = pool.set_ids_containing(1)
        assert isinstance(hits, np.ndarray)
        assert sorted(hits.tolist()) == [ids[0], ids[1]]
        pool.remove_covered(0)
        assert pool.set_ids_containing(1).tolist() == [ids[1]]
        assert sorted(pool.set_ids_containing(1, alive_only=False).tolist()) == [
            ids[0], ids[1],
        ]

    def test_alive_mask(self):
        pool = RRSetPool(5)
        pool.add_sets(_sets([0], [1], [0, 1]))
        pool.remove_covered(0)
        assert pool.alive_mask().tolist() == [False, True, False]
        with pytest.raises(ValueError):
            pool.alive_mask()[0] = True


class TestViewGenerations:
    def test_generation_bumps_on_reallocation(self):
        pool = RRSetPool(50)
        pool.add_sets(_sets([0, 1]))
        start = pool.generation
        # small append: fits in the initial capacity, no retirement
        pool.add_sets(_sets([2]))
        assert pool.generation == start
        # blow past the member-buffer capacity: generation must move
        big = [np.arange(50, dtype=np.int64) for _ in range(60)]
        pool.add_sets(big)
        assert pool.generation > start

    def test_prefix_view_survives_growth_reallocation(self):
        """Regression: a view held across a growth-triggered reallocation
        used to keep pointing at the retired buffer.  It must now
        re-materialize against the live one with identical contents."""
        pool = RRSetPool(50)
        pool.add_sets(_sets([0, 1], [2, 3, 4]))
        view = pool.prefix_view(2)
        before = [view.get_set(i).tolist() for i in range(2)]
        old_members = pool._members
        big = [np.arange(50, dtype=np.int64) for _ in range(200)]
        pool.add_sets(big)
        assert pool._members is not old_members  # reallocation happened
        # contents unchanged, but served from the live buffer
        assert [view.get_set(i).tolist() for i in range(2)] == before
        assert np.shares_memory(view.members, pool._members)
        assert view.indptr.tolist() == pool._indptr[:3].tolist()

    def test_view_grows_pool_mid_theta_pilot(self):
        """The `_theta_for` pattern: greedy-cover an OPT pilot window
        while top-up sampling grows the pool underneath it."""
        from repro.rrset.tim import greedy_max_coverage

        pool = RRSetPool(30)
        rng = np.random.default_rng(8)
        pool.add_sets(
            [rng.choice(30, size=4, replace=False) for _ in range(50)]
        )
        pilot = pool.prefix_view(50)
        expected = greedy_max_coverage(pilot, 30, 3)
        # grow well past capacity, as a θ top-up would
        pool.add_sets([rng.choice(30, size=6, replace=False) for _ in range(800)])
        # the held view still answers over exactly the first 50 sets
        assert greedy_max_coverage(pilot, 30, 3) == expected
        assert pilot.num_sets == 50

    def test_detached_view_is_frozen(self):
        pool = RRSetPool(10)
        pool.add_sets(_sets([0, 1], [2]))
        detached = pool.prefix_view().detach()
        pool.add_sets([np.arange(10, dtype=np.int64) for _ in range(300)])
        assert detached.num_sets == 2
        assert detached.get_set(0).tolist() == [0, 1]
        assert not np.shares_memory(detached.members, pool._members)


class TestBounds:
    def test_get_set_range_checked(self):
        pool = RRSetPool(3)
        pool.add_sets(_sets([0]))
        with pytest.raises(IndexError):
            pool.get_set(1)
        with pytest.raises(IndexError):
            pool.is_alive(-1)

    def test_node_range_checked(self):
        pool = RRSetPool(3)
        pool.add_sets(_sets([0]))
        with pytest.raises(IndexError):
            pool.remove_covered(3)
        with pytest.raises(IndexError):
            pool.coverage_of_set([5])


class TestMemoryAccounting:
    def test_reports_real_buffer_bytes(self):
        pool = RRSetPool(100)
        rng = np.random.default_rng(2)
        pool.add_sets(
            [rng.choice(100, size=5, replace=False) for _ in range(1_000)]
        )
        unread = pool.memory_bytes()
        # Never index-read: the int32 members dominate, and asking for
        # the bytes built no index.
        assert 1_000 * 5 * 4 <= unread < 1_000 * 5 * (4 + 4)
        assert pool._idx_sets.size == 0 and pool._indexed_sets == 0
        assert unread <= pool.allocated_bytes()
        pool.coverage_of_set([0])
        reported = pool.memory_bytes()
        # int32 members + int32 index entries: 5 members/set × 8 bytes.
        assert reported == unread + 1_000 * 5 * 4
        assert reported <= pool.allocated_bytes()
        pool.add_sets([np.asarray([1, 2])])  # +2 members: 8 B/member mini-index
        assert pool.memory_bytes() == reported + 2 * 4 + 8 + 1
        pool.coverage_of_set([0])
        assert pool.memory_bytes() == reported + 2 * 4 + 8 + 1 + 2 * (4 + 4)

    def test_members_are_int32(self):
        pool = RRSetPool(10)
        pool.add_sets(_sets([1, 2]))
        assert pool.get_set(0).dtype == np.int32


class TestCapacityLimits:
    """int32 overflow guards: the pool must refuse — loudly, before any
    buffer mutation — appends that would wrap set ids or member offsets
    past 2^31 and silently corrupt the CSR index."""

    def _near_set_limit(self):
        from repro.rrset.pool import MAX_SETS

        pool = RRSetPool(4)
        pool.add_sets(_sets([0], [1]))
        snapshot = (pool.num_total, pool.coverage().copy())
        # White-box: fake a pool one set short of the id limit — actually
        # appending 2^31 sets is not testable hardware-wise.
        pool._num_sets = MAX_SETS - 1
        return pool, snapshot

    def test_add_flat_refuses_set_id_overflow(self):
        from repro.errors import CapacityError

        pool, _ = self._near_set_limit()
        with pytest.raises(CapacityError, match="set-id limit"):
            pool.add_flat(
                np.asarray([0, 1, 2], dtype=np.int32),
                np.asarray([1, 1, 1], dtype=np.int64),
            )

    def test_add_flat_refuses_member_offset_overflow(self):
        from repro.errors import CapacityError
        from repro.rrset.pool import MAX_MEMBERS

        pool = RRSetPool(4)
        pool.add_sets(_sets([0, 1]))
        pool._members_used = MAX_MEMBERS - 1
        with pytest.raises(CapacityError, match="member-offset limit"):
            pool.add_flat(
                np.asarray([0, 1], dtype=np.int32),
                np.asarray([2], dtype=np.int64),
            )

    def test_reserve_helpers_refuse_overflow_directly(self):
        from repro.errors import CapacityError
        from repro.rrset.pool import MAX_MEMBERS, MAX_SETS

        pool = RRSetPool(4)
        with pytest.raises(CapacityError):
            pool._reserve_members(MAX_MEMBERS + 1)
        with pytest.raises(CapacityError):
            pool._reserve_sets(MAX_SETS + 1)

    def test_refused_append_leaves_pool_untouched(self):
        """The guard must fire before any mutation: a refused append is
        not a partially applied one."""
        from repro.errors import CapacityError
        from repro.rrset.pool import MAX_SETS

        pool = RRSetPool(4)
        pool.add_sets(_sets([0], [1, 2]))
        coverage = pool.coverage().copy()
        members_used = pool._members_used
        pool._num_sets = MAX_SETS  # at the limit: any append overflows
        with pytest.raises(CapacityError):
            pool.add_flat(
                np.asarray([3], dtype=np.int32), np.asarray([1], dtype=np.int64)
            )
        pool._num_sets = 2  # restore the honest count
        assert pool._members_used == members_used
        assert np.array_equal(pool.coverage(), coverage)
        assert pool.num_total == 2


class TestKillSets:
    def test_kills_by_id_and_decrements_coverage(self):
        pool = RRSetPool(5)
        pool.add_sets(_sets([0, 1], [1, 2], [3]))
        killed = pool.kill_sets([0, 2])
        assert killed == 2
        assert pool.num_alive == 1
        assert not pool.is_alive(0) and pool.is_alive(1) and not pool.is_alive(2)
        assert pool.coverage_of(1) == 1  # only set 1 still covers node 1
        assert pool.coverage_of(0) == 0 and pool.coverage_of(3) == 0

    def test_already_dead_ids_are_ignored(self):
        pool = RRSetPool(5)
        pool.add_sets(_sets([0], [1]))
        assert pool.kill_sets([0]) == 1
        assert pool.kill_sets([0, 1]) == 1  # 0 already dead
        assert pool.kill_sets([]) == 0
        assert pool.num_alive == 0

    def test_restores_remove_covered_semantics(self):
        """Killing the snapshot's dead ids reproduces the exact state a
        sequence of ``remove_covered`` calls left behind."""
        rng = np.random.default_rng(5)
        source = RRSetPool(30)
        source.add_sets(
            [rng.choice(30, size=4, replace=False) for _ in range(200)]
        )
        twin = RRSetPool(30)
        twin.add_sets([source.get_set(i).copy() for i in range(200)])
        for node in (3, 17, 9):
            source.remove_covered(node)
        dead = np.flatnonzero(~np.asarray(source.alive_mask()))
        twin.kill_sets(dead)
        assert np.array_equal(twin.alive_mask(), source.alive_mask())
        assert np.array_equal(twin.coverage(), source.coverage())
        assert twin.num_alive == source.num_alive

    def test_rejects_out_of_range_ids(self):
        pool = RRSetPool(3)
        pool.add_sets(_sets([0]))
        with pytest.raises(IndexError):
            pool.kill_sets([5])
        with pytest.raises(IndexError):
            pool.kill_sets([-1])
