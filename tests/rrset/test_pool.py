"""RRSetPool: flat-CSR storage, bulk index maintenance, and views."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.graph.probabilities import constant_probabilities
from repro.rrset.dsan import digest_block
from repro.rrset.pool import MAX_SETS, CSRSetView, RRSetPool, _build_csr_index
from repro.rrset.sampler import RRSetSampler, StreamPlan

from tests.rrset._pool_helpers import (
    add_sets,
    alive_mask,
    all_sets,
    get_set,
    is_alive,
    view_sets,
)
from tests.rrset._reference_pool import _sorted_keys


def _sets(*members):
    return [np.asarray(m, dtype=np.int64) for m in members]


class TestAddFlat:
    def test_bulk_append(self):
        pool = RRSetPool(6)
        pool.add_flat(np.asarray([0, 1, 2, 3, 1]), np.asarray([2, 3]))
        assert pool.num_total == 2
        assert get_set(pool, 0).tolist() == [0, 1]
        assert get_set(pool, 1).tolist() == [2, 3, 1]
        assert pool.coverage().tolist() == [1, 2, 1, 1, 0, 0]

    def test_empty_sets_are_registered(self):
        pool = RRSetPool(4)
        pool.add_flat(np.asarray([2]), np.asarray([0, 1, 0]))
        assert pool.num_total == 3
        assert get_set(pool, 0).size == 0
        assert get_set(pool, 1).tolist() == [2]
        assert get_set(pool, 2).size == 0
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

    @pytest.mark.parametrize(
        "members, lengths, dtype",
        [
            (np.array([0.9, 2.7, 4.99]), np.array([1, 2]), "float64"),
            (np.array([True, False, True]), np.array([3]), "bool"),
            (np.array([1, 2]), np.array([1.9, 1.1]), "float64"),
            (np.array([1, 2]), [1.0, 1.0], "float64"),
        ],
    )
    def test_non_integer_input_is_refused_not_truncated(self, members, lengths, dtype):
        """A float or bool array used to be cast (0.9 -> node 0, True ->
        node 1, length 1.9 -> 1); it is refused by name instead."""
        pool = RRSetPool(6)
        with pytest.raises(ValueError, match=f"dtype {dtype}"):
            pool.add_flat(members, lengths)
        assert pool.num_total == 0 and not pool.coverage().any()

    def test_empty_input_of_any_dtype_is_accepted(self):
        pool = RRSetPool(3)
        pool.add_flat([], [])
        pool.add_flat(np.empty(0), np.asarray([0, 0]))
        assert pool.num_total == 2 and pool.prefix_view().members.size == 0

    def test_growth_across_many_batches(self):
        """Appends far past the initial capacities keep all data intact."""
        pool = RRSetPool(50)
        rng = np.random.default_rng(0)
        reference = []
        for _ in range(40):
            batch = [rng.choice(50, size=rng.integers(1, 6), replace=False)
                     for _ in range(rng.integers(1, 60))]
            add_sets(pool, batch)
            reference.extend(batch)
        assert pool.num_total == len(reference)
        for i, members in enumerate(reference):
            assert get_set(pool, i).tolist() == list(members)
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
        assert get_set(pool, 0).tolist() == [2, 3, 1]
        assert get_set(pool, 1).tolist() == [4]

    def test_leading_padding_via_lengths_offset(self):
        pool = RRSetPool(6)
        buf = self._packed([5, 0], [1, 1], pad_before=16)
        pool.add_flat_from_buffer(
            buf, num_sets=2, num_members=2, lengths_offset=16
        )
        assert get_set(pool, 0).tolist() == [5]
        assert get_set(pool, 1).tolist() == [0]

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
        assert get_set(pool, 1).tolist() == [1, 2]

    def test_add_flat_still_accepts_int64_convenience_input(self):
        """Any integer dtype goes straight through ``add_flat``'s one
        copy: int64 members are cast into the int32 buffer in place."""
        pool = RRSetPool(6)
        pool.add_flat(
            np.asarray([0, 1], dtype=np.int64), np.asarray([2], dtype=np.int64)
        )
        pool.add_flat(
            np.asarray([2], dtype=np.int32), np.asarray([1], dtype=np.int32)
        )
        assert pool.num_total == 2
        assert get_set(pool, 0).tolist() == [0, 1]
        assert get_set(pool, 1).tolist() == [2]


class TestIndexMaintenance:
    def test_pending_mini_index_serves_queries(self):
        """Sets appended after a build are pending until the next index
        read, which rebuilds the one index over every visible set (there is
        no separate mini-index for them).  A +2-set top-up after a 700-set
        build: appending indexes nothing, and queries see the new sets,
        answering like the model, at 4 B (one ``int32`` set id) per indexed
        member."""
        pool, model = RRSetPool(30), _ModelPool(30)
        rng = np.random.default_rng(1)
        big = [rng.choice(30, size=8, replace=False).tolist() for _ in range(700)]
        add_sets(pool, big)
        model.add(big)
        assert pool.coverage_of_set([4]) == model.coverage_of_set([4])
        assert pool._idx_sets.size == 700 * 8
        built = pool.memory_bytes()
        top_up = [[3, 4], [4, 5]]
        add_sets(pool, top_up)
        model.add(top_up)
        assert pool._idx_sets.size == 700 * 8  # the append indexed nothing
        # The new rows only: 4 int32 members, 2 int32 offsets, 2 flags.
        unread = pool.memory_bytes()
        assert unread == built + 4 * 4 + 2 * 4 + 2
        for nodes in ([4], [3], [3, 5], [0, 4, 5]):
            assert pool.coverage_of_set(nodes) == model.coverage_of_set(nodes)
        assert pool.memory_bytes() == unread + 4 * 4
        assert pool._idx_sets.size == 700 * 8 + 4  # every visible member
        for node in (4, 3, 5):
            assert pool.remove_covered(node) == model.kill(
                model.alive_ids_containing(node)
            )
        assert pool.coverage().tolist() == model.coverage()

    def test_full_rebuild_when_pending_grows(self):
        """Every index read after growth rebuilds over every visible set,
        removed ones included, however few sets are pending."""
        pool = RRSetPool(10)
        add_sets(pool, _sets(*[[i % 10] for i in range(5_000)]))
        assert pool.remove_covered(0) == 500
        assert pool._synced_sets == 5_000
        add_sets(pool, _sets(*[[i % 10] for i in range(1_249)]))
        assert pool._synced_sets == 5_000  # the append indexed nothing
        assert pool.coverage_of_set([0]) == 500 + 125  # removed sets count too
        assert pool._synced_sets == pool.num_total == 6_249
        assert pool._idx_sets.size == 6_249
        add_sets(pool, _sets([0]))  # a single pending set
        assert pool.coverage_of_set([0]) == 500 + 125 + 1  # every visible set
        assert pool._synced_sets == pool.num_total == 6_250
        assert pool._idx_sets.size == 6_250
        assert pool.remove_covered(0) == 126  # the 500 are already dead
        assert pool.coverage()[0] == 0

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
        counts = [pool.remove_covered(7)]
        assert counts[0] > 0
        assert build_calls == [appended]  # one build for the whole event
        counts.append(pool.remove_covered(8))
        pool.coverage_of_set([1, 2, 3])
        pool.coverage_of_set([4])
        assert len(build_calls) == 1
        members, lengths = chunk(5)  # a +5 top-up rebuilds over everything
        pool.add_flat(members, lengths)
        assert len(build_calls) == 1
        pool.coverage_of_set([9])
        assert build_calls == [appended, appended + members.size]
        # The resume path (re-derive the sets, replay the seeds) builds
        # once, at the first seed; every non-index accessor builds nothing.
        resumed = RRSetPool(40)
        view = pool.prefix_view(3_200)
        resumed.add_flat(view.members, np.diff(view.indptr))
        assert [resumed.remove_covered(7), resumed.remove_covered(8)] == counts
        assert build_calls == [appended, appended + members.size, appended]
        assert np.array_equal(alive_mask(resumed), alive_mask(pool)[:3_200])
        pool.add_flat(*chunk(300))
        for p in (pool, resumed):
            p.prefix_view(50).members
            p.resident_rows(0, 10)
            p.coverage()
            p.memory_bytes()
        assert len(build_calls) == 3


def _reference_index(members, lengths):
    """The stable-argsort construction the index kernels replaced, kept
    as the reference: ``(sorted members, owning set ids)``."""
    owners = np.repeat(np.arange(len(lengths), dtype=np.int64), lengths)
    order = np.argsort(members, kind="stable")
    return members[order], owners[order]


def _assert_builder_matches_reference(members, empty_first, lengths, num_nodes):
    """The builder numbers sets from 0: ``empty_first`` empty sets go
    first, so the listed sets carry ids ``empty_first ..``."""
    members = np.asarray(members, dtype=np.int32)
    lengths = np.concatenate(
        (np.zeros(empty_first, dtype=np.int64), np.asarray(lengths, dtype=np.int64))
    )
    nodes, owners = _reference_index(members, lengths)
    indptr, set_ids = _build_csr_index(members, lengths, num_nodes)
    assert set_ids.dtype == np.int32 and indptr.dtype == np.int32
    assert np.array_equal(set_ids, owners)
    assert np.array_equal(
        indptr, np.searchsorted(nodes, np.arange(num_nodes + 1))
    )


class TestBuildKernel:
    """The index is built by one counting sort; it must leave exactly
    the order of the stable argsort it replaced."""

    @given(data=st.data())
    @settings(max_examples=120, deadline=None)
    def test_matches_stable_argsort(self, data):
        num_nodes = data.draw(st.sampled_from([1, 3, 40, 70_000]))
        node = st.one_of(
            st.integers(0, num_nodes - 1), st.just(num_nodes - 1), st.just(0)
        )
        # Not ``unique``: a node may repeat inside one set (equal keys).
        sets = data.draw(st.lists(st.lists(node, max_size=6), max_size=30))
        empty_first = data.draw(st.sampled_from([0, 1, 700, 2**16]))
        _assert_builder_matches_reference(
            [v for members in sets for v in members],
            empty_first,
            [len(members) for members in sets],
            num_nodes,
        )

    @pytest.mark.parametrize(
        "members, empty_first, lengths, num_nodes",
        [
            ([], 0, [], 4),  # nothing at all
            ([], 5, [0, 0, 0], 4),  # only empty sets
            ([2, 2, 2, 0, 2], 0, [3, 2], 3),  # a node repeated inside one set
            ([1, 0, 1], 9, [0, 2, 0, 0, 1], 2),  # empty sets between members
            ([6, 0, 6, 6], 3, [1, 3], 7),  # node num_nodes - 1
            ([69_999, 65_536, 0, 65_535, 69_999], 2, [2, 3], 70_000),  # n > 2^16
        ],
    )
    def test_explicit_edges(self, members, empty_first, lengths, num_nodes):
        _assert_builder_matches_reference(members, empty_first, lengths, num_nodes)

    def test_both_words_at_the_int32_limit(self):
        """The numpy oracle of ``test_pool_kernels.py`` builds its index
        from packed ``(member << 32) | set_id`` keys: the largest node id
        beside the largest set ids must come back whole from both words.
        (The compiled builder packs no keys and numbers the sets of its
        call from 0: set ids near 2^31 would need 2^31 lengths, 16 GiB,
        and the append guard keeps them below ``MAX_SETS``
        (``TestCapacityLimits``); a node id near 2^31 would need an
        O(num_nodes) ``indptr`` of 8 GiB.)"""
        top = 2**31 - 2
        keys = _sorted_keys(
            np.asarray([top, 0, top], dtype=np.int32),
            MAX_SETS - 2,
            np.asarray([1, 2], dtype=np.int64),
        )
        assert (keys >> 32).tolist() == [0, top, top]
        assert (keys & MAX_SETS).tolist() == [MAX_SETS - 1, MAX_SETS - 2, MAX_SETS - 1]

    def test_repeated_node_through_the_public_api(self):
        """``add_flat`` accepts a set naming a node twice; the index lists
        that set twice, ``coverage_of_set`` counts it once and removal
        still kills it once."""
        pool = RRSetPool(4)
        add_sets(pool, _sets([1, 1, 2], [3], [1, 0, 1]))
        assert pool.coverage_of_set([1]) == 2
        starts = pool._idx_indptr
        assert pool._idx_sets[starts[1] : starts[2]].tolist() == [0, 0, 2, 2]
        assert pool.remove_covered(1) == 2
        assert pool.coverage().tolist() == [0, 0, 0, 1]


class _ModelPool:
    """Brute-force list-of-sets model of :class:`RRSetPool`: the visible
    sets, and the hidden tail of the last append."""

    def __init__(self, num_nodes):
        self.num_nodes = num_nodes
        self.sets: list[list[int]] = []
        self.alive: list[bool] = []
        self.hidden: list[list[int]] = []

    def add(self, sets, visible=None):
        assert not self.hidden
        self.hidden = list(sets)
        self.reveal(len(sets) if visible is None else visible)

    def reveal(self, count):
        self.sets.extend(self.hidden[:count])
        self.alive.extend([True] * len(self.hidden[:count]))
        self.hidden = self.hidden[count:]

    def alive_ids_containing(self, node):
        return [
            i
            for i, members in enumerate(self.sets)
            for v in members
            if v == node and self.alive[i]
        ]

    def kill(self, ids):
        killed = {i for i in ids if self.alive[i]}
        for i in killed:
            self.alive[i] = False
        return len(killed)

    def coverage_of_set(self, nodes):
        return sum(any(v in members for v in nodes) for members in self.sets)

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
    against the brute-force model.  Appends draw how many of their sets
    are visible, so the hidden tail and its reveals interleave too."""

    @pytest.mark.parametrize("seed", range(6))
    def test_random_interleavings(self, seed):
        rng = np.random.default_rng(seed)
        n = 9
        pool, model = RRSetPool(n), _ModelPool(n)
        states = set()
        for _ in range(150):
            op = rng.integers(0, 7)
            node = int(rng.integers(0, n))
            nodes = rng.integers(0, n, size=rng.integers(0, 4)).tolist()
            if op == 0:  # batches of one set to forty
                count = int(rng.choice([1, 2, 12, 40]))
                sets = [
                    rng.integers(0, n, size=rng.integers(0, 4)).tolist()
                    for _ in range(count)
                ]
                flat = (
                    np.asarray([v for s in sets for v in s], dtype=np.int32),
                    np.asarray([len(s) for s in sets]),
                )
                visible = [None, 0, int(rng.integers(0, count + 1))][
                    rng.integers(0, 3)
                ]
                if model.hidden:
                    with pytest.raises(ValueError, match="hidden"):
                        pool.add_flat(*flat, visible=visible)
                    pool.reveal(len(model.hidden))
                    model.reveal(len(model.hidden))
                pool.add_flat(*flat, visible=visible)
                model.add(sets, visible)
            elif op == 1:
                assert pool.remove_covered(node) == model.kill(
                    model.alive_ids_containing(node)
                )
            elif op == 2:  # a checkpoint restore's seed replay
                for seed in nodes:
                    assert pool.remove_covered(seed) == model.kill(
                        model.alive_ids_containing(seed)
                    )
            elif op == 3:
                assert pool.coverage_of_set(nodes) == model.coverage_of_set(nodes)
            elif op == 4:
                assert pool.coverage_of_set([node]) == model.coverage_of_set([node])
            elif op == 5:
                assert pool.coverage()[node] == model.coverage()[node]
            elif op == 6:
                count = int(rng.integers(0, len(model.hidden) + 1))
                pool.reveal(count)
                model.reveal(count)
            # After every step — through accessors that never read
            # (hence never sync) the index, so a reader that forgot
            # its own sync is not rescued by this check.
            assert pool.num_total == len(model.sets)
            assert pool.num_resident == len(model.sets) + len(model.hidden)
            assert pool.num_alive == sum(model.alive)
            assert alive_mask(pool).tolist() == model.alive
            assert pool.coverage().tolist() == model.coverage()
            states.add(
                "indexed" if pool._synced_sets == pool.num_total else "lagging"
            )
        assert states == {"indexed", "lagging"}


_N = 9
_NODES = st.integers(0, _N - 1)
_SET_LISTS = st.lists(st.lists(_NODES, max_size=3), min_size=1, max_size=14)
_POOL_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("add"), _SET_LISTS),
        st.tuples(st.just("rewind")),
        st.tuples(st.just("reveal"), st.integers(0, 16)),
        st.tuples(st.just("remove"), _NODES),
        st.tuples(st.just("cover"), st.lists(_NODES, max_size=3)),
    ),
    max_size=40,
)


def _flat(sets):
    return (
        np.asarray([v for s in sets for v in s], dtype=np.int32),
        np.asarray([len(s) for s in sets], dtype=np.int64),
    )


#: Fourteen sets, 29 members.
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
        ("add", _FIRST), ("cover", [0]),
        ("rewind",), ("reveal", 5), ("cover", [0]),
        ("cover", [0, 4, 8]), ("remove", 4), ("cover", [4]),
        ("add", _MORE), ("reveal", 9), ("add", _MORE),
        ("cover", [0]), ("cover", [0, 8]), ("remove", 0),
    ],
    [
        ("add", _FIRST), ("add", _MORE), ("cover", [1]),
        ("rewind",), ("reveal", 3), ("cover", [1]), ("remove", 2),
        ("reveal", 14), ("add", _MORE), ("cover", [1]),
        ("rewind",), ("reveal", 20), ("cover", [1]), ("cover", [0, 2]),
    ],
    [
        ("add", _FIRST), ("remove", 3), ("add", _MORE),
        ("rewind",), ("reveal", 10), ("cover", [8]),
        ("reveal", 7), ("cover", [0]), ("remove", 0), ("cover", [1, 2]),
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
                assert pool.coverage_of_set(args[0]) == twin.coverage_of_set(
                    args[0]
                )
            # Through accessors that never sync the index, so the
            # as-held index bytes are compared as the ops left them.
            assert pool.num_total == twin.num_total
            assert pool.num_alive == twin.num_alive
            assert pool.num_resident == len(resident)
            assert np.array_equal(alive_mask(pool), alive_mask(twin))
            assert np.array_equal(pool.coverage(), twin.coverage())
            assert pool.memory_bytes() == twin.memory_bytes()
            assert [s.tolist() for s in all_sets(pool)] == [
                s.tolist() for s in all_sets(twin)
            ]

    def test_reveal_copies_nothing_and_rewind_keeps_the_rows(self):
        pool = RRSetPool(6)
        add_sets(pool, _sets([0, 1], [2], [], [3, 4, 5]))
        first = get_set(pool, 3)
        pool.remove_covered(2)
        pool.rewind()
        assert (pool.num_total, pool.num_alive, pool.num_resident) == (0, 0, 4)
        assert not pool.coverage().any()
        assert pool.memory_bytes() == RRSetPool(6).memory_bytes()
        assert pool.prefix_view().num_sets == 0  # hidden sets are not visible
        assert np.shares_memory(pool.resident_rows(3, 4)[0], first)  # the sample stays
        pool.reveal(4)
        assert np.shares_memory(get_set(pool, 3), first)
        assert alive_mask(pool).tolist() == [True] * 4  # alive again
        assert pool.coverage().tolist() == [1, 1, 1, 1, 1, 1]
        assert pool.coverage_of_set([2]) == 1
        assert pool.remove_covered(2) == 1

    def test_resident_rows_reach_hidden_sets(self):
        pool = RRSetPool(6)
        add_sets(pool, _sets([0, 1], [2], [], [3, 4, 5]))
        pool.rewind()
        members, lengths = pool.resident_rows(1, 4)
        assert members.tolist() == [2, 3, 4, 5]
        assert lengths.tolist() == [1, 0, 3] and lengths.dtype == np.int64
        assert members.dtype == np.int32
        with pytest.raises(IndexError):
            pool.resident_rows(2, 5)

    def test_resident_rows_are_the_spliced_chunks_bytes(self, small_random_graph):
        """The pool's offsets are ``int32``, but ``resident_rows`` hands
        out ``int64`` lengths, the packed-block layout: a resident chunk,
        hidden or visible, hashes to the dsan digest its splice recorded."""
        sampler = RRSetSampler(
            small_random_graph, constant_probabilities(small_random_graph, 0.1)
        )
        plan = StreamPlan(4, ad=0, chunk_size=40)
        pool = RRSetPool(small_random_graph.num_nodes)
        digests = []
        for chunk in range(3):
            members, lengths = sampler.sample_chunk_block(plan, chunk)
            digests.append(digest_block(members, lengths))
            pool.add_flat(members, lengths)
        for _visible_then_hidden in range(2):
            for chunk, digest in enumerate(digests):
                members, lengths = pool.resident_rows(40 * chunk, 40 * chunk + 40)
                assert lengths.dtype == np.int64 and members.dtype == np.int32
                assert digest_block(members, lengths) == digest
            pool.rewind()

    def test_append_is_refused_while_sets_are_hidden(self):
        pool = RRSetPool(4)
        add_sets(pool, _sets([0], [1, 2]))
        pool.rewind()
        pool.reveal(1)
        with pytest.raises(ValueError, match="hidden"):
            add_sets(pool, _sets([3]))
        with pytest.raises(ValueError, match="hidden"):
            pool.reveal(2)
        with pytest.raises(ValueError, match="hidden"):
            pool.reveal(-1)
        assert pool.num_total == 1 and pool.coverage().tolist() == [1, 0, 0, 0]
        pool.reveal(1)
        assert add_sets(pool, _sets([3])) == [2]
        assert pool.num_resident == 3


class TestHiddenTail:
    """``add_flat(..., visible=k)`` appends every set resident and shows
    the first ``k``: the rest is a hidden tail that a later ``reveal``
    continues."""

    def test_visible_prefix_and_reveal(self):
        pool = RRSetPool(6)
        pool.add_flat(*_flat([[0, 1], [2], [], [3, 4, 5]]), visible=2)
        assert (pool.num_total, pool.num_alive, pool.num_resident) == (2, 2, 4)
        assert pool.coverage().tolist() == [1, 1, 1, 0, 0, 0]
        assert [s.tolist() for s in all_sets(pool)] == [[0, 1], [2]]
        assert pool.coverage_of_set([2, 3]) == 1
        pool.reveal(2)
        assert (pool.num_total, pool.num_alive) == (4, 4)
        assert pool.coverage().tolist() == [1, 1, 1, 1, 1, 1]
        assert pool.coverage_of_set([2, 3]) == 2

    @pytest.mark.parametrize("visible", [-1, 5, 2.0, 1.5, True, False, "2"])
    def test_bad_visible_is_refused_and_changes_nothing(self, visible):
        pool = RRSetPool(6)
        add_sets(pool, _sets([0]))
        before = (pool.num_total, pool.num_resident, pool.coverage().tolist())
        with pytest.raises(ValueError, match="visible"):
            pool.add_flat(*_flat([[1], [2], [3], [4]]), visible=visible)
        assert (
            pool.num_total, pool.num_resident, pool.coverage().tolist()
        ) == before

    @pytest.mark.parametrize("cast", [int, np.int64, np.int32, np.uint8])
    def test_integer_visible_is_taken(self, cast):
        pool = RRSetPool(6)
        pool.add_flat(*_flat([[1], [2], [3]]), visible=cast(2))
        assert (pool.num_total, pool.num_resident) == (2, 3)

    def test_append_is_refused_while_the_tail_is_hidden(self):
        pool = RRSetPool(6)
        pool.add_flat(*_flat([[0], [1], [2]]), visible=1)
        for visible in (None, 0, 1):
            with pytest.raises(ValueError, match="hidden"):
                pool.add_flat(*_flat([[3]]), visible=visible)
        assert (pool.num_total, pool.num_resident) == (1, 3)
        pool.reveal(2)
        pool.add_flat(*_flat([[3]]), visible=0)
        assert (pool.num_total, pool.num_resident) == (3, 4)

    def test_reallocating_append_keeps_its_hidden_tail(self):
        """An append that outgrows both buffers copies the visible and
        the hidden rows alike into the new ones."""
        pool = RRSetPool(9)
        add_sets(pool, _sets([0, 1]))
        rng = np.random.default_rng(4)
        sets = [rng.integers(0, 9, size=rng.integers(0, 8)).tolist() for _ in range(600)]
        members, lengths = _flat(sets)
        assert members.size > 1_024  # past both initial capacities
        generation = pool.generation
        pool.add_flat(members, lengths, visible=100)
        assert pool.generation > generation
        assert (pool.num_total, pool.num_resident) == (101, 601)
        rows, sizes = pool.resident_rows(1, 601)
        assert rows.tobytes() == members.tobytes()
        assert sizes.tolist() == lengths.tolist()

    def test_memory_bytes_ignore_hidden_rows(self):
        """A pool holding a hidden tail reports the bytes of a pool fed
        only the visible sets, before and after an index read."""
        sets = [[0, 1, 2], [3], [4, 5], [], [1, 2, 3, 4]]
        pool, twin = RRSetPool(6), RRSetPool(6)
        pool.add_flat(*_flat(sets), visible=2)
        twin.add_flat(*_flat(sets[:2]))
        assert pool.memory_bytes() == twin.memory_bytes()
        pool.coverage_of_set([4])
        twin.coverage_of_set([4])
        assert pool.memory_bytes() == twin.memory_bytes()
        pool.reveal(3)
        twin.add_flat(*_flat(sets[2:]))
        assert pool.memory_bytes() == twin.memory_bytes()


class TestViews:
    def test_prefix_view_is_zero_copy(self):
        pool = RRSetPool(5)
        add_sets(pool, _sets([0, 1], [2], [3, 4]))
        view = pool.prefix_view(2)
        assert isinstance(view, CSRSetView)
        assert view.num_sets == 2
        assert view.members.base is not None  # a view, not a copy
        assert [s.tolist() for s in view_sets(view)] == [[0, 1], [2]]

    def test_prefix_view_defaults_to_all(self):
        pool = RRSetPool(5)
        add_sets(pool, _sets([0], [1], [2]))
        assert pool.prefix_view().num_sets == 3

    def test_prefix_view_clamps(self):
        pool = RRSetPool(5)
        add_sets(pool, _sets([0]))
        assert pool.prefix_view(10).num_sets == 1
        assert pool.prefix_view(-3).num_sets == 0

    def test_alive_mask(self):
        pool = RRSetPool(5)
        add_sets(pool, _sets([0], [1], [0, 1]))
        pool.remove_covered(0)
        assert alive_mask(pool).tolist() == [False, True, False]
        assert [is_alive(pool, i) for i in range(3)] == [False, True, False]


class TestViewGenerations:
    def test_generation_bumps_on_reallocation(self):
        pool = RRSetPool(50)
        add_sets(pool, _sets([0, 1]))
        start = pool.generation
        # small append: fits in the initial capacity, no retirement
        add_sets(pool, _sets([2]))
        assert pool.generation == start
        # blow past the member-buffer capacity: generation must move
        big = [np.arange(50, dtype=np.int64) for _ in range(60)]
        add_sets(pool, big)
        assert pool.generation > start

    def test_prefix_view_survives_growth_reallocation(self):
        """Regression: a view held across a growth-triggered reallocation
        used to keep pointing at the retired buffer.  It must now
        re-materialize against the live one with identical contents."""
        pool = RRSetPool(50)
        add_sets(pool, _sets([0, 1], [2, 3, 4]))
        view = pool.prefix_view(2)
        before = [s.tolist() for s in view_sets(view)]
        old_members = pool._members
        big = [np.arange(50, dtype=np.int64) for _ in range(200)]
        add_sets(pool, big)
        assert pool._members is not old_members  # reallocation happened
        # contents unchanged, but served from the live buffer
        assert [s.tolist() for s in view_sets(view)] == before
        assert np.shares_memory(view.members, pool._members)
        assert view.indptr.tolist() == pool._indptr[:3].tolist()

    def test_view_grows_pool_mid_theta_pilot(self):
        """The `_theta_for` pattern: greedy-cover an OPT pilot window
        while top-up sampling grows the pool underneath it."""
        from repro.rrset.tim import greedy_max_coverage

        pool = RRSetPool(30)
        rng = np.random.default_rng(8)
        add_sets(pool, [rng.choice(30, size=4, replace=False) for _ in range(50)])
        pilot = pool.prefix_view(50)
        expected = greedy_max_coverage(pilot, 30, 3)
        # grow well past capacity, as a θ top-up would
        add_sets(pool, [rng.choice(30, size=6, replace=False) for _ in range(800)])
        # the held view still answers over exactly the first 50 sets
        assert greedy_max_coverage(pilot, 30, 3) == expected
        assert pilot.num_sets == 50


class TestBounds:
    def test_get_set_range_checked(self):
        """Reading one set's row past the resident sets is refused."""
        pool = RRSetPool(3)
        add_sets(pool, _sets([0]))
        assert pool.resident_rows(0, 1)[0].tolist() == [0]
        with pytest.raises(IndexError):
            pool.resident_rows(1, 2)
        with pytest.raises(IndexError):
            pool.resident_rows(-1, 0)

    def test_node_range_checked(self):
        pool = RRSetPool(3)
        add_sets(pool, _sets([0]))
        with pytest.raises(IndexError):
            pool.remove_covered(3)
        with pytest.raises(IndexError):
            pool.coverage_of_set([5])


def _docstring_pool():
    """The class docstring's pool: ``{0, 2}``, ``{2, 3}``, ``{4}``."""
    pool = RRSetPool(5)
    pool.add_flat(np.array([0, 2, 2, 3, 4]), np.array([2, 2, 1]))
    return pool


class TestNodeInput:
    """The index readers take integer node ids only: a float used to be
    truncated (2.7 -> node 2) and a boolean mask read as the ids 0 and 1;
    both are refused by name instead, before any state changes."""

    def test_coverage_of_set_refuses_float_nodes(self):
        pool = _docstring_pool()
        with pytest.raises(ValueError, match="nodes must be an integer array.*float64"):
            pool.coverage_of_set([2.7])

    def test_coverage_of_set_refuses_a_boolean_mask(self):
        pool = _docstring_pool()
        mask = np.array([False, False, True, False, False])  # selects node 2
        with pytest.raises(ValueError, match="nodes must be an integer array.*bool"):
            pool.coverage_of_set(mask)
        assert pool.coverage_of_set(np.flatnonzero(mask)) == 2

    @pytest.mark.parametrize("node", [2.5, np.float64(2.0)], ids=["float", "float64"])
    def test_remove_covered_refuses_a_float_node(self, node):
        pool = _docstring_pool()
        with pytest.raises(ValueError, match="node must be an integer"):
            pool.remove_covered(node)
        assert pool.num_alive == 3 and pool.coverage().tolist() == [1, 0, 2, 1, 1]

    @pytest.mark.parametrize("node", [True, np.True_], ids=["bool", "bool_"])
    def test_remove_covered_refuses_a_bool_node(self, node):
        pool = _docstring_pool()
        with pytest.raises(ValueError, match="node must be an integer"):
            pool.remove_covered(node)
        assert pool.num_alive == 3

    def test_empty_nodes_of_any_dtype_count_nothing(self):
        pool = _docstring_pool()
        for nodes in ([], np.empty(0), np.empty(0, dtype=bool), np.empty((0, 2))):
            assert pool.coverage_of_set(nodes) == 0

    @pytest.mark.parametrize("cast", [np.int64, np.int32, np.uint8])
    def test_numpy_integer_scalars_are_node_ids(self, cast):
        pool = _docstring_pool()
        assert pool.coverage_of_set(cast(2)) == 2
        assert pool.coverage_of_set(np.asarray([2, 4], dtype=cast)) == 3
        assert pool.remove_covered(cast(2)) == 2
        assert pool.coverage().tolist() == [0, 0, 0, 0, 1]


class TestMemoryAccounting:
    def test_reports_real_buffer_bytes(self):
        pool = RRSetPool(100)
        rng = np.random.default_rng(2)
        add_sets(pool, [rng.choice(100, size=5, replace=False) for _ in range(1_000)])
        unread = pool.memory_bytes()
        # Never index-read: the int32 members dominate, and asking for
        # the bytes built no index.
        assert 1_000 * 5 * 4 <= unread < 1_000 * 5 * (4 + 4)
        assert pool._idx_sets.size == 0 and pool._synced_sets == 0
        pool.coverage_of_set([0])
        reported = pool.memory_bytes()
        # int32 members + int32 index entries: 5 members/set × 8 bytes.
        assert reported == unread + 1_000 * 5 * 4
        add_sets(pool, [np.asarray([1, 2])])  # +2 members, indexed at the read
        assert pool.memory_bytes() == reported + 2 * 4 + 4 + 1
        pool.coverage_of_set([0])
        assert pool.memory_bytes() == reported + 2 * 4 + 4 + 1 + 2 * 4

    def test_offsets_cost_four_bytes_each(self):
        """Both CSR pairs store ``int32`` offsets: 4 B per set offset and
        per index offset, beside 4 B per member and per index entry, 1 B
        per alive flag and 8 B per coverage counter."""
        n = 7
        pool = RRSetPool(n)
        assert pool._indptr.dtype == pool._idx_indptr.dtype == np.int32
        empty = pool.memory_bytes()
        assert empty == 4 + 8 * n + 4 * (n + 1)
        add_sets(pool, _sets([0, 1, 2], [], [6]))
        assert pool.prefix_view().indptr.dtype == np.int32
        assert pool.memory_bytes() == empty + 4 * 4 + 3 * 4 + 3
        pool.coverage_of_set([6])
        assert pool.memory_bytes() == empty + 4 * 4 + 3 * 4 + 3 + 4 * 4

    def test_members_are_int32(self):
        pool = RRSetPool(10)
        add_sets(pool, _sets([1, 2]))
        assert get_set(pool, 0).dtype == np.int32


class TestCapacityLimits:
    """int32 overflow guards: the pool must refuse — loudly, before any
    buffer mutation — appends that would wrap set ids or member offsets
    past 2^31 and silently corrupt the CSR index."""

    def _near_set_limit(self):
        from repro.rrset.pool import MAX_SETS

        pool = RRSetPool(4)
        add_sets(pool, _sets([0], [1]))
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
        add_sets(pool, _sets([0, 1]))
        pool._members_used = MAX_MEMBERS - 1
        with pytest.raises(CapacityError, match="member-offset limit"):
            pool.add_flat(
                np.asarray([0, 1], dtype=np.int32),
                np.asarray([2], dtype=np.int64),
            )

    def test_append_crossing_the_member_limit_changes_nothing(self, monkeypatch):
        """With the limit lowered to 6 members, an append that would put
        an offset past it is refused before the offsets' int32 cast, and
        the pool — rows, offsets, index, coverage, bytes — is as it was;
        an append that ends exactly at the limit is taken."""
        from repro.errors import CapacityError
        from repro.rrset import pool as pool_module

        monkeypatch.setattr(pool_module, "MAX_MEMBERS", 6)
        pool = RRSetPool(4)
        add_sets(pool, _sets([0, 1], [2, 3, 1]))
        assert pool.remove_covered(0) == 1
        def state():
            return (
                pool.num_total, pool.num_alive, pool.memory_bytes(),
                pool.coverage().tolist(), pool._indptr.tolist(),
                pool._idx_indptr.tolist(), pool._idx_sets.tolist(),
            )

        before = state()
        with pytest.raises(CapacityError, match="member-offset limit"):
            add_sets(pool, _sets([3], [0]))
        assert state() == before
        add_sets(pool, _sets([3]))
        assert pool.resident_rows(2, 3)[0].tolist() == [3]
        assert pool.prefix_view().indptr.tolist() == [0, 2, 5, 6]

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
        add_sets(pool, _sets([0], [1, 2]))
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

