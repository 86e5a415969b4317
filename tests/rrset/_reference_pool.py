"""The pool's numpy ``remove_covered`` and index build as they stood
before the compiled pool kernels (``rrset/_pool.c``), kept verbatim as
the in-test reference.

The compiled kernels may not move a coverage count, an alive flag, a
returned count or an index entry, so the numpy code lives on here —
unoptimized, obviously correct — and ``test_pool_kernels.py`` holds a
shipped pool equal to a :class:`ReferencePool` fed the same operations.
Only the names changed (``reference_`` prefix, and ``_bump_counts``'s
``-1`` branch as :func:`_drop_counts`); the single-node index lookup
``_ids_containing``, which the shipped pool no longer needs, lives on
here as it stood, and so does the packed-key sort :func:`_sorted_keys`
the shipped pool dropped with its second index tier.  The index has one
tier, as the shipped pool's does: the first index read after growth
rebuilds it over every visible set.
"""

from __future__ import annotations

import numpy as np

from repro.graph._traversal import gather_slices
from repro.rrset.pool import MAX_SETS, OFFSET_DTYPE, SET_ID_DTYPE, RRSetPool


def _drop_counts(counts: np.ndarray, members: np.ndarray) -> None:
    """``counts[members] -= 1`` per occurrence."""
    if members.size == 0:
        return
    n = counts.size
    if members.size * 16 < n:
        np.subtract.at(counts, members, 1)
    else:
        counts -= np.bincount(members, minlength=n)


def _sorted_keys(members: np.ndarray, first_set: int, lengths: np.ndarray) -> np.ndarray:
    """The packed-key sort: one sorted ``int64`` key
    ``(member << 32) | set_id`` per member of sets ``first_set ..``.

    Ascending keys are ascending members with ascending set ids inside a
    member — the order a stable sort on the members alone leaves the
    owning set ids in, at a fraction of its cost.  Members and set ids
    are both below 2^31 (``MAX_SETS``), so the two words never mix.
    """
    keys = members.astype(np.int64)
    keys <<= 32
    keys |= np.repeat(
        np.arange(first_set, first_set + lengths.size, dtype=SET_ID_DTYPE), lengths
    )
    keys.sort()
    return keys


def reference_build_csr_index(members, lengths, num_nodes):
    """The packed-key sort: ``(indptr, set_ids)``, ids ascending per node."""
    counts = np.bincount(members, minlength=num_nodes)
    indptr = np.zeros(num_nodes + 1, dtype=OFFSET_DTYPE)
    np.cumsum(counts, out=indptr[1:])
    keys = _sorted_keys(members, 0, lengths)
    keys &= MAX_SETS
    return indptr, keys.astype(SET_ID_DTYPE)


class ReferencePool(RRSetPool):
    """An :class:`RRSetPool` whose ``remove_covered`` and index build
    are the numpy ones."""

    def _ids_containing(self, node: int) -> np.ndarray:
        if not 0 <= node < self.num_nodes:
            raise IndexError(f"node {node} out of range")
        self._sync_index()
        visible = self._num_sets
        ids = self._idx_sets[self._idx_indptr[node] : self._idx_indptr[node + 1]]
        if self._index_sets > visible:
            # A kept index lists hidden sets too; ids ascend, so the
            # visible ones are a prefix.
            ids = ids[: np.searchsorted(ids, visible)]
        return ids

    def remove_covered(self, node: int) -> int:
        ids = self._ids_containing(node)
        if ids.size == 0:
            return 0
        ids = ids[self._alive_mask[ids]]
        if ids.size == 0:
            return 0
        # A set that contains ``node`` twice (possible through the public
        # ``add_flat``) appears twice in the index; dedup before killing.
        ids = np.unique(ids)
        self._alive_mask[ids] = False
        self._num_alive -= ids.size
        _drop_counts(self._coverage, self._gather_members(ids))
        return int(ids.size)

    def _gather_members(self, set_ids: np.ndarray) -> np.ndarray:
        starts = self._indptr[set_ids]
        lengths = self._indptr[np.asarray(set_ids, dtype=np.int64) + 1] - starts
        return self._members[gather_slices(starts, lengths)]

    def _sync_index(self) -> None:
        self._synced_sets = self._num_sets
        if self._index_sets >= self._num_sets:
            return
        self._idx_indptr, self._idx_sets = reference_build_csr_index(
            self._members[: self._members_used],
            np.diff(self._indptr[: self._num_sets + 1]),
            self.num_nodes,
        )
        self._index_sets = self._num_sets
