"""Flat CSR-backed storage engine for RR-sets.

Every sampled set lives in one growable ``int32`` members buffer
addressed by an ``indptr`` array, with eager per-node coverage counts
beside it.  The node→set inverted index is derived data — a pure
function of the member rows — held as a second CSR pair and built in
bulk by one packed-key sort, never by per-element Python appends.  All
hot mutations (``add_flat``, ``remove_covered``) and queries
(``coverage_of_set``, ``sets_containing``) are numpy kernels over those
buffers.  See ``docs/rrset_engine.md`` for the layout, the index policy,
and the determinism contract.

Index maintenance (amortized, at the first index read after growth):

* appends only validate, copy and bump coverage; the first index read
  that follows (``remove_covered``, ``coverage_of_set``,
  ``set_ids_containing`` / ``sets_containing``) indexes everything
  appended since the last one, so a growth event of many chunks costs
  one build;
* the *main* index covers sets ``[0, _main_sets)`` and is rebuilt in
  bulk only when the un-indexed region has grown past ``1/4`` of the
  indexed members (geometric threshold, so total rebuild work is
  ``O(M log M)`` over the pool's lifetime);
* smaller growth gets a *pending mini-index* over the remaining sets — a
  (sorted member, set id) pair array over just the pending region,
  queried with ``searchsorted``, so a +1 top-up costs O(pending log
  pending) with no O(num_nodes) allocation, and queries never degrade to
  linear scans.

Every query concatenates the main slice and the mini slice — ascending
set ids under any tiering, so when the index was built never shows.

The index is part of the *sample*: :meth:`RRSetPool.rewind` keeps it,
so after a rewind it may list sets that are not visible yet.  Readers
clip every answer to the visible ids — a prefix of each ascending
slice — and the index is built only where the visible sets outrun it.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.errors import CapacityError

#: Members are node ids; int32 halves RR memory vs the old int64 arrays
#: and comfortably addresses graphs up to 2^31 nodes.
MEMBER_DTYPE = np.int32
#: Set ids in the inverted index; int32 supports 2^31 sets per pool.
SET_ID_DTYPE = np.int32

#: Hard per-pool limits implied by the int32 storage dtypes: set ids in
#: the inverted index and member offsets must both stay below 2^31.
#: ``add_flat`` refuses appends that would cross either limit (with a
#: :class:`~repro.errors.CapacityError`) before touching any buffer —
#: silently wrapping ids would corrupt the CSR index.
MAX_SETS = int(np.iinfo(SET_ID_DTYPE).max)
MAX_MEMBERS = int(np.iinfo(np.int32).max)

#: Full index rebuild triggers when pending members exceed this fraction
#: of the indexed members (geometric growth ⇒ amortized O(log) rebuilds).
_REBUILD_FRACTION = 4
#: Below this many indexed members, just rebuild the full index.
_MIN_INDEXED_MEMBERS = 4_096


def _rebuilds(indexed_members: int, members: int) -> bool:
    """The tiering rule: whether indexing ``members`` visible members,
    of which the main index covers ``indexed_members``, rebuilds the main
    index (else the remainder gets a pending mini-index)."""
    return (
        indexed_members < _MIN_INDEXED_MEMBERS
        or (members - indexed_members) * _REBUILD_FRACTION >= indexed_members
    )


class CSRSetView:
    """A read-only CSR window over a prefix of a pool's sets.

    ``indptr`` has ``num_sets + 1`` entries and indexes into ``members``.
    Views alias the pool's buffers and are O(1) to create.  A view bound
    to its pool is *self-healing*: the pool is append-only, so the first
    ``num_sets`` sets never change, and when a growth-triggered
    reallocation retires the buffer a view points at, the view
    re-materializes itself against the live buffer on next access (the
    pool's generation counter detects the swap).  Holding a stale view
    therefore never silently reads — or keeps alive — a retired buffer.

    Detached views (``pool=None``, e.g. after crossing a process
    boundary) are plain frozen windows with no refresh behaviour.
    """

    __slots__ = ("_indptr", "_members", "num_sets", "_pool", "_generation")

    def __init__(
        self,
        indptr: np.ndarray,
        members: np.ndarray,
        num_sets: int,
        *,
        pool: "RRSetPool | None" = None,
    ) -> None:
        self._indptr = indptr
        self._members = members
        self.num_sets = int(num_sets)
        self._pool = pool
        self._generation = pool.generation if pool is not None else -1

    def _refresh(self) -> None:
        pool = self._pool
        if pool is not None and pool.generation != self._generation:
            end = int(pool._indptr[self.num_sets])
            self._indptr = pool._indptr[: self.num_sets + 1]
            self._members = pool._members[:end]
            self._generation = pool.generation

    @property
    def indptr(self) -> np.ndarray:
        self._refresh()
        return self._indptr

    @property
    def members(self) -> np.ndarray:
        self._refresh()
        return self._members

    def detach(self) -> "CSRSetView":
        """A pool-independent copy of this window (safe to pickle/ship)."""
        self._refresh()
        return CSRSetView(
            self._indptr.copy(), self._members.copy(), self.num_sets
        )

    def get_set(self, set_id: int) -> np.ndarray:
        self._refresh()
        return self._members[self._indptr[set_id] : self._indptr[set_id + 1]]

    def __repr__(self) -> str:
        return f"{type(self).__name__}(num_sets={self.num_sets})"


def _bump_counts(counts: np.ndarray, members: np.ndarray, sign: int) -> None:
    """``counts[members] += sign`` per occurrence, without always paying
    an O(len(counts)) ``bincount`` scratch array: small batches go
    through ``ufunc.at`` (O(batch)), large ones through ``bincount``."""
    if members.size == 0:
        return
    n = counts.size
    if members.size * 16 < n:
        if sign > 0:
            np.add.at(counts, members, 1)
        else:
            np.subtract.at(counts, members, 1)
    elif sign > 0:
        counts += np.bincount(members, minlength=n)
    else:
        counts -= np.bincount(members, minlength=n)


def _gather_slices(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Flat positions covering ``[starts[i], starts[i]+lengths[i])`` for
    every ``i``, concatenated — the standard repeat/cumsum multi-slice
    gather, no Python loop."""
    lengths = lengths.astype(np.int64, copy=False)
    total = int(lengths.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    ends = np.cumsum(lengths)
    offsets = np.repeat(starts.astype(np.int64, copy=False) - (ends - lengths), lengths)
    return offsets + np.arange(total, dtype=np.int64)


def _sorted_keys(members: np.ndarray, first_set: int, lengths: np.ndarray) -> np.ndarray:
    """The build kernel of both index tiers: one sorted ``int64`` key
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


def _build_csr_index(
    members: np.ndarray,
    first_set: int,
    lengths: np.ndarray,
    num_nodes: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Bulk-build a node→set CSR index over one contiguous member region.

    ``members`` is the flat member slice of sets ``first_set ..``;
    ``lengths`` their sizes.  Returns ``(indptr, set_ids)`` where
    ``set_ids[indptr[v]:indptr[v+1]]`` lists the sets containing ``v`` in
    ascending set order.
    """
    counts = np.bincount(members, minlength=num_nodes)
    indptr = np.concatenate(([0], np.cumsum(counts, dtype=np.int64)))
    keys = _sorted_keys(members, first_set, lengths)
    keys &= MAX_SETS
    return indptr, keys.astype(SET_ID_DTYPE)


def _build_pending_index(
    members: np.ndarray, first_set: int, lengths: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Sorted-pairs index over one member region: ``(nodes, set_ids)`` in
    lockstep, nodes ascending — O(region log region) work and memory,
    independent of ``num_nodes``."""
    keys = _sorted_keys(members, first_set, lengths)
    nodes = (keys >> 32).astype(MEMBER_DTYPE)
    keys &= MAX_SETS
    return nodes, keys.astype(SET_ID_DTYPE)


class RRSetPool:
    """Append-only pool of RR-sets over ``num_nodes`` users.

    Public API: TIRM's two mutations (``add_sets`` /
    ``remove_covered``), eager per-node coverage counts, and the
    coverage queries — plus the bulk entry point
    ``add_flat`` (samplers write straight into the pool) and zero-copy
    ``prefix_view`` / ``first_k_sets`` accessors for O(pilot) OPT
    estimation.

    A pool is an immutable *sample* plus a cheap *run state*.  The
    sample is the member rows and ``indptr`` of every set ever appended
    — the *resident* sets, a pure function of the stream that produced
    them — and the inverted index derived from those rows.  The run
    state is what one allocation does with them: how many are *visible*
    (``num_total``), which of those are alive, and the coverage counts.
    :meth:`rewind` drops the run state and keeps the sample, index
    included; :meth:`reveal` makes the next resident sets visible again
    without copying them, and an index read clips the kept index to the
    visible ids instead of re-sorting them — so a second run over the
    same sample builds no index up to where the first one built it.
    Every query and ``memory_bytes()`` see visible sets only:
    ``memory_bytes()`` replays what a cold pool fed the same visible
    sets and the same reads would hold, so the hidden part of a kept
    index stays uncounted like the hidden rows.  Appends are refused
    while resident sets are still hidden.

    The inverted index is built by the first index read after growth
    (``remove_covered``, ``coverage_of_set``, ``set_ids_containing`` /
    ``sets_containing``) that finds the visible sets past what it
    covers; appends, ``coverage`` / ``coverage_of``, the views,
    ``kill_sets`` and the byte accounting never build it.  A pool has a
    single owner at a time (engine leases are exclusive, and the
    service reports progress from stored snapshots, never the live
    pool), so a read that builds takes no lock.

    Examples
    --------
    Three sets over five nodes; node 2 appears in two of them, and
    removing the sets it covers updates the eager coverage counters::

        >>> import numpy as np
        >>> from repro.rrset import RRSetPool
        >>> pool = RRSetPool(num_nodes=5)
        >>> pool.add_sets([[0, 2], [2, 3], [4]])   # -> the new set ids
        [0, 1, 2]
        >>> pool.num_total, pool.num_alive
        (3, 3)
        >>> int(pool.coverage_of(2))
        2
        >>> pool.remove_covered(2)      # kill the sets containing node 2
        2
        >>> pool.num_alive, int(pool.coverage_of(3))
        (1, 0)
    """

    def __init__(self, num_nodes: int) -> None:
        if num_nodes < 0:
            raise ValueError("num_nodes must be >= 0")
        self.num_nodes = int(num_nodes)
        self._members = np.empty(1_024, dtype=MEMBER_DTYPE)
        self._members_used = 0
        self._indptr = np.zeros(257, dtype=np.int64)
        self._num_sets = 0
        self._alive_mask = np.empty(256, dtype=bool)
        self._num_alive = 0
        self._coverage = np.zeros(num_nodes, dtype=np.int64)
        # Sets whose rows sit in the buffers (>= _num_sets, the visible
        # ones): equal except between a rewind() and the reveal()s that
        # catch up with it.
        self._resident_sets = 0
        # Main inverted index: covers sets [0, _main_sets), which are
        # the first _idx_sets.size members.
        self._idx_indptr = np.zeros(self.num_nodes + 1, dtype=np.int64)
        self._idx_sets = np.empty(0, dtype=SET_ID_DTYPE)
        self._main_sets = 0
        # Pending mini-index over sets [_main_sets, _index_sets): the
        # pending members sorted ascending, with their owning set ids in
        # lockstep.  Queried by searchsorted — no O(num_nodes) indptr.
        self._pend_nodes = np.empty(0, dtype=MEMBER_DTYPE)
        self._pend_sets = np.empty(0, dtype=SET_ID_DTYPE)
        self._index_sets = 0
        self._reset_cold_marks()
        # Bumped whenever a growth reallocation retires a storage buffer;
        # outstanding CSRSetViews use it to re-materialize themselves.
        self._generation = 0

    def _reset_cold_marks(self) -> None:
        """The index marks of a cold pool with nothing visible.

        The marks replay, as integers, the index a cold pool fed the
        visible sets would hold: its main tier over sets
        ``[0, _indexed_sets)`` (``_indexed_members`` members) and its
        pending tier up to ``_synced_sets``.  Appends leave
        ``_synced_sets`` behind ``_num_sets``; the next index read
        catches up (``_sync_index``).  They price ``memory_bytes()``;
        the readers use the index arrays (``_idx_*``, ``_pend_*``),
        which a rewind keeps."""
        self._indexed_sets = 0
        self._indexed_members = 0
        self._synced_sets = 0

    @property
    def generation(self) -> int:
        """Buffer generation: increments on every growth reallocation."""
        return self._generation

    # ------------------------------------------------------------------
    # Mutations
    # ------------------------------------------------------------------
    def add_sets(self, sets: Iterable[np.ndarray]) -> Sequence[int]:
        """Register new RR-sets; returns their ids (compat API).

        Bulk path: the per-set arrays are concatenated once and appended
        through :meth:`add_flat` — no per-element index updates.
        """
        arrays = [np.asarray(s).ravel() for s in sets]
        first = self._num_sets
        if not arrays:
            return []
        lengths = np.asarray([a.size for a in arrays], dtype=np.int64)
        if sum(a.size for a in arrays):
            flat = np.concatenate(arrays).astype(MEMBER_DTYPE, copy=False)
        else:
            flat = np.empty(0, dtype=MEMBER_DTYPE)
        self.add_flat(flat, lengths)
        return list(range(first, self._num_sets))

    def add_flat(self, members: np.ndarray, lengths: np.ndarray) -> None:
        """Append ``len(lengths)`` sets whose members are concatenated in
        ``members``.  This is the samplers' bulk entry point.

        Exactly one copy: members land in the pool's growable buffer via
        a single slice assignment, which casts integer inputs in place —
        no ``astype`` staging copy.  (Non-integer inputs pay their own
        explicit conversion first — a legacy convenience path.)
        """
        members = np.asarray(members).ravel()
        if members.size and not np.issubdtype(members.dtype, np.integer):
            members = members.astype(MEMBER_DTYPE)
        lengths = np.asarray(lengths, dtype=np.int64).ravel()
        self._validate_flat(members, lengths)
        self._append_flat(members, lengths)

    def add_flat_from_buffer(
        self,
        buffer,
        *,
        num_sets: int,
        num_members: int,
        lengths_offset: int = 0,
        members_offset: int | None = None,
    ) -> None:
        """Append ``num_sets`` sets straight out of an external buffer
        with exactly one copy (the engine splices a cache entry through
        :meth:`add_flat` over its views instead).

        The region follows the engine's packed-block layout: ``num_sets``
        ``int64`` lengths starting at byte ``lengths_offset``, and
        ``num_members`` ``int32`` members starting at ``members_offset``
        (default: immediately after the lengths).  Validation and the
        append run over zero-copy views of the buffer; the single copy
        is the write into the pool's own growable arrays, so the caller
        may release/unlink the buffer as soon as this returns — the pool
        never keeps a reference to it (``memory_bytes`` stays exact).
        """
        num_sets, num_members = int(num_sets), int(num_members)
        if num_sets < 0 or num_members < 0:
            raise ValueError(
                f"num_sets and num_members must be >= 0, got "
                f"{num_sets} / {num_members}"
            )
        if members_offset is None:
            members_offset = lengths_offset + num_sets * 8
        lengths = np.frombuffer(
            buffer, dtype=np.int64, count=num_sets, offset=int(lengths_offset)
        )
        members = np.frombuffer(
            buffer, dtype=MEMBER_DTYPE, count=num_members,
            offset=int(members_offset),
        )
        self._validate_flat(members, lengths)
        self._append_flat(members, lengths)

    def _validate_flat(self, members: np.ndarray, lengths: np.ndarray) -> None:
        if int(lengths.sum()) != members.size:
            raise ValueError("lengths must sum to members.size")
        if np.any(lengths < 0):
            raise ValueError("set lengths must be >= 0")
        if members.size:
            lo, hi = int(members.min()), int(members.max())
            if lo < 0 or hi >= self.num_nodes:
                raise ValueError(
                    f"members must lie in [0, {self.num_nodes - 1}], found [{lo}, {hi}]"
                )

    def _append_flat(self, members: np.ndarray, lengths: np.ndarray) -> None:
        """The single-copy append core shared by :meth:`add_flat` and
        :meth:`add_flat_from_buffer` (inputs already validated)."""
        if self._num_sets < self._resident_sets:
            raise ValueError(
                f"cannot append to a pool with hidden resident sets "
                f"({self._num_sets} of {self._resident_sets} visible): "
                "reveal() them first"
            )
        count = lengths.size
        if count == 0:
            return
        if self._num_sets + count > MAX_SETS:
            raise CapacityError(
                f"appending {count} sets to a pool holding {self._num_sets} "
                f"would exceed the int32 set-id limit ({MAX_SETS}); shard the "
                "sample across pools"
            )
        if self._members_used + members.size > MAX_MEMBERS:
            raise CapacityError(
                f"appending {members.size} members to a pool holding "
                f"{self._members_used} would exceed the int32 member-offset "
                f"limit ({MAX_MEMBERS}); shard the sample across pools"
            )
        self._reserve_members(self._members_used + members.size)
        self._reserve_sets(self._num_sets + count)
        # The one and only copy: slice assignment casts same-kind integer
        # inputs (int64 views included) directly into the int32 buffer.
        self._members[self._members_used : self._members_used + members.size] = members
        new_indptr = self._members_used + np.cumsum(lengths)
        self._indptr[self._num_sets + 1 : self._num_sets + count + 1] = new_indptr
        self._alive_mask[self._num_sets : self._num_sets + count] = True
        self._members_used += members.size
        self._num_sets += count
        self._resident_sets = self._num_sets
        self._num_alive += count
        _bump_counts(self._coverage, members, +1)

    def rewind(self) -> None:
        """Make nothing visible: drop the run state (visible marks,
        alive sets, coverage), keep the sample — member rows, ``indptr``
        and the inverted index stay resident for :meth:`reveal`."""
        self._members_used = 0
        self._num_sets = 0
        self._num_alive = 0
        self._coverage[:] = 0
        self._reset_cold_marks()

    def reveal(self, count: int) -> None:
        """Make the next ``count`` resident sets visible — an append
        without the copy: the marks advance over rows already in the
        buffers, the sets come alive and coverage is bumped.  Index
        reads answer from the kept index, clipped to the visible ids,
        and build only past what it covers."""
        count = int(count)
        lo, hi = self._num_sets, self._num_sets + count
        if count < 0 or hi > self._resident_sets:
            raise ValueError(
                f"cannot reveal {count} sets: {self._resident_sets - lo} "
                "resident sets are hidden"
            )
        start, end = self._members_used, int(self._indptr[hi])
        self._alive_mask[lo:hi] = True
        self._members_used = end
        self._num_sets = hi
        self._num_alive += count
        _bump_counts(self._coverage, self._members[start:end], +1)

    def remove_covered(self, node: int) -> int:
        """Remove every alive set containing ``node``; returns how many.

        One index slice finds the candidate sets; their members are
        gathered with a single multi-slice and coverage is decremented by
        one ``np.bincount`` — no per-set Python loops.
        """
        ids = self._ids_containing(node)
        if ids.size == 0:
            return 0
        ids = ids[self._alive_mask[ids]]
        if ids.size == 0:
            return 0
        # A set that contains ``node`` twice (possible through the public
        # ``add_sets``) appears twice in the index; dedup before killing.
        ids = np.unique(ids)
        self._alive_mask[ids] = False
        self._num_alive -= ids.size
        _bump_counts(self._coverage, self._gather_members(ids), -1)
        return int(ids.size)

    def kill_sets(self, set_ids) -> int:
        """Mark the given sets dead by id, decrementing coverage.

        This is the checkpoint-restore primitive: after a pool's sets
        have been re-derived (or re-loaded from a spill), the snapshot's
        alive mask is re-applied by killing exactly the sets that the
        chosen seeds had covered.  Already-dead ids are ignored; returns
        how many sets were actually killed.
        """
        ids = np.unique(np.asarray(set_ids, dtype=np.int64).ravel())
        if ids.size == 0:
            return 0
        if ids[0] < 0 or ids[-1] >= self._num_sets:
            raise IndexError(f"set ids must lie in [0, {self._num_sets})")
        ids = ids[self._alive_mask[ids]]
        if ids.size == 0:
            return 0
        self._alive_mask[ids] = False
        self._num_alive -= ids.size
        _bump_counts(self._coverage, self._gather_members(ids), -1)
        return int(ids.size)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def num_total(self) -> int:
        """Total sets ever sampled (the ``θ`` denominator)."""
        return self._num_sets

    @property
    def num_alive(self) -> int:
        """Sets not yet covered by a chosen seed."""
        return self._num_alive

    @property
    def num_resident(self) -> int:
        """Sets held in the buffers, visible or not (``>= num_total``)."""
        return self._resident_sets

    def resident_rows(self, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
        """Packed ``(members, lengths)`` of resident sets ``[lo, hi)``,
        hidden ones included (members: a zero-copy view)."""
        if not 0 <= lo <= hi <= self._resident_sets:
            raise IndexError(
                f"sets [{lo}, {hi}) not within the {self._resident_sets} resident"
            )
        indptr = self._indptr[lo : hi + 1]
        return self._members[indptr[0] : indptr[-1]], np.diff(indptr)

    def coverage(self) -> np.ndarray:
        """Read-only view of per-node alive-set coverage counts."""
        view = self._coverage.view()
        view.flags.writeable = False
        return view

    def coverage_of(self, node: int) -> int:
        """Coverage count of one node among alive sets."""
        return int(self._coverage[node])

    def coverage_of_set(self, nodes, *, alive_only: bool = True) -> int:
        """Number of alive sets intersecting ``nodes`` (for ``F_R(S)``).

        Vectorized: gathers every candidate set id via index slices, then
        dedups with one ``np.unique`` over the alive survivors (the old
        implementation walked Python lists with a ``set``).  Pass
        ``alive_only=False`` to count over *all* sampled sets — e.g. for
        spread estimation after seeds have removed their covered sets.
        """
        nodes = np.unique(np.asarray(nodes, dtype=np.int64).ravel())
        if nodes.size == 0:
            return 0
        if nodes[0] < 0 or nodes[-1] >= self.num_nodes:
            raise IndexError("node ids out of range")
        ids = self._ids_containing_many(nodes)
        if ids.size == 0:
            return 0
        if alive_only:
            ids = ids[self._alive_mask[ids]]
        return int(np.unique(ids).size)

    def set_ids_containing(self, node: int, *, alive_only: bool = True) -> np.ndarray:
        """Ids of sets containing ``node`` as an array (fast path)."""
        ids = self._ids_containing(node)
        if alive_only and ids.size:
            ids = ids[self._alive_mask[ids]]
        return ids

    def sets_containing(self, node: int, *, alive_only: bool = True) -> list[int]:
        """Ids of sets containing ``node`` (compat list API)."""
        return [int(i) for i in self.set_ids_containing(node, alive_only=alive_only)]

    def get_set(self, set_id: int) -> np.ndarray:
        """Members of a set by id (a zero-copy view into the pool)."""
        if not 0 <= set_id < self._num_sets:
            raise IndexError(f"set id {set_id} out of range")
        return self._members[self._indptr[set_id] : self._indptr[set_id + 1]]

    def first_k_sets(self, k: int) -> list[np.ndarray]:
        """Views of the first ``min(k, num_total)`` sets — O(k), unlike
        the old ``all_sets()[:k]`` which materialised every set.

        The returned arrays alias the members buffer *as of this call*;
        across later ``add_*`` calls prefer :meth:`prefix_view`, whose
        window survives growth reallocations.
        """
        k = min(max(int(k), 0), self._num_sets)
        indptr = self._indptr
        members = self._members
        return [members[indptr[i] : indptr[i + 1]] for i in range(k)]

    def prefix_view(self, k: int | None = None) -> CSRSetView:
        """Zero-copy CSR window over the first ``k`` sets (default: all).

        This is the O(1) accessor the OPT pilot uses.  The view stays
        valid across later ``add_*`` calls: if a growth reallocation
        retires the underlying buffer, the view re-materializes itself
        against the live one on next access (see :class:`CSRSetView`).
        """
        k = self._num_sets if k is None else min(max(int(k), 0), self._num_sets)
        end = int(self._indptr[k])
        return CSRSetView(
            self._indptr[: k + 1], self._members[:end], k, pool=self
        )

    def all_sets(self) -> list[np.ndarray]:
        """Every sampled set, alive or covered (selection order).

        TIRM's seed-size re-estimation runs a fresh greedy cover over the
        *full* sample to lower-bound ``OPT_s``, so it needs covered sets
        back.  Prefer :meth:`prefix_view` where a CSR window suffices.
        """
        return self.first_k_sets(self._num_sets)

    def is_alive(self, set_id: int) -> bool:
        """Whether a set is still uncovered."""
        if not 0 <= set_id < self._num_sets:
            raise IndexError(f"set id {set_id} out of range")
        return bool(self._alive_mask[set_id])

    def alive_mask(self) -> np.ndarray:
        """Read-only alive mask over all sets."""
        view = self._alive_mask[: self._num_sets].view()
        view.flags.writeable = False
        return view

    def average_set_size(self) -> float:
        """Mean size over all sampled sets (EPT-style diagnostics)."""
        if not self._num_sets:
            return 0.0
        return float(self._members_used / self._num_sets)

    def memory_bytes(self) -> int:
        """Bytes of RR data a cold pool holding the visible sets would
        hold: the exact ``nbytes`` of the used portions of the
        members/indptr/alive/coverage buffers plus the inverted index as
        the same reads would have left it — members appended since the
        last index read have no index entries yet, and asking never
        builds them.  Hidden resident rows, and the part of a kept index
        that lists them, are the sample a rewound pool keeps for its next
        run, not this run's data (:meth:`allocated_bytes` counts them).
        This is the honest Table-4 figure: the engine stores nothing
        else.
        """
        pending = int(self._indptr[self._synced_sets]) - self._indexed_members
        return int(
            self._members_used * self._members.itemsize
            + (self._num_sets + 1) * self._indptr.itemsize
            + self._num_sets * self._alive_mask.itemsize
            + self._coverage.nbytes
            + self._idx_indptr.nbytes
            + self._indexed_members * self._idx_sets.itemsize
            + pending * (self._pend_nodes.itemsize + self._pend_sets.itemsize)
        )

    def allocated_bytes(self) -> int:
        """Capacity actually allocated (≥ :meth:`memory_bytes` due to the
        growth slack of the append buffers)."""
        return int(
            self._members.nbytes
            + self._indptr.nbytes
            + self._alive_mask.nbytes
            + self._coverage.nbytes
            + self._idx_indptr.nbytes
            + self._idx_sets.nbytes
            + self._pend_nodes.nbytes
            + self._pend_sets.nbytes
        )

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(total={self.num_total}, alive={self.num_alive}, "
            f"n={self.num_nodes})"
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _reserve_members(self, needed: int) -> None:
        if needed <= self._members.size:
            return
        if needed > MAX_MEMBERS:
            raise CapacityError(
                f"pool cannot hold {needed} members: int32 member-offset "
                f"limit is {MAX_MEMBERS}"
            )
        capacity = min(max(self._members.size * 2, needed, 1_024), MAX_MEMBERS)
        grown = np.empty(capacity, dtype=MEMBER_DTYPE)
        grown[: self._members_used] = self._members[: self._members_used]
        self._members = grown
        self._generation += 1

    def _reserve_sets(self, needed: int) -> None:
        if needed <= self._alive_mask.size:
            return
        if needed > MAX_SETS:
            raise CapacityError(
                f"pool cannot hold {needed} sets: int32 set-id limit is {MAX_SETS}"
            )
        capacity = min(max(self._alive_mask.size * 2, needed, 256), MAX_SETS)
        alive = np.empty(capacity, dtype=bool)
        alive[: self._num_sets] = self._alive_mask[: self._num_sets]
        self._alive_mask = alive
        indptr = np.zeros(capacity + 1, dtype=np.int64)
        indptr[: self._num_sets + 1] = self._indptr[: self._num_sets + 1]
        self._indptr = indptr
        self._generation += 1

    def _sync_index(self) -> None:
        """Amortized index maintenance, run by the index readers: the
        cold marks advance as a cold pool's index would, and one build
        covers every visible set the kept index does not."""
        if self._synced_sets == self._num_sets:
            return
        if _rebuilds(self._indexed_members, self._members_used):
            self._indexed_sets = self._num_sets
            self._indexed_members = self._members_used
        self._synced_sets = self._num_sets
        if self._index_sets >= self._num_sets:
            return
        members = self._members[: self._members_used]
        indptr = self._indptr[: self._num_sets + 1]
        if _rebuilds(self._idx_sets.size, self._members_used):
            self._idx_indptr, self._idx_sets = _build_csr_index(
                members, 0, np.diff(indptr), self.num_nodes
            )
            self._main_sets = self._num_sets
            self._pend_nodes = np.empty(0, dtype=MEMBER_DTYPE)
            self._pend_sets = np.empty(0, dtype=SET_ID_DTYPE)
        else:
            lo = self._main_sets
            self._pend_nodes, self._pend_sets = _build_pending_index(
                members[self._idx_sets.size :], lo, np.diff(indptr[lo:])
            )
        self._index_sets = self._num_sets

    def _ids_containing(self, node: int) -> np.ndarray:
        if not 0 <= node < self.num_nodes:
            raise IndexError(f"node {node} out of range")
        self._sync_index()
        visible = self._num_sets
        ids = self._idx_sets[self._idx_indptr[node] : self._idx_indptr[node + 1]]
        if self._main_sets < visible:
            lo, hi = np.searchsorted(self._pend_nodes, [node, node + 1])
            mini = self._pend_sets[lo:hi]
            if ids.size == 0:
                ids = mini
            elif mini.size:
                ids = np.concatenate((ids, mini))
        if self._index_sets > visible:
            # A kept index lists hidden sets too; ids ascend, so the
            # visible ones are a prefix.
            ids = ids[: np.searchsorted(ids, visible)]
        return ids

    def _ids_containing_many(self, nodes: np.ndarray) -> np.ndarray:
        self._sync_index()
        visible = self._num_sets
        starts = self._idx_indptr[nodes]
        lengths = self._idx_indptr[nodes + 1] - starts
        ids = self._idx_sets[_gather_slices(starts, lengths)]
        if self._main_sets < visible:
            plos = np.searchsorted(self._pend_nodes, nodes)
            phis = np.searchsorted(self._pend_nodes, nodes + 1)
            ids = np.concatenate(
                (ids, self._pend_sets[_gather_slices(plos, phis - plos)])
            )
        if self._index_sets > visible:
            ids = ids[ids < visible]  # a kept index lists hidden sets too
        return ids

    def _gather_members(self, set_ids: np.ndarray) -> np.ndarray:
        starts = self._indptr[set_ids]
        lengths = self._indptr[np.asarray(set_ids, dtype=np.int64) + 1] - starts
        return self._members[_gather_slices(starts, lengths)]
