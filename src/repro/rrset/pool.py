"""Flat CSR-backed storage engine for RR-sets.

Every sampled set lives in one growable ``int32`` members buffer
addressed by an ``int32`` ``indptr`` array, with eager per-node coverage counts
beside it.  The node→set inverted index is derived data — a pure
function of the member rows — held as a second CSR pair and built in
bulk by one O(M + n) counting sort, never by per-element Python
appends.  The coverage bump of an append or a reveal, the index build
and ``remove_covered`` are compiled kernels (``_pool.c``, built into the
package's one library by :mod:`repro._native`); the rest of an append
and the other index query (``coverage_of_set``) are numpy over the same
buffers.  See ``docs/rrset_engine.md`` for the layout, the index
policy, and the determinism contract.

Index maintenance is amortized over growth events: appends only
validate, copy and bump coverage, and the first index read that follows
(``remove_covered``, ``coverage_of_set``) rebuilds the index over every
visible set, so a growth event of many chunks costs one build.  Every
node's slice lists ascending set ids, so when the index was built never
shows.

The index is part of the *sample*: :meth:`RRSetPool.rewind` keeps it,
so after a rewind it may list sets that are not visible yet.  Readers
clip every answer to the visible ids — a prefix of each ascending
slice — and the index is built only where the visible sets outrun it.
"""

from __future__ import annotations

import numpy as np

from repro._native import library
from repro.errors import CapacityError
from repro.graph._traversal import gather_slices
from repro.utils.validation import is_integer

#: Members are node ids; int32 halves RR memory vs the old int64 arrays
#: and comfortably addresses graphs up to 2^31 nodes.
MEMBER_DTYPE = np.int32
#: Set ids in the inverted index; int32 supports 2^31 sets per pool.
SET_ID_DTYPE = np.int32
#: Offsets of both CSR pairs (set → members, node → index entries).
OFFSET_DTYPE = np.int32

#: Hard per-pool limits implied by the int32 storage dtypes: set ids and
#: the offsets of both CSR pairs must stay below 2^31.
#: ``add_flat`` refuses appends that would cross either limit (with a
#: :class:`~repro.errors.CapacityError`) before touching any buffer —
#: silently wrapping ids would corrupt the CSR index.
MAX_SETS = int(np.iinfo(SET_ID_DTYPE).max)
MAX_MEMBERS = int(np.iinfo(OFFSET_DTYPE).max)

class CSRSetView:
    """A read-only CSR window over a prefix of a pool's sets.

    ``indptr`` has ``num_sets + 1`` entries and indexes into ``members``.
    Views alias the pool's buffers and are O(1) to create.  A view is
    *self-healing*: the pool is append-only, so the first ``num_sets``
    sets never change, and when a growth-triggered reallocation retires
    the buffer a view points at, the view re-materializes itself against
    the live buffer on next access (the pool's generation counter detects
    the swap).  Holding a stale view therefore never silently reads — or
    keeps alive — a retired buffer.
    """

    __slots__ = ("_indptr", "_members", "num_sets", "_pool", "_generation")

    def __init__(self, pool: "RRSetPool", num_sets: int) -> None:
        self._pool = pool
        self.num_sets = int(num_sets)
        self._generation = -1
        self._refresh()

    def _refresh(self) -> None:
        pool = self._pool
        if pool.generation != self._generation:
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

    def __repr__(self) -> str:
        return f"{type(self).__name__}(num_sets={self.num_sets})"


def _bump_counts(counts: np.ndarray, members: np.ndarray) -> None:
    """``counts[members] += 1`` per occurrence: one compiled pass over
    the pool's own ``int32`` members (checked to lie in range when they
    were appended) into the ``int64`` coverage."""
    library().repro_bump_counts(
        members.size, members.ctypes.data, counts.ctypes.data
    )


def _build_csr_index(
    members: np.ndarray, lengths: np.ndarray, num_nodes: int
) -> tuple[np.ndarray, np.ndarray]:
    """Bulk-build a node→set CSR index over sets ``0 ..``.

    ``members`` is their flat member slice and ``lengths`` their sizes;
    every member must lie in ``[0, num_nodes)`` (appends check that).
    Returns the ``int32`` pair ``(indptr, set_ids)`` where
    ``set_ids[indptr[v]:indptr[v+1]]`` lists the sets containing ``v`` in
    ascending set order — the order a stable sort of the members leaves
    their set ids in, built by one O(M + n) counting sort in C.
    """
    members = np.ascontiguousarray(members, dtype=MEMBER_DTYPE)
    lengths = np.ascontiguousarray(lengths, dtype=np.int64)
    indptr = np.empty(num_nodes + 1, dtype=OFFSET_DTYPE)
    set_ids = np.empty(members.size, dtype=SET_ID_DTYPE)
    library().repro_index_build(
        num_nodes, lengths.size, lengths.ctypes.data,
        members.ctypes.data, indptr.ctypes.data, set_ids.ctypes.data,
    )
    return indptr, set_ids


class RRSetPool:
    """Append-only pool of RR-sets over ``num_nodes`` users.

    Public API: what TIRM asks of its sample (§5.1–5.2) — append sets
    (``add_flat``, the samplers' bulk entry point), remove the ones a
    seed covers (``remove_covered``), read the eager per-node coverage
    counts (``coverage``), and count the sets a seed set intersects
    (``coverage_of_set``, for ``n · F_R(S)``) — plus the zero-copy
    ``prefix_view`` window for O(pilot) OPT estimation and
    ``resident_rows`` for re-reading packed rows.

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
    Sets can also arrive hidden: ``add_flat(..., visible=k)`` shows the
    first ``k`` sets it appends and keeps the rest resident.  That is
    the *hidden tail*, where the sharded engine keeps the unread rest of
    a chunk it spliced whole, until a later ``reveal`` continues it.
    Every query and ``memory_bytes()`` see visible sets only:
    ``memory_bytes()`` charges the index a cold pool fed the same
    visible sets and the same reads would hold, so the hidden part of a
    kept index stays uncounted like the hidden rows.  Appends are refused
    while resident sets are still hidden.

    The inverted index is built by the first index read after growth
    (``remove_covered``, ``coverage_of_set``) that finds the visible
    sets past what it covers; appends, ``coverage``, the views and the
    byte accounting never build it.  A pool has a single owner at a
    time (engine leases are exclusive, and the service reports progress
    from stored snapshots, never the live pool), so a read that builds
    takes no lock.

    Examples
    --------
    Three sets over five nodes — ``{0, 2}``, ``{2, 3}`` and ``{4}``,
    packed as members plus lengths; node 2 appears in two of them, and
    removing the sets it covers updates the eager coverage counters::

        >>> import numpy as np
        >>> from repro.rrset import RRSetPool
        >>> pool = RRSetPool(num_nodes=5)
        >>> pool.add_flat(np.array([0, 2, 2, 3, 4]), np.array([2, 2, 1]))
        >>> pool.num_total, pool.num_alive
        (3, 3)
        >>> pool.coverage().tolist()
        [1, 0, 2, 1, 1]
        >>> pool.remove_covered(2)      # kill the sets containing node 2
        2
        >>> pool.num_alive, pool.coverage().tolist()
        (1, [0, 0, 0, 0, 1])
        >>> pool.coverage_of_set([2, 4])  # F_R counts every visible set
        3
    """

    def __init__(self, num_nodes: int) -> None:
        if num_nodes < 0:
            raise ValueError("num_nodes must be >= 0")
        self.num_nodes = int(num_nodes)
        self._members = np.empty(1_024, dtype=MEMBER_DTYPE)
        self._members_used = 0
        self._indptr = np.zeros(257, dtype=OFFSET_DTYPE)
        self._num_sets = 0
        self._alive_mask = np.empty(256, dtype=bool)
        self._num_alive = 0
        self._coverage = np.zeros(num_nodes, dtype=np.int64)
        # Sets whose rows sit in the buffers (>= _num_sets, the visible
        # ones): equal except after a rewind() or an append with a
        # hidden tail, until the reveal()s that catch up with it.
        self._resident_sets = 0
        # The inverted index over sets [0, _index_sets); a rewind keeps
        # it, so it may cover sets that are not visible.
        self._idx_indptr = np.zeros(self.num_nodes + 1, dtype=OFFSET_DTYPE)
        self._idx_sets = np.empty(0, dtype=SET_ID_DTYPE)
        self._index_sets = 0
        # The cold mark: num_total at the last index read, so the index a
        # cold pool fed the visible sets would hold covers sets
        # [0, _synced_sets).  It prices memory_bytes(); appends leave it
        # behind and a rewind resets it.
        self._synced_sets = 0
        # Bumped whenever a growth reallocation retires a storage buffer;
        # outstanding CSRSetViews use it to re-materialize themselves.
        self._generation = 0
        # The buffer addresses remove_covered hands the kernel, taken
        # once per buffer swap (None after one): an address costs more
        # to read than the kernel takes to run.
        self._addresses: tuple[int, ...] | None = None

    def __getstate__(self) -> dict:
        # A copy or an unpickled pool owns other buffers: the cached
        # addresses are this pool's alone.
        return {**self.__dict__, "_addresses": None}

    @property
    def generation(self) -> int:
        """Buffer generation: increments on every growth reallocation."""
        return self._generation

    # ------------------------------------------------------------------
    # Mutations
    # ------------------------------------------------------------------
    def add_flat(
        self, members: np.ndarray, lengths: np.ndarray, *, visible=None
    ) -> None:
        """Append ``len(lengths)`` sets whose members are concatenated in
        ``members``.  This is the samplers' bulk entry point.

        All the sets become resident and the first ``visible`` (an
        integer in ``[0, len(lengths)]``, default: all) are revealed; the
        rest are the hidden tail a later :meth:`reveal` continues.

        Exactly one copy: members land in the pool's growable buffer via
        a single slice assignment, which casts integer inputs in place —
        no ``astype`` staging copy.  Both arrays must hold integers: a
        float or bool array is refused (``ValueError``), never truncated.
        """
        members = np.asarray(members).ravel()
        lengths = np.asarray(lengths).ravel()
        for name, array in (("members", members), ("lengths", lengths)):
            if array.size and not np.issubdtype(array.dtype, np.integer):
                raise ValueError(
                    f"{name} must be an integer array, got dtype {array.dtype}"
                )
        if visible is None:
            visible = lengths.size
        if not is_integer(visible) or not 0 <= visible <= lengths.size:
            raise ValueError(
                f"visible must be an integer in [0, {lengths.size}], got {visible!r}"
            )
        lengths = lengths.astype(np.int64, copy=False)
        self._validate_flat(members, lengths)
        self._append_flat(members, lengths, int(visible))

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
        self._append_flat(members, lengths, num_sets)

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

    def _append_flat(
        self, members: np.ndarray, lengths: np.ndarray, visible: int
    ) -> None:
        """The single-copy append core shared by :meth:`add_flat` and
        :meth:`add_flat_from_buffer` (inputs already validated): copy the
        rows in as resident sets, then reveal the first ``visible``."""
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
        # inputs (int64 views included) directly into the int32 buffer;
        # the offsets are cast the same way, once checked against MAX_MEMBERS.
        start = self._members_used
        self._members[start : start + members.size] = members
        self._indptr[self._num_sets + 1 : self._num_sets + count + 1] = start + np.cumsum(lengths)
        self._resident_sets = self._num_sets + count
        self.reveal(visible)

    def rewind(self) -> None:
        """Make nothing visible: drop the run state (visible marks,
        alive sets, coverage), keep the sample — member rows, ``indptr``
        and the inverted index stay resident for :meth:`reveal`."""
        self._members_used = 0
        self._num_sets = 0
        self._num_alive = 0
        self._coverage[:] = 0
        self._synced_sets = 0

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
        _bump_counts(self._coverage, self._members[start:end])

    def remove_covered(self, node: int) -> int:
        """Remove every alive set containing ``node``; returns how many.

        One compiled call walks the node's index slice, clipped to the
        visible sets, kills each alive set once — a set that names
        ``node`` twice (possible through the public ``add_flat``) is
        listed twice and found dead the second time — and decrements
        coverage once per member of each.  ``node`` must be an integer:
        a float or bool is refused (``ValueError``), never truncated.
        """
        if not is_integer(node):
            raise ValueError(
                f"node must be an integer, got {type(node).__name__}"
            )
        if not 0 <= node < self.num_nodes:
            raise IndexError(f"node {node} out of range")
        self._sync_index()
        if self._addresses is None:
            self._addresses = tuple(
                array.ctypes.data for array in (
                    self._idx_indptr, self._idx_sets, self._alive_mask,
                    self._indptr, self._members, self._coverage,
                )
            )
        killed = library().repro_remove_covered(
            node, self._num_sets, *self._addresses
        )
        self._num_alive -= killed
        return killed

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
        hidden ones included (members: a zero-copy view; lengths:
        ``int64``, the packed-block layout)."""
        if not 0 <= lo <= hi <= self._resident_sets:
            raise IndexError(
                f"sets [{lo}, {hi}) not within the {self._resident_sets} resident"
            )
        indptr = self._indptr[lo : hi + 1]
        return self._members[indptr[0] : indptr[-1]], np.diff(indptr).astype(np.int64)

    def coverage(self) -> np.ndarray:
        """Read-only view of per-node alive-set coverage counts."""
        view = self._coverage.view()
        view.flags.writeable = False
        return view

    def coverage_of_set(self, nodes) -> int:
        """Number of visible sets intersecting ``nodes`` — alive or
        removed, so a pool that has been through ``remove_covered``
        still counts over its whole sample (``F_R(S)``, Proposition 1).

        Vectorized: gathers every candidate set id via index slices, then
        dedups with one ``np.unique``.  ``nodes`` must hold integers: a
        float array or a boolean mask is refused (``ValueError``), never
        read as node ids.
        """
        nodes = np.asarray(nodes).ravel()
        if nodes.size == 0:
            return 0
        if not np.issubdtype(nodes.dtype, np.integer):
            raise ValueError(
                f"nodes must be an integer array, got dtype {nodes.dtype}"
            )
        nodes = np.unique(nodes.astype(np.int64, copy=False))
        if nodes[0] < 0 or nodes[-1] >= self.num_nodes:
            raise IndexError("node ids out of range")
        self._sync_index()
        starts = self._idx_indptr[nodes]
        ids = self._idx_sets[
            gather_slices(starts, self._idx_indptr[nodes + 1] - starts)
        ]
        if self._index_sets > self._num_sets:
            ids = ids[ids < self._num_sets]  # a kept index lists hidden sets too
        return int(np.unique(ids).size)

    def prefix_view(self, k: int | None = None) -> CSRSetView:
        """Zero-copy CSR window over the first ``k`` sets (default: all).

        This is the O(1) accessor the OPT pilot uses.  The view stays
        valid across later ``add_*`` calls: if a growth reallocation
        retires the underlying buffer, the view re-materializes itself
        against the live one on next access (see :class:`CSRSetView`).
        """
        k = self._num_sets if k is None else min(max(int(k), 0), self._num_sets)
        return CSRSetView(self, k)

    def memory_bytes(self) -> int:
        """Bytes of RR data a cold pool holding the visible sets would
        hold: the exact ``nbytes`` of the used portions of the
        members/indptr/alive/coverage buffers plus the inverted index as
        the same reads would have left it — members appended since the
        last index read have no index entries yet, and asking never
        builds them.  Hidden resident rows, and the part of a kept index
        that lists them, are the sample a rewound pool keeps for its next
        run, not this run's data.  This is the honest Table-4 figure: the
        engine stores nothing else.
        """
        return int(
            self._members_used * self._members.itemsize
            + (self._num_sets + 1) * self._indptr.itemsize
            + self._num_sets * self._alive_mask.itemsize
            + self._coverage.nbytes
            + self._idx_indptr.nbytes
            + int(self._indptr[self._synced_sets]) * self._idx_sets.itemsize
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
        self._addresses = None

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
        indptr = np.zeros(capacity + 1, dtype=OFFSET_DTYPE)
        indptr[: self._num_sets + 1] = self._indptr[: self._num_sets + 1]
        self._indptr = indptr
        self._generation += 1
        self._addresses = None

    def _sync_index(self) -> None:
        """Amortized index maintenance, run by the index readers: mark
        the visible sets synced, and rebuild the index over all of them
        if they outrun what it covers."""
        self._synced_sets = self._num_sets
        if self._index_sets >= self._num_sets:
            return
        self._idx_indptr, self._idx_sets = _build_csr_index(
            self._members[: self._members_used],
            np.diff(self._indptr[: self._num_sets + 1]),
            self.num_nodes,
        )
        self._index_sets = self._num_sets
        self._addresses = None
