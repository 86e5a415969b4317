"""The package's one BFS — the compiled ``repro_bfs_batch`` of
``rrset/_bfs.c``, reverse over the in-CSR for RR-sets and forward over
the out-CSR for the Monte-Carlo cascades — as a :class:`BfsTable` of
batches, and :func:`gather_slices`, the RR-set pool's row read.
"""

from __future__ import annotations

import ctypes

import numpy as np

from repro._native import library

_EMPTY = np.empty(0, dtype=np.int64)


def gather_slices(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Flat positions covering ``[starts[i], starts[i]+lengths[i])`` for
    every ``i``, concatenated — the repeat/cumsum multi-slice gather, no
    Python loop."""
    lengths = lengths.astype(np.int64, copy=False)
    total = int(lengths.sum())
    if total == 0:
        return _EMPTY
    ends = np.cumsum(lengths)
    offsets = np.repeat(starts.astype(np.int64, copy=False) - (ends - lengths), lengths)
    return offsets + np.arange(total, dtype=np.int64)


def _copied(address: int, count: int) -> np.ndarray:
    array = np.empty(count, dtype=np.int32)
    ctypes.memmove(array.ctypes.data, address, array.nbytes)
    return array


class BfsTask(ctypes.Structure):
    """One batch of BFS-es (``bfs_task_t`` of ``_bfs.c``): its arrays and
    generator as raw addresses, and its outputs."""

    _fields_ = [
        ("n", ctypes.c_int64),
        ("batch", ctypes.c_int64),
        ("root_indptr", ctypes.c_void_p),
        ("roots", ctypes.c_void_p),
        ("indptr", ctypes.c_void_p),
        ("adjacent", ctypes.c_void_p),
        ("probs", ctypes.c_void_p),
        ("next_double", ctypes.c_void_p),
        ("state", ctypes.c_void_p),
        ("lengths", ctypes.c_void_p),
        ("want_depth", ctypes.c_int64),
        ("total", ctypes.c_int64),
        ("members", ctypes.c_void_p),
        ("depth", ctypes.c_void_p),
        ("done", ctypes.c_int64),
    ]


class BfsTable:
    """``count`` batches of BFS-es that every thread calling :meth:`run`
    pulls from one atomic cursor, a whole batch at a time, with the GIL
    released for the whole call.

    Batch ``i`` (:meth:`set`) is a set of BFS-es: set ``s`` rooted at
    ``roots[root_indptr[s]:root_indptr[s + 1]]`` (ascending, distinct;
    ``roots[s]`` alone without ``root_indptr``), the edge in CSR slot
    ``j`` live iff its coin is below ``probs[j]`` and leading to
    ``adjacent[j]``.  :meth:`take` returns its members (int32) set by
    set, level by level, ascending within a level, and, if asked for,
    each member's level (0 for the roots).  The coin order is the
    contract stated in ``_bfs.c``.

    The arrays must be C-contiguous — indices int64 in ``[0, n)``,
    ``probs`` float64 — and are not checked here: the callers do that.
    The table holds every array and generator its batches point into,
    so it must outlive every :meth:`run` call in flight; a batch's
    generator is drawn from by the one thread that takes the batch, and
    the caller locks it if anyone else can reach it.  Outputs nobody
    took are released by :meth:`free`.
    """

    def __init__(self, count: int) -> None:
        self.count = count
        self.tasks = (BfsTask * count)()
        self._cursor = ctypes.c_int64(0)
        self._kernels = library()
        self._table = ctypes.addressof(self.tasks)
        self._at = ctypes.addressof(self._cursor)
        self._held: list = []

    def set(self, i, n, roots, indptr, adjacent, probs, bit_generator, lengths,
            *, root_indptr=None) -> None:
        """Batch ``i``: ``lengths.size`` sets whose sizes land in
        ``lengths``, drawing from ``bit_generator`` (``None``: bound
        later); set its ``want_depth`` for the depths too."""
        task = self.tasks[i]
        task.n, task.batch = n, lengths.size
        task.root_indptr = None if root_indptr is None else root_indptr.ctypes.data
        task.roots, task.lengths = roots.ctypes.data, lengths.ctypes.data
        task.indptr, task.adjacent = indptr.ctypes.data, adjacent.ctypes.data
        task.probs = probs.ctypes.data
        if bit_generator is not None:
            self.bind(i, bit_generator)
        self._held += (root_indptr, roots, indptr, adjacent, probs, lengths,
                       bit_generator)

    def bind(self, i, bit_generator) -> None:
        """Batch ``i`` draws from ``bit_generator``, which the caller
        keeps alive."""
        draw = bit_generator.ctypes
        task = self.tasks[i]
        task.next_double = ctypes.cast(draw.next_double, ctypes.c_void_p).value
        task.state = draw.state_address

    def run(self, until: int = -1) -> int:
        """Run batches pulled from the cursor until batch ``until`` is
        done or none is left to pull (``until < 0``: until none is left);
        returns how many this call ran.  It never waits for a batch
        another thread took: :meth:`done` tells."""
        return self._kernels.repro_bfs_run(self._table, self.count, self._at, until)

    def done(self, i: int) -> bool:
        """Whether batch ``i`` is done, so that :meth:`take` may read it."""
        return bool(self._kernels.repro_bfs_done(self._table, i))

    def stop(self) -> None:
        """Move the cursor past the end: no call takes another batch."""
        self._kernels.repro_bfs_stop(self._at, self.count)

    def rearm(self) -> None:
        """Make every batch runnable again (a table reused with new
        roots or a new generator)."""
        self._cursor.value = 0
        for task in self.tasks:
            task.done = 0

    def take(self, i: int) -> tuple[np.ndarray, np.ndarray | None]:
        """Batch ``i``'s ``(members, depths)``, copied out of the kernel's
        buffers (released here); ``depths`` is ``None`` unless asked for.
        Only once batch ``i`` is :meth:`done`."""
        task = self.tasks[i]
        total, members, depth = task.total, task.members, task.depth
        task.members = task.depth = None
        try:
            if total < 0:
                raise MemoryError("the BFS kernel could not allocate memory")
            return (_copied(members, total),
                    _copied(depth, total) if depth else None)
        finally:
            self._kernels.repro_bfs_free(members)
            self._kernels.repro_bfs_free(depth)

    def free(self) -> None:
        """Release every output not taken (no :meth:`run` in flight)."""
        for task in self.tasks:
            if task.members or task.depth:
                self._kernels.repro_bfs_free(task.members)
                self._kernels.repro_bfs_free(task.depth)
                task.members = task.depth = None
