"""The package's one BFS — the compiled ``repro_bfs_batch`` of
``rrset/_bfs.c``, reverse over the in-CSR for RR-sets and forward over
the out-CSR for the Monte-Carlo cascades — as a :class:`BfsTable` of
batches, and :func:`gather_slices`, the RR-set pool's row read.

A batch draws its coins through one of two arms, with the same coins
either way.  A batch drawing from a ``numpy.random.Philox`` on a CPU
with AVX-512F/DQ takes the vector arm: the table loads the generator's
state words (counter, key, buffer, buffer position) into the entry and
the kernel computes the stream itself, 16 blocks per step; the words
it leaves are written back to the generator's state when the batch is
taken.  Every other bit generator, and every batch on a CPU without
those instructions, takes the per-slot arm: one call of the
generator's own ``next_double`` per coin.  The arm follows from the
generator's type and the CPU alone (:data:`_vector_arm`).
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


#: Whether Philox batches take the vector arm: ``None`` until the first
#: table asks the library (``repro_philox_vector``: built for x86-64 and
#: the CPU has AVX-512F/DQ).  Tests set it to ``False`` to force the
#: per-slot arm on a CPU that has the vector one.
_vector_arm: bool | None = None


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
        ("philox", ctypes.c_int64),
        ("counter", ctypes.c_uint64 * 4),
        ("key", ctypes.c_uint64 * 2),
        ("buffer", ctypes.c_uint64 * 4),
        ("buffer_pos", ctypes.c_int64),
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
    the caller locks it if anyone else can reach it — from :meth:`bind`
    (or :meth:`rearm`) to :meth:`take`, since a Philox batch on the
    vector arm reads the generator's state at the one and writes it back
    at the other.  Outputs nobody took are released by :meth:`free`; a
    vector-arm Philox whose batch is never taken keeps the state it was
    read at.
    """

    def __init__(self, count: int) -> None:
        global _vector_arm
        self.count = count
        self.tasks = (BfsTask * count)()
        self._cursor = ctypes.c_int64(0)
        self._kernels = library()
        self._table = ctypes.addressof(self.tasks)
        self._at = ctypes.addressof(self._cursor)
        self._held: list = []
        if _vector_arm is None:
            _vector_arm = bool(self._kernels.repro_philox_vector())
        self._vector = _vector_arm
        self._philox: dict = {}  # vector-arm batch -> its Philox

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
        keeps alive; a Philox on the vector arm has its state read now."""
        task = self.tasks[i]
        task.philox = self._vector and type(bit_generator) is np.random.Philox
        if task.philox:
            self._philox[i] = bit_generator
            self._load(i)
            return
        self._philox.pop(i, None)
        draw = bit_generator.ctypes
        task.next_double = ctypes.cast(draw.next_double, ctypes.c_void_p).value
        task.state = draw.state_address

    def _load(self, i) -> None:
        state, task = self._philox[i].state, self.tasks[i]
        task.counter[:] = state["state"]["counter"].tolist()
        task.key[:] = state["state"]["key"].tolist()
        task.buffer[:] = state["buffer"].tolist()
        task.buffer_pos = state["buffer_pos"]

    def _store(self, i) -> None:
        bit_generator, task = self._philox[i], self.tasks[i]
        state = bit_generator.state
        state["state"]["counter"] = np.array(task.counter, dtype=np.uint64)
        state["buffer"] = np.array(task.buffer, dtype=np.uint64)
        state["buffer_pos"] = task.buffer_pos
        bit_generator.state = state

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
        roots or a new generator), reading the state of every Philox
        on the vector arm afresh."""
        self._cursor.value = 0
        for task in self.tasks:
            task.done = 0
        for i in self._philox:
            self._load(i)

    def take(self, i: int) -> tuple[np.ndarray, np.ndarray | None]:
        """Batch ``i``'s ``(members, depths)``, copied out of the kernel's
        buffers (released here); ``depths`` is ``None`` unless asked for.
        A Philox on the vector arm gets the state the batch left.  Only
        once batch ``i`` is :meth:`done`."""
        task = self.tasks[i]
        if task.philox:
            self._store(i)
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
