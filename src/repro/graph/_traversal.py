"""The package's one BFS, :func:`bfs_batch` (the compiled
``repro_bfs_batch`` of ``rrset/_bfs.c``: reverse over the in-CSR for
RR-sets, forward over the out-CSR for the Monte-Carlo cascades), and
:func:`gather_slices`, the RR-set pool's row read.
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


def _copied(pointer, count: int) -> np.ndarray:
    array = np.empty(count, dtype=np.int32)
    ctypes.memmove(array.ctypes.data, pointer, array.nbytes)
    return array


def bfs_batch(root_indptr, roots, indptr, adjacent, probs, bit_generator, n,
              *, depth=False):
    """One batch of BFS-es as ``(members, lengths, depths)``: set ``s``
    rooted at ``roots[root_indptr[s]:root_indptr[s + 1]]`` (ascending,
    distinct), the edge in CSR slot ``j`` live iff its coin is below
    ``probs[j]`` and leading to ``adjacent[j]``.  Members (int32) come
    set by set, level by level, ascending within a level; ``depths``
    holds each member's level (0 for the roots) if ``depth``, else
    ``None``.  The coin order is the contract stated in ``_bfs.c``.

    The arrays must be C-contiguous — indices int64 in ``[0, n)``,
    ``probs`` float64 — and are not checked here: the callers do that.
    Runs with the GIL released and ``bit_generator.lock`` held."""
    kernels = library()
    lengths = np.empty(root_indptr.size - 1, dtype=np.int64)
    members_out = ctypes.POINTER(ctypes.c_int32)()
    depth_out = ctypes.POINTER(ctypes.c_int32)()
    draw = bit_generator.ctypes
    with bit_generator.lock:
        total = kernels.repro_bfs_batch(
            n, lengths.size, root_indptr.ctypes.data, roots.ctypes.data,
            indptr.ctypes.data, adjacent.ctypes.data, probs.ctypes.data,
            ctypes.cast(draw.next_double, ctypes.c_void_p), draw.state,
            lengths.ctypes.data, ctypes.byref(members_out),
            ctypes.byref(depth_out) if depth else None,
        )
    if total < 0:
        raise MemoryError("the BFS kernel could not allocate memory")
    try:
        return (_copied(members_out, total), lengths,
                _copied(depth_out, total) if depth else None)
    finally:
        kernels.repro_bfs_free(members_out)
        kernels.repro_bfs_free(depth_out)
