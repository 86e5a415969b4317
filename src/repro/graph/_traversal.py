"""Vectorised frontier expansion — the shared BFS primitive.

Given a CSR ``indptr`` and a frontier of node ids, :func:`gather_edge_slots`
returns the flat positions (into the CSR's adjacency arrays) of every edge
incident to the frontier — without any per-node Python loop.  This is the
primitive that keeps Monte-Carlo simulation, reverse BFS and connectivity
algorithms fast in pure numpy.  Both it and the RR-set
pool's row reads are one kernel, :func:`gather_slices`.
"""

from __future__ import annotations

import numpy as np

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


def gather_edge_slots(indptr: np.ndarray, frontier: np.ndarray) -> np.ndarray:
    """Flat CSR slot indices for all edges of all ``frontier`` nodes.

    Equivalent to ``np.concatenate([np.arange(indptr[u], indptr[u+1])
    for u in frontier])`` but fully vectorised.
    """
    if frontier.size == 0:
        return _EMPTY
    starts = indptr[frontier]
    return gather_slices(starts, indptr[frontier + 1] - starts)
