"""The NumPy reference backend — the semantics every backend must match.

The vectorized level op: a per-node bound prefilter of the pre-drawn
coin block, fancy-indexed slot and probability gathers for the
surviving candidates only, one exact comparison, and a sort-based
``(set, node)`` dedup (in-place key sort, adjacent-difference and
``searchsorted`` freshness mask, masked-scatter sorted merge).  It is
pure NumPy — always available, no optional dependencies — and serves as
the executable specification the byte-identity tests pin the JIT
backends against; its own reference is the pre-prefilter level op kept
verbatim in ``tests/rrset/_reference_driver.py``.
"""

from __future__ import annotations

import numpy as np

from repro.rrset.backends.base import SamplingBackend

_EMPTY = np.empty(0, dtype=np.int64)

#: Expected candidate share of a level's coin block — ``Σ bound·degree /
#: Σ degree`` over the frontier, known before a coin is looked at — at
#: or above which the prefilter is skipped: its repeat/compare/nonzero
#: passes then cost more than the gathers they save.
_PREFILTER_MAX_SHARE = 0.1


class NumpyBackend(SamplingBackend):
    """Vectorized NumPy level op (the reference implementation)."""

    name = "numpy"

    def level_op(self, owners, starts, degrees, bounds, in_sources, in_probs,
                 coins, visited_keys, n):
        total = coins.size
        ends = degrees.cumsum()
        if float(np.dot(bounds, degrees)) < _PREFILTER_MAX_SHARE * total:
            # Candidates: coins under their node's largest in-edge
            # probability — a superset of the live edges, found without
            # touching a slot.  `counts[i]` of them belong to entry `i`.
            cand = (coins < bounds.repeat(degrees)).nonzero()[0]
            if cand.size == 0:
                return _EMPTY, _EMPTY, visited_keys
            counts = cand.searchsorted(ends)
            counts[1:] -= counts[:-1]
            coins = coins[cand]
        else:
            cand = np.arange(total, dtype=np.int64)
            counts = degrees
        slots = cand + (starts - (ends - degrees)).repeat(counts)
        live = (coins < in_probs[slots]).nonzero()[0]
        if live.size == 0:
            return _EMPTY, _EMPTY, visited_keys
        key = (owners * n).repeat(counts)[live] + in_sources[slots[live]]
        # Keep a key once (sorted: drop equal neighbours) and only if its
        # pair is not already visited in its set.
        key.sort()
        pos = visited_keys.searchsorted(key)
        fresh = visited_keys[np.minimum(pos, visited_keys.size - 1)] != key
        fresh[1:] &= key[1:] != key[:-1]
        key = key[fresh]
        if key.size == 0:
            return _EMPTY, _EMPTY, visited_keys
        # Sorted merge: both sides are sorted and disjoint and `pos`
        # holds the insertion points, so this is O(V), no re-sort.
        at = pos[fresh] + np.arange(key.size)
        merged = np.empty(visited_keys.size + key.size, dtype=np.int64)
        old = np.ones(merged.size, dtype=bool)
        old[at] = False
        merged[at] = key
        merged[old] = visited_keys
        own = key // n
        return own, key - own * n, merged
