"""List-of-sets conveniences over :class:`~repro.rrset.pool.RRSetPool`.

The pool exports what TIRM asks of its sample — packed appends
(``add_flat``), removal, coverage counts, ``F_R(S)`` — and the packed
readers ``prefix_view`` / ``resident_rows``.  Tests that think in one
array per set go through these functions instead.  The per-set alive
flags are run state the pool keeps private (``_alive_mask``); the
functions that need them read it here, in tests only.
"""

from __future__ import annotations

import numpy as np

from repro.rrset.pool import RRSetPool


def add_sets(pool: RRSetPool, sets) -> list[int]:
    """Append one set per member array through ``add_flat``; returns
    the new set ids."""
    arrays = [np.asarray(s, dtype=np.int64).ravel() for s in sets]
    first = pool.num_total
    members = np.concatenate(arrays) if arrays else np.empty(0, dtype=np.int64)
    pool.add_flat(members, np.asarray([a.size for a in arrays], dtype=np.int64))
    return list(range(first, pool.num_total))


def pool_of(sets, num_nodes: int) -> RRSetPool:
    """A fresh pool holding ``sets``."""
    pool = RRSetPool(num_nodes)
    add_sets(pool, sets)
    return pool


def get_set(pool: RRSetPool, set_id: int) -> np.ndarray:
    """Members of one visible set (a zero-copy view)."""
    if not 0 <= set_id < pool.num_total:
        raise IndexError(f"set id {set_id} out of range")
    return pool.resident_rows(set_id, set_id + 1)[0]


def view_sets(view) -> list[np.ndarray]:
    """The sets of a :class:`~repro.rrset.pool.CSRSetView`, one array each."""
    indptr, members = view.indptr, view.members
    return [members[indptr[i] : indptr[i + 1]] for i in range(view.num_sets)]


def all_sets(pool: RRSetPool) -> list[np.ndarray]:
    """Every visible set, alive or covered, in append order."""
    return view_sets(pool.prefix_view())


def alive_mask(pool: RRSetPool) -> np.ndarray:
    """A copy of the alive flags of the visible sets."""
    return pool._alive_mask[: pool.num_total].copy()


def is_alive(pool: RRSetPool, set_id: int) -> bool:
    get_set(pool, set_id)  # the range check
    return bool(pool._alive_mask[set_id])


def sets_containing(pool: RRSetPool, node: int, *, alive_only: bool = True) -> list[int]:
    """Ids of the visible sets containing ``node``, ascending, one entry
    per occurrence (a set naming ``node`` twice is listed twice)."""
    alive = alive_mask(pool)
    return [
        i
        for i, members in enumerate(all_sets(pool))
        for v in members.tolist()
        if v == node and (alive[i] or not alive_only)
    ]
