"""The blocked-BFS driver and NumPy level op as they stood before PR 21
(commit 8b80fed), kept verbatim as the in-test reference — the only
numpy BFS left, a test-only oracle for the compiled kernel.

PR 21 gave the level op a per-node probability bound to prefilter the
coin block with, and rebuilt the driver's regroup and the level op's
dedup/merge.  None of that may move a byte or an RNG call, so the old
code lives on here — unoptimized, obviously correct — and
``test_driver_equivalence.py`` holds the shipped driver ``array_equal``
to it.  Only the names changed (``reference_`` prefix; ``level_op`` is
called directly instead of being passed in).
"""

from __future__ import annotations

import numpy as np

from repro.rrset.pool import MEMBER_DTYPE

BLOCK_BATCH = 4_096

_EMPTY = np.empty(0, dtype=np.int64)


def reference_level_op(owners, starts, degrees, in_sources, in_probs,
                       coins, visited_keys, n):
    total = coins.size
    ends = np.cumsum(degrees)
    slots = (
        np.repeat(starts - (ends - degrees), degrees)
        + np.arange(total, dtype=np.int64)
    )
    edge_owner = np.repeat(owners, degrees)
    live = coins < in_probs[slots]
    src = in_sources[slots[live]]
    own = edge_owner[live]
    if src.size == 0:
        return _EMPTY, _EMPTY, visited_keys
    # Dedup (set, node) pairs reached on this level, then drop
    # those already visited in their set.
    key = own * n + src
    ukey, first = np.unique(key, return_index=True)
    pos = np.searchsorted(visited_keys, ukey)
    pos_clipped = np.minimum(pos, visited_keys.size - 1)
    fresh = visited_keys[pos_clipped] != ukey
    if not fresh.any():
        return _EMPTY, _EMPTY, visited_keys
    first = first[fresh]
    own, src = own[first], src[first]
    # Sorted merge: both sides are sorted and `pos` already holds
    # the insertion points, so this is O(V), no re-sort.
    visited_keys = np.insert(visited_keys, pos[fresh], ukey[fresh])
    return own, src, visited_keys


def reference_drive_blocked(
    graph,
    in_probs: np.ndarray,
    rng: np.random.Generator,
    count: int,
    batch_size: int | None = None,
    roots: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Shared blocked-BFS driver: ``count`` RR-sets as a packed
    ``(members, lengths)`` block, drawing from ``rng``.

    Runs a reverse BFS over a whole batch of roots at once: each level
    gathers the in-edge slot ranges of *every* frontier node across the
    batch, draws all their coins in one ``Generator.random`` block, and
    hands frontier + coins to ``level_op`` for the live-edge test and
    the ``(set, node)`` dedup.  ``in_probs`` is the per-in-slot
    probability array (canonical edge probabilities gathered through
    ``graph.in_edge_ids``).  ``roots`` fixes the roots (tests and the
    single-set helper); by default they are drawn from ``rng``.

    The RNG call sequence is fixed here, independent of ``level_op``:
    that is what makes every backend byte-identical for the same
    generator state.
    """
    n = graph.num_nodes
    if count == 0:
        return np.empty(0, dtype=MEMBER_DTYPE), np.empty(0, dtype=np.int64)
    if n == 0:
        raise ValueError("cannot sample RR-sets from an empty graph")
    if batch_size is None:
        batch_size = BLOCK_BATCH
    in_indptr = graph.in_indptr
    in_sources = graph.in_sources
    member_chunks: list[np.ndarray] = []
    length_chunks: list[np.ndarray] = []
    done = 0
    while done < count:
        batch = min(batch_size, count - done)
        if roots is None:
            batch_roots = rng.integers(0, n, size=batch)
        else:
            batch_roots = np.asarray(roots[done : done + batch], dtype=np.int64)
        owners = np.arange(batch, dtype=np.int64)
        # Visited (set, node) pairs as a sorted key array: memory and
        # work scale with the members actually discovered, never with
        # batch × num_nodes.  Owners are distinct here, so the root
        # keys are already unique and sorted.
        visited_keys = owners * n + batch_roots
        frontier = batch_roots.astype(np.int64)
        pair_owner = [owners]
        pair_node = [frontier]
        while frontier.size:
            starts = in_indptr[frontier]
            degrees = in_indptr[frontier + 1] - starts
            total = int(degrees.sum())
            if total == 0:
                break
            coins = rng.random(total)
            own, src, visited_keys = reference_level_op(
                owners, starts, degrees, in_sources, in_probs, coins,
                visited_keys, n,
            )
            if src.size == 0:
                break
            pair_owner.append(own)
            pair_node.append(src)
            owners, frontier = own, src
        all_owner = np.concatenate(pair_owner)
        all_node = np.concatenate(pair_node)
        order = np.argsort(all_owner, kind="stable")
        member_chunks.append(all_node[order].astype(MEMBER_DTYPE))
        length_chunks.append(np.bincount(all_owner, minlength=batch))
        done += batch
    return np.concatenate(member_chunks), np.concatenate(length_chunks)
