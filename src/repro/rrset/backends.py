"""The blocked BFS of the RR-set sampler: one driver, one level op.

The level-synchronous blocked BFS (``docs/rrset_engine.md``) has two
halves:

* the **driver** (:func:`drive_blocked`) — batching, root draws, the
  per-level coin draws, and the final pack into a ``(members, lengths)``
  block.  The driver owns *every* RNG call, in a fixed order: one
  ``Generator.integers`` per batch for the roots, then exactly one
  ``Generator.random(total)`` per BFS level;
* the **level op** (:meth:`NumpyBackend.level_op`) — given one level's
  frontier and its pre-drawn coin block, decide which edges are live,
  dedup the newly reached ``(set, node)`` pairs, and merge them into
  the sorted visited-key array.  A pure function: no RNG, no state.

The level-op contract
---------------------

``level_op(owners, starts, degrees, bounds, in_sources, in_probs, coins,
visited_keys, n) -> (new_owners, new_sources, new_visited_keys)``

* ``owners[i]``/``starts[i]``/``degrees[i]`` — set id owning frontier
  entry ``i`` and its in-CSR slot range ``[starts[i], starts[i] +
  degrees[i])``;
* ``bounds[i]`` — the largest ``in_probs`` value in that slot range
  (:func:`node_bounds`).  A coin ``>= bounds[i]`` cannot be live, so it
  is discarded before its slot is read: the *candidates*
  ``coins < repeat(bounds, degrees)`` are a superset of the live edges;
* ``coins`` — one uniform draw per examined in-edge, in frontier order
  then CSR slot order (``coins.size == degrees.sum()``);
* ``visited_keys`` — sorted, unique ``owner * n + node`` keys of every
  pair already reached in this batch;
* returns the *fresh* pairs in ascending key order plus the merged
  (still sorted, unique) visited keys.  An edge is live iff
  ``coins[k] < in_probs[slot]``; a pair is fresh iff its key is not in
  ``visited_keys``.

Its reference is the pre-prefilter level op kept verbatim in
``tests/rrset/_reference_driver.py``.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.rrset.pool import MEMBER_DTYPE

#: RNG-block width of the level-synchronous batched BFS: one batch of
#: roots is BFS-ed together and each level draws one coin block for all
#: of them, so the width sets the coin interleaving — another value
#: draws different (equally valid) sets from the same rng.  Part of the
#: stream contract for chunks wider than it.
BLOCK_BATCH = 4_096

_EMPTY = np.empty(0, dtype=np.int64)

#: Expected candidate share of a level's coin block — ``Σ bound·degree /
#: Σ degree`` over the frontier, known before a coin is looked at — at
#: or above which the prefilter is skipped: its repeat/compare/nonzero
#: passes then cost more than the gathers they save.
_PREFILTER_MAX_SHARE = 0.1


class NumpyBackend:
    """The vectorized level op: a per-node bound prefilter of the
    pre-drawn coin block, fancy-indexed slot and probability gathers for
    the surviving candidates only, one exact comparison, and a
    sort-based ``(set, node)`` dedup (in-place key sort,
    adjacent-difference and ``searchsorted`` freshness mask,
    masked-scatter sorted merge).

    Kept as a class for ``bench/`` until ROADMAP item 2: its traced pass
    wraps ``level_op`` in this class's ``__dict__``, and the driver calls
    it through the class attribute so the wrapper sees every level."""

    #: The recorded ``backend`` provenance value (stats, checkpoint
    #: configs, catalog rows).
    name = "numpy"

    @staticmethod
    def level_op(owners, starts, degrees, bounds, in_sources, in_probs,
                 coins, visited_keys, n):
        """Advance one BFS level (see the module docstring contract)."""
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


def resolve_backend(backend="numpy") -> NumpyBackend:
    """Kept for ``bench/`` until ROADMAP item 2: ``"numpy"``, the
    recorded name of the one level op, gives a :class:`NumpyBackend`;
    anything else raises :class:`~repro.errors.ConfigurationError`."""
    if backend != NumpyBackend.name:
        raise ConfigurationError(
            f"backend must be {NumpyBackend.name!r} (the only level op), "
            f"got {backend!r}"
        )
    return NumpyBackend()


def node_bounds(graph, in_probs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(in_degree, node_bound)`` for one per-in-slot probability array:
    ``node_bound[v]`` is the largest probability on an in-edge of ``v``
    (0 where there is none), so ``coin >= node_bound[v]`` rules out every
    in-edge of ``v`` without reading it.  O(m); samplers build it once
    per (process, ad) and pass it to :func:`drive_blocked`."""
    in_degree = graph.in_degrees()
    node_bound = np.zeros(graph.num_nodes, dtype=np.float64)
    # reduceat over the non-empty slot ranges only: an empty range would
    # read its neighbour's first slot, a trailing one index past the end.
    nonempty = np.flatnonzero(in_degree)
    if nonempty.size:
        node_bound[nonempty] = np.maximum.reduceat(
            in_probs, graph.in_indptr[nonempty]
        )
    return in_degree, node_bound


def drive_blocked(
    graph,
    in_probs: np.ndarray,
    rng: np.random.Generator,
    count: int,
    batch_size: int | None = None,
    roots: np.ndarray | None = None,
    bounds: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """``count`` RR-sets as a packed ``(members, lengths)`` block,
    drawing from ``rng``.

    Runs a reverse BFS over a whole batch of roots at once: each level
    gathers the in-edge slot ranges of *every* frontier node across the
    batch, draws all their coins in one ``Generator.random`` block, and
    hands frontier + coins to :meth:`NumpyBackend.level_op` for the
    live-edge test and the ``(set, node)`` dedup.  ``in_probs`` is the
    per-in-slot probability array (canonical edge probabilities gathered
    through ``graph.in_edge_ids``) and ``bounds`` its :func:`node_bounds`
    (computed here when the caller did not keep them).  ``roots`` fixes
    the roots (tests); by default they are drawn from ``rng``.

    ``batch_size`` is part of the RNG call sequence — a level's coin
    block interleaves every set of the batch — so two batch sizes give
    different (equally valid) samples from one generator.

        >>> from repro.graph.digraph import DirectedGraph
        >>> graph = DirectedGraph.from_edges([(0, 1), (1, 2)], num_nodes=3)
        >>> members, lengths = drive_blocked(
        ...     graph, np.ones(2), np.random.default_rng(0), 1, roots=[2]
        ... )
        >>> members.tolist(), lengths.tolist()
        ([2, 1, 0], [3])
    """
    n = graph.num_nodes
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    if batch_size is None:
        batch_size = BLOCK_BATCH
    elif batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    if roots is not None:
        roots = np.asarray(roots, dtype=np.int64)
        if roots.shape != (count,):
            raise ValueError(
                f"roots must hold one root per set, shape ({count},), "
                f"got {roots.shape}"
            )
        bad = roots[(roots < 0) | (roots >= n)]
        if bad.size:
            raise ValueError(f"roots must lie in [0, {n}), got {int(bad[0])}")
    if count == 0:
        return np.empty(0, dtype=MEMBER_DTYPE), np.empty(0, dtype=np.int64)
    if n == 0:
        raise ValueError("cannot sample RR-sets from an empty graph")
    in_indptr = graph.in_indptr
    in_sources = graph.in_sources
    in_degree, node_bound = node_bounds(graph, in_probs) if bounds is None else bounds
    member_chunks: list[np.ndarray] = []
    length_chunks: list[np.ndarray] = []
    for done in range(0, count, batch_size):
        batch = min(batch_size, count - done)
        if roots is None:
            frontier = rng.integers(0, n, size=batch)
        else:
            frontier = roots[done : done + batch]
        owners = np.arange(batch, dtype=np.int64)
        # Visited (set, node) pairs as a sorted key array: memory and
        # work scale with the members actually discovered, never with
        # batch × num_nodes.  Owners are distinct here, so the root
        # keys are already unique and sorted.
        visited_keys = owners * n + frontier
        level_owner = [owners]
        level_node = [frontier]
        while True:
            degrees = in_degree[frontier]
            total = int(degrees.sum())
            if total == 0:
                break
            coins = rng.random(total)
            owners, frontier, visited_keys = NumpyBackend.level_op(
                owners, in_indptr[frontier], degrees, node_bound[frontier],
                in_sources, in_probs, coins, visited_keys, n,
            )
            if frontier.size == 0:
                break
            level_owner.append(owners)
            level_node.append(frontier)
        # Regroup by set, levels in order within a set.  Owners are
        # below the batch size, so they fit the narrowest unsigned type
        # — uint16 at BLOCK_BATCH, where numpy's stable sort is a radix
        # sort, O(members) instead of an int64 merge sort.
        all_owner = np.concatenate(level_owner)
        order = np.argsort(
            all_owner.astype(np.min_scalar_type(batch - 1)), kind="stable"
        )
        member_chunks.append(np.concatenate(level_node).astype(MEMBER_DTYPE)[order])
        length_chunks.append(np.bincount(all_owner, minlength=batch))
    return np.concatenate(member_chunks), np.concatenate(length_chunks)
