"""The sampling-backend seam of the blocked RR-set sampler.

The level-synchronous blocked BFS has two separable halves:

* the **driver** (:func:`drive_blocked`) — batching, root draws, the
  per-level coin draws, and the final pack into a ``(members, lengths)``
  block.  The driver owns *every* RNG call, in a fixed order: one
  ``Generator.integers`` per batch for the roots, then exactly one
  ``Generator.random(total)`` per BFS level.  It is shared by all
  backends;
* the **level op** — given one level's frontier and its pre-drawn coin
  block, decide which edges are live, dedup the newly reached
  ``(set, node)`` pairs, and merge them into the sorted visited-key
  array.  This is the hot loop, and the only part a backend implements.

Because the driver is shared and draws all randomness itself, two
backends given the same generator state consume the identical coin
sequence and therefore produce **byte-identical** output — the
determinism contract (``docs/rrset_engine.md``) is backend-invariant by
construction, not by careful reimplementation.  A backend's level op
must be a pure function of its inputs (no RNG, no state) that preserves
the reference semantics pinned by ``tests/rrset/test_backends.py``.

The level-op contract
---------------------

``level_op(owners, starts, degrees, bounds, in_sources, in_probs, coins,
visited_keys, n) -> (new_owners, new_sources, new_visited_keys)``

* ``owners[i]``/``starts[i]``/``degrees[i]`` — set id owning frontier
  entry ``i`` and its in-CSR slot range ``[starts[i], starts[i] +
  degrees[i])``;
* ``bounds[i]`` — the largest ``in_probs`` value in that slot range
  (:func:`node_bounds`).  A coin ``>= bounds[i]`` cannot be live, so a
  backend may discard it before reading its slot: the *candidates*
  ``coins < repeat(bounds, degrees)`` are a superset of the live edges.
  Purely an optimization input — a backend that reads every slot anyway
  ignores it;
* ``coins`` — one uniform draw per examined in-edge, in frontier order
  then CSR slot order (``coins.size == degrees.sum()``);
* ``visited_keys`` — sorted, unique ``owner * n + node`` keys of every
  pair already reached in this batch;
* returns the *fresh* pairs in ascending key order plus the merged
  (still sorted, unique) visited keys.  An edge is live iff
  ``coins[k] < in_probs[slot]``; a pair is fresh iff its key is not in
  ``visited_keys``.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.rrset.pool import MEMBER_DTYPE

#: RNG-block width of the level-synchronous batched BFS: one batch of
#: roots is BFS-ed together and each level draws one coin block for all
#: of them, so the width sets the coin interleaving — another value
#: draws different (equally valid) sets from the same rng.  Part of the
#: stream contract for chunks wider than it; not of the backend one.
BLOCK_BATCH = 4_096


class SamplingBackend(ABC):
    """One implementation of the blocked-BFS level op.

    Backends are interchangeable plug-ins behind
    :class:`~repro.rrset.sampler.RRSetSampler`,
    :class:`~repro.rrset.sharded.ShardedSamplingEngine` and
    ``TIRMAllocator(backend=...)``: all of them produce byte-identical
    samples for the same generator state (see the module docstring), so
    switching backend never changes results — only throughput.
    """

    #: Stable identifier recorded in stats, provenance, and checkpoint
    #: configs.  Because output is backend-invariant, the name is *not*
    #: part of the determinism contract — a checkpoint written under one
    #: backend resumes byte-identically under another.
    name: str = "abstract"

    @abstractmethod
    def level_op(self, owners, starts, degrees, bounds, in_sources, in_probs,
                 coins, visited_keys, n):
        """Advance one BFS level (see the module docstring contract)."""

    def warmup(self, graph) -> None:
        """Pay any one-time setup cost (e.g. JIT compilation) up front.

        Called with the target graph so compiled backends can specialize
        on the real array dtypes.  The base implementation is a no-op.
        """

    def sample_flat(
        self,
        graph,
        in_probs: np.ndarray,
        rng: np.random.Generator,
        count: int,
        batch_size: int | None = None,
        roots: np.ndarray | None = None,
        bounds: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """``count`` RR-sets as a packed ``(members, lengths)`` block,
        drawing from ``rng`` — the backend-facing entry point the
        sampler calls (arguments as :func:`drive_blocked`)."""
        return drive_blocked(
            graph, in_probs, rng, count, self.level_op, batch_size, roots, bounds
        )

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


def _empty_flat() -> tuple[np.ndarray, np.ndarray]:
    return np.empty(0, dtype=MEMBER_DTYPE), np.empty(0, dtype=np.int64)


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
    level_op,
    batch_size: int | None = None,
    roots: np.ndarray | None = None,
    bounds: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Shared blocked-BFS driver: ``count`` RR-sets as a packed
    ``(members, lengths)`` block, drawing from ``rng``.

    Runs a reverse BFS over a whole batch of roots at once: each level
    gathers the in-edge slot ranges of *every* frontier node across the
    batch, draws all their coins in one ``Generator.random`` block, and
    hands frontier + coins to ``level_op`` for the live-edge test and
    the ``(set, node)`` dedup.  ``in_probs`` is the per-in-slot
    probability array (canonical edge probabilities gathered through
    ``graph.in_edge_ids``) and ``bounds`` its :func:`node_bounds`
    (computed here when the caller did not keep them).  ``roots`` fixes
    the roots (tests and the single-set helper); by default they are
    drawn from ``rng``.

    The RNG call sequence is fixed here, independent of ``level_op``:
    that is what makes every backend byte-identical for the same
    generator state.  ``batch_size`` is part of that sequence — a level's
    coin block interleaves every set of the batch — so two batch sizes
    give different (equally valid) samples from one generator.
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
        return _empty_flat()
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
            owners, frontier, visited_keys = level_op(
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
