"""The blocked BFS of the RR-set sampler: one driver, one compiled kernel.

The level-synchronous blocked BFS (``docs/rrset_engine.md``) has two
halves:

* the **driver** (:func:`drive_blocked`) — argument checks, batching,
  and one ``Generator.integers`` root draw per batch;
* the **kernel** (:meth:`NumpyBackend.level_op`: the package's one BFS,
  :func:`repro.graph._traversal.bfs_batch`, one root per set, over the
  in-CSR) — one call runs a whole batch's BFS, drawing one coin per
  examined slot through the bit generator's own ``next_double`` in the
  order ``_bfs.c`` states.

The coins are the words ``Generator.random(total)`` would return for
each level's block, so the blocks and the final generator state equal
those of the numpy driver kept as the test oracle in
``tests/rrset/_reference_driver.py`` — for any bit generator.

The kernel is part of the package's one compiled library
(:mod:`repro._native`), built on the first call that needs it — never
at import.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.graph._traversal import bfs_batch
from repro.rrset.pool import MEMBER_DTYPE

#: RNG-block width of the level-synchronous batched BFS: one batch of
#: roots is BFS-ed together and each level draws one coin block for all
#: of them, so the width sets the coin interleaving — another value
#: draws different (equally valid) sets from the same rng.  Part of the
#: stream contract for chunks wider than it.
BLOCK_BATCH = 4_096

#: Largest ``(set, node)`` key the kernel's int64 keys can hold.
_MAX_KEY = 2**63 - 1


class NumpyBackend:
    """The compiled batch BFS behind the recorded backend name.

    Kept as a class for ``bench/`` until the ROADMAP's "Parked: re-cut
    the ruler" lands: its traced pass wraps ``level_op`` in this class's
    ``__dict__``, and the driver calls it through the class attribute so
    the wrapper sees every batch."""

    #: The recorded ``backend`` provenance value (stats, checkpoint
    #: configs, catalog rows).
    name = "numpy"

    @staticmethod
    def level_op(roots, in_indptr, in_sources, in_probs, bit_generator, n):
        """One batch's whole BFS as ``(members, lengths)``: the sets
        rooted at ``roots``, one each, through :func:`bfs_batch` (whose
        array contract :func:`drive_blocked` checks)."""
        members, lengths, _ = bfs_batch(
            np.arange(roots.size + 1, dtype=np.int64), roots, in_indptr,
            in_sources, in_probs, bit_generator, n,
        )
        return members, lengths


def resolve_backend(backend="numpy") -> NumpyBackend:
    """Kept for ``bench/`` until the ROADMAP's "Parked: re-cut the
    ruler" lands: ``"numpy"``, the recorded name of the one BFS, gives a
    :class:`NumpyBackend`;
    anything else raises :class:`~repro.errors.ConfigurationError`."""
    if backend != NumpyBackend.name:
        raise ConfigurationError(
            f"backend must be {NumpyBackend.name!r} (the only level op), "
            f"got {backend!r}"
        )
    return NumpyBackend()


def drive_blocked(
    graph,
    in_probs: np.ndarray,
    rng: np.random.Generator,
    count: int,
    batch_size: int | None = None,
    roots: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """``count`` RR-sets as a packed ``(members, lengths)`` block,
    drawing from ``rng``.

    Runs a reverse BFS over a whole batch of roots at once, one
    :meth:`NumpyBackend.level_op` call per batch: each level examines
    the in-edge slots of *every* frontier node across the batch, one
    coin each.  ``in_probs`` is the per-in-slot probability array
    (canonical edge probabilities gathered through
    ``graph.in_edge_ids``), a float64 array of shape ``(num_edges,)``.
    ``roots`` fixes the roots (tests); by default they are drawn from
    ``rng``.

    ``batch_size`` is part of the RNG call sequence — a level's coins
    interleave every set of the batch — so two batch sizes give
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
    if not (
        isinstance(in_probs, np.ndarray)
        and in_probs.dtype == np.float64
        and in_probs.shape == (graph.num_edges,)
    ):
        raise ValueError(
            f"in_probs must be a float64 array of shape ({graph.num_edges},), "
            f"got {getattr(in_probs, 'dtype', type(in_probs).__name__)} of "
            f"shape {np.shape(in_probs)}"
        )
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
    if min(batch_size, count) * n > _MAX_KEY:
        raise ValueError(
            f"batch_size * num_nodes must fit int64, got "
            f"{min(batch_size, count)} * {n}"
        )
    in_indptr = np.ascontiguousarray(graph.in_indptr, dtype=np.int64)
    in_sources = np.ascontiguousarray(graph.in_sources, dtype=np.int64)
    in_probs = np.ascontiguousarray(in_probs)
    member_chunks: list[np.ndarray] = []
    length_chunks: list[np.ndarray] = []
    for done in range(0, count, batch_size):
        batch = min(batch_size, count - done)
        if roots is None:
            batch_roots = rng.integers(0, n, size=batch)
        else:
            batch_roots = roots[done : done + batch]
        members, lengths = NumpyBackend.level_op(
            np.ascontiguousarray(batch_roots, dtype=np.int64), in_indptr,
            in_sources, in_probs, rng.bit_generator, n,
        )
        member_chunks.append(members)
        length_chunks.append(lengths)
    return np.concatenate(member_chunks), np.concatenate(length_chunks)
