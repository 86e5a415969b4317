"""The blocked BFS of the RR-set sampler: one driver, one compiled kernel.

The level-synchronous blocked BFS (``docs/rrset_engine.md``) has two
halves:

* the **driver** (:func:`run_blocked`) — batching, and one
  ``Generator.integers`` root draw per batch, for any number of
  ``(generator, probabilities, count)`` tasks at once;
  :func:`drive_blocked` is its checked one-task form;
* the **kernel** (:class:`repro.graph._traversal.BfsTable`: the
  package's one BFS, one root per set, over the in-CSR) — one table
  entry runs a whole batch's BFS, drawing one coin per examined slot
  in the order ``_bfs.c`` states, and every thread that joins the
  table pulls whole entries from it with the GIL released.

A coin comes from one of two arms.  A chunk's Philox, on a CPU with
AVX-512F/DQ, takes the vector arm: the kernel computes the Philox words
itself, 16 blocks per step, from the state the table read from the
generator, and the state it leaves is written back.  Any other bit
generator, or any CPU without those instructions, takes the per-slot
arm: a call of the bit generator's own ``next_double``.  Either way the
coins are the words ``Generator.random(total)`` would return for each
level's block, so the blocks and the final generator state equal those
of the numpy driver kept as the test oracle in
``tests/rrset/_reference_driver.py`` — for any bit generator, on any
CPU.

The kernel is part of the package's one compiled library
(:mod:`repro._native`), built on the first call that needs it — never
at import.
"""

from __future__ import annotations

import contextlib

import numpy as np

from repro.errors import ConfigurationError
from repro.graph._traversal import BfsTable
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
    ``__dict__``.  The driver runs its batches as table entries, so the
    wrapper sees none of them."""

    #: The recorded ``backend`` provenance value (stats, checkpoint
    #: configs, catalog rows).
    name = "numpy"

    @staticmethod
    def level_op(roots, in_indptr, in_sources, in_probs, bit_generator, n):
        """One batch's whole BFS as ``(members, lengths)``: the sets
        rooted at ``roots``, one each (the array contract of
        :class:`~repro.graph._traversal.BfsTable`)."""
        table, lengths = BfsTable(1), np.empty(roots.size, dtype=np.int64)
        table.set(0, n, roots, in_indptr, in_sources, in_probs, None, lengths)
        with bit_generator.lock:
            table.bind(0, bit_generator)
            table.run()
            return table.take(0)[0], lengths


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
    drawing from ``rng`` — :func:`run_blocked`'s one-task case, with
    every argument checked.

    Runs a reverse BFS over a whole batch of roots at once, one kernel
    call per batch: each level examines the in-edge slots of *every*
    frontier node across the batch, one coin each.  ``in_probs`` is the
    per-in-slot probability array (canonical edge probabilities gathered
    through ``graph.in_edge_ids``), a float64 array of shape
    ``(num_edges,)``.  ``roots`` fixes the roots (tests); by default
    they are drawn from ``rng``.

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
    task = (rng, np.ascontiguousarray(in_probs), count)
    with contextlib.closing(
        run_blocked(graph, [task], batch_size=batch_size, roots=roots)
    ) as blocks:
        return next(blocks)


def run_blocked(
    graph, tasks, *, helpers=None, head=None, batch_size=BLOCK_BATCH, roots=None
):
    """Each ``(rng, in_probs, count)`` task's ``count`` RR-sets as a
    packed ``(members, lengths)`` block, yielded in task order; close
    the generator if you stop early.

    The batches of all tasks go into one :class:`BfsTable`, one round
    of batches at a time: round ``r`` holds batch ``r`` of every task
    with more than ``r * batch_size`` sets, its roots drawn from the
    task's ``rng`` with ``Generator.integers`` once round ``r − 1``'s
    kernel left that generator's state.  So a task of at most
    ``batch_size`` sets (the default chunk) is one round; a task's
    block is yielded as soon as its last batch is done and every
    earlier task's block was.  ``helpers`` — an executor and how many
    threads it has — runs one :meth:`BfsTable.run` call per thread
    beside the caller, which takes entries itself while the next one in
    order is not done; the task generators must then be private to the
    tasks.  Without helpers, the caller runs each entry holding its
    generator's lock.  ``head``, a callable returning a block, is run by
    the caller once the first round's helper calls are queued, and its
    block yielded before the tasks'.  ``roots`` fixes a one-task
    request's roots.  The arguments are trusted: :func:`drive_blocked`
    checks them, the engines' samplers already did.
    """
    n = graph.num_nodes
    counts = [count for _, _, count in tasks]
    widest = max(counts, default=0)
    if widest and n == 0:
        raise ValueError("cannot sample RR-sets from an empty graph")
    if min(batch_size, widest) * n > _MAX_KEY:
        raise ValueError(
            f"batch_size * num_nodes must fit int64, got "
            f"{min(batch_size, widest)} * {n}"
        )
    in_indptr = np.ascontiguousarray(graph.in_indptr, dtype=np.int64)
    in_sources = np.ascontiguousarray(graph.in_sources, dtype=np.int64)
    parts: list = [[] for _ in tasks]
    yielded = 0  # tasks whose block went out
    for lo in range(0, widest, batch_size):
        entries = [j for j, count in enumerate(counts) if count > lo]
        table, lengths = BfsTable(len(entries)), []
        for e, j in enumerate(entries):
            rng, in_probs, count = tasks[j]
            batch = min(batch_size, count - lo)
            batch_roots = (
                rng.integers(0, n, size=batch) if roots is None
                else np.ascontiguousarray(roots[lo : lo + batch], dtype=np.int64)
            )
            lengths.append(np.empty(batch, dtype=np.int64))
            table.set(
                e, n, batch_roots, in_indptr, in_sources, in_probs, None, lengths[e],
            )
        generators = [tasks[j][0].bit_generator for j in entries]
        with _joined(table, helpers, generators) as run:
            if head is not None:
                yield head()
                head = None
            for e, j in enumerate(entries):
                parts[j].append((run(e), lengths[e]))
                # Tasks up to j are complete once their last batch is at
                # most this round; later ones once it was an earlier round.
                while yielded < len(tasks) and counts[yielded] <= lo + (
                    batch_size if yielded <= j else 0
                ):
                    yield _packed(parts[yielded])
                    parts[yielded] = None
                    yielded += 1
    if head is not None:
        yield head()
    for part in parts[yielded:]:  # tasks of no sets
        yield _packed(part)


def _packed(part: list) -> tuple[np.ndarray, np.ndarray]:
    """One task's ``(members, lengths)`` from its batches' blocks."""
    if len(part) == 1:
        return part[0]
    if not part:
        return np.empty(0, dtype=MEMBER_DTYPE), np.empty(0, dtype=np.int64)
    members, lengths = zip(*part)
    return np.concatenate(members), np.concatenate(lengths)


@contextlib.contextmanager
def _joined(table: BfsTable, helpers, generators):
    """``run(entry)`` for the caller, returning the entry's members once
    it is done, with one :meth:`BfsTable.run` call per helper thread
    queued beside it when there are ``(executor, threads)`` helpers and
    more than one entry.  Entry ``e`` draws from ``generators[e]``: bound
    up front when helpers run, else bound, run and taken under the
    generator's lock.  Settling the helpers moves the cursor to the end,
    cancels the calls that never started and waits for the started ones
    (never a cancelled one: ``wait`` would block on it until a thread
    dequeued it); a started call returns once it finishes the entry it
    holds.  The caller settles them when it finds nothing left to pull
    and its entry still running, and on the way out — done or failed —
    where the outputs nobody took are freed too; only then may the table
    go."""
    futures = []
    if helpers is not None and table.count > 1:
        for entry, bit_generator in enumerate(generators):
            table.bind(entry, bit_generator)
        executor, threads = helpers
        futures = [
            executor.submit(table.run) for _ in range(min(threads, table.count - 1))
        ]
    started = []

    def settle():
        table.stop()
        started.extend(future for future in futures if not future.cancel())
        futures.clear()
        for future in started:
            future.exception()

    def run(entry):
        if futures or started:
            table.run(entry)
            if not table.done(entry):
                settle()
            return table.take(entry)[0]
        bit_generator = generators[entry]
        with bit_generator.lock:
            table.bind(entry, bit_generator)
            table.run(entry)
            return table.take(entry)[0]

    try:
        yield run
    finally:
        settle()
        table.free()
        for future in started:
            future.result()
