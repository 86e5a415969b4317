"""Random reverse-reachable (RR) set sampling (§5.1).

A random RR-set is generated by picking a root ``w`` uniformly at random
and collecting every node that reaches ``w`` in a random possible world.
The implementation below is the standard lazy-coin equivalent: a reverse
BFS from ``w`` over the in-CSR where each incoming edge is declared live
with its influence probability at the moment it is first examined.

Intuition (§5.1): a node appearing in many RR-sets reaches many random
targets in random worlds — i.e. it has high influence spread.

Randomness architecture
-----------------------

The engine stack samples through one stream regime (see
``docs/rrset_engine.md``): every RR set is addressed by
``(global_seed, ad, set_index)`` (:class:`StreamPlan`).  Set indices are
grouped into fixed-size *chunks*; chunk ``c`` of ad ``i`` owns its
private generator ``Philox(SeedSequence(entropy, spawn_key=(i, c)))``,
so any chunk is independently computable by any worker, in any order,
with no stream state to round-trip.
:meth:`RRSetSampler.sample_chunk_block` is the entry point for one chunk;
it runs the *blocked* BFS of :mod:`repro.rrset.backends` — a driver that
draws each batch's roots over one compiled kernel that runs the batch's
BFS.  :meth:`RRSetSampler.chunk_task` hands a chunk to that driver as a
task, so an engine can run many chunks as one kernel table.

Streams, tails and pools are owned by
:class:`~repro.rrset.sharded.ShardedSamplingEngine`, the only way to
sample: standalone callers that want "θ RR sets" (TIM,
the Theorem-2–4 bounds, the RRC-sets of :mod:`repro.rrset.rrc`) hold a
serial engine and read its shards, so their sets are addressable and
replayable like everyone else's.
"""

from __future__ import annotations

import functools

import numpy as np

from repro.graph.digraph import DirectedGraph
from repro.rrset.backends import drive_blocked
from repro.utils.validation import check_probability_array

#: Default set-index chunk width of the counter-based streams.  Part of
#: the determinism contract: the same ``(seed, chunk_size)`` always
#: yields the same sets, but different chunk sizes are different (equally
#: valid) sample sequences.
DEFAULT_CHUNK_SIZE = 1_024

#: Recorded names of the stream contract — the generator family and the
#: BFS that consumes it.  Checkpoint configs, shard-catalog rows and
#: allocation provenance carry them, and resume matches on them, so an
#: artifact sampled under any other contract is refused instead of
#: silently mixed in.  Names of the contract, not options.
STREAM_RNG = "philox"
STREAM_MODE = "blocked"


class StreamPlan:
    """Counter-based RNG addressing for one advertiser's RR-set stream.

    The plan is a *pure* mapping: set index ``k`` lives in chunk
    ``k // chunk_size``, and chunk ``c`` of ad ``i`` owns the generator
    ``Philox(SeedSequence(entropy, spawn_key=(i, c)))``.  No state is
    carried between chunks, so any ``(ad, chunk)`` is independently
    computable — by any worker, in any order, any number of times — and
    always yields the same sets.  This is what lets the sharded engine
    split a single ad's θ top-up across a worker fleet.

    The chunk width is part of the contract: the same
    ``(entropy, ad, chunk_size)`` always reproduces the same sets, while
    different chunk sizes give different (equally valid) samples.

    Examples
    --------
    A plan is a pure address-to-generator mapping — the same chunk
    always yields the same stream, and ranges decompose into per-chunk
    tasks::

        >>> from repro.rrset import StreamPlan
        >>> plan = StreamPlan(entropy=42, ad=0, chunk_size=8)
        >>> plan.chunk_tasks(6, 19)     # sets [6, 19) -> (chunk, lo, hi)
        [(0, 6, 8), (1, 0, 8), (2, 0, 3)]
        >>> g = plan.generator(2)       # chunk 2's private Philox stream
        >>> bool((g.random(4) == plan.generator(2).random(4)).all())
        True
    """

    __slots__ = ("entropy", "ad", "chunk_size")

    def __init__(self, entropy: int, ad: int, chunk_size: int = DEFAULT_CHUNK_SIZE):
        if ad < 0:
            raise ValueError(f"ad must be >= 0, got {ad}")
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        self.entropy = entropy
        self.ad = int(ad)
        self.chunk_size = int(chunk_size)

    def seed_sequence(self, chunk_index: int) -> np.random.SeedSequence:
        """The chunk's root :class:`~numpy.random.SeedSequence`."""
        if chunk_index < 0:
            raise ValueError(f"chunk_index must be >= 0, got {chunk_index}")
        return np.random.SeedSequence(
            entropy=self.entropy, spawn_key=(self.ad, int(chunk_index))
        )

    def generator(self, chunk_index: int) -> np.random.Generator:
        """The chunk's counter-based generator."""
        return np.random.Generator(np.random.Philox(self.seed_sequence(chunk_index)))

    def chunk_tasks(self, start: int, stop: int) -> list[tuple[int, int, int]]:
        """Decompose set-index range ``[start, stop)`` into per-chunk
        subranges ``(chunk_index, lo, hi)`` (offsets within the chunk)."""
        if start < 0 or stop < start:
            raise ValueError(f"need 0 <= start <= stop, got [{start}, {stop})")
        tasks: list[tuple[int, int, int]] = []
        size = self.chunk_size
        index = start
        while index < stop:
            chunk_index, lo = divmod(index, size)
            hi = min(size, stop - chunk_index * size)
            tasks.append((chunk_index, lo, hi))
            index = chunk_index * size + hi
        return tasks

    def __repr__(self) -> str:
        return (
            f"StreamPlan(ad={self.ad}, chunk_size={self.chunk_size}, "
            f"entropy={self.entropy})"
        )


class RRSetSampler:
    """The chunk kernel of one (graph, per-ad probabilities) pair.

    Immutable after construction: the graph and its probability row,
    checked here (a bad row fails when the engine is built).  The
    in-slot gather of that row is taken at the first chunk, so an
    engine served wholly from its cache never pays it.  Its
    sampling method, :meth:`sample_chunk_block` (or :meth:`chunk_task`
    run by the driver), is a pure function of
    the stream address ``(StreamPlan, chunk_index)``, so any worker can
    compute any chunk and a sampler is safely shared.  TIRM's engine
    keeps one per advertiser; stream positions, partial tails and pools
    live in the engine, never here.

    Examples
    --------
    Draw one chunk of RR-sets as a packed block — ``lengths[i]`` members
    per set, concatenated in ``members``; recomputing an address
    reproduces its bytes::

        >>> from repro.graph.generators import erdos_renyi
        >>> from repro.graph.probabilities import constant_probabilities
        >>> from repro.rrset import RRSetSampler, StreamPlan
        >>> graph = erdos_renyi(50, 0.08, seed=3)
        >>> sampler = RRSetSampler(graph, constant_probabilities(graph, 0.1))
        >>> plan = StreamPlan(entropy=7, ad=0, chunk_size=10)
        >>> members, lengths = sampler.sample_chunk_block(plan, 0)
        >>> lengths.size, int(lengths.sum()) == members.size
        (10, True)
        >>> again, _ = sampler.sample_chunk_block(plan, 0)
        >>> members.tobytes() == again.tobytes()
        True
    """

    def __init__(
        self,
        graph: DirectedGraph,
        edge_probabilities,
    ) -> None:
        self.graph = graph
        self.edge_probabilities = check_probability_array(
            "edge_probabilities", edge_probabilities
        )
        if self.edge_probabilities.shape != (graph.num_edges,):
            raise ValueError(
                f"edge_probabilities must have shape ({graph.num_edges},), "
                f"got {self.edge_probabilities.shape}"
            )

    @functools.cached_property
    def _in_probs_array(self) -> np.ndarray:
        """The row gathered into in-CSR slot order, at the first chunk."""
        return self.edge_probabilities[self.graph.in_edge_ids]

    def sample_chunk_block(
        self, plan: StreamPlan, chunk_index: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """One *entire* chunk as a packed ``(members, lengths)`` block
        — the engines' transport format.

        The result is a pure function of
        ``(plan.entropy, plan.ad, plan.chunk_size, chunk_index)`` — no
        sampler state is read or written.  Any worker can therefore
        compute any chunk, and recomputing a chunk always reproduces the
        same sets, which is what makes sharded sampling invariant to
        worker count and request splitting.

        Always drawing the full chunk is what keeps partial-chunk
        requests pure: the blocked BFS interleaves the coin draws of all
        sets in a batch, so a partial batch would consume the stream
        differently, and a full block is cacheable — the sharded engine
        splices every chunk whole and keeps its unread tail hidden in
        the shard, so a continuation request never recomputes it.
        """
        rng, in_probs, count = self.chunk_task(plan, chunk_index)
        return drive_blocked(self.graph, in_probs, rng, count)

    def chunk_task(self, plan: StreamPlan, chunk_index: int) -> tuple:
        """The chunk as a blocked-driver task ``(generator, in-slot
        probabilities, count)``: its private generator, drawn from by
        whichever thread runs it (:func:`repro.rrset.backends.run_blocked`)."""
        return plan.generator(chunk_index), self._in_probs_array, plan.chunk_size
