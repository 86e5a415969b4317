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
:meth:`RRSetSampler.sample_chunk_block` is the entry point; it runs the
*blocked* BFS, whose level-op implementation is pluggable: the
``backend=`` knob (see :mod:`repro.rrset.backends`) selects ``"numpy"``
(reference), ``"numba"`` (JIT kernel), or ``"auto"``.  All backends are
byte-identical for the same generator state, so the backend is **not**
part of the determinism contract.

Standalone callers that want "``count`` more sets" rather than an index
range (TIM, KPT estimation, the Theorem-2–4 bounds) use the sampler's
own sequential stream instead: :meth:`RRSetSampler.sample` /
:meth:`RRSetSampler.sample_into`, a per-set scalar BFS seeded off the
constructor's ``seed``.
"""

from __future__ import annotations

import random

import numpy as np

from repro.graph.digraph import DirectedGraph
from repro.rrset.backends import node_bounds, resolve_backend
from repro.rrset.pool import MEMBER_DTYPE, RRSetPool
from repro.utils.rng import as_generator
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


def _empty_flat() -> tuple[np.ndarray, np.ndarray]:
    return np.empty(0, dtype=MEMBER_DTYPE), np.empty(0, dtype=np.int64)


def _slice_flat(
    members: np.ndarray, lengths: np.ndarray, lo: int, hi: int
) -> tuple[np.ndarray, np.ndarray]:
    """Sets ``[lo, hi)`` of a packed ``(members, lengths)`` block."""
    if lo == 0 and hi == lengths.size:
        return members, np.asarray(lengths, dtype=np.int64)
    bounds = np.zeros(lengths.size + 1, dtype=np.int64)
    np.cumsum(lengths, out=bounds[1:])
    return (
        members[bounds[lo] : bounds[hi]],
        np.asarray(lengths[lo:hi], dtype=np.int64),
    )


def sample_rr_set(
    graph: DirectedGraph,
    edge_probabilities,
    *,
    rng=None,
    root: int | None = None,
    backend="numpy",
) -> np.ndarray:
    """One random RR-set, as an int64 array of node ids (root included).

    Parameters
    ----------
    graph:
        The social graph.
    edge_probabilities:
        Per-canonical-edge probabilities for the ad under consideration.
    rng:
        Seed or generator.
    root:
        Fix the root (tests); default draws uniformly from ``V``.
    backend:
        Blocked-BFS backend (:mod:`repro.rrset.backends`); backends are
        byte-identical for the same ``rng``.
    """
    probs = np.asarray(edge_probabilities, dtype=np.float64)
    rng = as_generator(rng)
    roots = None if root is None else np.asarray([root], dtype=np.int64)
    members, _ = resolve_backend(backend).sample_flat(
        graph, probs[graph.in_edge_ids], rng, 1, roots=roots
    )
    return members.astype(np.int64)


def sample_rr_sets(
    graph: DirectedGraph,
    edge_probabilities,
    count: int,
    *,
    rng=None,
    backend="numpy",
) -> list[np.ndarray]:
    """``count`` independent random RR-sets."""
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    probs = check_probability_array("edge_probabilities", edge_probabilities)
    if probs.shape != (graph.num_edges,):
        raise ValueError(f"edge_probabilities must have shape ({graph.num_edges},)")
    rng = as_generator(rng)
    members, lengths = resolve_backend(backend).sample_flat(
        graph, probs[graph.in_edge_ids], rng, count
    )
    bounds = np.zeros(count + 1, dtype=np.int64)
    np.cumsum(lengths, out=bounds[1:])
    flat = members.astype(np.int64)
    return [flat[bounds[i] : bounds[i + 1]] for i in range(count)]


class StreamPlan:
    """Counter-based RNG addressing for one advertiser's RR-set stream.

    The plan is a *pure* mapping: set index ``k`` lives in chunk
    ``k // chunk_size``, and chunk ``c`` of ad ``i`` owns the generator
    ``Philox(SeedSequence(entropy, spawn_key=(i, c)))``.  No state is
    carried between chunks, so any ``(ad, chunk)`` is independently
    computable — by any worker, in any order, any number of times — and
    always yields the same sets.  This is what lets the sharded engine
    split a single ad's θ top-up across a process pool.

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
    """A reusable sampler bound to one (graph, per-ad probabilities) pair.

    TIRM keeps one sampler per advertiser.  The sampler exposes:

    * the **counter-based** path (:meth:`sample_chunk_block`): stateless —
      the caller addresses sets by ``(StreamPlan, chunk_index)`` and any
      chunk is independently computable.  This is what the sharded
      engine (and every worker substrate under it) samples through;
    * a **sequential** stream (:meth:`sample`, :meth:`sample_into`) for
      standalone "``count`` more sets" callers (TIM, KPT, the bounds
      module): a Mersenne stream seeded off ``seed``, consumed by a
      per-set BFS over a pre-flattened adjacency — realistic influence
      probabilities give *tiny* RR-sets (a handful of nodes), where the
      per-level numpy dispatch overhead dwarfs the actual work.

    ``backend`` selects the blocked-BFS implementation
    (:mod:`repro.rrset.backends`): ``"numpy"`` (reference, default),
    ``"numba"`` (JIT kernel, optional extra), ``"auto"``, or a ready
    :class:`~repro.rrset.backends.SamplingBackend` instance.  Backends
    are byte-identical for the same stream, so the choice affects
    throughput only.

    Examples
    --------
    Draw one chunk of RR-sets as a packed block — ``lengths[i]`` members
    per set, concatenated in ``members``; the block is a pure function
    of its stream address, so no sampler state moves::

        >>> from repro.graph.generators import erdos_renyi
        >>> from repro.graph.probabilities import constant_probabilities
        >>> from repro.rrset import RRSetSampler, StreamPlan
        >>> graph = erdos_renyi(50, 0.08, seed=3)
        >>> sampler = RRSetSampler(
        ...     graph, constant_probabilities(graph, 0.1), seed=7
        ... )
        >>> plan = StreamPlan(entropy=7, ad=0, chunk_size=10)
        >>> members, lengths = sampler.sample_chunk_block(plan, 0)
        >>> lengths.size, int(lengths.sum()) == members.size
        (10, True)
        >>> sampler.num_sampled
        0
    """

    def __init__(
        self,
        graph: DirectedGraph,
        edge_probabilities,
        *,
        seed=None,
        backend="numpy",
    ) -> None:
        self.graph = graph
        #: Resolved backend *instance*; ``backend_name`` is its name.
        self.backend = resolve_backend(backend)
        self.edge_probabilities = check_probability_array(
            "edge_probabilities", edge_probabilities
        )
        if self.edge_probabilities.shape != (graph.num_edges,):
            raise ValueError(
                f"edge_probabilities must have shape ({graph.num_edges},), "
                f"got {self.edge_probabilities.shape}"
            )
        rng = as_generator(seed)
        self._random = random.Random(int(rng.integers(0, 2**63 - 1)))
        self.num_sampled = 0
        self._in_probs_array = self.edge_probabilities[graph.in_edge_ids]
        self._node_bounds = node_bounds(graph, self._in_probs_array)
        # Scalar-path adjacency (the in-CSR flattened into Python lists:
        # scalar indexing into lists is several times faster than into
        # numpy arrays).  Built lazily on first use — a chunk-only
        # sampler never pays the O(m) list materialisation.
        self._scalar_adjacency: tuple[list, list, list] | None = None
        self._visit_stamp = np.zeros(graph.num_nodes, dtype=np.int64)
        self._stamp = 0

    @property
    def backend_name(self) -> str:
        """The resolved backend's name (stats/provenance string; the
        backend *instance* is ``self.backend``)."""
        return self.backend.name

    def _scalar_adj(self) -> tuple[list, list, list]:
        if self._scalar_adjacency is None:
            self._scalar_adjacency = (
                self.graph.in_indptr.tolist(),
                self.graph.in_sources.tolist(),
                self._in_probs_array.tolist(),
            )
        return self._scalar_adjacency

    def _scalar_flat(
        self, count: int, rnd: random.Random
    ) -> tuple[list[int], list[int]]:
        """Scalar BFS core: ``count`` sets as one flat member list plus
        per-set lengths, drawing from ``rnd``.

        RNG consumption is *bit-identical* to the original per-set loop
        (one ``randrange`` per root, one ``random()`` per examined
        in-edge, in the same order), so both callers — list-returning
        and pool-writing — draw the same sets for the same generator
        state.
        """
        n = self.graph.num_nodes
        indptr, sources, probs = self._scalar_adj()
        stamp_array = self._visit_stamp
        rand = rnd.random
        randrange = rnd.randrange
        flat: list[int] = []
        lengths: list[int] = []
        for _ in range(count):
            self._stamp += 1
            stamp = self._stamp
            root = randrange(n)
            stamp_array[root] = stamp
            start = len(flat)
            flat.append(root)
            head = start
            # ``flat[start:]`` doubles as the BFS queue: members are
            # discovered exactly once, in visit order.
            while head < len(flat):
                node = flat[head]
                head += 1
                for slot in range(indptr[node], indptr[node + 1]):
                    if rand() < probs[slot]:
                        source = sources[slot]
                        if stamp_array[source] != stamp:
                            stamp_array[source] = stamp
                            flat.append(source)
            lengths.append(len(flat) - start)
        return flat, lengths

    def _sample_flat(self, count: int) -> tuple[list[int], list[int]]:
        """The scalar core on the sampler's own Mersenne stream;
        advances ``num_sampled``."""
        flat, lengths = self._scalar_flat(count, self._random)
        self.num_sampled += count
        return flat, lengths

    def sample(self, count: int) -> list[np.ndarray]:
        """Sample ``count`` RR-sets, advancing the sampler's sequential stream."""
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        flat, lengths = self._sample_flat(count)
        members = np.asarray(flat, dtype=np.int64)
        bounds = np.cumsum([0] + lengths)
        return [members[bounds[i] : bounds[i + 1]] for i in range(count)]

    def sample_into(self, pool: RRSetPool, count: int) -> None:
        """Sample ``count`` RR-sets straight into ``pool``.

        Same stream and same sets as :meth:`sample` (bit-exact), but the
        members go from the BFS directly into the pool's flat buffers —
        no per-set ``np.asarray`` allocations or list-of-arrays.
        """
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        flat, lengths = self._sample_flat(count)
        pool.add_flat(
            np.asarray(flat, dtype=MEMBER_DTYPE), np.asarray(lengths, dtype=np.int64)
        )

    # ------------------------------------------------------------------
    # Packed-block API (the engines' transport format)
    # ------------------------------------------------------------------
    def sample_chunk_block(
        self, plan: StreamPlan, chunk_index: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Counter-based path: one *entire* chunk as a packed
        ``(members, lengths)`` block.

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
        holds each ad's partial tail block so a continuation request
        never recomputes it.
        """
        return self.backend.sample_flat(
            self.graph, self._in_probs_array, plan.generator(chunk_index),
            plan.chunk_size, bounds=self._node_bounds,
        )

    def sample_chunk_flat(
        self,
        plan: StreamPlan,
        chunk_index: int,
        lo: int = 0,
        hi: int | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Sets ``[lo, hi)`` of one chunk (see :meth:`sample_chunk_block`
        for the purity contract); advances ``num_sampled`` by the slice
        width."""
        size = plan.chunk_size
        hi = size if hi is None else hi
        if not 0 <= lo <= hi <= size:
            raise ValueError(
                f"need 0 <= lo <= hi <= chunk_size, got [{lo}, {hi}) of {size}"
            )
        if lo == hi:
            return _empty_flat()
        members, lengths = self.sample_chunk_block(plan, chunk_index)
        members, lengths = _slice_flat(members, lengths, lo, hi)
        self.num_sampled += hi - lo
        return members, lengths
