"""Per-advertiser sharded RR-set sampling engine.

TIRM (Algorithms 2–4, §5.2) keeps one independent RR-set collection and
sampler per advertiser and asks its sampler for exactly one thing: the
next RR sets of ad ``i``, in index order.  :class:`ShardedSamplingEngine`
owns one :class:`~repro.rrset.pool.RRSetPool` *shard* per advertiser and
serves that request — the batched pilots for all ``h`` ads and every
Algorithm-4 ``θ_i`` top-up — through one chunk path.

Counter-based streams
---------------------

Every RR set is addressed by ``(global_seed, ad, set_index)``: set
indices are grouped into fixed-size *chunks*, and chunk ``c`` of ad
``i`` owns the private generator
``Philox(SeedSequence(entropy, spawn_key=(i, c)))`` (see
:class:`~repro.rrset.sampler.StreamPlan`).  A request — *including a
single ad's θ top-up* — therefore decomposes into independent
``(ad, chunk)`` tasks.  Because every chunk is a pure function of its
address, *where* it is computed and *how* its block travels home can
never change a byte: shards are **bit-identical on every substrate**,
for any worker count, no matter how requests are split across calls.

One chunk path
--------------

Parent side, :meth:`ShardedSamplingEngine._run_tasks` is the only
dispatch loop.  It *scatters* — every chunk of the request not already
held (in flight from a :meth:`~ShardedSamplingEngine.prefetch`, in the
tail memo, or in the shard cache) is offered to the engine's
:class:`ChunkSubstrate` — and then *gathers* in ascending
``(ad, chunk)`` order, whatever the completion order: each block is
collected from its future, opened from the memo or the cache, or
taken from the request's one table of inline chunks
(:meth:`ChunkSource.blocks`), and handed to
:meth:`ShardedSamplingEngine._splice`,
the single place a block enters a shard (dsan digest of the full block,
cache write-through of a freshly computed one, memo bookkeeping,
exactly one copy into the pool, release of the block).  Sets
a rewound shard still holds (:meth:`ShardedSamplingEngine.reset_for_reuse`)
are never tasks of that path: every request is split at the shard's
resident mark, and the resident part is *revealed* in place — nothing
computed, nothing copied.

Worker side, :class:`ChunkSource` is the only thing that turns an
``(ad, chunk)`` address into a block: the payload (graph in-CSR, per-ad
probability rows, stream entropies) plus lazily built per-ad samplers.
Forked workers inherit the parent's source; workers that dial in
rebuild one from the flat, bounds-checked PAYLOAD frame
(:mod:`repro.dist.worker`).

Substrates
----------

A substrate is ``submit(ad, chunk) → future | None`` (``None``: compute
inline), ``collect(ad, chunk, future) → block`` and ``drain(futures)``.
The base :class:`ChunkSubstrate` takes no work: it is
``engine="serial"``'s: the calling thread computes a request's first
inline chunk, and the rest go into one table of the compiled kernel
that the calling thread and one process-wide pool of ``cpus − 1``
helper threads run together, each thread with one GIL-free call
(inline on one CPU).  The fleet
(:mod:`repro.dist.engine`) hands chunk tasks to a coordinator's
workers — children forked at the first submit, on socketpairs
(``engine="process"``; inline with one warning where ``os.fork`` is
missing), or ``repro worker`` processes over TCP (``engine="dist"``) —
and takes digest-verified RESULT frames back.
Which substrate ran is provenance (``transport``, ``start_method``),
never part of the determinism contract.

Shard cache (``cache=...`` / ``REPRO_CACHE``)
---------------------------------------------

With a cache directory configured the chunk path is *read-through* over
the content-addressed shard store (:mod:`repro.store`): a cached chunk
is never submitted, its verified entry — a
:class:`~repro.rrset.block.Block` of views over the file mapping,
parsed by the same codec as a RESULT frame — takes the same single-copy
splice, and freshly computed blocks are stored for the next run.  Keys
address what determines the bytes and exclude the
substrate — so a warm run performs **zero** sampling-backend
invocations (``backend_invocations`` counts them) yet stays
byte-identical to a cold one.  A poisoned entry is quarantined with a
warning and the block recomputed, never spliced.
"""

from __future__ import annotations

import contextlib
import itertools
import os
import threading
import weakref
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Mapping, Sequence

from repro.errors import ConfigurationError
from repro.graph.digraph import DirectedGraph
from repro.rrset.backends import run_blocked
from repro.rrset.block import Block
from repro.rrset.dsan import DsanRecorder, digest_blocks, dsan_enabled
from repro.rrset.pool import RRSetPool
from repro.rrset.sampler import (
    DEFAULT_CHUNK_SIZE,
    STREAM_MODE,
    STREAM_RNG,
    RRSetSampler,
    StreamPlan,
    _slice_flat,
)
from repro.utils.rng import seed_entropy

ENGINE_MODES = ("serial", "process", "dist")

#: Engine-id allocator: names engines in warnings and dsan labels.
_ENGINE_IDS = itertools.count()


def check_engine(engine: str, coordinator) -> None:
    """Refuse an unknown engine mode, ``"dist"`` without a coordinator,
    and a coordinator on any other mode."""
    if engine not in ENGINE_MODES:
        raise ConfigurationError(
            f"engine must be one of {ENGINE_MODES}, got {engine!r}"
        )
    if engine == "dist" and coordinator is None:
        raise ConfigurationError(
            "engine='dist' needs a coordinator: pass a started "
            "repro.dist.Coordinator"
        )
    if engine != "dist" and coordinator is not None:
        raise ConfigurationError(
            f"coordinator is only meaningful with engine='dist', "
            f"got engine={engine!r}"
        )


# ----------------------------------------------------------------------
# Worker side: the one chunk source
# ----------------------------------------------------------------------
class ChunkSource:
    """Everything needed to re-derive any chunk of any ad — graph,
    per-ad probability rows and stream entropies, chunk size — plus
    lazily built per-ad samplers, so the O(m) in-CSR
    probability gather is paid at most once per (process, ad).  Forked
    workers inherit the parent's; workers that dial in rebuild theirs
    over the flat payload the parent packed.
    """

    def __init__(self, graph, probs_per_ad, entropies, chunk_size) -> None:
        self.graph = graph
        self.probs_per_ad = probs_per_ad
        self.entropies = entropies
        self.chunk_size = chunk_size
        self._samplers: dict[int, RRSetSampler] = {}

    def sampler(self, ad: int) -> RRSetSampler:
        sampler = self._samplers.get(ad)
        if sampler is None:
            sampler = self._samplers[ad] = RRSetSampler(
                self.graph, self.probs_per_ad[ad]
            )
        return sampler

    def plan(self, ad: int) -> StreamPlan:
        return StreamPlan(self.entropies[ad], ad, self.chunk_size)

    def block(self, ad: int, chunk_index: int) -> Block:
        """The chunk's full packed block — always the whole chunk: the
        parent slices out the range it needs and memoizes partial
        tails."""
        sampler = self.sampler(ad)
        return Block(*sampler.sample_chunk_block(self.plan(ad), chunk_index))

    def blocks(self, keys, helpers=None):
        """The full blocks of the ``(ad, chunk)`` addresses ``keys``, yielded
        in order as each is done.  The calling thread computes the first
        as :meth:`block` does, once ``helpers`` (``(executor, threads)``)
        have one call per thread queued on a kernel table
        (:func:`~repro.rrset.backends.run_blocked`) of the rest, then
        joins that table.  So the sampler's one-chunk
        :meth:`~repro.rrset.sampler.RRSetSampler.sample_chunk_block`,
        which ``bench/``'s traced pass counts, runs once per request.
        Close the generator if you stop early: that settles the helpers
        and frees what was not yielded."""
        (ad, chunk_index), rest = keys[0], keys[1:]
        tasks = [self.sampler(a).chunk_task(self.plan(a), c) for a, c in rest]
        with contextlib.closing(run_blocked(
            self.graph, tasks, helpers=helpers,
            head=lambda: self.sampler(ad).sample_chunk_block(
                self.plan(ad), chunk_index
            ),
        )) as blocks:
            for members, lengths in blocks:
                yield Block(members, lengths)


# ----------------------------------------------------------------------
# Parent side: substrates
# ----------------------------------------------------------------------
class ChunkSubstrate:
    """The fan-out seam: where chunks are computed and how their blocks
    travel home.  The dispatch loop knows a substrate only through
    :meth:`submit`, :meth:`collect` and :meth:`drain`.

    The base class is the inline substrate: it takes no work, so every
    chunk is computed by the parent.
    """

    #: Provenance: how blocks travel home, and how workers start
    #: (``None``: no chunk ever leaves the parent process).
    transport = "inline"
    start_method: str | None = None

    def submit(self, ad: int, chunk_index: int) -> Future | None:
        """Start computing one chunk; ``None`` means "not taken" and the
        caller computes it inline."""
        return None

    def collect(self, ad: int, chunk_index: int, future: Future) -> Block:
        """The submitted chunk's block (blocks until it is ready)."""
        return future.result()

    def drain(self, futures) -> None:
        """Cancel futures nobody will collect.  A block that arrives
        anyway holds nothing but memory and is dropped with its future."""
        for future in futures:
            future.cancel()

    def reset(self) -> None:
        """Clear run-scoped state between leases (warm reuse)."""

    def close(self) -> None:
        """Release everything the substrate holds (idempotent)."""


def _cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


#: The process-wide helper threads (``None``: not started, or one CPU),
#: and how many there are.
_pool: ThreadPoolExecutor | None = None
_threads = 0
_pool_lock = threading.Lock()


def _helper_pool() -> ThreadPoolExecutor | None:
    """The ``cpus − 1`` helper threads every in-process engine shares,
    started on first use; ``None`` on one CPU."""
    global _pool, _threads
    if _pool is None:
        with _pool_lock:
            if _pool is None and (helpers := _cpus() - 1) > 0:
                _threads = helpers
                _pool = ThreadPoolExecutor(helpers, thread_name_prefix="repro-chunk")
    return _pool


if hasattr(os, "register_at_fork"):  # a forked child has no helper threads
    os.register_at_fork(after_in_child=lambda: globals().update(
        _pool=None, _threads=0, _pool_lock=threading.Lock()
    ))


def _release_engine_resources(resources: dict) -> None:
    """Teardown shared by ``close()`` and the GC finalizer: drain the
    prefetch ledger, close the substrate (fleet session, forked
    workers), flush or close the shard cache.  Runs at most once per
    engine (``weakref.finalize``): at close, context exit, or GC."""
    inflight, substrate = resources["inflight"], resources["substrate"]
    substrate.drain(inflight.values())
    inflight.clear()
    substrate.close()
    # Shard cache last: an engine-owned cache is closed (flush + catalog
    # close); a shared one (TIRM owns it) is only flushed, so its batched
    # catalog rows land before the owner reads or closes it.
    cache = resources["cache"]
    if cache is not None:
        try:
            if resources["cache_owned"]:
                cache.close()
            else:
                cache.flush()
        except Exception:  # pragma: no cover - interpreter-shutdown race
            pass


class ShardedSamplingEngine:
    """One RR-set pool shard per advertiser, with chunk-parallel sampling.

    Parameters
    ----------
    graph:
        The social graph shared by every shard.
    probs_per_ad:
        One per-canonical-edge probability array per advertiser.
    seeds:
        A single seed-like whose :func:`~repro.utils.rng.seed_entropy`
        becomes the global stream root (per-ad streams are separated by
        the ``spawn_key``), or a sequence of ``h`` seed-likes for
        explicit per-ad roots.
    engine:
        ``"serial"`` samples in-process: a request's chunks past its
        first are one table of the compiled kernel, run by the calling
        thread and one helper thread per further CPU; ``"process"`` fans chunk tasks
        across a fleet of forked worker processes; ``"dist"`` across the
        ``repro worker`` processes dialled in to ``coordinator``.  All
        produce bit-identical shards for the same ``(seeds,
        chunk_size)``.
    coordinator:
        Required with ``engine="dist"`` and refused otherwise: a started
        (or startable) :class:`~repro.dist.Coordinator`.  The caller owns
        it; the engine registers one session on it and releases that
        session at :meth:`close`.
    max_workers:
        Number of forked workers for ``engine="process"`` (default:
        ``os.cpu_count()``); a dialled fleet is however many workers
        dial in.
    chunk_size:
        Set-index chunk width of the counter-based streams.  Part of the
        determinism contract — resampling with a different chunk size
        yields different (equally valid) sets.
    dsan:
        Runtime determinism sanitizer (:mod:`repro.rrset.dsan`):
        ``True`` keeps a blake2 digest per ``(ad, chunk)`` over every
        block spliced into the shards, readable via
        :meth:`dsan_digests` / :meth:`dsan_root`.  ``None`` (default)
        defers to the ``REPRO_DSAN`` environment variable.  Recording
        is pure observation — a sanitized run is byte-identical to an
        unsanitized one.
    dsan_expected:
        Optional reference digest map (a prior run's
        :meth:`dsan_digests`).  Implies ``dsan``; every recorded chunk
        is checked inline and the first divergence raises
        :class:`~repro.errors.DeterminismError` naming its
        ``(ad, chunk)``.
    cache:
        Shard cache knob (:mod:`repro.store`): a directory path opens a
        cache the engine owns (and closes), a ready
        :class:`~repro.store.ShardCache` is shared (the engine only
        flushes it), and ``None`` (default) defers to the
        ``REPRO_CACHE`` environment variable.  **Not** part of the
        determinism contract — hits are verified against their stored
        digests, so cached and uncached runs are byte-identical (see
        the module notes above).

    Examples
    --------
    Two advertisers, ten RR-sets each, served serially in-process::

        >>> from repro.graph.generators import erdos_renyi
        >>> from repro.graph.probabilities import constant_probabilities
        >>> from repro.rrset import ShardedSamplingEngine
        >>> graph = erdos_renyi(40, 0.1, seed=2)
        >>> probs = constant_probabilities(graph, 0.1)
        >>> with ShardedSamplingEngine(
        ...     graph, [probs, probs], seeds=11, chunk_size=8
        ... ) as engine:
        ...     engine.ensure({0: 10, 1: 10})   # grow shards to 10 sets
        ...     engine.total_sets()
        20
    """

    def __init__(
        self,
        graph: DirectedGraph,
        probs_per_ad: Sequence,
        *,
        seeds=None,
        engine: str = "serial",
        coordinator=None,
        max_workers: int | None = None,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        dsan: bool | None = None,
        dsan_expected: Mapping | None = None,
        cache=None,
    ) -> None:
        check_engine(engine, coordinator)
        if chunk_size < 1:
            raise ConfigurationError(f"chunk_size must be >= 1, got {chunk_size}")
        probs_per_ad = list(probs_per_ad)
        if not probs_per_ad:
            raise ConfigurationError("need at least one advertiser")
        if max_workers is not None and max_workers < 1:
            raise ConfigurationError(f"max_workers must be >= 1, got {max_workers}")
        self.graph = graph
        self.engine = engine
        self.chunk_size = int(chunk_size)
        h = len(probs_per_ad)
        if isinstance(seeds, (list, tuple)) and len(seeds) != h:
            raise ConfigurationError(
                f"got {len(seeds)} per-ad seeds for {h} advertisers"
            )
        if isinstance(seeds, (list, tuple)):
            entropies = [seed_entropy(s) for s in seeds]
        else:
            entropies = [seed_entropy(seeds)] * h
        self._entropies: list[int] = entropies
        # The parent's chunk source: inline computes go through it, forked
        # workers inherit it, a dialled fleet's PAYLOAD is packed from it.
        # Samplers are built eagerly so a bad probability row fails here,
        # not at the first request.
        self._source = ChunkSource(
            graph, probs_per_ad, entropies, self.chunk_size
        )
        self._samplers = [self._source.sampler(ad) for ad in range(h)]
        self._plans = [self._source.plan(ad) for ad in range(h)]
        self._shards = [RRSetPool(graph.num_nodes) for _ in range(h)]
        # Tail memo, keyed by the pure ``(ad, chunk)`` stream address
        # and consulted before the shard cache and the substrate.  It
        # holds each ad's *partially consumed* tail chunk — at most one
        # block per ad — so a θ continuation re-enters the chunk instead
        # of resampling it and every chunk is computed at most once per
        # engine lifetime.  Fully consumed chunks are held once, by the
        # shard.
        self._blocks: dict[tuple[int, int], Block] = {}
        self._engine_id = next(_ENGINE_IDS)
        # Determinism sanitizer: an explicit expected map implies dsan
        # (there is nothing to check the map against otherwise).
        self._dsan_expected = dsan_expected
        self._dsan: DsanRecorder | None = (
            DsanRecorder(
                expected=dsan_expected, label=f"engine#{self._engine_id}"
            )
            if dsan_enabled(dsan) or dsan_expected is not None
            else None
        )
        #: Sampling-backend invocations performed on this engine's
        #: behalf (inline chunk computes, substrate submits).  The
        #: warm-start headline: a fully cached run keeps this at zero.
        self.backend_invocations = 0
        # Read-through shard cache.  Imported lazily: repro.store imports
        # repro.rrset for the block format and digests, so a module-level
        # import here would be circular.
        from repro.store.cache import resolve_cache

        self._cache, self._cache_owned = resolve_cache(cache)
        self._shard_keys: list[str] | None = None
        self._cache_meta: list[dict] | None = None
        self._substrate = ChunkSubstrate()
        try:
            # A dialled fleet's workers address their local caches by
            # the shard keys too.
            graph_hash = (
                self._init_shard_keys()
                if self._cache is not None or engine == "dist" else None
            )
            if engine != "serial":
                # Imported lazily: repro.dist builds on this module.
                from repro.dist.engine import _Fleet, _LocalFleet

                label = f"ShardedSamplingEngine #{self._engine_id}"
                self._substrate = (
                    _LocalFleet(self._source, max_workers, label)
                    if engine == "process" else _Fleet.register(
                        coordinator, self._source, self._shard_keys,
                        graph_hash, label,
                    )
                )
        except BaseException:
            if self._cache_owned:
                self._cache.close()
            raise
        # Speculative prefetch ledger: (ad, chunk) -> in-flight future.
        # Shared with the teardown resources so close() can drain it
        # even from the GC finalizer (which cannot see self).
        self._inflight: dict[tuple[int, int], Future] = {}
        self._resources: dict = {
            "substrate": self._substrate,
            "inflight": self._inflight,
            "cache": self._cache,
            "cache_owned": self._cache_owned,
        }
        # GC-safe teardown: __del__ runs in arbitrary GC order (flaky
        # under pytest-xdist), finalize does not.  close() triggers the
        # same callback, so teardown is idempotent by construction.
        self._finalizer = weakref.finalize(
            self, _release_engine_resources, self._resources
        )

    def _init_shard_keys(self) -> str:
        """Content addresses for every ad's stream (key schema:
        :mod:`repro.store.keys`); returns the graph digest they were
        derived from.  Keys pin what determines the bytes — graph
        content, edge probabilities, stream entropy, chunk size — and
        exclude the byte-identical substrate (engine / workers)."""
        from repro.store.keys import philox_shard_key
        from repro.utils.hashing import array_digest, graph_digest

        graph_hash = graph_digest(self.graph)
        keys: list[str] = []
        meta: list[dict] = []
        for ad, sampler in enumerate(self._samplers):
            probs_hash = array_digest(sampler.edge_probabilities, label="probs")
            keys.append(philox_shard_key(
                graph_hash=graph_hash, probs_hash=probs_hash,
                entropy=self._entropies[ad], ad=ad, chunk_size=self.chunk_size,
            ))
            meta.append({
                "ad": ad,
                "rng": STREAM_RNG,
                "mode": STREAM_MODE,
                "chunk_size": self.chunk_size,
                "entropy": str(self._entropies[ad]),
                "graph_hash": graph_hash,
            })
        self._shard_keys = keys
        self._cache_meta = meta
        return graph_hash

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def num_ads(self) -> int:
        """Number of shards ``h``."""
        return len(self._shards)

    @property
    def transport(self) -> str:
        """How blocks travel home (``"socket"`` on a fleet, ``"inline"``
        when every chunk is computed in this process) — provenance."""
        return self._substrate.transport

    @property
    def start_method(self) -> str | None:
        """How fleet workers start (``"fork"``), or ``None`` when none
        is started by this engine."""
        return self._substrate.start_method

    def dist_stats(self) -> dict | None:
        """On ``engine="dist"``: the coordinator's counters plus this
        engine's session and local fallbacks — topology provenance that
        cannot change a byte of any shard.  ``None`` on every other
        engine."""
        return self._substrate.stats() if self.engine == "dist" else None

    @property
    def dsan(self) -> bool:
        """Whether the determinism sanitizer is recording on this engine."""
        return self._dsan is not None

    def dsan_digests(self) -> dict[tuple[int, int], str]:
        """Copy of the sanitizer's digest map (``{}`` when dsan is off).

        Keys are ``(ad, chunk_index)`` stream addresses; values are
        blake2 hexdigests of the full packed chunk block.  Two engines
        asked to reach the same targets
        must produce equal maps (:func:`repro.rrset.dsan.compare_digests`
        raises at the first divergent chunk when they do not).
        """
        return {} if self._dsan is None else dict(self._dsan.digests)

    def dsan_root(self) -> str | None:
        """One digest over the whole digest map — the compact run
        fingerprint recorded in TIRM stats/provenance (``None`` when
        dsan is off)."""
        return None if self._dsan is None else self._dsan.root_digest()

    @property
    def cache(self):
        """The engine's shard cache (:class:`repro.store.ShardCache`),
        or ``None`` when caching is off."""
        return self._cache

    def cache_stats(self) -> dict | None:
        """Copy of the cache's hit/miss/store/corrupt counters plus its
        directory under ``"path"`` (``None`` when caching is off)."""
        if self._cache is None:
            return None
        stats = dict(self._cache.stats)
        stats["path"] = self._cache.directory
        return stats

    def shard_cache_refs(self) -> list[tuple[str, int]]:
        """The cache blocks this engine's shards were (or could have
        been) served from: one ``(shard_key, max_index)`` pair per
        non-empty ad.  TIRM registers these against each checkpoint so
        ``repro gc`` keeps the blocks a warm resume would re-read.
        Empty without a cache."""
        if self._shard_keys is None:
            return []
        refs: list[tuple[str, int]] = []
        for ad, key in enumerate(self._shard_keys):
            total = self._shards[ad].num_total
            if total:
                refs.append((key, (total - 1) // self.chunk_size))
        return refs

    def shard(self, ad: int) -> RRSetPool:
        """The advertiser's RR-set pool shard."""
        return self._shards[ad]

    def sampler(self, ad: int) -> RRSetSampler:
        """The advertiser's sampler (the parent-side BFS core)."""
        return self._samplers[ad]

    def plan(self, ad: int) -> StreamPlan:
        """The advertiser's counter-based stream plan."""
        return self._plans[ad]

    def stream_entropy(self, ad: int) -> int:
        """The ad's stream entropy root."""
        return self._entropies[ad]

    def total_sets(self) -> int:
        """Σ over shards of sets ever sampled."""
        return int(sum(s.num_total for s in self._shards))

    def memory_bytes(self) -> int:
        """Σ over shards of bytes held (the Table-4 figure), plus every
        block the tail memo holds — each ad's partially consumed tail
        chunk."""
        return (
            int(sum(s.memory_bytes() for s in self._shards))
            + sum(
                int(block.members.nbytes + block.lengths.nbytes)
                for block in self._blocks.values()
            )
        )

    # ------------------------------------------------------------------
    # Warm reuse
    # ------------------------------------------------------------------
    def reset_for_reuse(self) -> None:
        """Rewind the engine to its just-constructed state so a second
        run over it is byte-identical to a fresh-engine run.

        The leasing contract of the service tier's engine pool: the
        *run-scoped* state is cleared — each shard's run state
        (:meth:`~repro.rrset.pool.RRSetPool.rewind`), in-flight prefetch
        futures, dsan digests (a fresh recorder with the original
        ``expected`` map), ``backend_invocations`` and the substrate's
        fallback count — while the *engine-scoped* state stays warm: the
        substrate (forked workers, the fleet session), the shard cache
        and its keys, and the *sample* — the shards' resident rows, the
        inverted index over them and the tail memo (chunks are pure
        functions of ``(entropy, ad, chunk)``).  The next run reveals
        resident sets instead of sampling them: up to the resident mark
        no backend invocation, no copy, no index build — one
        :meth:`~repro.rrset.pool.RRSetPool.reveal` per ad and request.
        dsan still re-hashes every revealed chunk from the resident rows
        on every lease, on the helper threads and the calling thread at
        once, and records the digests in ascending ``(ad, chunk)``
        order: the check that the sample did not change between leases
        (with ``dsan_expected``, a changed chunk raises
        :class:`~repro.errors.DeterminismError` naming it and closes the
        engine).  The shards are the *same objects*
        before and after, so a reader of the previous run must be gone
        (leases are exclusive).  Raises
        :class:`~repro.errors.ConfigurationError` on a closed engine.
        """
        if not self._finalizer.alive:
            raise ConfigurationError(
                f"cannot reset ShardedSamplingEngine #{self._engine_id}: "
                "the engine is closed"
            )
        # Drain the prefetch ledger in place — the dict object is shared
        # with the teardown resources, so it must be cleared, not
        # replaced.
        self._substrate.drain(self._inflight.values())
        self._inflight.clear()
        self._substrate.reset()
        for shard in self._shards:
            shard.rewind()
        if self._dsan is not None:
            self._dsan = DsanRecorder(
                expected=self._dsan_expected, label=self._dsan.label
            )
        self.backend_invocations = 0

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------
    def sample(self, requests: Mapping[int, int]) -> None:
        """Top up shards: draw ``requests[ad]`` extra sets into each
        listed ad's shard.

        This is the engine's single entry point — TIRM routes both the
        initial pilot phase (all ads at once) and every Algorithm-4
        growth top-up through it.  The request is decomposed into
        fixed-size ``(ad, chunk)`` tasks — a single ad's θ top-up
        included — which the substrate fans out; blocks are spliced back
        in ascending ``(ad, chunk)`` order regardless of completion
        order, so results are bit-identical on every substrate.
        """
        extras = {
            ad: count for ad, count in self._checked(requests, "count") if count
        }
        if extras:
            self._run_tasks(self._tasks(extras))

    def ensure(self, targets: Mapping[int, int]) -> None:
        """Grow shards to *absolute* set counts: for each ad, sample
        exactly the missing index range ``[num_total, target)``.

        This is the index-addressed form of :meth:`sample`: callers name
        the sample-size target (TIRM's ``θ_i``) instead of a delta from
        the current stream position, which — together with the pure
        chunk streams — makes a mid-allocation resume deterministic: any
        engine with the same ``(seeds, chunk_size)`` asked to reach the
        same targets holds the same shards, no matter how the requests
        were split.  Targets at or below the current count are no-ops.
        In-flight chunks submitted by :meth:`prefetch` are harvested
        before any remainder is submitted.
        """
        self.sample(self._targets_to_extras(targets))

    def prefetch(self, targets: Mapping[int, int]) -> int:
        """Speculatively submit the chunk tasks needed to reach the
        given *absolute* per-ad targets, without blocking; returns how
        many tasks were submitted.

        A later :meth:`ensure`/:meth:`sample` harvests matching
        in-flight futures before submitting anything new, so sampling
        overlaps whatever the caller does in between (TIRM overlaps its
        greedy selection).  Speculation cannot change results: chunks
        are pure functions of their ``(entropy, ad, chunk)`` address, so
        a speculative chunk is byte-identical whether or not it ends up
        needed — and one never consumed is drained at :meth:`close`.

        No-op (returns 0) on an in-process or closed engine, and for
        chunks already pooled, resident, memoized, cached, or in flight.
        """
        extras = self._targets_to_extras(targets)
        if self.engine == "serial" or not self._finalizer.alive:
            return 0
        submitted = 0
        for ad, chunk_index, _, _, resident in self._tasks(extras):
            if (
                resident
                or (ad, chunk_index) in self._inflight
                or self._held(ad, chunk_index)
            ):
                continue
            future = self._substrate.submit(ad, chunk_index)
            if future is None:
                break  # nothing runs beside the parent
            self._inflight[ad, chunk_index] = future
            self.backend_invocations += 1
            submitted += 1
        return submitted

    def _checked(self, requests: Mapping[int, int], what: str):
        """The validated ``(ad, value)`` pairs of a request mapping."""
        for ad, value in requests.items():
            ad, value = int(ad), int(value)
            if not 0 <= ad < self.num_ads:
                raise ConfigurationError(f"ad {ad} out of range [0, {self.num_ads})")
            if value < 0:
                raise ConfigurationError(f"{what} must be >= 0, got {value} for ad {ad}")
            yield ad, value

    def _targets_to_extras(self, targets: Mapping[int, int]) -> dict[int, int]:
        return {
            ad: target - self._shards[ad].num_total
            for ad, target in self._checked(targets, "target")
            if target > self._shards[ad].num_total
        }

    def _tasks(
        self, extras: Mapping[int, int]
    ) -> list[tuple[int, int, int, int, bool]]:
        """``extras[ad]`` more sets per ad as ``(ad, chunk, lo, hi,
        resident)`` tasks, ascending — the order they enter the shard.
        Every request is split at the shard's resident mark, so a task
        is wholly resident (revealed in place) or wholly not (spliced
        from a block)."""
        tasks: list[tuple[int, int, int, int, bool]] = []
        for ad in sorted(extras):
            shard, plan = self._shards[ad], self._plans[ad]
            start = shard.num_total
            stop = start + extras[ad]
            mark = min(shard.num_resident, stop)
            tasks += [(ad, *task, True) for task in plan.chunk_tasks(start, mark)]
            tasks += [(ad, *task, False) for task in plan.chunk_tasks(mark, stop)]
        return tasks

    # ------------------------------------------------------------------
    # The chunk path
    # ------------------------------------------------------------------
    def _held(self, ad: int, chunk_index: int) -> bool:
        """Whether the chunk can be served without computing it: it is
        memoized, or the shard cache has an entry for it (a cheap
        existence probe — the gather does the verified load)."""
        return (ad, chunk_index) in self._blocks or (
            self._cache is not None
            and self._cache.has(self._shard_keys[ad], chunk_index)
        )

    def _open_held(self, ad: int, chunk_index: int):
        """``(block, fresh)`` for a chunk the scatter found held: the
        memoized arrays, else the verified cache entry — else (the
        probed entry vanished or was quarantined) an inline compute:
        the cache can only ever save work, never change bytes."""
        memo = self._blocks.get((ad, chunk_index))
        if memo is not None:
            return Block(memo.members, memo.lengths), False
        entry = self._cache.load(
            self._shard_keys[ad], chunk_index, self.chunk_size
        )
        if entry is not None:
            return entry, False
        self.backend_invocations += 1
        return self._source.block(ad, chunk_index), True

    def _run_tasks(self, tasks: list[tuple[int, int, int, int, bool]]) -> None:
        """The one dispatch loop over ``(ad, chunk, lo, hi, resident)``
        tasks: reveal the resident ones, scatter the others over the
        substrate, then gather and splice them in task order."""
        # A one-block request with nothing in flight is computed in the
        # parent — a round trip buys nothing — and a closed engine has
        # no substrate left (close also drained the prefetch ledger).
        substrate = self._substrate
        blocks = [
            (ad, chunk_index)
            for ad, chunk_index, _, _, resident in tasks if not resident
        ]
        alive = self._finalizer.alive
        fan_out = alive and (len(blocks) > 1 or bool(self._inflight))
        # (ad, chunk) -> future, or None for "compute inline", for every
        # chunk that has to be computed; held chunks are absent.
        pending: dict[tuple[int, int], Future | None] = {}
        inline = None
        try:
            resident = [
                (ad, chunk_index, hi - lo)
                for ad, chunk_index, lo, hi, is_resident in tasks if is_resident
            ]
            if resident:
                self._reveal(resident)
            for ad, chunk_index in blocks:
                future = self._inflight.pop((ad, chunk_index), None)
                if future is None:  # else: harvest prefetched work
                    if self._held(ad, chunk_index):
                        continue
                    self.backend_invocations += 1
                    if fan_out:
                        future = substrate.submit(ad, chunk_index)
                pending[ad, chunk_index] = future
            # Every chunk computed in this process but the first is an
            # entry of one kernel table, which the helper threads join.
            local = [key for key, future in pending.items() if future is None]
            if local:
                pool = _helper_pool() if alive and len(local) > 1 else None
                inline = self._source.blocks(
                    local, None if pool is None else (pool, _threads)
                )
            # Deterministic splice order (ascending ad, then chunk — the
            # order the task list was built in), independent of which
            # worker finished first.  Each result is consumed as soon as
            # *its* future resolves — no barrier on the whole batch.
            for ad, chunk_index, lo, hi, is_resident in tasks:
                if is_resident:
                    continue
                if (ad, chunk_index) not in pending:
                    block, fresh = self._open_held(ad, chunk_index)
                else:
                    future = pending.pop((ad, chunk_index))
                    if future is None:
                        block = next(inline)
                    else:
                        block = substrate.collect(ad, chunk_index, future)
                    fresh = True
                self._splice(ad, chunk_index, lo, hi, block, fresh)
        except BaseException:
            # A failed batch (submit error, splice error, a chunk that
            # fails inline too) leaves the request partially applied;
            # don't also leak the substrate — drain what's still pending
            # here, then route through the idempotent close() (which
            # drains the prefetch ledger the same way).
            substrate.drain(f for f in pending.values() if f is not None)
            self.close()
            raise
        finally:
            if inline is not None:
                inline.close()  # settles the helpers, frees what is left

    def _reveal(self, resident: list[tuple[int, int, int]]) -> None:
        """A request's wholly resident ``(ad, chunk, count)`` tasks,
        ascending: each ad's sets are made visible in place by one
        reveal.  dsan records what a splice would — the digest of each
        *full* chunk: the tail memo's block when the chunk is only partly
        resident, else the shard's own rows, re-hashed on every lease
        (the check that the sample did not change between leases) on
        the helper threads and the calling thread at once."""
        if self._dsan is not None:
            blocks = []
            for ad, chunk_index, _ in resident:
                memo = self._blocks.get((ad, chunk_index))
                if memo is not None:
                    blocks.append((memo.members, memo.lengths))
                else:
                    first = chunk_index * self.chunk_size
                    blocks.append(self._shards[ad].resident_rows(
                        first, first + self.chunk_size
                    ))
            digests = digest_blocks(
                blocks, _helper_pool() if len(blocks) > 1 else None
            )
            for (ad, chunk_index, _), block, digest in zip(
                resident, blocks, digests
            ):
                self._dsan.record(ad, chunk_index, *block, digest=digest)
        counts: dict[int, int] = {}
        for ad, _, count in resident:
            counts[ad] = counts.get(ad, 0) + count
        for ad, count in counts.items():
            self._shards[ad].reveal(count)

    def _splice(
        self, ad: int, chunk_index: int, lo: int, hi: int, block, fresh: bool,
    ) -> None:
        """The one place a block enters a shard: append sets ``[lo, hi)``
        of the chunk and release the block — whatever it arrived as."""
        members, lengths, digest = block.members, block.lengths, block.digest
        try:
            if self._dsan is not None:
                # Digest the *full* chunk block (chunks are always
                # computed whole), so inline, frame, cache and memo
                # arrivals of the same chunk hash the same bytes by
                # construction — once per arrival: a frame or cache
                # entry brings the digest it was verified against.  A
                # divergence raises here and the finally below still
                # releases the block.
                digest = self._dsan.record(
                    ad, chunk_index, members, lengths, digest=digest
                )
            if fresh and self._cache is not None:
                # Write-through, for freshly computed blocks only (write
                # failures warn once inside the cache, never fail the
                # run); write_block serializes without keeping references.
                self._cache.store(
                    self._shard_keys[ad], chunk_index, members, lengths,
                    meta=self._cache_meta[ad], digest=digest,
                )
            if hi < self.chunk_size:
                # A cache entry's mapping goes at the release below, so
                # the memo must own a copy.
                self._blocks[ad, chunk_index] = (
                    Block(members, lengths) if block.buffer is None
                    else Block(members.copy(), lengths.copy())
                )
            else:
                self._blocks.pop((ad, chunk_index), None)
            # Exactly one copy into the pool, whatever the block arrived
            # as: a cache entry's arrays are views over its mapping.
            self._shards[ad].add_flat(*_slice_flat(members, lengths, lo, hi))
        finally:
            block.release()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Drain in-flight prefetch futures, close the substrate (the
        fleet session; forked workers get SHUTDOWN and are reaped), and
        flush the shard cache.

        Idempotent and exception-safe: the teardown callback is shared
        with the GC finalizer and runs at most once however many times
        it is triggered.
        """
        if self._finalizer.alive:
            self._finalizer()

    def __enter__(self) -> "ShardedSamplingEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(h={self.num_ads}, engine={self.engine!r}, "
            f"chunk_size={self.chunk_size}, "
            f"transport={self.transport!r}, total_sets={self.total_sets()})"
        )
