"""Per-advertiser sharded RR-set sampling engine.

TIRM (Algorithms 2–4, §5.2) keeps one independent RR-set collection and
sampler per advertiser.  :class:`ShardedSamplingEngine` makes that
structure explicit: it owns one :class:`~repro.rrset.pool.RRSetPool`
*shard* per advertiser and serves batched sampling requests — the
initial pilots for all ``h`` ads, and every Algorithm-4 ``θ_i`` top-up —
either serially in-process or concurrently across a
``concurrent.futures`` process pool.

Counter-based streams
---------------------

Every RR set is addressed by ``(global_seed, ad, set_index)``: set
indices are grouped into fixed-size *chunks*, and chunk ``c`` of ad
``i`` owns the private generator
``Philox(SeedSequence(entropy, spawn_key=(i, c)))`` (see
:class:`~repro.rrset.sampler.StreamPlan`).  A request — *including a
single ad's θ top-up* — therefore decomposes into independent
``(ad, chunk)`` tasks that are fanned across the process pool and
spliced back in set-index order.  Because every chunk is a pure function
of its address, the shards are **bit-identical for serial, 1-worker and
N-worker execution**, no matter how requests are split across calls.
No RNG state round-trips through workers; each task ships only
``(engine id, ad, chunk, transport)``.

Worker transport (``transport="shm"``, the default where available)
-------------------------------------------------------------------

* ``"shm"``: workers publish each chunk's packed block into a
  ``multiprocessing.shared_memory`` segment — ``int64`` lengths followed
  by ``int32`` members — and return only a small descriptor
  ``(ad, chunk, segment_name, num_sets, num_members)``.  The parent
  attaches the segment, splices the requested set subrange straight into
  the ad's shard through the single-copy
  :meth:`~repro.rrset.pool.RRSetPool.add_flat_from_buffer` append path
  (zero-copy views over the segment; exactly one copy into the pool),
  and retires the segment — exactly one ``unlink`` per segment, on
  success and error paths alike.
* ``"pickle"``: the historical transport — workers return the packed
  ``(members, lengths)`` block itself over the result pipe.

Transport is **not** part of the determinism contract: both splice the
same bytes, and the invariance tests assert it.

Start methods
-------------

Under ``fork`` (preferred where available) workers inherit the payload
— graph CSR, per-ad probability rows, stream entropies — by
copy-on-write from a module registry.  Under ``spawn`` the parent
publishes the same payload once into a shared-memory *arena* and the
executor initializer attaches it in each worker, rebuilding zero-copy
views — so spawn platforms (macOS/Windows) run at full parallelism
instead of degrading to serial.  Only when neither fork nor a
shared-memory-capable spawn is usable does ``engine="process"`` degrade
to serial sampling, with a warning per engine.

Prefetch pipeline
-----------------

:meth:`ShardedSamplingEngine.prefetch` submits upcoming ``(ad, chunk)``
tasks without blocking; :meth:`sample`/:meth:`ensure` harvest matching
in-flight futures before submitting the remainder, so sampling can
overlap the caller's own work (TIRM overlaps its greedy selection).
Speculation is legal because chunks are pure functions of their
``(entropy, ad, chunk)`` address: a speculative chunk is byte-identical
whether or not it ends up needed, and one that is never consumed is
simply discarded (and its segment unlinked) at close.

Shard cache (``cache=...`` / ``REPRO_CACHE``)
---------------------------------------------

With a cache directory configured, the engine is *read-through* over
the content-addressed shard store (:mod:`repro.store`): every sampling
path — :meth:`sample`, :meth:`ensure`, :meth:`prefetch` — consults the
cache **before** submitting compute, splices verified hits through the
same single-copy ``add_flat_from_buffer`` path the shm transport uses,
and stores freshly computed blocks for the next run.  Keys address what
determines the bytes (graph/probs content, stream entropy, chunk size)
and exclude the byte-identical substrate knobs (engine, workers,
backend, transport, start method) — so a warm run performs
**zero** sampling-backend invocations (``backend_invocations`` counts
them) while remaining byte-identical to a cold one.  Every hit is
integrity-checked against its stored dsan digest on load; a poisoned
entry is quarantined with a warning and the block recomputed, never
spliced.  Like prefetch and the transport, the cache is **not** part of
the determinism contract.
"""

from __future__ import annotations

import gc
import itertools
import multiprocessing
import os
import warnings
import weakref
from concurrent.futures import Future, ProcessPoolExecutor
from typing import Mapping, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.graph.digraph import DirectedGraph
from repro.rrset.backends import resolve_backend
from repro.rrset.dsan import DsanRecorder, dsan_enabled
from repro.rrset.pool import MEMBER_DTYPE, RRSetPool
from repro.rrset.sampler import (
    DEFAULT_CHUNK_SIZE,
    STREAM_MODE,
    STREAM_RNG,
    RRSetSampler,
    StreamPlan,
    _slice_flat,
)
from repro.utils.rng import seed_entropy

try:  # pragma: no cover - present on every supported platform
    from multiprocessing import shared_memory
except ImportError:  # pragma: no cover
    shared_memory = None

ENGINE_MODES = ("serial", "process")
TRANSPORT_MODES = ("auto", "pickle", "shm")
START_METHODS = ("auto", "fork", "spawn")

_LENGTH_DTYPE = np.int64
_LENGTH_ITEMSIZE = np.dtype(_LENGTH_DTYPE).itemsize
_MEMBER_ITEMSIZE = np.dtype(MEMBER_DTYPE).itemsize

#: Engine-id allocator: payloads of concurrently live engines must not
#: collide in the worker-side registries.
_ENGINE_IDS = itertools.count()

#: Worker-visible payload registry.  Maps engine id -> (graph, per-ad
#: probability rows, per-ad entropies, chunk size, resolved sampling
#: backend).  Under fork the parent registers before creating the
#: executor and children inherit the entry copy-on-write; under spawn
#: the executor initializer fills the (fresh) worker-side registry from
#: the payload arena (:func:`_spawn_worker_init`).
_FORK_PAYLOADS: dict[int, tuple] = {}

#: Worker-side sampler cache, keyed by (engine id, ad).  Samplers are
#: rebuilt lazily per worker so the O(m) in-CSR probability gather is
#: paid at most once per (worker, ad); chunk streams come from the
#: StreamPlan, so the cache seed is irrelevant.
_WORKER_SAMPLERS: dict[tuple[int, int], RRSetSampler] = {}


def _publish_block(members: np.ndarray, lengths: np.ndarray) -> tuple[str, int, int]:
    """Worker side of the shm transport: pack one chunk block into a
    fresh shared-memory segment (lengths, then members) and return its
    ``(name, num_sets, num_members)`` descriptor.  The worker closes its
    mapping immediately; the parent owns the segment's single unlink."""
    lengths = np.ascontiguousarray(lengths, dtype=_LENGTH_DTYPE)
    members = np.ascontiguousarray(members, dtype=MEMBER_DTYPE)
    segment = shared_memory.SharedMemory(  # reprolint: disable=R104 -- ownership transfers: the parent unlinks at splice (_splice_segment) or drain (_drain_futures/_release_engine_resources); the error path below unlinks locally
        create=True, size=max(lengths.nbytes + members.nbytes, 1)
    )
    try:
        np.frombuffer(segment.buf, dtype=_LENGTH_DTYPE, count=lengths.size)[:] = lengths
        np.frombuffer(
            segment.buf, dtype=MEMBER_DTYPE, count=members.size,
            offset=lengths.nbytes,
        )[:] = members
    except BaseException:
        segment.close()
        segment.unlink()
        raise
    name = segment.name
    segment.close()
    return name, int(lengths.size), int(members.size)


def _unlink_segment(name: str) -> None:
    """Best-effort unlink of a segment by name (idempotent: a segment
    already unlinked — or never created — is not an error)."""
    if shared_memory is None:
        return
    try:
        segment = shared_memory.SharedMemory(name=name)
    except (FileNotFoundError, OSError):
        return
    segment.close()
    try:
        segment.unlink()
    except (FileNotFoundError, OSError):
        pass


def _worker_sample_chunk(
    engine_id: int, ad: int, chunk_index: int, transport: str = "pickle",
):
    """Run one chunk task in a worker: rebuild the ad's plan from the
    engine payload and return the chunk's full packed block — inline
    under the pickle transport, as a shared-memory descriptor under shm.
    The parent slices out the requested subrange and caches partial tail
    blocks, so a chunk is computed at most once per engine lifetime."""
    key = (engine_id, ad)
    graph, probs_per_ad, entropies, chunk_size, backend = _FORK_PAYLOADS[engine_id]
    sampler = _WORKER_SAMPLERS.get(key)
    if sampler is None:
        sampler = RRSetSampler(graph, probs_per_ad[ad], seed=0, backend=backend)
        _WORKER_SAMPLERS[key] = sampler
    plan = StreamPlan(entropies[ad], ad, chunk_size)
    members, lengths = sampler.sample_chunk_block(plan, chunk_index)
    if transport == "shm":
        name, num_sets, num_members = _publish_block(members, lengths)
        return ad, chunk_index, name, num_sets, num_members
    return ad, chunk_index, members, lengths


def _payload_parts(
    graph: DirectedGraph, samplers: Sequence,
) -> list[tuple[str, np.ndarray]]:
    """The engine payload as named contiguous arrays — the graph in-CSR
    plus one canonical probability row per advertiser.  Single source of
    truth for every payload shipment: the spawn arena
    (:meth:`ShardedSamplingEngine._spawn_initargs`) and the distributed
    tier's session PAYLOAD frame (:mod:`repro.dist`) pack exactly this
    list, and workers on either substrate rebuild identical views."""
    parts: list[tuple[str, np.ndarray]] = [
        ("in_indptr", np.ascontiguousarray(graph.in_indptr)),
        ("in_sources", np.ascontiguousarray(graph.in_sources)),
        ("in_edge_ids", np.ascontiguousarray(graph.in_edge_ids)),
    ]
    for ad, sampler in enumerate(samplers):
        parts.append(
            (f"probs_{ad}", np.ascontiguousarray(sampler.edge_probabilities))
        )
    return parts


def _payload_layout(
    parts: list[tuple[str, np.ndarray]],
) -> tuple[list[tuple[str, str, int, int]], int]:
    """8-byte-aligned ``(key, dtype, count, offset)`` layout for a flat
    payload buffer holding ``parts``, plus the buffer's total size."""
    layout: list[tuple[str, str, int, int]] = []
    offset = 0
    for key, array in parts:
        offset = (offset + 7) & ~7  # 8-byte align every block
        layout.append((key, array.dtype.str, int(array.size), offset))
        offset += array.nbytes
    return layout, max(offset, 1)


def _graph_from_arrays(
    num_nodes: int, num_edges: int, arrays: Mapping[str, np.ndarray],
) -> DirectedGraph:
    """Rebuild a sampling-sufficient graph from payload views.  The
    sampling paths only touch the in-CSR (plus the two dims), so the
    payload ships exactly that; bypass the sorting/validating
    constructor and bind the views directly to the slots."""
    graph = object.__new__(DirectedGraph)
    graph.num_nodes = int(num_nodes)
    graph.num_edges = int(num_edges)
    graph.in_indptr = arrays["in_indptr"]
    graph.in_sources = arrays["in_sources"]
    graph.in_edge_ids = arrays["in_edge_ids"]
    return graph


def _spawn_worker_init(
    engine_id: int,
    arena_name: str,
    layout: list[tuple[str, str, int, int]],
    graph_dims: tuple[int, int, int],
    entropies: tuple[int, ...],
    chunk_size: int,
    backend_spec,
) -> None:
    """Executor initializer under the spawn start method: attach the
    parent's payload arena and rebuild the payload registry entry from
    zero-copy views over it — spawned workers never pickle the graph.

    ``layout`` lists ``(key, dtype, count, offset)`` per array;
    ``backend_spec`` is a backend name (re-resolved here, since resolved
    backends may hold unpicklable compiled kernels) or, for custom
    backends, a picklable instance.
    """
    import atexit

    arena = shared_memory.SharedMemory(name=arena_name)
    arrays = {
        key: np.frombuffer(arena.buf, dtype=np.dtype(dtype), count=count, offset=offset)
        for key, dtype, count, offset in layout
    }
    num_nodes, num_edges, h = graph_dims
    graph = _graph_from_arrays(num_nodes, num_edges, arrays)
    probs_per_ad = [arrays[f"probs_{ad}"] for ad in range(h)]
    backend = (
        resolve_backend(backend_spec) if isinstance(backend_spec, str) else backend_spec
    )
    _FORK_PAYLOADS[engine_id] = (graph, probs_per_ad, entropies, chunk_size, backend)
    atexit.register(_spawn_worker_cleanup, engine_id, arena)


def _spawn_worker_cleanup(engine_id: int, arena) -> None:
    """Worker atexit: drop every payload view, then close the arena
    mapping so the worker exits without buffer-export noise.  The parent
    owns the arena's unlink."""
    _FORK_PAYLOADS.pop(engine_id, None)
    for key in [k for k in _WORKER_SAMPLERS if k[0] == engine_id]:
        del _WORKER_SAMPLERS[key]
    gc.collect()
    try:
        arena.close()
    except BufferError:  # pragma: no cover - a view outlived the caches
        # Detach forcibly: the OS reclaims the mapping at process exit
        # either way, and silencing here keeps interpreter shutdown
        # free of "exception ignored in __del__" noise.
        arena._buf = None
        arena._mmap = None


def _release_engine_resources(resources: dict) -> None:
    """Teardown shared by ``close()`` and the GC finalizer: cancel
    in-flight prefetch futures, shut the worker pool down, retire any
    unharvested shared-memory segments and the payload arena, and drop
    the payload registry entry.  Runs at most once per engine
    (``weakref.finalize`` guarantees it), in whichever comes first —
    explicit close, context-manager exit, or garbage collection.  Every
    step is idempotent and exception-safe: each segment is unlinked
    exactly once no matter how teardown is reached."""
    inflight = resources.get("inflight")
    pending: list[Future] = []
    if inflight:
        pending = list(inflight.values())
        inflight.clear()
        for future in pending:
            future.cancel()
    executor = resources.get("executor")
    if executor is not None:
        resources["executor"] = None
        executor.shutdown(wait=True)
    # Futures that could not be cancelled have completed by now (the
    # shutdown waited); their published segments were never consumed by
    # a splice, so retire them here.
    if resources.get("transport") == "shm":
        for future in pending:
            if future.cancelled():
                continue
            try:
                result = future.result()
            except BaseException:
                continue  # worker failed: _publish_block cleaned up
            _unlink_segment(result[2])
    arena = resources.get("arena")
    if arena is not None:
        resources["arena"] = None
        try:
            arena.close()
        finally:
            try:
                arena.unlink()
            except (FileNotFoundError, OSError):
                pass
    payload_key = resources.get("payload_key")
    if payload_key is not None:
        resources["payload_key"] = None
        _FORK_PAYLOADS.pop(payload_key, None)
    # Distributed session (repro.dist): release the payload held by the
    # coordinator — and the coordinator itself when this engine built it
    # from a spec (a borrowed coordinator belongs to the caller).
    dist = resources.get("dist")
    if dist is not None:
        resources["dist"] = None
        coordinator, session_id, owned = dist
        try:
            coordinator.release_session(session_id)
        except Exception:  # pragma: no cover - teardown must not raise
            pass
        if owned:
            try:
                coordinator.close()
            except Exception:  # pragma: no cover - teardown must not raise
                pass
    # Shard cache last: an engine-owned cache is closed (flush + catalog
    # close); a shared one (TIRM owns it) is only flushed, so its batched
    # catalog rows land before the owner reads or closes it.
    cache = resources.get("cache")
    if cache is not None:
        resources["cache"] = None
        try:
            if resources.get("cache_owned"):
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
        ``"serial"`` samples in-process; ``"process"`` fans chunk tasks
        across a process pool.  Both produce bit-identical shards for
        the same ``(seeds, chunk_size)``.
    max_workers:
        Process-pool width (default: ``os.cpu_count()``).
    chunk_size:
        Set-index chunk width of the counter-based streams.  Part of the
        determinism contract — resampling with a different chunk size
        yields different (equally valid) sets.
    backend:
        Blocked-BFS backend (:mod:`repro.rrset.backends`): ``"numpy"``
        (reference, default), ``"numba"`` (JIT kernel), ``"auto"``, or
        a :class:`~repro.rrset.backends.SamplingBackend` instance.
        Resolved once here; workers inherit (fork) or rebuild (spawn)
        the resolved backend with the payload.  **Not** part of the
        determinism contract — every backend yields byte-identical
        shards.
    transport:
        Worker-result transport for ``engine="process"``: ``"shm"``
        (shared-memory descriptors, zero-copy parent splice), ``"pickle"``
        (packed blocks over the result pipe), or ``"auto"`` (default:
        shm where :mod:`multiprocessing.shared_memory` is available,
        else pickle).  **Not** part of the determinism contract — both
        transports splice byte-identical pools.  An explicit ``"shm"``
        on a platform without shared memory raises
        :class:`~repro.errors.ConfigurationError`.
    start_method:
        Process start method for the worker pool: ``"fork"``,
        ``"spawn"``, or ``"auto"`` (default: fork where available, else
        spawn).  Spawn workers receive the payload through a
        shared-memory arena, so they run at full parallelism; if neither
        fork nor a shared-memory-capable spawn is usable, the engine
        degrades to serial sampling with a warning.  **Not** part of the
        determinism contract.
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
        ``REPRO_CACHE`` environment variable.  With a cache, every
        sampling path checks the store before computing and stores what
        it computes; ``backend_invocations`` counts actual compute.
        **Not** part of the determinism contract — hits are verified
        against their stored digests, so cached and uncached runs are
        byte-identical (see the module notes above).

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
        max_workers: int | None = None,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        backend="numpy",
        transport: str = "auto",
        start_method: str = "auto",
        dsan: bool | None = None,
        dsan_expected: Mapping | None = None,
        cache=None,
        retain_blocks: bool = False,
    ) -> None:
        if engine not in ENGINE_MODES:
            raise ConfigurationError(
                f"engine must be one of {ENGINE_MODES}, got {engine!r}"
            )
        if chunk_size < 1:
            raise ConfigurationError(f"chunk_size must be >= 1, got {chunk_size}")
        if start_method not in START_METHODS:
            raise ConfigurationError(
                f"start_method must be one of {START_METHODS}, got {start_method!r}"
            )
        probs_per_ad = list(probs_per_ad)
        if not probs_per_ad:
            raise ConfigurationError("need at least one advertiser")
        if max_workers is not None and max_workers < 1:
            raise ConfigurationError(f"max_workers must be >= 1, got {max_workers}")
        self.graph = graph
        self.engine = engine
        self.chunk_size = int(chunk_size)
        # Resolve once, up front: "auto" picks its substrate here (and
        # warns here if it degrades), workers inherit the *resolved*
        # backend via the payload, and provenance records its name
        # (`backend_name`, mirroring RRSetSampler.backend/.backend_name).
        self.backend = resolve_backend(backend)
        # Transport and start method resolve up front too: an explicit
        # 'shm' without platform support fails cleanly here, and
        # stats/provenance record the resolved names.  Neither is part
        # of the determinism contract.
        self.transport = self.resolve_transport(transport)
        self._start_method = (
            self._resolve_start_method(start_method) if engine == "process" else None
        )
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
        self._plans = [
            StreamPlan(entropies[ad], ad, self.chunk_size) for ad in range(h)
        ]
        # Chunk streams come from the plans; the sampler seed is inert.
        self._samplers = [
            RRSetSampler(graph, probs_per_ad[ad], seed=0, backend=self.backend)
            for ad in range(h)
        ]
        self._shards = [RRSetPool(graph.num_nodes) for _ in range(h)]
        # Per-ad cache of the last *partial* tail chunk's full block:
        # chunks are pure, so a θ continuation that re-enters the chunk
        # can reuse the block instead of resampling it.  Bounded by one
        # block per ad; with it, every chunk is computed exactly once
        # per engine lifetime.  ad -> (chunk_index, (members, lengths)).
        self._tail_blocks: dict[int, tuple[int, tuple[np.ndarray, np.ndarray]]] = {}
        # In-memory chunk-block memo for pooled (resident) engines: with
        # ``retain_blocks`` every full chunk block ever spliced is kept,
        # keyed by its pure ``(ad, chunk)`` stream address, and consulted
        # before the shard cache and the backend.  This is what makes a
        # warm-pool resubmit perform *zero* backend invocations even
        # without a disk cache: :meth:`reset_for_reuse` empties the
        # shards but keeps the memo, because chunk addresses — unlike
        # shard contents — are independent of run history.  Off by
        # default (batch engines die after one run; the memo would only
        # duplicate the shards' memory).
        self._retain_blocks = bool(retain_blocks)
        self._block_memo: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}
        self._max_workers = max_workers
        self._engine_id = next(_ENGINE_IDS)
        self._warned_degraded = False
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
        #: Sampling-backend invocations this engine actually performed
        #: (serial chunk computes, worker submits).  The warm-start
        #: headline: a fully cached run keeps this at zero.
        self.backend_invocations = 0
        # Read-through shard cache.  Imported lazily: repro.store imports
        # repro.rrset for the block format and digests, so a module-level
        # import here would be circular.
        from repro.store.cache import resolve_cache

        self._cache, self._cache_owned = resolve_cache(cache)
        self._shard_keys: list[str] | None = None
        self._cache_meta: list[dict] | None = None
        if self._cache is not None:
            self._init_shard_keys()
        # Speculative prefetch ledger: (ad, chunk) -> in-flight future.
        # Shared with the teardown resources so close() can cancel and
        # drain it even from the GC finalizer (which cannot see self).
        self._inflight: dict[tuple[int, int], Future] = {}
        self._arena_layout: list[tuple[str, str, int, int]] | None = None
        self._resources: dict = {
            "executor": None,
            "payload_key": None,
            "inflight": self._inflight,
            "arena": None,
            "transport": self.transport,
            "cache": self._cache,
            "cache_owned": self._cache_owned,
        }
        if engine == "process" and self._start_method != "spawn":
            _FORK_PAYLOADS[self._engine_id] = (
                graph, probs_per_ad, entropies, self.chunk_size, self.backend,
            )
            self._resources["payload_key"] = self._engine_id
        # GC-safe teardown: __del__ runs in arbitrary GC order (flaky
        # under pytest-xdist), finalize does not.  close() triggers the
        # same callback, so teardown is idempotent by construction.
        self._finalizer = weakref.finalize(
            self, _release_engine_resources, self._resources
        )

    def _init_shard_keys(self) -> None:
        """Content addresses for every ad's stream (key schema:
        :mod:`repro.store.keys`).  Keys pin what determines the bytes —
        graph content, edge probabilities, stream entropy, chunk size —
        and exclude the byte-identical substrate (engine / backend /
        transport / start method / workers)."""
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

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def num_ads(self) -> int:
        """Number of shards ``h``."""
        return len(self._shards)

    @property
    def backend_name(self) -> str:
        """The resolved backend's name (stats/provenance string; the
        backend *instance* is ``self.backend``)."""
        return self.backend.name

    @property
    def start_method(self) -> str | None:
        """The resolved worker start method (``"fork"`` or ``"spawn"``),
        or ``None`` for serial engines and degraded process engines."""
        return self._start_method

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

    def shared_memory_bytes(self) -> int:
        """Bytes the engine itself pins in shared memory: the spawn
        payload arena, while one is live.  Worker-published result
        segments are transient (created per chunk, retired at splice)
        and not counted."""
        arena = self._resources.get("arena")
        return int(arena.size) if arena is not None else 0

    def memory_bytes(self) -> int:
        """Σ over shards of bytes held (the Table-4 figure), plus any
        shared-memory bytes the engine pins itself
        (:meth:`shared_memory_bytes`) and the resident chunk-block memo
        of a ``retain_blocks`` engine — honest accounting for the
        externally-backed payload arena and the warm-pool residency."""
        memo_bytes = sum(
            int(members.nbytes) + int(lengths.nbytes)
            for members, lengths in self._block_memo.values()
        )
        return (
            int(sum(s.memory_bytes() for s in self._shards))
            + self.shared_memory_bytes()
            + int(memo_bytes)
        )

    # ------------------------------------------------------------------
    # Warm reuse
    # ------------------------------------------------------------------
    def reset_for_reuse(self) -> None:
        """Rewind the engine to its just-constructed state so a second
        run over it is byte-identical to a fresh-engine run.

        This is the leasing contract of the service tier's engine pool:
        everything *run-scoped* is cleared — shards (fresh empty pools:
        ``θ = num_total`` must restart at zero), per-ad tail-block
        caches, in-flight prefetch futures (cancelled or drained, their
        unconsumed segments unlinked), dsan digests (a fresh recorder
        with the original ``expected`` map), sampler positions, and the
        ``backend_invocations`` counter — while everything *engine-
        scoped* stays warm: the worker pool and its JIT-compiled
        backend state, the spawn payload arena, the shard cache handle
        and content keys, and the ``retain_blocks`` chunk-block memo
        (chunks are pure functions of ``(entropy, ad, chunk)``, which
        reuse does not change).

        Without this, a second allocation against a reused engine
        inherits the previous run's tail blocks and dsan state — stale
        θ accounting and false divergence reports.  Raises
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
        self._drain_futures(self._inflight.values())
        self._inflight.clear()
        self._shards = [RRSetPool(self.graph.num_nodes) for _ in self._shards]
        self._tail_blocks.clear()
        if self._dsan is not None:
            self._dsan = DsanRecorder(
                expected=self._dsan_expected, label=f"engine#{self._engine_id}"
            )
        self.backend_invocations = 0
        for sampler in self._samplers:
            sampler.num_sampled = 0

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
        included — which process mode fans across the worker pool;
        blocks are spliced back in ascending ``(ad, chunk)`` order
        regardless of completion order, so results are bit-identical for
        serial, 1-worker, and N-worker execution.
        """
        cleaned: dict[int, int] = {}
        for ad, count in requests.items():
            ad, count = int(ad), int(count)
            if not 0 <= ad < self.num_ads:
                raise ConfigurationError(f"ad {ad} out of range [0, {self.num_ads})")
            if count < 0:
                raise ConfigurationError(f"count must be >= 0, got {count} for ad {ad}")
            if count:
                cleaned[ad] = count
        if not cleaned:
            return
        tasks: list[tuple[int, int, int, int]] = []
        for ad in sorted(cleaned):
            start = self._shards[ad].num_total
            for chunk_index, lo, hi in self._plans[ad].chunk_tasks(
                start, start + cleaned[ad]
            ):
                tasks.append((ad, chunk_index, lo, hi))
        self._dispatch_tasks(tasks)

    def _dispatch_tasks(self, tasks: list[tuple[int, int, int, int]]) -> None:
        """Execution seam: route a decomposed ``(ad, chunk, lo, hi)``
        task list to a substrate.  The base engine picks between the
        in-process path and the worker pool; subclasses (the distributed
        engine, :mod:`repro.dist`) override this single method to scatter
        the same tasks elsewhere — splice order, dsan recording, and the
        cache write-through all live above this seam, so every substrate
        is byte-identical by construction."""
        # A closed engine has no pool or payload left — serve in-process.
        # (A closed engine also has no in-flight futures: close drained
        # them.)  Any in-flight prefetch future matching a task must be
        # harvested through the pool path even for single-task requests.
        needs_pool = len(tasks) > 1 or any(
            (ad, chunk) in self._inflight for ad, chunk, _, _ in tasks
        )
        use_pool = (
            self.engine == "process" and needs_pool and self._finalizer.alive
        )
        if use_pool and self._start_method is None:
            if not self._warned_degraded:
                self._warned_degraded = True
                self._warn_degraded()
            use_pool = False
        if use_pool:
            self._run_tasks_process(tasks)
        else:
            self._run_tasks_serial(tasks)

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
        needed — and one never consumed is discarded (its segment
        unlinked) at :meth:`close`.

        No-op (returns 0) for serial engines, degraded or closed
        engines, and for chunks already pooled, cached, or in flight.
        """
        extras = self._targets_to_extras(targets)
        if (
            self.engine != "process"
            or self._start_method is None
            or not self._finalizer.alive
            or not extras
        ):
            return 0
        submitted = 0
        executor = None
        for ad in sorted(extras):
            start = self._shards[ad].num_total
            for chunk_index, _, _ in self._plans[ad].chunk_tasks(
                start, start + extras[ad]
            ):
                key = (ad, chunk_index)
                if (
                    key in self._inflight
                    or self._cached_block(ad, chunk_index) is not None
                    or (
                        self._cache is not None
                        and self._cache.has(self._shard_keys[ad], chunk_index)
                    )
                ):
                    continue
                if executor is None:
                    # Lazy: a fully cache-warm prefetch spawns no pool.
                    executor = self._ensure_executor()
                self._inflight[key] = executor.submit(
                    _worker_sample_chunk, self._engine_id, ad, chunk_index,
                    self.transport,
                )
                self.backend_invocations += 1
                submitted += 1
        return submitted

    def _targets_to_extras(self, targets: Mapping[int, int]) -> dict[int, int]:
        extras: dict[int, int] = {}
        for ad, target in targets.items():
            ad, target = int(ad), int(target)
            if not 0 <= ad < self.num_ads:
                raise ConfigurationError(f"ad {ad} out of range [0, {self.num_ads})")
            if target < 0:
                raise ConfigurationError(
                    f"target must be >= 0, got {target} for ad {ad}"
                )
            current = self._shards[ad].num_total
            if target > current:
                extras[ad] = target - current
        return extras

    def _cached_block(self, ad: int, chunk_index: int):
        cached = self._tail_blocks.get(ad)
        if cached is not None and cached[0] == chunk_index:
            return cached[1]
        if self._retain_blocks:
            return self._block_memo.get((ad, chunk_index))
        return None

    def _retain_block(
        self, ad: int, chunk_index: int, block, *, copy: bool = False
    ) -> None:
        """Memoize a full chunk block for the resident-engine memo (see
        ``retain_blocks``); ``copy`` when the arrays view a buffer that
        dies with the caller (cache entry, shm segment)."""
        if not self._retain_blocks:
            return
        if copy:
            block = (block[0].copy(), block[1].copy())
        self._block_memo[(ad, chunk_index)] = block

    def _store_chunk(self, ad: int, chunk_index: int, block) -> None:
        """Write one freshly computed *full* chunk block through to the
        shard cache (no-op without one; write failures warn once inside
        the cache and never fail the run)."""
        if self._cache is not None:
            self._cache.store(
                self._shard_keys[ad], chunk_index, block[0], block[1],
                meta=self._cache_meta[ad],
            )

    def _splice_from_cache(
        self, ad: int, chunk_index: int, lo: int, hi: int
    ) -> bool:
        """Serve sets ``[lo, hi)`` of a chunk from the shard cache.

        The load verifies the entry against its stored digest
        (:meth:`repro.store.ShardCache.load`); a verified block is
        spliced through the pool's single-copy buffer path — the same
        splice the shm transport uses — and recorded with dsan exactly
        like a computed block.  Returns ``False`` on miss or quarantined
        corruption, and the caller recomputes: the cache can only ever
        save work, never change bytes."""
        entry = self._cache.load(self._shard_keys[ad], chunk_index)
        if entry is None:
            return False
        try:
            if entry.num_sets != self.chunk_size:
                # Impossible under the key schema (chunk size is part of
                # the key); refuse to splice rather than trust it.
                return False
            if self._dsan is not None:
                self._dsan.record(ad, chunk_index, entry.members, entry.lengths)
            self._retain_block(
                ad, chunk_index, (entry.members, entry.lengths), copy=True
            )
            bounds = np.zeros(entry.num_sets + 1, dtype=np.int64)
            np.cumsum(entry.lengths, out=bounds[1:])
            self._shards[ad].add_flat_from_buffer(
                entry.buffer,
                num_sets=hi - lo,
                num_members=int(bounds[hi] - bounds[lo]),
                lengths_offset=entry.lengths_offset + lo * _LENGTH_ITEMSIZE,
                members_offset=(
                    entry.members_offset + int(bounds[lo]) * _MEMBER_ITEMSIZE
                ),
            )
            self._samplers[ad].num_sampled += hi - lo
            if hi < self.chunk_size:
                # The tail cache must own its block: the mapping dies now.
                self._tail_blocks[ad] = (
                    chunk_index, (entry.members.copy(), entry.lengths.copy())
                )
            else:
                self._tail_blocks.pop(ad, None)
            return True
        finally:
            entry.release()

    def _splice_block(
        self, ad: int, chunk_index: int, lo: int, hi: int, block
    ) -> None:
        """Append sets ``[lo, hi)`` of the chunk to the ad's shard and
        cache the block when the chunk is still partially consumed."""
        if self._dsan is not None:
            # Digest the *full* chunk block (workers always compute whole
            # chunks), so serial, pickle, shm and tail-cache arrivals of
            # the same chunk hash the same bytes by construction.
            self._dsan.record(ad, chunk_index, block[0], block[1])
        self._retain_block(ad, chunk_index, block)
        members, lengths = _slice_flat(block[0], block[1], lo, hi)
        self._shards[ad].add_flat(members, lengths)
        self._samplers[ad].num_sampled += hi - lo
        if hi < self.chunk_size:
            self._tail_blocks[ad] = (chunk_index, block)
        else:
            self._tail_blocks.pop(ad, None)

    def _splice_segment(
        self, ad: int, chunk_index: int, lo: int, hi: int,
        name: str, num_sets: int, num_members: int,
    ) -> None:
        """Shm-transport splice: attach a worker-published segment,
        append sets ``[lo, hi)`` straight out of it through the pool's
        single-copy buffer path, and retire the segment.  Exactly one
        unlink per segment, on success and error paths alike."""
        segment = shared_memory.SharedMemory(name=name)
        closed = False
        try:
            lengths = np.frombuffer(
                segment.buf, dtype=_LENGTH_DTYPE, count=num_sets
            )
            bounds = np.zeros(num_sets + 1, dtype=np.int64)
            np.cumsum(lengths, out=bounds[1:])
            members_offset = num_sets * _LENGTH_ITEMSIZE
            if self._dsan is not None:
                # Same full-chunk digest as _splice_block, straight off
                # the segment (zero-copy views; a divergence raises here
                # and the finally below still retires the segment).
                members_view = np.frombuffer(
                    segment.buf, dtype=MEMBER_DTYPE, count=num_members,
                    offset=members_offset,
                )
                try:
                    self._dsan.record(ad, chunk_index, members_view, lengths)
                finally:
                    del members_view
            if self._cache is not None:
                # Write-through straight off the segment (zero-copy
                # views; write_block serializes without keeping refs, so
                # the finally below can still retire the segment).
                members_view = np.frombuffer(
                    segment.buf, dtype=MEMBER_DTYPE, count=num_members,
                    offset=members_offset,
                )
                try:
                    self._store_chunk(ad, chunk_index, (members_view, lengths))
                finally:
                    del members_view
            if self._retain_blocks:
                # Same zero-copy view discipline: _retain_block copies
                # out of the segment, the view itself must die before
                # the finally below closes the mapping.
                members_view = np.frombuffer(
                    segment.buf, dtype=MEMBER_DTYPE, count=num_members,
                    offset=members_offset,
                )
                try:
                    self._retain_block(
                        ad, chunk_index, (members_view, lengths), copy=True
                    )
                finally:
                    del members_view
            self._shards[ad].add_flat_from_buffer(
                segment.buf,
                num_sets=hi - lo,
                num_members=int(bounds[hi] - bounds[lo]),
                lengths_offset=lo * _LENGTH_ITEMSIZE,
                members_offset=members_offset + int(bounds[lo]) * _MEMBER_ITEMSIZE,
            )
            self._samplers[ad].num_sampled += hi - lo
            if hi < self.chunk_size:
                # The tail cache must own its block: the segment dies now.
                members = np.frombuffer(
                    segment.buf, dtype=MEMBER_DTYPE, count=num_members,
                    offset=members_offset,
                )
                self._tail_blocks[ad] = (
                    chunk_index, (members.copy(), lengths.copy())
                )
                del members
            else:
                self._tail_blocks.pop(ad, None)
            del lengths, bounds
            segment.close()
            closed = True
        finally:
            if not closed:
                try:
                    segment.close()
                except BufferError:
                    # An exception left a live view (the traceback pins
                    # the frame); the mapping is reclaimed at GC — the
                    # unlink below still removes the segment itself.
                    pass
            try:
                segment.unlink()
            except (FileNotFoundError, OSError):
                pass

    def _run_tasks_serial(self, tasks: list[tuple[int, int, int, int]]) -> None:
        for ad, chunk_index, lo, hi in tasks:
            block = self._cached_block(ad, chunk_index)
            if block is None:
                if self._cache is not None and self._splice_from_cache(
                    ad, chunk_index, lo, hi
                ):
                    continue
                block = self._samplers[ad].sample_chunk_block(
                    self._plans[ad], chunk_index
                )
                self.backend_invocations += 1
                self._store_chunk(ad, chunk_index, block)
            self._splice_block(ad, chunk_index, lo, hi, block)

    def _run_tasks_process(self, tasks: list[tuple[int, int, int, int]]) -> None:
        executor = None
        blocks: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}
        pending: dict[tuple[int, int], Future] = {}
        cache_hits: set[tuple[int, int]] = set()
        try:
            for ad, chunk_index, lo, hi in tasks:
                key = (ad, chunk_index)
                inflight = self._inflight.pop(key, None)
                if inflight is not None:
                    pending[key] = inflight  # harvest prefetched work
                    continue
                block = self._cached_block(ad, chunk_index)
                if block is not None:
                    blocks[key] = block
                    continue
                if self._cache is not None and self._cache.has(
                    self._shard_keys[ad], chunk_index
                ):
                    # Submit-or-skip on a cheap existence probe; the
                    # splice loop below does the verified load (and
                    # recomputes in-process if the entry fails it).
                    cache_hits.add(key)
                    continue
                if executor is None:
                    # Lazy: a fully cache-warm request spawns no pool.
                    executor = self._ensure_executor()
                pending[key] = executor.submit(
                    _worker_sample_chunk, self._engine_id, ad, chunk_index,
                    self.transport,
                )
                self.backend_invocations += 1
            # Deterministic splice order (ascending ad, then chunk — the
            # order the task list was built in), independent of which
            # worker finished first.  Each result is consumed as soon as
            # *its* future resolves — no barrier on the whole batch.
            for ad, chunk_index, lo, hi in tasks:
                key = (ad, chunk_index)
                future = pending.pop(key, None)
                if future is None:
                    block = blocks.get(key)
                    if block is None and key in cache_hits:
                        if self._splice_from_cache(ad, chunk_index, lo, hi):
                            continue
                        # The probed entry vanished or failed its digest
                        # check: recompute in-process — correctness over
                        # throughput for a should-never-happen path.
                        block = self._samplers[ad].sample_chunk_block(
                            self._plans[ad], chunk_index
                        )
                        self.backend_invocations += 1
                        self._store_chunk(ad, chunk_index, block)
                    self._splice_block(ad, chunk_index, lo, hi, block)
                    continue
                result = future.result()
                if self.transport == "shm":
                    self._splice_segment(
                        ad, chunk_index, lo, hi, result[2], result[3], result[4]
                    )
                else:
                    block = (result[2], result[3])
                    self._store_chunk(ad, chunk_index, block)
                    self._splice_block(ad, chunk_index, lo, hi, block)
        except BaseException:
            # A failed batch (worker crash, submit error, splice error)
            # leaves the request partially applied; don't also leak the
            # worker pool or any published segments — drain what's still
            # pending here, then route through the idempotent close()
            # (which drains the prefetch ledger the same way).
            self._drain_futures(pending.values())
            self.close()
            raise

    def _drain_futures(self, futures) -> None:
        """Cancel-or-consume a set of in-flight futures: whatever cannot
        be cancelled is waited for, and (under the shm transport) its
        never-spliced segment is unlinked."""
        futures = list(futures)
        for future in futures:
            future.cancel()
        for future in futures:
            if future.cancelled():
                continue
            try:
                result = future.result()
            except BaseException:
                continue  # worker failed: _publish_block cleaned up
            if self.transport == "shm":
                _unlink_segment(result[2])

    # ------------------------------------------------------------------
    # Process-pool plumbing
    # ------------------------------------------------------------------
    @staticmethod
    def _fork_available() -> bool:
        return "fork" in multiprocessing.get_all_start_methods()

    @staticmethod
    def _shm_available() -> bool:
        return shared_memory is not None

    @classmethod
    def resolve_transport(cls, transport: str = "auto") -> str:
        """Resolve a transport knob to ``"shm"`` or ``"pickle"``.

        ``"auto"`` picks shm where :mod:`multiprocessing.shared_memory`
        is available; an explicit ``"shm"`` without it raises
        :class:`~repro.errors.ConfigurationError`.
        """
        if transport not in TRANSPORT_MODES:
            raise ConfigurationError(
                f"transport must be one of {TRANSPORT_MODES}, got {transport!r}"
            )
        if transport == "pickle":
            return "pickle"
        if cls._shm_available():
            return "shm"
        if transport == "shm":
            raise ConfigurationError(
                "transport='shm' needs multiprocessing.shared_memory, which "
                "is unavailable on this platform; use transport='pickle'"
            )
        return "pickle"

    @classmethod
    def _resolve_start_method(cls, requested: str) -> str | None:
        """Resolve the start-method knob to ``"fork"``/``"spawn"``, or
        ``None`` when no usable method exists (degrade to serial)."""
        methods = multiprocessing.get_all_start_methods()
        if requested in ("auto", "fork") and cls._fork_available():
            return "fork"
        # Spawn ships the payload through a shared-memory arena; without
        # shared memory it would pay a per-worker graph pickle, so it
        # degrades instead (the historical no-fork behavior).
        if (
            requested in ("auto", "spawn")
            and "spawn" in methods
            and cls._shm_available()
        ):
            return "spawn"
        return None

    def _spawn_initargs(self) -> tuple:
        """Build (once) the spawn payload arena — graph in-CSR + per-ad
        canonical probability rows — and return the executor initializer
        arguments describing it."""
        if self._resources["arena"] is None:
            parts = _payload_parts(self.graph, self._samplers)
            layout, total = _payload_layout(parts)
            arena = shared_memory.SharedMemory(create=True, size=total)  # reprolint: disable=R104 -- arena outlives this call by design; _release_engine_resources owns the single unlink (close/GC-finalizer), the error path below unlinks locally
            try:
                for (key, dtype, count, off), (_, array) in zip(layout, parts):
                    np.frombuffer(
                        arena.buf, dtype=np.dtype(dtype), count=count, offset=off
                    )[:] = array
            except BaseException:
                arena.close()
                arena.unlink()
                raise
            self._resources["arena"] = arena
            self._arena_layout = layout
        backend_spec = (
            self.backend.name
            if self.backend.name in ("numpy", "numba")
            else self.backend
        )
        return (
            self._engine_id,
            self._resources["arena"].name,
            self._arena_layout,
            (self.graph.num_nodes, self.graph.num_edges, self.num_ads),
            tuple(self._entropies),
            self.chunk_size,
            backend_spec,
        )

    def _ensure_executor(self) -> ProcessPoolExecutor:
        executor = self._resources["executor"]
        if executor is None:
            workers = self._max_workers
            if workers is None:
                workers = max(1, os.cpu_count() or 1)
            if self.transport == "shm":
                # Start the parent's resource tracker *before* the pool exists
                # so every worker (fork children inherit it; spawn children
                # receive its fd) reports segment register/unregister events to
                # the same tracker process.  Without this, each fork child
                # lazily launches a private tracker on its first segment
                # create, and that tracker warns about "leaked" segments at
                # shutdown because the parent's unlink was reported elsewhere.
                from multiprocessing import resource_tracker

                resource_tracker.ensure_running()
            context = multiprocessing.get_context(self._start_method)
            if self._start_method == "spawn":
                executor = ProcessPoolExecutor(
                    max_workers=workers,
                    mp_context=context,
                    initializer=_spawn_worker_init,
                    initargs=self._spawn_initargs(),
                )
            else:
                executor = ProcessPoolExecutor(
                    max_workers=workers, mp_context=context
                )
            self._resources["executor"] = executor
        return executor

    def close(self) -> None:
        """Cancel in-flight prefetch futures, shut down the worker pool,
        retire every engine-owned shared-memory segment, and release the
        payload.

        Idempotent and exception-safe: the teardown callback is shared
        with the GC finalizer and runs at most once however many times
        it is triggered, and every segment is unlinked exactly once.
        """
        if self._finalizer.alive:
            self._finalizer()

    def __enter__(self) -> "ShardedSamplingEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _warn_degraded(self) -> None:
        # The engine id makes the message unique per instance, so the
        # warnings registry's once-per-location dedup cannot swallow the
        # warning for every engine after the first in a process.
        warnings.warn(
            f"no usable process start method (fork unavailable, spawn needs "
            f"shared memory); ShardedSamplingEngine #{self._engine_id} "
            f"(engine='process') will sample serially",
            RuntimeWarning,
            stacklevel=4,
        )

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(h={self.num_ads}, engine={self.engine!r}, "
            f"chunk_size={self.chunk_size}, backend={self.backend_name!r}, "
            f"transport={self.transport!r}, total_sets={self.total_sets()})"
        )
