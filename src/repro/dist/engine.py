"""The engine seam over remote workers: :class:`DistributedEngine`.

A :class:`~repro.rrset.sharded.ShardedSamplingEngine` subclass that
overrides exactly one execution seam (``_dispatch_tasks``) plus
``prefetch``: chunk tasks are scattered to a
:class:`~repro.dist.coordinator.Coordinator` instead of a process pool,
and verified blocks are spliced back through the *same* parent-side
machinery — splice order, dsan recording, tail-block caching, shard
cache write-through — so serial, process-pool, and distributed runs are
byte-identical by construction.  ``TIRMAllocator``, the allocation
session, checkpointing, and the service tier run on it unchanged.

Fallback guarantee: a future that fails because the fleet is empty
(:class:`~repro.dist.coordinator.WorkersUnavailableError`) or a chunk
exhausted its retries (:class:`~repro.dist.coordinator.TaskFailedError`)
is computed locally with the engine's own samplers (warning once) —
the same pure ``(entropy, ad, chunk)`` function the worker would have
evaluated, so an allocation always completes with identical bytes.

Topology — worker count, worker backends, placement, the retry
schedule — is provenance, not contract: :meth:`dist_stats` feeds the
run's stats/provenance, and nothing in it can change a shard byte.
"""

from __future__ import annotations

import warnings
from typing import Mapping, Sequence

import numpy as np

from repro.dist.coordinator import (
    Coordinator,
    TaskFailedError,
    WorkersUnavailableError,
)
from repro.errors import ConfigurationError
from repro.graph.digraph import DirectedGraph
from repro.rrset.sampler import DEFAULT_CHUNK_SIZE
from repro.rrset.sharded import (
    ShardedSamplingEngine,
    _payload_layout,
    _payload_parts,
)

#: Coordinator spec keys accepted when the engine builds (and owns) its
#: own coordinator from a dict instead of borrowing an instance.
_COORDINATOR_SPEC_KEYS = frozenset({
    "host", "port", "allow_remote", "task_timeout", "max_retries",
    "worker_grace", "max_frame_bytes",
})


class DistributedEngine(ShardedSamplingEngine):
    """Chunk-parallel sampling over socket workers.

    Parameters (beyond the base engine's)
    -------------------------------------
    coordinator:
        A started (or startable) :class:`~repro.dist.Coordinator`
        instance — *borrowed*: the caller owns its lifetime — or a spec
        dict (``{"host": ..., "port": ..., ...}``) from which the
        engine builds a coordinator it owns and closes.
    """

    def __init__(
        self,
        graph: DirectedGraph,
        probs_per_ad: Sequence,
        *,
        coordinator,
        seeds=None,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        backend="numpy",
        dsan: bool | None = None,
        dsan_expected: Mapping | None = None,
        cache=None,
        retain_blocks: bool = False,
        max_workers: int | None = None,
    ) -> None:
        # max_workers is accepted (the allocator passes its knob through)
        # but meaningless here: fleet size is however many workers dial
        # in — topology is provenance, not contract.
        del max_workers
        super().__init__(
            graph, list(probs_per_ad), seeds=seeds,
            engine="serial", chunk_size=chunk_size,
            backend=backend, transport="pickle", start_method="auto",
            dsan=dsan, dsan_expected=dsan_expected, cache=cache,
            retain_blocks=retain_blocks,
        )
        # Provenance strings: the base init validated its own knobs; the
        # distributed engine reports what it actually is.
        self.engine = "dist"
        self.transport = "socket"
        self._resources["transport"] = "socket"
        self._fallback_invocations = 0
        self._warned_fallback = False
        # Shard keys always exist on a distributed engine (the base only
        # derives them when a cache is configured): workers need them to
        # consult their *local* caches, and they cost one graph digest.
        if self._shard_keys is None:
            self._init_shard_keys()
        owned = False
        try:
            coordinator, owned = self._resolve_coordinator(coordinator)
            meta, payload = self._session_payload()
            self._session_id = coordinator.register_session(meta, payload)
        except BaseException:
            if owned:
                coordinator.close()
            self.close()
            raise
        self._coordinator = coordinator
        # The finalizer's resources dict is shared by reference, so the
        # session release rides the same idempotent teardown as every
        # other engine resource (close / GC, whichever comes first).
        self._resources["dist"] = (coordinator, self._session_id, owned)

    # ------------------------------------------------------------------
    # Session plumbing
    # ------------------------------------------------------------------
    @staticmethod
    def _resolve_coordinator(coordinator) -> tuple[Coordinator, bool]:
        if isinstance(coordinator, Coordinator):
            return coordinator.start(), False
        if isinstance(coordinator, Mapping):
            unknown = set(coordinator) - _COORDINATOR_SPEC_KEYS
            if unknown:
                raise ConfigurationError(
                    f"unknown coordinator spec keys {sorted(unknown)}; "
                    f"expected a subset of {sorted(_COORDINATOR_SPEC_KEYS)}"
                )
            return Coordinator(**coordinator).start(), True
        raise ConfigurationError(
            f"coordinator must be a repro.dist.Coordinator or a spec dict, "
            f"got {type(coordinator).__name__}"
        )

    def _session_payload(self) -> tuple[dict, bytes]:
        """The session's SETUP meta + flat PAYLOAD bytes — the same
        arrays, layout, and alignment as the spawn arena, so both worker
        substrates rebuild identical views."""
        from repro.utils.hashing import graph_digest

        parts = _payload_parts(self.graph, self._samplers)
        layout, total = _payload_layout(parts)
        payload = bytearray(total)
        for (key, dtype, count, offset), (_, array) in zip(layout, parts):
            np.frombuffer(
                payload, dtype=np.dtype(dtype), count=count, offset=offset
            )[:] = array
        meta = {
            "num_nodes": int(self.graph.num_nodes),
            "num_edges": int(self.graph.num_edges),
            "h": self.num_ads,
            "entropies": [int(e) for e in self._entropies],
            "chunk_size": self.chunk_size,
            "graph_digest": graph_digest(self.graph),
            "shard_keys": list(self._shard_keys),
            "layout": layout,
        }
        return meta, bytes(payload)

    def _submit_remote(self, ad: int, chunk_index: int):
        # Remote submits are backend invocations performed on this run's
        # behalf (the process engine counts submits the same way); a
        # warm cache keeps this at zero because cached chunks are never
        # submitted.
        self.backend_invocations += 1
        return self._coordinator.submit(self._session_id, ad, chunk_index)

    def _compute_fallback(self, ad: int, chunk_index: int, exc) -> tuple:
        if not self._warned_fallback:
            self._warned_fallback = True
            warnings.warn(
                f"DistributedEngine #{self._engine_id}: remote chunk "
                f"(ad={ad}, chunk={chunk_index}) failed ({exc}); computing "
                f"locally — results are byte-identical, only the substrate "
                f"changed",
                RuntimeWarning,
                stacklevel=4,
            )
        self._fallback_invocations += 1
        return self._samplers[ad].sample_chunk_block(self._plans[ad], chunk_index)

    # ------------------------------------------------------------------
    # The execution seam
    # ------------------------------------------------------------------
    def _dispatch_tasks(self, tasks: list[tuple[int, int, int, int]]) -> None:
        # A closed engine has no session left — serve in-process, like
        # the base engine serves a closed process engine serially.
        if not self._finalizer.alive:
            self._run_tasks_serial(tasks)
            return
        self._run_tasks_remote(tasks)

    def _run_tasks_remote(self, tasks: list[tuple[int, int, int, int]]) -> None:
        """The distributed analogue of ``_run_tasks_process``: harvest
        in-flight prefetches, serve memo/cache hits locally, scatter the
        rest to the fleet, splice in ascending ``(ad, chunk)`` order."""
        blocks: dict[tuple[int, int], tuple] = {}
        pending: dict[tuple[int, int], object] = {}
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
                    cache_hits.add(key)
                    continue
                pending[key] = self._submit_remote(ad, chunk_index)
            # Deterministic splice order (ascending ad, then chunk),
            # independent of which worker answered first — same
            # discipline as the process pool.
            for ad, chunk_index, lo, hi in tasks:
                key = (ad, chunk_index)
                future = pending.pop(key, None)
                if future is None:
                    block = blocks.get(key)
                    if block is None and key in cache_hits:
                        if self._splice_from_cache(ad, chunk_index, lo, hi):
                            continue
                        block = self._samplers[ad].sample_chunk_block(
                            self._plans[ad], chunk_index
                        )
                        self.backend_invocations += 1
                        self._store_chunk(ad, chunk_index, block)
                    self._splice_block(ad, chunk_index, lo, hi, block)
                    continue
                try:
                    members, lengths = future.result()
                except (WorkersUnavailableError, TaskFailedError) as exc:
                    block = self._compute_fallback(ad, chunk_index, exc)
                else:
                    block = (members, lengths)
                self._store_chunk(ad, chunk_index, block)
                self._splice_block(ad, chunk_index, lo, hi, block)
        except BaseException:
            self._drain_futures(pending.values())
            self.close()
            raise

    def prefetch(self, targets: Mapping[int, int]) -> int:
        """Speculatively scatter upcoming chunks to the fleet (the
        distributed analogue of the process engine's prefetch); returns
        how many tasks were submitted.  No-op on a closed engine and
        for chunks already pooled, memoized, cached, or in flight."""
        extras = self._targets_to_extras(targets)
        if not self._finalizer.alive or not extras:
            return 0
        submitted = 0
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
                self._inflight[key] = self._submit_remote(ad, chunk_index)
                submitted += 1
        return submitted

    # ------------------------------------------------------------------
    # Provenance
    # ------------------------------------------------------------------
    @property
    def coordinator(self) -> Coordinator:
        return self._coordinator

    @property
    def session_id(self) -> int:
        return self._session_id

    def dist_stats(self) -> dict:
        """Coordinator counters + this engine's local fallbacks — the
        topology provenance recorded in allocation stats.  Nothing in
        here can change a byte of any shard."""
        stats = self._coordinator.stats()
        stats["session"] = self._session_id
        stats["local_fallbacks"] = self._fallback_invocations
        return stats
