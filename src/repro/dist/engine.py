"""The engine seam over remote workers: :class:`DistributedEngine`.

A :class:`~repro.rrset.sharded.ShardedSamplingEngine` whose substrate is
a socket fleet: the engine's one chunk path — scatter, gather in
ascending ``(ad, chunk)`` order, splice, dsan recording, tail memo,
shard cache write-through — runs unchanged, and only *where a chunk is
computed* differs.  :class:`_Fleet` implements the substrate seam
(``submit`` / ``collect`` / ``drain``) over a
:class:`~repro.dist.coordinator.Coordinator` session, so serial,
process-pool, and distributed runs are byte-identical by construction.
``TIRMAllocator``, the allocation session, checkpointing, and the
service tier run on it unchanged.

Fallback guarantee: a future that fails because the fleet is empty
(:class:`~repro.dist.coordinator.WorkersUnavailableError`) or a chunk
exhausted its retries (:class:`~repro.dist.coordinator.TaskFailedError`)
is computed locally from the engine's own chunk source (warning once
per run) — the same pure ``(entropy, ad, chunk)`` function the worker
would have evaluated, so an allocation always completes with identical
bytes.

Topology — worker count, worker backends, placement, the retry
schedule — is provenance, not contract: :meth:`dist_stats` feeds the
run's stats/provenance, and nothing in it can change a shard byte.
"""

from __future__ import annotations

import warnings
from typing import Mapping, Sequence

from repro.dist.coordinator import (
    Coordinator,
    TaskFailedError,
    WorkersUnavailableError,
)
from repro.errors import ConfigurationError
from repro.graph.digraph import DirectedGraph
from repro.rrset.sharded import ChunkSubstrate, ShardedSamplingEngine, _Block

#: Coordinator spec keys accepted when the engine builds (and owns) its
#: own coordinator from a dict instead of borrowing an instance.
_COORDINATOR_SPEC_KEYS = frozenset({
    "host", "port", "allow_remote", "task_timeout", "max_retries",
    "worker_grace", "max_frame_bytes",
})


class _Fleet(ChunkSubstrate):
    """The socket-fleet substrate: chunks are tasks of one coordinator
    session; a chunk the fleet cannot deliver is computed locally."""

    def __init__(self, coordinator, session_id, owned, source, label) -> None:
        self.coordinator = coordinator
        self.session_id = session_id
        self._owned = owned
        self._source = source
        self._label = label
        #: Run-scoped: chunks computed locally, and whether that warned.
        self.fallbacks = 0
        self.warned = False

    def submit(self, ad: int, chunk_index: int):
        return self.coordinator.submit(self.session_id, ad, chunk_index)

    def collect(self, ad: int, chunk_index: int, future) -> _Block:
        try:
            return super().collect(ad, chunk_index, future)
        except (WorkersUnavailableError, TaskFailedError) as exc:
            if not self.warned:
                self.warned = True
                warnings.warn(
                    f"{self._label}: remote chunk (ad={ad}, "
                    f"chunk={chunk_index}) failed ({exc}); computing "
                    f"locally — results are byte-identical, only the substrate "
                    f"changed",
                    RuntimeWarning,
                    stacklevel=5,
                )
            self.fallbacks += 1
            return _Block(*self._source.block(ad, chunk_index))

    def close(self) -> None:
        """Release the payload held by the coordinator — and the
        coordinator itself when the engine built it from a spec (a
        borrowed coordinator belongs to the caller)."""
        try:
            self.coordinator.release_session(self.session_id)
        except Exception:  # pragma: no cover - teardown must not raise
            pass
        if self._owned:
            try:
                self.coordinator.close()
            except Exception:  # pragma: no cover - teardown must not raise
                pass


class DistributedEngine(ShardedSamplingEngine):
    """Chunk-parallel sampling over socket workers.

    Parameters (beyond the base engine's)
    -------------------------------------
    coordinator:
        A started (or startable) :class:`~repro.dist.Coordinator`
        instance — *borrowed*: the caller owns its lifetime — or a spec
        dict (``{"host": ..., "port": ..., ...}``) from which the
        engine builds a coordinator it owns and closes.

    ``max_workers`` is accepted like on the base engine but sizes
    nothing here: the fleet is however many workers dial in.
    """

    _engine_modes = ("dist",)
    transport = "socket"

    def __init__(
        self,
        graph: DirectedGraph,
        probs_per_ad: Sequence,
        *,
        coordinator,
        engine: str = "dist",
        **engine_kwargs,
    ) -> None:
        super().__init__(graph, probs_per_ad, engine=engine, **engine_kwargs)
        # Shard keys always exist on a distributed engine (the base only
        # derives them when a cache is configured): workers need them to
        # consult their *local* caches, and they cost one graph digest.
        if self._shard_keys is None:
            self._init_shard_keys()
        owned = False
        try:
            coordinator, owned = self._resolve_coordinator(coordinator)
            session_id = coordinator.register_session(*self._session_payload())
        except BaseException:
            if owned:
                coordinator.close()
            self.close()
            raise
        # The finalizer's resources dict is shared by reference, so the
        # session release rides the same idempotent teardown as every
        # other engine resource (close / GC, whichever comes first).
        self._substrate = self._resources["substrate"] = _Fleet(
            coordinator, session_id, owned, self._source,
            f"DistributedEngine #{self._engine_id}",
        )

    # Shared body; kept in this class's own ``__dict__`` because the
    # benchmark's traced pass (``bench/layers.py``) wraps it there.
    prefetch = ShardedSamplingEngine.prefetch

    def reset_for_reuse(self) -> None:
        super().reset_for_reuse()
        self._substrate.fallbacks = 0
        self._substrate.warned = False

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
        kinds rebuild identical chunk sources."""
        from repro.utils.hashing import graph_digest

        layout, total = self._source.layout()
        payload = bytearray(total)
        self._source.write_into(payload, layout)
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

    # ------------------------------------------------------------------
    # Provenance
    # ------------------------------------------------------------------
    @property
    def coordinator(self) -> Coordinator:
        return self._substrate.coordinator

    @property
    def session_id(self) -> int:
        return self._substrate.session_id

    def dist_stats(self) -> dict:
        """Coordinator counters + this engine's local fallbacks — the
        topology provenance recorded in allocation stats.  Nothing in
        here can change a byte of any shard."""
        stats = self.coordinator.stats()
        stats["session"] = self.session_id
        stats["local_fallbacks"] = self._substrate.fallbacks
        return stats
