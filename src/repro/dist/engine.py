"""The fleet: the one fan-out substrate of the sharded engine.

:class:`_Fleet` implements the engine's substrate seam (``submit`` /
``collect`` / ``drain``) over a
:class:`~repro.dist.coordinator.Coordinator` session; the engine's one
chunk path (scatter, ordered gather, splice, dsan, cache write-through)
runs unchanged, so serial, process and distributed runs
are byte-identical by construction.  Its workers come two ways and
speak the same frames, digests and retries: ``max_workers`` children
forked at the first submit, each on a ``socketpair`` a private
coordinator adopts (:class:`_LocalFleet`, ``engine="process"``), or
``repro worker`` processes dialling the TCP listener of a caller-owned
coordinator the fleet registers one session on (:meth:`_Fleet.register`,
``engine="dist"``).  The engine builds either on the same line.

Fallback guarantee: a future that fails because the fleet is empty
(:class:`~repro.dist.coordinator.WorkersUnavailableError`) or a chunk
exhausted its retries (:class:`~repro.dist.coordinator.TaskFailedError`)
is computed locally from the engine's own chunk source (warning once
per run) — the same pure ``(entropy, ad, chunk)`` function the worker
would have evaluated, so an allocation always completes with identical
bytes.

Topology — worker count, placement, the retry schedule — is
provenance, not contract: :meth:`_Fleet.stats` feeds the run's
stats/provenance
(:meth:`~repro.rrset.sharded.ShardedSamplingEngine.dist_stats`), and
nothing in it can change a shard byte.
"""

from __future__ import annotations

import os
import signal
import socket
import time
import warnings

import numpy as np

from repro.dist.coordinator import (
    Coordinator,
    TaskFailedError,
    WorkersUnavailableError,
)
from repro.dist.worker import serve_forked
from repro.errors import ConfigurationError
from repro.rrset.block import Block
from repro.rrset.sharded import ChunkSubstrate, ShardedSamplingEngine

#: Seconds a forked fleet may sit without a live child before its queued
#: chunks fall back to the parent: it has no listener, so nobody can join.
_LOCAL_GRACE = 1.0

#: Seconds ``close()`` gives forked children to exit after SHUTDOWN
#: before they are killed.
_REAP_GRACE = 5.0


class _Fleet(ChunkSubstrate):
    """The fleet substrate: chunks are tasks of one coordinator session;
    a chunk the fleet cannot deliver is computed locally."""

    transport = "socket"

    def __init__(self, coordinator, session_id, source, label) -> None:
        self.coordinator = coordinator
        self.session_id = session_id
        self._source = source
        self._label = label
        #: Run-scoped: chunks computed locally, and whether that warned.
        self.fallbacks = 0
        self.warned = False

    @classmethod
    def register(cls, coordinator, source, shard_keys, graph_hash, label) -> "_Fleet":
        """``engine="dist"``: start the caller's coordinator if need be and
        register one session on it — the SETUP meta and flat PAYLOAD a
        dialled worker rebuilds ``source`` from, plus the ``shard_keys``
        its local cache is addressed by."""
        if not isinstance(coordinator, Coordinator):
            raise ConfigurationError(
                f"coordinator must be a repro.dist.Coordinator, got "
                f"{type(coordinator).__name__}"
            )
        session_id = coordinator.start().register_session(
            *_session_payload(source, shard_keys, graph_hash)
        )
        return cls(coordinator, session_id, source, label)

    def submit(self, ad: int, chunk_index: int):
        return self.coordinator.submit(self.session_id, ad, chunk_index)

    def collect(self, ad: int, chunk_index: int, future) -> Block:
        try:
            return super().collect(ad, chunk_index, future)
        except (WorkersUnavailableError, TaskFailedError) as exc:
            if not self.warned:
                self.warned = True
                warnings.warn(
                    f"{self._label}: fleet chunk (ad={ad}, "
                    f"chunk={chunk_index}) failed ({exc}); computing "
                    f"locally — results are byte-identical, only the substrate "
                    f"changed",
                    RuntimeWarning,
                    stacklevel=5,
                )
            self.fallbacks += 1
            return self._source.block(ad, chunk_index)

    def reset(self) -> None:
        self.fallbacks = 0
        self.warned = False

    def stats(self) -> dict:
        """Coordinator counters + this session and its local fallbacks —
        the topology provenance recorded in allocation stats.  Nothing in
        here can change a byte of any shard."""
        stats = self.coordinator.stats()
        stats["session"] = self.session_id
        stats["local_fallbacks"] = self.fallbacks
        return stats

    def close(self) -> None:
        """Release the payload the coordinator holds for this session;
        the coordinator itself belongs to the caller."""
        try:
            self.coordinator.release_session(self.session_id)
        except Exception:  # pragma: no cover - teardown must not raise
            pass


class _LocalFleet(_Fleet):
    """``engine="process"``: ``max_workers`` forked children behind a
    private coordinator that never binds.

    The first submit forks every child — before any coordinator thread
    exists — and only then adopts the parent ends.  A child serves the
    chunk source it inherited (:func:`~repro.dist.worker.serve_forked`),
    so no SETUP or PAYLOAD ever crosses a pair.  :meth:`close` has the
    coordinator send SHUTDOWN, then reaps every child.  Without
    ``os.fork`` the parent computes every chunk and warns once.
    """

    def __init__(self, source, max_workers, label) -> None:
        super().__init__(None, None, source, label)
        self.start_method = "fork" if hasattr(os, "fork") else None
        self.transport = "socket" if self.start_method else "inline"
        self.max_workers = max_workers or os.cpu_count() or 1
        #: The forked children, in fork order (empty until the first
        #: submit, and again once reaped).
        self.pids: list[int] = []
        self._warned_inline = False

    @property
    def executor(self) -> Coordinator | None:
        """The private coordinator; ``None`` until the first submit."""
        return self.coordinator

    def submit(self, ad: int, chunk_index: int):
        if self.start_method is None:
            if not self._warned_inline:
                self._warned_inline = True
                # The label makes the message unique per engine, so the
                # warnings registry cannot swallow it after the first.
                warnings.warn(
                    f"no usable process start method (os.fork is unavailable); "
                    f"{self._label} (engine='process') will sample serially",
                    RuntimeWarning,
                    stacklevel=4,
                )
            return None
        if self.coordinator is None:
            self._fork()
        return super().submit(ad, chunk_index)

    def _fork(self) -> None:
        coordinator = Coordinator(worker_grace=_LOCAL_GRACE)
        session_id = coordinator.register_session({}, b"")
        pairs = [socket.socketpair() for _ in range(self.max_workers)]
        ends = [end for pair in pairs for end in pair]
        try:
            for _, child_end in pairs:
                pid = os.fork()
                if pid == 0:
                    serve_forked(child_end, ends, session_id, self._source)
                self.pids.append(pid)
            for parent_end, child_end in pairs:
                child_end.close()
                coordinator.adopt(parent_end, announced=(session_id,))
        except BaseException:
            for end in ends:
                end.close()
            coordinator.close()
            self._reap()
            raise
        self.coordinator, self.session_id = coordinator, session_id

    def close(self) -> None:
        """Close the private coordinator (SHUTDOWN to every child), then
        reap the children."""
        if self.coordinator is not None:
            try:
                self.coordinator.close()
            except Exception:  # pragma: no cover - teardown must not raise
                pass
        self._reap()

    def _reap(self) -> None:
        """Wait for every child; one still running ``_REAP_GRACE``
        seconds after SHUTDOWN (or its pair closing) is killed."""
        deadline = time.monotonic() + _REAP_GRACE
        for pid in self.pids:
            try:
                while not os.waitpid(pid, os.WNOHANG)[0]:
                    if time.monotonic() > deadline:
                        os.kill(pid, signal.SIGKILL)
                        os.waitpid(pid, 0)
                        break
                    time.sleep(0.005)
            except ChildProcessError:  # pragma: no cover - reaped elsewhere
                pass
        self.pids.clear()


def _session_payload(source, shard_keys, graph_hash) -> tuple[dict, bytearray]:
    """A session's SETUP meta + flat PAYLOAD bytes — the graph in-CSR and
    one probability row per ad, each 8-byte aligned at the ``(key,
    dtype, count, offset)`` its ``layout`` entry names — from which a
    dialled worker rebuilds ``source``.  ``graph_hash`` is the digest
    the shard keys were derived from, so the graph is hashed once."""
    arrays = {
        key: getattr(source.graph, key)
        for key in ("in_indptr", "in_sources", "in_edge_ids")
    }
    num_ads = len(source.entropies)
    for ad in range(num_ads):
        arrays[f"probs_{ad}"] = source.sampler(ad).edge_probabilities
    layout, offset = [], 0
    for key, array in arrays.items():
        offset = (offset + 7) & ~7
        layout.append((key, array.dtype.str, int(array.size), offset))
        offset += array.nbytes
    payload = bytearray(max(offset, 1))
    for (_, dtype, count, start), array in zip(layout, arrays.values()):
        np.frombuffer(payload, dtype=dtype, count=count, offset=start)[:] = array
    meta = {
        "num_nodes": int(source.graph.num_nodes),
        "num_edges": int(source.graph.num_edges),
        "h": num_ads,
        "entropies": [int(e) for e in source.entropies],
        "chunk_size": source.chunk_size,
        "graph_digest": graph_hash,
        "shard_keys": list(shard_keys),
        "layout": layout,
    }
    return meta, payload


class DistributedEngine(ShardedSamplingEngine):
    """No engine of its own: ``engine="dist"`` is
    ``ShardedSamplingEngine(..., engine="dist", coordinator=c)``.  Kept
    only for the benchmark harness, whose traced pass wraps ``prefetch``
    in this class's own ``__dict__``, until the harness is re-cut."""

    prefetch = ShardedSamplingEngine.prefetch
