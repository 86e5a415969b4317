"""The stateless half of the distributed tier: one socket worker.

``repro worker --connect HOST:PORT`` runs one :class:`WorkerHost`: it
dials the coordinator (:meth:`WorkerHost.run`), announces itself
(HELLO), and then serves TASK frames until the coordinator says
SHUTDOWN (or vanishes) — :meth:`WorkerHost.serve`, which is all a
forked ``engine="process"`` child runs, on its end of a ``socketpair``
(:func:`serve_forked`).  Per session a dialled worker receives the
payload once — graph in-CSR, per-ad probability rows, stream entropies
— and rebuilds over it the same :class:`~repro.rrset.sharded.ChunkSource`
the engine holds (zero-copy views, every layout entry bounds-checked,
the in-CSR checked once); a forked child keeps the one it inherited.
The source re-derives any
requested chunk purely from ``(entropy, ad, chunk)``: no sampler state
ever crosses the wire, which is why a chunk can be recomputed by *any*
worker after a failure and still be byte-identical.

With ``--cache DIR`` the worker consults (and feeds) a local
content-addressed shard store before sampling — the shard keys arrive
in the session meta, so a worker parked next to a warm cache serves
chunks without sampling at all.

Chaos hooks: the three ``_compute_result`` / ``_before_result`` /
``_send_result`` seams exist so the fault-injection harness
(``tests/dist/chaos.py``) can corrupt, stall, or kill a worker at exact
chunk boundaries without touching the protocol code it is testing.
"""

from __future__ import annotations

import gc
import os
import socket
import sys
import traceback
from typing import NoReturn

import numpy as np

from repro.dist import frames
from repro.errors import ConfigurationError, ProtocolError
from repro.graph.digraph import DirectedGraph
from repro.rrset.dsan import digest_block
from repro.rrset.sampler import STREAM_MODE, STREAM_RNG
from repro.rrset.sharded import ChunkSource

#: Seconds to wait for the initial TCP connect.
CONNECT_TIMEOUT = 10.0


class WorkerExit(Exception):
    """Internal control flow: a chaos hook (or SHUTDOWN frame) asked the
    worker to stop serving.  Never crosses the public API."""


class _Session:
    """One registered session: its chunk source plus what the worker's
    local shard cache needs (content keys, catalog row fields)."""

    __slots__ = ("source", "shard_keys", "graph_digest")

    def __init__(self, source, shard_keys=None, graph_digest=None) -> None:
        self.source = source
        self.shard_keys = shard_keys
        self.graph_digest = graph_digest

    @classmethod
    def from_setup(cls, meta: dict, payload: bytes) -> "_Session":
        """Rebuild the session's chunk source from zero-copy views over
        the PAYLOAD bytes.  The SETUP ``layout`` lists ``(key, dtype,
        count, offset)`` per array; an entry that overruns the payload,
        or a missing array, is a :class:`~repro.errors.ProtocolError` —
        the layout crossed a process boundary, so it is never trusted."""
        layout = meta.get("layout")
        if not isinstance(layout, list):
            raise ProtocolError("SETUP meta is missing the payload layout")
        size = memoryview(payload).nbytes
        arrays = {}
        for key, dtype, count, offset in layout:
            end = offset + count * np.dtype(dtype).itemsize
            if offset < 0 or count < 0 or end > size:
                raise ProtocolError(
                    f"payload layout entry {key!r} overruns the "
                    f"{size}-byte payload"
                )
            arrays[key] = np.frombuffer(
                payload, dtype=np.dtype(dtype), count=count, offset=offset
            )
        entropies = [int(e) for e in meta["entropies"]]
        try:
            # The sampling paths only touch the in-CSR (plus the two
            # dims), so the payload ships exactly that; bypass the
            # sorting/validating constructor and bind the views.
            graph = object.__new__(DirectedGraph)
            graph.num_nodes = int(meta["num_nodes"])
            graph.num_edges = int(meta["num_edges"])
            graph.in_indptr = arrays["in_indptr"]
            graph.in_sources = arrays["in_sources"]
            graph.in_edge_ids = arrays["in_edge_ids"]
            probs_per_ad = [arrays[f"probs_{ad}"] for ad in range(len(entropies))]
        except KeyError as exc:
            raise ProtocolError(f"payload is missing array {exc}") from exc
        _check_in_csr(graph)
        source = ChunkSource(
            graph, probs_per_ad, entropies, int(meta["chunk_size"])
        )
        return cls(source, meta.get("shard_keys"), meta.get("graph_digest"))


def _check_in_csr(graph: DirectedGraph) -> None:
    """Refuse a SETUP in-CSR the compiled BFS cannot walk safely: the
    kernel reads ``in_sources[in_indptr[v] : in_indptr[v + 1]]`` for
    every node ``v`` it reaches and trusts each source id, so a bad
    array here would be an out-of-bounds access, not an ``IndexError``.
    O(m), once per session."""
    n, m = graph.num_nodes, graph.num_edges
    indptr = graph.in_indptr
    columns = {"in_sources": graph.in_sources, "in_edge_ids": graph.in_edge_ids}
    problem = None
    if n < 0 or m < 0:
        problem = f"negative dimensions ({n} nodes, {m} edges)"
    elif any(a.dtype != np.int64 for a in (indptr, *columns.values())):
        problem = "in_indptr, in_sources and in_edge_ids must be int64"
    elif indptr.shape != (n + 1,) or indptr[0] != 0 or indptr[-1] != m:
        problem = f"in_indptr must run from 0 to {m} over {n + 1} entries"
    elif np.any(indptr[1:] < indptr[:-1]):
        problem = "in_indptr must be non-decreasing"
    else:
        for key, array in columns.items():
            bound = n if key == "in_sources" else m
            if array.shape != (m,) or (
                m and (array.min() < 0 or array.max() >= bound)
            ):
                problem = f"{key} must hold {m} ids in [0, {bound})"
                break
    if problem is not None:
        raise ProtocolError(f"SETUP in-CSR is malformed: {problem}")


class WorkerHost:
    """One connection's worth of stateless chunk service.

    Parameters
    ----------
    host / port:
        The coordinator's bound address.
    cache:
        Optional local shard-store directory (or ready
        :class:`~repro.store.ShardCache`); consulted before sampling,
        fed after.  ``None`` defers to ``REPRO_CACHE`` like the engine.
        Resolved by :meth:`run`: :meth:`serve` alone uses no cache.
    name:
        Reported in HELLO and in the coordinator's worker table
        (default: ``pid-<pid>``).
    """

    def __init__(self, host: str, port: int, *, cache=None,
                 name: str | None = None,
                 max_frame_bytes: int = frames.MAX_FRAME_BYTES) -> None:
        self.host = str(host)
        self.port = int(port)
        self.name = name or f"pid-{os.getpid()}"
        self.max_frame_bytes = int(max_frame_bytes)
        self._cache_knob = cache
        self._cache = None
        self._sessions: dict[int, _Session] = {}
        self._pending_setup: dict | None = None
        #: Chunks served over this host's lifetime (chaos hooks key off
        #: it; the CLI prints it at exit).
        self.chunks_served = 0
        #: Chunks answered from the local cache without sampling.
        self.cache_hits = 0

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def run(self) -> None:
        """Connect, open the local cache, serve until SHUTDOWN / EOF / a
        chaos hook exit."""
        from repro.store.cache import resolve_cache

        try:
            sock = socket.create_connection(
                (self.host, self.port), timeout=CONNECT_TIMEOUT
            )
        except OSError as exc:
            raise ConfigurationError(
                f"cannot connect to coordinator at {self.host}:{self.port}: "
                f"{exc}"
            ) from exc
        try:
            sock.settimeout(None)
            # RESULT goes out as two writes (see frames.send_frame).
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._cache, owned = resolve_cache(self._cache_knob)
            try:
                self.serve(sock)
            finally:
                if owned:
                    self._cache.close()
        finally:
            sock.close()

    def serve(self, sock) -> None:
        """Announce (HELLO) on a connected socket, then serve its frames
        until SHUTDOWN / EOF / a chaos hook exit.  The caller owns
        ``sock``."""
        frames.send_json(sock, frames.HELLO, {
            "protocol": frames.PROTOCOL_VERSION,
            "name": self.name,
            "cache": self._cache is not None,
        })
        decoder = frames.FrameDecoder(self.max_frame_bytes)
        while True:
            frame = frames.recv_frame(sock, decoder)
            if frame is None:
                break  # coordinator is gone; a clean exit
            try:
                self._handle_frame(sock, *frame)
            except WorkerExit:
                break

    # ------------------------------------------------------------------
    # Frame handling
    # ------------------------------------------------------------------
    def _handle_frame(self, sock, kind: int, payload: bytes) -> None:
        if kind == frames.SETUP:
            self._pending_setup = frames.parse_json(payload)
            return
        if kind == frames.PAYLOAD:
            meta, self._pending_setup = self._pending_setup, None
            if meta is None:
                raise ProtocolError("PAYLOAD frame without a preceding SETUP")
            self._sessions[int(meta["session"])] = _Session.from_setup(meta, payload)
            return
        if kind == frames.TASK:
            self._handle_task(sock, frames.parse_json(payload))
            return
        if kind == frames.RELEASE:
            info = frames.parse_json(payload)
            self._sessions.pop(int(info.get("session", -1)), None)
            return
        if kind == frames.SHUTDOWN:
            raise WorkerExit
        raise ProtocolError(f"unexpected frame kind {kind} from coordinator")

    def _handle_task(self, sock, info: dict) -> None:
        try:
            session_id = int(info["session"])
            ad = int(info["ad"])
            chunk_index = int(info["chunk"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ProtocolError(f"malformed TASK frame: {exc}") from exc
        session = self._sessions.get(session_id)
        if session is None:
            frames.send_json(sock, frames.ERROR, {
                "error": f"unknown session {session_id}",
            })
            return
        payload = self._compute_result(session, ad, chunk_index)
        self.chunks_served += 1
        self._before_result(ad, chunk_index)
        self._send_result(sock, ad, chunk_index, payload)

    # ------------------------------------------------------------------
    # Chunk computation (+ chaos seams)
    # ------------------------------------------------------------------
    def _compute_result(self, session: _Session, ad: int,
                        chunk_index: int) -> bytes:
        """One packed RESULT payload for the addressed chunk — served
        from the local shard cache when possible (stamped with the
        digest the load verified), else re-derived from ``(entropy, ad,
        chunk)`` and written through.  Either way the block is hashed
        once on this side of the wire."""
        source = session.source
        if not 0 <= ad < len(source.entropies):
            raise ProtocolError(f"TASK addresses unknown ad {ad}")
        shard_key = None
        if self._cache is not None and session.shard_keys:
            shard_key = session.shard_keys[ad]
            entry = self._cache.load(shard_key, chunk_index, source.chunk_size)
            if entry is not None:
                try:
                    self.cache_hits += 1
                    return frames.pack_result(
                        ad, chunk_index, entry.members, entry.lengths,
                        entry.digest,
                    )
                finally:
                    entry.release()
        block = source.block(ad, chunk_index)
        digest = digest_block(block.members, block.lengths)
        if shard_key is not None:
            self._cache.store(
                shard_key, chunk_index, block.members, block.lengths,
                meta={"ad": ad, "rng": STREAM_RNG, "mode": STREAM_MODE,
                      "chunk_size": source.chunk_size,
                      "entropy": str(source.entropies[ad]),
                      "graph_hash": session.graph_digest},
                digest=digest,
            )
        return frames.pack_result(
            ad, chunk_index, block.members, block.lengths, digest
        )

    def _before_result(self, ad: int, chunk_index: int) -> None:
        """Chaos seam: called between computing a result and sending it.
        The harness overrides this to stall (sleep past the coordinator
        timeout) or crash (raise :class:`WorkerExit`) at an exact chunk
        boundary.  The default does nothing."""

    def _send_result(self, sock, ad: int, chunk_index: int,
                     payload: bytes) -> None:
        """Chaos seam: ship one RESULT payload.  The harness overrides
        this to bit-flip the payload or send a truncated frame.  The
        default sends it faithfully."""
        frames.send_frame(sock, frames.RESULT, payload)


def serve_forked(sock, inherited, session_id: int, source) -> NoReturn:
    """The whole life of a forked ``engine="process"`` child; never
    returns.  Closes every ``inherited`` socket end but ``sock`` (so the
    parent's death reaches it as EOF), then serves ``sock`` with the
    inherited ``source`` as ``session_id`` and no shard cache.  It
    leaves with ``os._exit`` — no inherited stack, engine, catalog or
    finalizer is unwound here — and ``gc.freeze`` keeps the collector
    off inherited garbage meanwhile."""
    code = 1
    try:
        gc.freeze()
        for end in inherited:
            if end is not sock:
                end.close()
        host = WorkerHost("", 0, name=f"fork-{os.getpid()}")
        host._sessions[session_id] = _Session(source)
        host.serve(sock)
        code = 0
    except ConnectionError:
        pass  # the parent is gone: nobody is left to tell
    except Exception:
        traceback.print_exc()  # the parent computes the chunk; say why
        sys.stderr.flush()
    finally:
        os._exit(code)
