"""Distributed allocation tier: coordinator + stateless socket workers.

Counter-based RR addressing makes sampling location-free: every chunk
is a pure function of ``(graph digest, entropy, ad, chunk)``, so any
worker anywhere re-derives the same bytes.  This package carries that
purity over a socket:

:mod:`repro.dist.frames`
    Length-prefixed binary frame codec; RESULT frames reuse the shard
    store's ``[int64 lengths | int32 members]`` block layout and its
    blake2 digest stamping, so every block is integrity-checked on
    arrival.
:mod:`repro.dist.worker`
    :class:`WorkerHost` — the stateless worker (``repro worker
    --connect HOST:PORT``): receives one payload per session, re-derives
    chunks on demand, optionally consults a local shard cache.
:mod:`repro.dist.coordinator`
    :class:`Coordinator` — owns retry / timeout / backoff and chunk
    reassignment; a worker that dies, hangs, or returns a corrupt block
    has its chunk requeued to the survivors, byte-identically.
:mod:`repro.dist.engine`
    The fleet substrate (``submit`` / ``collect`` / ``drain``) that
    :class:`~repro.rrset.sharded.ShardedSamplingEngine` builds — over
    forked socketpair workers for ``engine="process"``, and over socket
    workers dialled in to a caller-owned :class:`Coordinator` for
    ``engine="dist"`` — so TIRM, the session, and the service tier run
    on either unchanged.

**Topology is provenance, not contract**: worker count, worker
placement and the coordinator's retry schedule never change a single
byte of any shard — only ``stats``/``provenance`` record them.
"""

from repro.dist.coordinator import (
    Coordinator,
    TaskFailedError,
    WorkersUnavailableError,
)
from repro.dist.frames import FrameDecoder, FrameIntegrityError
from repro.dist.worker import WorkerHost

__all__ = [
    "Coordinator",
    "FrameDecoder",
    "FrameIntegrityError",
    "TaskFailedError",
    "WorkerHost",
    "WorkersUnavailableError",
]
