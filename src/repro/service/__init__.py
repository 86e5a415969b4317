"""Allocation-as-a-service: a resident server over warm engine pools.

The batch CLI pays the full engine lifecycle on every run — forking the
worker fleet, backend resolution — costs that dwarf the sampling itself
once the shard cache is warm.  This package keeps those substrates
*resident*:

* :class:`~repro.service.pool.EnginePool` — warm
  :class:`~repro.rrset.sharded.ShardedSamplingEngine` instances, leased
  exclusively per run and reset (``reset_for_reuse``) between runs;
* :class:`~repro.service.jobs.JobManager` — allocation jobs as
  :class:`~repro.algorithms.session.AllocationSession` state machines
  driven in worker threads, with live progress snapshots, boundary
  cancellation, and incremental re-allocation of finished jobs;
* :class:`~repro.service.server.AllocationServer` — a stdlib-asyncio
  line-delimited-JSON server (``repro serve``) exposing the manager;
* :class:`~repro.service.client.ServiceClient` — the matching blocking
  socket client the CLI subcommands use.

Everything the service does is substrate, never contract: job
scheduling, engine leasing, and request interleaving are recorded as
provenance, but the allocation bytes are pinned by
``(seed, chunk_size)`` alone — a warm-pool rerun is
byte-identical to a cold batch run (equal ``dsan_root``), just cheaper.
"""

from repro.service.client import ServiceClient
from repro.service.jobs import JobManager
from repro.service.pool import EngineLease, EnginePool
from repro.service.server import AllocationServer

__all__ = [
    "AllocationServer",
    "EngineLease",
    "EnginePool",
    "JobManager",
    "ServiceClient",
]
