"""Warm engine pools: lease, run, reset, repeat.

A :class:`~repro.rrset.sharded.ShardedSamplingEngine` bundles the
expensive run-independent state — its chunk substrate (the forked
worker fleet, or the distributed session), the shard cache handle,
and the *sample*:
every RR set its shards hold and the inverted index over them, a pure
function of the stream contract.  :class:`EnginePool` keeps finished
engines alive keyed by the inputs that pin their sample bytes, so the
next allocation of the same instance skips both the lifecycle cost
*and* the sampling itself: the shards are rewound, not replaced, and
the new run reveals their resident sets in place — a warm resubmit
performs zero sampling-backend invocations, zero copies and zero index
builds, holds every set once, yet stays byte-identical to a cold run.

Leases are exclusive: an engine serves one session at a time, and
:meth:`EnginePool.lease` calls
:meth:`~repro.rrset.sharded.ShardedSamplingEngine.reset_for_reuse`
before handing a warm engine out, so every session starts from the
empty-shards state the determinism contract assumes.  The rewind
happens *in* the shard objects the previous lease's session read, so
whoever held that session must have dropped it by then
(:class:`~repro.service.jobs.JobManager` does when a job finishes).
Pooling is substrate, never contract — which engine a job happens to
lease is provenance, not an input to the allocation bytes.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.errors import ServiceError


class EngineLease:
    """One exclusive hold on a pooled engine.

    ``warm`` records whether the engine was reused from the pool (its
    worker fleet and resident sets intact) or built cold for
    this lease.  Return it with :meth:`EnginePool.release` — or use the
    lease as a context manager, which releases on exit.
    """

    __slots__ = ("engine", "key", "warm", "_pool", "_released")

    def __init__(self, engine, key, warm: bool, pool: "EnginePool") -> None:
        self.engine = engine
        self.key = key
        self.warm = bool(warm)
        self._pool = pool
        self._released = False

    def release(self) -> None:
        if not self._released:
            self._released = True
            self._pool._return(self)

    def __enter__(self) -> "EngineLease":
        return self

    def __exit__(self, *exc_info) -> None:
        self.release()

    def __repr__(self) -> str:
        return (
            f"EngineLease(warm={self.warm}, released={self._released}, "
            f"engine={self.engine!r})"
        )


class EnginePool:
    """Keyed free-list of warm :class:`ShardedSamplingEngine` instances.

    The key covers everything the engine constructor consumed that could
    change its samples or its recorded substrate: the problem content
    (graph digest + per-ad probability digests, which the frozen problem
    hashes once and caches), the stream contract
    (seed, chunk size) and the substrate knobs
    (engine mode, worker count, dsan).
    Two requests with equal keys are guaranteed interchangeable engines
    — which is what lets an idle engine keep its sample: the resident
    sets of one run are the sets any equal-keyed run would draw.

    Runs seeded with a live generator object are not poolable — the
    generator was consumed while sampling and cannot be rewound — so
    those leases build cold and close on release.

    The pool shares one optional :class:`~repro.store.ShardCache`
    (injected, never closed here) with every engine it builds.
    """

    def __init__(self, *, cache=None, max_idle_per_key: int = 4) -> None:
        if max_idle_per_key < 0:
            raise ServiceError(
                f"max_idle_per_key must be >= 0, got {max_idle_per_key}"
            )
        self.cache = cache
        self.max_idle_per_key = int(max_idle_per_key)
        self._free: dict[tuple, list] = {}
        self._lock = threading.Lock()
        self._closed = False
        self.warm_leases = 0
        self.cold_builds = 0

    # ------------------------------------------------------------------
    @staticmethod
    def lease_key(problem, allocator) -> tuple | None:
        """The pooling key for one (problem, allocator) pair, or ``None``
        when the pair is not poolable (generator-valued seed).  The
        content part is the problem's cached digests
        (:meth:`~repro.advertising.problem.AdAllocationProblem.content_digests`):
        a frozen instance is hashed once, so a warm lease costs a tuple
        compare, not a pass over the graph and every probability row."""
        seed = allocator._seed
        if seed is not None and not isinstance(seed, (int, np.integer)):
            return None
        graph_hash, probs_hashes = problem.content_digests()
        return (
            allocator.dataset,
            graph_hash,
            probs_hashes,
            int(seed) if seed is not None else None,
            allocator.chunk_size,
            allocator.engine,
            allocator.max_workers,
            allocator.dsan,
        )

    def lease(self, problem, allocator) -> EngineLease:
        """An exclusive engine for one run of ``problem`` under
        ``allocator``'s knobs — warm (reset) when the pool holds a
        matching idle engine, freshly built otherwise."""
        if self._closed:
            raise ServiceError("engine pool is closed")
        key = self.lease_key(problem, allocator)
        if key is not None:
            while True:
                with self._lock:
                    idle = self._free.get(key)
                    engine = idle.pop() if idle else None
                    if idle is not None and not idle:
                        del self._free[key]
                if engine is None:
                    break
                try:
                    engine.reset_for_reuse()
                except Exception:
                    # A dead engine (closed after a failed run) is
                    # dropped, not served; keep looking, else build cold.
                    engine.close()
                    continue
                with self._lock:
                    self.warm_leases += 1
                return EngineLease(engine, key, True, self)
        engine = allocator._build_engine(problem, self.cache)
        with self._lock:
            self.cold_builds += 1
        return EngineLease(engine, key, False, self)

    def _return(self, lease: EngineLease) -> None:
        with self._lock:
            pool_it = (
                not self._closed
                and lease.key is not None
                and len(self._free.get(lease.key, ())) < self.max_idle_per_key
            )
            if pool_it:
                self._free.setdefault(lease.key, []).append(lease.engine)
        if not pool_it:
            lease.engine.close()

    def release(self, lease: EngineLease) -> None:
        """Alias for :meth:`EngineLease.release` (idempotent)."""
        lease.release()

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        with self._lock:
            return {
                "warm_leases": self.warm_leases,
                "cold_builds": self.cold_builds,
                "idle_engines": sum(len(v) for v in self._free.values()),
                "idle_keys": len(self._free),
            }

    def close(self) -> None:
        """Close every idle engine.  Engines out on lease close when
        released (the pool refuses to re-admit them once closed)."""
        with self._lock:
            self._closed = True
            engines = [e for idle in self._free.values() for e in idle]
            self._free.clear()
        for engine in engines:
            engine.close()

    def __enter__(self) -> "EnginePool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        stats = self.stats()
        return (
            f"EnginePool(idle={stats['idle_engines']}, "
            f"warm={stats['warm_leases']}, cold={stats['cold_builds']}, "
            f"closed={self._closed})"
        )
