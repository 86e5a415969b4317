"""Resumable allocation sessions — TIRM (Algorithms 2–4) as a state machine.

:class:`AllocationSession` is the algorithm's one home: the loop, the
``θ_i`` policy, the Algorithm-3 lazy selector and the Algorithm-4
revenue recount are all methods over the run state it owns (problem,
allocation, budgets, CPEs, per-ad states), with the
:class:`~repro.algorithms.tirm.TIRMAllocator` it is handed serving only
as the parameter record.

TIRM follows Algorithm 1's greedy logic but replaces Monte-Carlo spread
estimation with RR-set coverage (§5.1), resolving the two obstacles a
direct TIM application faces:

* **CTPs** — sampling RRC-sets directly would need ~100× more samples at
  realistic 1–3% CTPs, so plain RR-sets are sampled and marginal
  coverages are multiplied by ``δ(v, i)`` (Theorem 5 guarantees the same
  expectation);
* **unknown seed counts** — the budget, not a seed count, drives how many
  seeds each ad needs, so the per-ad seed-size estimate ``s_i`` (hence
  the sample size ``θ_i = L(s_i, ε)``) is revised iteratively: whenever
  ``|S_i|`` reaches ``s_i``, grow it by ``⌊R_i(S_i) / marginal-revenue⌋``
  (a submodularity-justified lower bound on the seeds still needed),
  sample the extra RR-sets, and re-estimate existing seeds' coverage
  against them (Algorithm 4) so future marginals stay accurate.

Two differences from the pseudocode:

* ``s_i`` grows by at least 1 when triggered (the literal ``⌊·⌋`` can
  return 0, freezing ``θ_i`` forever);
* ``select_rule="weighted"`` (default) ranks candidates by
  ``δ(v, i) · coverage`` — the true marginal-revenue order Algorithm 1
  maximises; ``"coverage"`` gives the literal Algorithm-3 ranking.

Algorithm 3's lazy selector is compiled (``_select.c``): each ad's heap
is two numpy arrays — keys ``-score`` and node ids, a binary min-heap on
``(-score, node)`` — that the C code updates in place, reading coverage,
CTPs, the allocation's per-ad membership mask and assignment counts, and
the attention bounds through pointers bound once per heap rebuild.  It
walks a few heap entries (:func:`_walk_limit`) and answers deeper scans
with one pass over the coverage vector; the doubles it compares are the
ones the Python walk kept in ``tests/algorithms/_reference_selector.py``
computes, so the allocation is the same to the bit.  Each ad keeps its
last answer, CELF-style: a ``SELECT`` step is one compiled call that
asks only the active ads whose answer is stale — the ad's own pick or a
``GROW`` happened since, or another ad picked a node the answer depends
on — and makes the cross-ad choice over the kept answers.

The loop runs as discrete, externally steppable states:

.. code-block:: text

    PILOT ──> ESTIMATE_THETA ──> SELECT ──> DONE
      │                          │   ^
      │ (resume_from)            v   │
      └────────────────────────> GROW┘        (+ CANCELLED / FAILED)

* ``PILOT`` — per-ad state construction plus the batched pilot ensure
  (or, on resume, the checkpoint restore);
* ``ESTIMATE_THETA`` — the first ``θ_i = L(1, ε)`` targets for every ad;
* ``SELECT`` — one greedy pick-and-assign (Algorithm 3's lazy selector
  with the cross-ad order-independent tie-break);
* ``GROW`` — the Algorithm-4 growth event the previous pick triggered:
  ``s_i`` revision, θ top-up, coverage re-estimation, heap rebuild.

:meth:`AllocationSession.step` makes one transition and returns the
state it moved to.  Only :meth:`~AllocationSession.progress` builds a
snapshot — the :mod:`repro.rrset.checkpoint` payload plus the session
state — for a reader that asks: the checkpoint writer (a checkpoint
file is this snapshot at a boundary) and a service job, once it ends.
*Iteration boundaries* — the consistent points where the batch loop
snapshotted and honored ``max_iterations`` — land at the end of every
``SELECT`` step that triggers no growth and at the end of every
``GROW`` step; that is exactly where checkpoints are written,
``max_iterations`` truncates, and a :meth:`request_cancel` takes
effect, so a cancelled or truncated session returns the same valid
partial allocation the batch ``max_iterations`` machinery produces.

The session *borrows* its engine and cache — both are injected and never
closed here.  That inversion is what the service tier
(:mod:`repro.service`) builds on: a warm
:class:`~repro.rrset.sharded.ShardedSamplingEngine` leased from an
:class:`~repro.service.EnginePool` runs many sessions back to back
(``reset_for_reuse`` between runs), and the batch ``TIRMAllocator``
facade is just "build an engine, run one session, close the engine" —
byte-identical to the frozen pre-pool loop by the equivalence suite.
"""

from __future__ import annotations

import ctypes
import math
import threading
from dataclasses import dataclass, field

import numpy as np

from repro._native import library
from repro.advertising.allocation import Allocation
from repro.advertising.regret import regret_of
from repro.algorithms.base import AllocationResult
from repro.errors import SessionError
from repro.rrset.checkpoint import TIRMCheckpoint, build_snapshot, save_checkpoint
from repro.rrset.pool import RRSetPool
from repro.rrset.sampler import STREAM_MODE
from repro.rrset.sharded import ShardedSamplingEngine
from repro.rrset.tim import estimate_opt_lower_bound, required_rr_sets

#: Session states.  ``PILOT``/``ESTIMATE_THETA`` run once (resume skips
#: ``ESTIMATE_THETA``: the checkpoint already holds the grown θ
#: targets), ``SELECT``/``GROW`` alternate, and the three terminal
#: states carry a finished :class:`~repro.algorithms.base.AllocationResult`.
PILOT = "pilot"
ESTIMATE_THETA = "estimate-theta"
SELECT = "select"
GROW = "grow"
DONE = "done"
CANCELLED = "cancelled"
FAILED = "failed"

#: States with a result (``FAILED`` carries the error instead).
TERMINAL_STATES = frozenset({DONE, CANCELLED, FAILED})

#: How many fresh heap entries a candidate scan walks before it is
#: computed from the coverage vector instead: ``_WALK_BASE + n //
#: _WALK_NODES_PER_ENTRY``.  Measured for the compiled selector on the
#: 2-core dev box (``FLIX``-shaped states, allocator seed 1): one walked
#: entry, stale refreshes and its re-push included, ≈ 0.17 µs at n =
#: 3 000 and 9 000; one pass ≈ 3 µs + 8 ns·n when few nodes overshoot
#: and 47 / 150 µs at n = 3 000 / 9 000 on a deep scan.  Scans are
#: bimodal — settled within a few entries or hundreds deep — and with
#: kept answers (:meth:`AllocationSession._choose`) a deep scan is rare:
#: an ad in the end-game is asked again only when a pick touches what
#: its answer depends on.  Of the 385 / 1 321 asks at n = 3 000 / 9 000,
#: limits of 4 to 53 entries take 6–7 passes, and the selector takes
#: 1.5–2.4 / 6.5–8.7 ms per allocation (median of 5 each); never
#: switching takes 4.2 / 15.5 ms (13 860 / 24 831 pops), always passing
#: 7.3 / 47.6 ms.  So the walk stays short: it costs at most ≈ 1/9 of
#: the pass it may precede, and still settles the shallow scans.
_WALK_BASE = 8
_WALK_NODES_PER_ENTRY = 200


def _walk_limit(num_nodes: int) -> int:
    """Entries :meth:`AllocationSession._best_candidate` walks before it
    switches to the coverage pass: a deep scan costs at most ≈ 1.1
    passes, and a scan settled near the top of the heap never pays for
    one."""
    return _WALK_BASE + num_nodes // _WALK_NODES_PER_ENTRY


#: ``repro_select``'s answers besides "no candidate" (0) and "out of
#: memory" (-1): a candidate, and no candidate ever again.
_ANSWER, _RETIRE = 1, 2


class _SelectView(ctypes.Structure):
    """``repro_select_t`` of ``_select.c``, field for field: one ad's
    heap, the run state the selector reads, and its kept answer with
    what that answer depends on."""

    _fields_ = [
        ("keys", ctypes.c_void_p), ("nodes", ctypes.c_void_p),
        ("size", ctypes.c_int64),
        ("coverage", ctypes.c_void_p), ("ctps", ctypes.c_void_p),
        ("seeds", ctypes.c_void_p), ("counts", ctypes.c_void_p),
        ("kappa", ctypes.c_void_p),
        ("n", ctypes.c_int64), ("weighted", ctypes.c_int64),
        ("cpe", ctypes.c_double), ("budget", ctypes.c_double),
        ("penalty", ctypes.c_double),
        ("revenue", ctypes.c_double),
        ("num_seeds", ctypes.c_int64), ("theta", ctypes.c_int64),
        ("active", ctypes.c_int64), ("stale", ctypes.c_int64),
        ("node", ctypes.c_int64), ("cov", ctypes.c_int64),
        ("marginal", ctypes.c_double), ("drop", ctypes.c_double),
        ("top", ctypes.c_int64), ("fit", ctypes.c_int64),
        ("fragile", ctypes.c_int64),
        ("calls", ctypes.c_int64), ("pops", ctypes.c_int64),
        ("passes", ctypes.c_int64),
    ]


class _StepTable(ctypes.Structure):
    """``repro_step_t`` of ``_select.c``: the ads' views one ``SELECT``
    step reads, and what it chose."""

    _fields_ = [
        ("ads", ctypes.c_void_p), ("count", ctypes.c_int64),
        ("limit", ctypes.c_int64), ("chosen", ctypes.c_int64),
        ("retired", ctypes.c_int64),
    ]


class _LazyHeap:
    """One ad's Algorithm-3 heap: entries ``(-score, node)`` in two
    arrays, the first ``size`` of them a binary min-heap, and the C view
    the selector updates them through.

    The view's run-state pointers are bound by
    :meth:`AllocationSession._bind` on the first call after a rebuild;
    ``pinned`` keeps the arrays they point into alive."""

    __slots__ = ("keys", "nodes", "view", "address", "pinned", "bound_to")

    def __init__(self, keys: np.ndarray, nodes: np.ndarray, size=None) -> None:
        self.keys = np.ascontiguousarray(keys, dtype=np.float64)
        self.nodes = np.ascontiguousarray(nodes, dtype=np.int64)
        self.view = _SelectView(
            keys=self.keys.ctypes.data, nodes=self.nodes.ctypes.data,
            size=self.keys.size if size is None else size,
        )
        self.address = ctypes.addressof(self.view)
        self.pinned = ()
        self.bound_to = None

    def entries(self) -> list[tuple[float, int]]:
        """The live entries, in heap-array order."""
        size = self.view.size
        return list(zip(self.keys[:size].tolist(), self.nodes[:size].tolist()))

    def __reduce__(self):
        # The view holds raw addresses: a copy or an unpickled heap is
        # rebuilt over its own arrays, and bound afresh on first use.
        return _LazyHeap, (self.keys, self.nodes, self.view.size)


@dataclass
class _AdState:
    """Mutable per-advertiser bookkeeping for one TIRM run."""

    collection: RRSetPool
    seed_size_estimate: int = 1
    revenue: float = 0.0
    seeds_in_order: list[int] = field(default_factory=list)
    marginal_coverage: dict[int, int] = field(default_factory=dict)
    heap: _LazyHeap | None = None
    active: bool = True

    @property
    def theta(self) -> int:
        return self.collection.num_total


class AllocationSession:
    """One resumable TIRM allocation over injected engine/cache handles.

    Parameters
    ----------
    problem:
        The :class:`~repro.advertising.problem.AdAllocationProblem`.
    config:
        A validated :class:`~repro.algorithms.tirm.TIRMAllocator` —
        used purely as the parameter record (ε, select rule, clamps,
        checkpoint knobs, ...); its knob validation already ran in its
        constructor, so the session never re-validates.
    engine:
        The :class:`~repro.rrset.sharded.ShardedSamplingEngine` to
        sample through.  **Injected, not owned**: the session never
        closes it, so a pool can lease one engine to many sessions.
        Must be empty (fresh or ``reset_for_reuse``-ed) — or, when
        resuming, constructed from the checkpoint's entropies.
    cache:
        Optional open :class:`~repro.store.ShardCache` the finished
        allocation is recorded into.  Injected and never closed, like
        the engine.
    checkpoint:
        Optional loaded-and-validated
        :class:`~repro.rrset.checkpoint.TIRMCheckpoint` to resume from
        (the caller runs ``validate_config`` first, as the facade does).
    job_id:
        Optional service job identifier recorded with the catalog row
        (:mod:`repro.service`); pure provenance, never part of the
        determinism contract or of the allocation object itself.

    Examples
    --------
    Step the Figure-1 gadget by hand, then finish it: the same
    allocation as the batch facade's::

        >>> from repro.algorithms.tirm import TIRMAllocator
        >>> from repro.datasets.toy import figure1_problem
        >>> problem = figure1_problem()
        >>> config = TIRMAllocator(seed=0, max_rr_sets_per_ad=1_000)
        >>> with config._build_engine(problem, None) as engine:
        ...     session = AllocationSession(problem, config, engine=engine)
        ...     states = [session.step() for _ in range(2)]
        ...     result = session.run()
        >>> states
        ['estimate-theta', 'select']
        >>> result.allocation == config.allocate(problem).allocation
        True
    """

    def __init__(
        self,
        problem,
        config,
        *,
        engine: ShardedSamplingEngine,
        cache=None,
        checkpoint: TIRMCheckpoint | None = None,
        job_id: str | None = None,
    ) -> None:
        if engine.num_ads != problem.num_ads:
            raise SessionError(
                f"engine has {engine.num_ads} shards, problem "
                f"{problem.num_ads} ads"
            )
        if checkpoint is None and engine.total_sets():
            raise SessionError(
                "a fresh session needs an empty engine (found "
                f"{engine.total_sets()} existing sets); call "
                "reset_for_reuse() on a leased engine first"
            )
        self.problem = problem
        self.config = config
        self.engine = engine
        self.cache = cache
        self.checkpoint = checkpoint
        self.job_id = job_id
        self.allocation = Allocation(problem.num_ads, problem.num_nodes)
        self.budgets = problem.catalog.budgets()
        self.cpes = problem.catalog.cpes()
        self.states: list[_AdState] | None = None
        self.state = PILOT
        self.iterations = 0
        self.start_iterations = 0
        self.resumed_at: int | None = None
        self.lineage: list[dict] = []
        self.checkpoints_written = 0
        self.truncated = False
        self.error: BaseException | None = None
        self._pending_growth: tuple[int, float] | None = None
        # The compiled SELECT step's table (built with the first heaps)
        # and the ads whose own state changed since the last step.
        self._table: _StepTable | None = None
        self._table_ads = None
        self._dirty: range | tuple[int, ...] = ()
        self._result: AllocationResult | None = None
        # request_cancel is called from other threads (the service's
        # cancel op), step() from the session's own — an Event is the
        # whole synchronization story, checked only at boundaries.
        self._cancel = threading.Event()

    # ------------------------------------------------------------------
    # Driving
    # ------------------------------------------------------------------
    def step(self) -> str:
        """Make one transition and return the state it moved to.

        ``SELECT`` steps that trigger an Algorithm-4 growth event stop
        *before* it (state ``GROW``, mid-iteration) and the following
        step completes the growth plus the iteration boundary — so every
        boundary-side effect (checkpoint write, ``max_iterations``
        truncation, cancellation) observes exactly the state the batch
        loop did.  Terminal states are absorbing: stepping them changes
        nothing.  No snapshot is built here; :meth:`progress` builds one
        for a reader that asks.
        """
        if self.state in TERMINAL_STATES:
            return self.state
        try:
            if self.state == PILOT:
                self._step_pilot()
            elif self.state == ESTIMATE_THETA:
                self._step_estimate_theta()
            elif self.state == SELECT:
                self._step_select()
            elif self.state == GROW:
                self._step_grow()
        except BaseException as exc:
            self.state = FAILED
            self.error = exc
            raise
        return self.state

    def run(self) -> AllocationResult:
        """Drive the machine to a terminal state and return the result
        — the batch facade's whole loop."""
        while self.state not in TERMINAL_STATES:
            self.step()
        return self.result()

    def request_cancel(self) -> None:
        """Ask the session to stop at the next iteration boundary
        (thread-safe; the service's cancel op calls this while the
        session steps in a worker thread)."""
        self._cancel.set()

    def cancel(self) -> AllocationResult:
        """Stop at the next boundary and return the truncated partial
        allocation (``stats["truncated"] = True`` — the same shape the
        ``max_iterations`` machinery produces)."""
        self.request_cancel()
        return self.run()

    def result(self) -> AllocationResult:
        """The finished result (terminal states only)."""
        if self.state == FAILED:
            raise SessionError(
                f"session failed: {self.error!r}"
            ) from self.error
        if self._result is None:
            raise SessionError(
                f"session has no result yet (state={self.state!r})"
            )
        return self._result

    def progress(self) -> dict:
        """The run's snapshot: the checkpoint payload
        (:func:`~repro.rrset.checkpoint.build_snapshot`) plus the
        session state — at a boundary, exactly what a checkpoint file
        holds.  O(seeds) to build, so only its readers call it."""
        snapshot = {
            "state": self.state,
            "iterations": self.iterations,
            "truncated": self.truncated,
            "total_seeds": self.allocation.total_seeds(),
        }
        if self.states is not None:
            per_ad = [
                {
                    "seeds": state.seeds_in_order,
                    "marginal_nodes": list(state.marginal_coverage.keys()),
                    "marginal_counts": list(state.marginal_coverage.values()),
                    "revenue": state.revenue,
                    "seed_size_estimate": state.seed_size_estimate,
                    "active": state.active,
                }
                for state in self.states
            ]
            snapshot.update(build_snapshot(
                config=self.config._checkpoint_config(self.problem),
                engine=self.engine, per_ad=per_ad,
                iterations=self.iterations, lineage=self.lineage,
            ))
        return snapshot

    # ------------------------------------------------------------------
    # State handlers
    # ------------------------------------------------------------------
    def _step_pilot(self) -> None:
        if self.checkpoint is not None:
            self.checkpoint.restore_engine(self.engine)
            self.states = self._restored_states(self.checkpoint)
            self.iterations = self.checkpoint.iterations
            self.resumed_at = self.checkpoint.iterations
            self.lineage = self.checkpoint.lineage + [
                {
                    "resumed_from": self.config.resume_from,
                    "at_iteration": self.checkpoint.iterations,
                }
            ]
            # Heaps are derived state: the lazy selector's answers are
            # pure functions of the coverage counters, so rebuilding
            # keeps fresh and resumed runs on identical trajectories.
            for ad in range(self.problem.num_ads):
                self._rebuild_heap(ad, self.states[ad])
            self._open_table()
            self.start_iterations = self.iterations
            self.state = SELECT
            self._check_cancel()
            return
        h = self.problem.num_ads
        config = self.config
        self.states = [_AdState(self.engine.shard(ad)) for ad in range(h)]
        pilot = max(
            min(config.initial_pilot, config.max_rr_sets_per_ad),
            config.min_rr_sets_per_ad,
        )
        self.engine.ensure({ad: pilot for ad in range(h)})
        self.state = ESTIMATE_THETA
        self._check_cancel()

    def _step_estimate_theta(self) -> None:
        h = self.problem.num_ads
        self.engine.ensure(
            {ad: self._theta_for(self.states[ad], s=1) for ad in range(h)}
        )
        for ad in range(h):
            self._rebuild_heap(ad, self.states[ad])
        self._open_table()
        self.start_iterations = self.iterations
        self.state = SELECT
        self._check_cancel()

    def _step_select(self) -> None:
        chosen = self._choose()
        if chosen is None:
            self._finalize(DONE)
            return
        best_ad, best_node, best_cov, marginal = chosen
        state = self.states[best_ad]
        self.allocation.assign(best_node, best_ad)
        state.seeds_in_order.append(best_node)
        state.marginal_coverage[best_node] = best_cov
        state.revenue += marginal
        state.collection.remove_covered(best_node)
        self.iterations += 1
        self._dirty = (best_ad,)
        if len(state.seeds_in_order) == state.seed_size_estimate:
            # Mid-iteration: the pick landed but its growth event has
            # not run, so this is NOT a boundary — the next step is.
            self._pending_growth = (best_ad, marginal)
            self.state = GROW
            return
        self._boundary()

    def _step_grow(self) -> None:
        ad, marginal = self._pending_growth
        self._pending_growth = None
        self._grow_samples(ad, marginal)
        self.state = SELECT
        self._boundary()

    def _boundary(self) -> None:
        """The iteration boundary: the run state is consistent here
        (seed assigned, samples grown, revenue re-estimated), so this is
        where snapshots, time-bounded stops and cancellations land."""
        config = self.config
        stop = (
            config.max_iterations is not None
            and self.iterations - self.start_iterations >= config.max_iterations
        )
        cancelled = self._cancel.is_set()
        if config.checkpoint_path is not None and (
            stop
            or cancelled
            or self.iterations % config.checkpoint_every == 0
        ):
            self._write_checkpoint()
        if stop or cancelled:
            self.truncated = True
            self._finalize(CANCELLED if cancelled else DONE)

    def _check_cancel(self) -> None:
        """Pre-loop consistent points (post-PILOT / post-ESTIMATE_THETA
        / post-restore) honor cancellation too — with zero or the
        restored iterations, like a ``max_iterations=0`` run would."""
        if self._cancel.is_set() and self.state not in TERMINAL_STATES:
            self.truncated = True
            self._finalize(CANCELLED)

    # ------------------------------------------------------------------
    # Finalization
    # ------------------------------------------------------------------
    def _write_checkpoint(self) -> None:
        config = self.config
        snapshot = self.progress()
        save_checkpoint(config.checkpoint_path, snapshot)
        self.checkpoints_written += 1
        if self.engine.cache is not None:
            # Register the artifact and the shard prefixes a resume
            # would re-read, so `repro gc` refuses to evict them while
            # the checkpoint is live.  Re-registration (the artifact is
            # atomically overwritten each boundary) replaces the row.
            self.engine.cache.catalog.record_checkpoint(
                config.checkpoint_path,
                iterations=self.iterations,
                config=snapshot["config"],
                shard_refs=self.engine.shard_cache_refs(),
            )

    def _finalize(self, terminal_state: str) -> None:
        config, engine, problem = self.config, self.engine, self.problem
        allocation = self.allocation
        revenues = np.asarray([s.revenue for s in self.states])
        # The RNG contract travels with the allocation: the master seed
        # plus (for counter-based streams) the derived entropy root is
        # what re-derives the exact RR samples behind these seed sets.
        allocation.set_provenance(
            algorithm=config.name,
            rng=config.rng,
            chunk_size=config.chunk_size,
            sampler_mode=STREAM_MODE,
            engine=config.engine,
            backend=config.backend,
            transport=engine.transport,
            seed=config.recorded_seed,
            stream_entropy=engine.stream_entropy(0),
        )
        # Checkpoint lineage travels with the allocation, but only for
        # runs that actually touched the checkpoint machinery — an
        # uninterrupted run's provenance stays identical to a plain one.
        if config.checkpoint_path is not None or config.resume_from is not None:
            allocation.set_provenance(
                checkpoint={
                    "path": config.checkpoint_path,
                    "every": config.checkpoint_every,
                    "written": self.checkpoints_written,
                    "resumed_from": config.resume_from,
                    "resumed_at_iteration": self.resumed_at,
                    "lineage": self.lineage,
                }
            )
        stats = {
            "iterations": self.iterations,
            "theta_per_ad": [s.theta for s in self.states],
            "seed_size_estimates": [s.seed_size_estimate for s in self.states],
            "total_rr_sets": int(sum(s.theta for s in self.states)),
            "rr_memory_bytes": int(
                sum(s.collection.memory_bytes() for s in self.states)
            ),
            "epsilon": config.epsilon,
            "select_rule": config.select_rule,
            "sampler_mode": STREAM_MODE,
            "engine": config.engine,
            "rng": config.rng,
            "chunk_size": config.chunk_size,
            "backend": config.backend,
            "transport": engine.transport,
            "start_method": engine.start_method,
            "dsan": engine.dsan,
            "checkpoints_written": self.checkpoints_written,
            "resumed_at_iteration": self.resumed_at,
            "truncated": self.truncated,
            # Actual compute performed — the warm-start headline: a run
            # served entirely from the shard cache reports zero here.
            "backend_invocations": engine.backend_invocations,
        }
        cache_stats = engine.cache_stats()
        if cache_stats is not None:
            stats["cache"] = cache_stats
        # Distributed runs record their topology — worker fleet, retry/
        # timeout/corrupt counters, local fallbacks — as provenance.
        # Topology is provenance, not contract: nothing in this record
        # can change a byte of the allocation, which is exactly why it
        # is recorded instead of matched.
        dist = engine.dist_stats()
        if dist is not None:
            stats["dist"] = dist
            allocation.set_provenance(dist={
                key: dist.get(key)
                for key in (
                    "tasks_completed", "retries", "timeouts", "disconnects",
                    "corrupt_blocks", "workers_connected", "local_fallbacks",
                )
            })
        if engine.dsan:
            # Digest maps key on (ad, chunk) tuples; stats serialize to
            # JSON in the CLI, so the keys flatten to "ad:chunk" strings.
            stats["dsan_digests"] = {
                f"{ad}:{chunk}": digest
                for (ad, chunk), digest in sorted(engine.dsan_digests().items())
            }
            stats["dsan_root"] = engine.dsan_root()
            # A sanitized run's provenance carries the whole-run RR-byte
            # fingerprint; an unsanitized run's provenance is unchanged.
            allocation.set_provenance(dsan_root=stats["dsan_root"])
        if self.cache is not None:
            self._record_allocation(stats)
        self._result = AllocationResult(
            algorithm=config.name,
            allocation=allocation,
            estimated_revenues=revenues,
            budgets=self.budgets,
            penalty=problem.penalty,
            stats=stats,
        )
        self.state = terminal_state

    def _record_allocation(self, stats: dict) -> None:
        """One experiment-catalog row per completed cached allocation:
        the determinism contract (seed/rng/chunk_size/dsan_root), the
        substrate provenance (engine/backend/transport), the cache
        counters, the service job id when the session ran under one, and
        the full provenance/stats blobs — what ``repro ls / show /
        diff`` read back."""
        config, engine = self.config, self.engine
        self.cache.flush()
        self.cache.catalog.record_allocation({
            "algorithm": config.name,
            "dataset": config.dataset,
            "seed": config.recorded_seed,
            "rng": config.rng,
            "chunk_size": config.chunk_size,
            "engine": config.engine,
            "backend": config.backend,
            "transport": engine.transport,
            "dsan_root": stats.get("dsan_root"),
            "iterations": stats["iterations"],
            "total_rr_sets": stats["total_rr_sets"],
            "cache_hits": stats["cache"]["hits"],
            "cache_misses": stats["cache"]["misses"],
            "backend_invocations": stats["backend_invocations"],
            "job_id": self.job_id,
            "provenance": self.allocation.provenance or {},
            "stats": {
                key: value for key, value in stats.items()
                if key != "dsan_digests"  # the root fingerprint suffices
            },
        })

    def _restored_states(self, checkpoint: TIRMCheckpoint) -> list[_AdState]:
        """Rebuild the per-ad allocator state (and the allocation's seed
        assignments) from a restored snapshot.  The marginal-coverage
        dicts keep their checkpointed insertion order — revenue
        re-estimation sums floats in it."""
        states = []
        for ad in range(self.engine.num_ads):
            state = _AdState(self.engine.shard(ad))
            state.seed_size_estimate = int(checkpoint.seed_size_estimate[ad])
            state.revenue = float(checkpoint.revenue[ad])
            state.seeds_in_order = list(checkpoint.seeds[ad])
            state.marginal_coverage = dict(
                zip(checkpoint.seeds[ad], checkpoint.marginal_counts[ad])
            )
            state.active = bool(checkpoint.active[ad])
            for user in state.seeds_in_order:
                self.allocation.assign(user, ad)
            states.append(state)
        return states

    # ------------------------------------------------------------------
    # Sampling (Algorithm 2's θ policy, Algorithm 4)
    # ------------------------------------------------------------------

    #: Greedy-cover pilot size for OPT_s estimation: the cover runs on an
    #: i.i.d. prefix of the sample, so a fixed-size pilot estimates the
    #: same coverage fraction at O(1) cost per growth event.
    _OPT_PILOT_SETS = 2_000

    def _theta_for(self, state: _AdState, s: int) -> int:
        """``θ_i = L(s, ε)`` with a greedy-pilot OPT_s lower bound.

        The pilot is a zero-copy CSR window over the first sets of the
        pool, so each growth event costs O(pilot), not O(θ).
        """
        config = self.config
        n = self.problem.num_nodes
        s = min(max(s, 1), n)
        pilot = state.collection.prefix_view(self._OPT_PILOT_SETS)
        opt_lower = estimate_opt_lower_bound(pilot, n, s)
        theta = required_rr_sets(n, s, config.epsilon, opt_lower, ell=config.ell)
        return int(
            min(max(theta, config.min_rr_sets_per_ad), config.max_rr_sets_per_ad)
        )

    def _grow_samples(self, ad: int, last_marginal: float) -> None:
        """Algorithm 2 lines 14–19 for the ad whose seed count just
        reached its estimate: revise ``s_i``, top up the grown ``θ_i``
        through the engine, then re-estimate existing seeds' coverage
        (Algorithm 4).

        Under counter-based streams the engine splits even this single-ad
        request into ``(ad, chunk)`` tasks fanned across its substrate,
        so the growth phase scales with workers.  The request names the
        absolute target ``θ_i`` (set indices ``[0, θ_i)``), so the
        sampled sets are independent of how growth events interleave."""
        state = self.states[ad]
        regret = regret_of(
            self.budgets[ad], state.revenue, self.problem.penalty,
            len(state.seeds_in_order),
        )
        if last_marginal > 0:
            growth = int(math.floor(regret / last_marginal))
        else:
            growth = 0
        state.seed_size_estimate += max(growth, 1)

        if state.theta >= self.config.max_rr_sets_per_ad:
            # θ_i is clamped to the cap, so no target can exceed it:
            # skip the greedy pilot cover that would compute one.
            return
        target = self._theta_for(state, state.seed_size_estimate)
        if target <= state.theta:
            return
        self.engine.ensure({ad: target})
        # Speculative pipeline hint: the *next* growth event for this ad
        # will raise s_i by at least 1, so θ(s_i + 1) lower-bounds the
        # next θ target.  Submitting those chunks now lets the substrate
        # sample them while the parent runs Algorithm 4 and the greedy
        # selection below — legal because chunks are pure functions of
        # their stream address, so the speculative sets are
        # byte-identical whether or not they are needed (never-consumed
        # chunks are drained at engine close; an in-process engine
        # submits nothing).
        hint = self._theta_for(state, state.seed_size_estimate + 1)
        if hint > state.theta:
            self.engine.prefetch({ad: hint})
        # Algorithm 4: walk existing seeds in selection order, credit
        # each with its coverage among the new (still-alive) sets, and
        # remove what it covers so later seeds are not double-credited —
        # ``remove_covered`` returns that alive-set count, one index walk.
        for node in state.seeds_in_order:
            state.marginal_coverage[node] += state.collection.remove_covered(node)
        self._recompute_revenue(ad, state)
        self._rebuild_heap(ad, state)

    def _recompute_revenue(self, ad: int, state: _AdState) -> None:
        """``Π_i(S_i) = Σ_v cpe·n·δ(v,i)·cov(v)/θ_i`` over chosen seeds."""
        problem, cpes = self.problem, self.cpes
        n = problem.num_nodes
        delta = problem.ad_ctps(ad)
        theta = state.theta
        state.revenue = float(
            sum(
                cpes[ad] * n * delta[node] * count / theta
                for node, count in state.marginal_coverage.items()
            )
        )

    # ------------------------------------------------------------------
    # Candidate selection (Algorithm 3, lazily)
    # ------------------------------------------------------------------
    def _rebuild_heap(self, ad: int, state: _AdState) -> None:
        """Every node of positive coverage under its current score: the
        entries sorted by ``(-score, node)``, which is a valid heap."""
        coverage = state.collection.coverage()
        nodes = np.flatnonzero(coverage > 0)
        if self.config.select_rule == "weighted":
            scores = self.problem.ctps[ad, nodes] * coverage[nodes]
        else:
            scores = coverage[nodes].astype(np.float64)
        keys = -scores
        # Node ids ascend already, so a stable sort on the keys alone.
        order = np.argsort(keys, kind="stable")
        state.heap = _LazyHeap(keys[order], nodes[order])

    def _bind(self, ad: int, state: _AdState) -> None:
        """Point the ad's C view at the arrays the selector reads in
        place: the pool's coverage vector, the ad's CTP row, the
        allocation's membership mask and assignment counts, and the
        attention bounds (a test may swap a state's pool, so the view
        records which one it follows)."""
        problem, heap = self.problem, state.heap
        coverage = state.collection.coverage()
        if coverage.dtype != np.int64 or not coverage.flags.c_contiguous:
            raise TypeError(
                "the selector reads coverage in place: it must be a "
                f"C-contiguous int64 vector, got {coverage.dtype}"
            )
        seeds, counts = self.allocation.live_views(ad)
        # CTPs and bounds are the problem's and never change: copies do.
        ctps = np.ascontiguousarray(problem.ctps[ad], dtype=np.float64)
        kappa = np.ascontiguousarray(problem.attention.kappa, dtype=np.int64)
        arrays = (coverage, ctps, seeds, counts, kappa)
        if any(array.shape != (problem.num_nodes,) for array in arrays):
            raise ValueError(
                f"the selector reads {problem.num_nodes} entries per node "
                f"array, got shapes {[array.shape for array in arrays]}"
            )
        view = heap.view
        view.coverage, view.ctps, view.seeds, view.counts, view.kappa = (
            array.ctypes.data for array in arrays
        )
        view.n = problem.num_nodes
        view.weighted = self.config.select_rule == "weighted"
        view.cpe = float(self.cpes[ad])
        view.budget = float(self.budgets[ad])
        view.penalty = float(problem.penalty)
        heap.pinned = arrays
        heap.bound_to = state.collection

    def _limit(self) -> int:
        """Fresh entries a scan walks before it switches to the pass."""
        if self.config.select_rule == "coverage":
            return 1
        return _walk_limit(self.problem.num_nodes)

    def _load(self, ad: int, state: _AdState) -> _SelectView:
        """The ad's view, bound and holding its current revenue, seed
        count and θ, its answer marked stale."""
        heap = state.heap
        if heap.bound_to is not state.collection:
            self._bind(ad, state)
        view = heap.view
        view.revenue = state.revenue
        view.num_seeds = len(state.seeds_in_order)
        view.theta = state.theta
        view.active = state.active
        view.stale = 1
        return view

    def _open_table(self) -> None:
        """The compiled step's table over the freshly built heaps."""
        h = self.problem.num_ads
        self._table_ads = (ctypes.c_void_p * h)()
        self._table = _StepTable(
            ads=ctypes.addressof(self._table_ads), count=h, limit=self._limit(),
        )
        self._dirty = range(h)

    def _choose(self):
        """The ``SELECT`` step's pick: ``(ad, node, cov, marginal)``, or
        ``None`` when no ad has a candidate.

        One call of ``repro_select_step`` (``_select.c``) asks each
        active ad whose kept answer is stale — what
        :meth:`_best_candidate` answers — takes the cross-ad choice over
        the answers and marks stale what the pick invalidates.  The
        choice is anchored at the *global* maximum drop, which is
        order-independent: every answer within 1e-12 of it is tied, and
        the tie breaks on the smaller node id, then the exactly larger
        raw drop.  Pairwise ε-comparisons could not guarantee that (they
        are not transitive: drops can chain across the band boundary),
        and a winner that depended on catalog order would give a
        permuted catalog a different allocation.  Only answers that are
        bit-identical in both remain catalog-order dependent — the
        irreducibly symmetric case.

        *Why kept answers are exact.*  An ad's answer is a function of
        its own state, which only its own pick and ``GROW`` change (the
        ads those steps touched are re-loaded here), and of which nodes
        are eligible for it, which another ad's pick changes by one
        node.  The answer records the nodes it depends on — the header
        of ``_select.c`` says which and why — and only a pick among them
        makes it stale.  ``tests/algorithms/_reference_selector.py``
        keeps the loop that asks every ad on every step.

        The revenue is the answer's ``marginal``, which the compiled
        selector computes as :meth:`_marginal_revenue` does, to the bit.
        """
        table, states = self._table, self.states
        for ad in self._dirty:
            self._load(ad, states[ad])
            self._table_ads[ad] = states[ad].heap.address
        self._dirty = ()
        retired = table.retired
        found = library().repro_select_step(ctypes.addressof(table))
        if found < 0:
            raise MemoryError("the TIRM selector could not allocate memory")
        if table.retired != retired:
            for state in states:
                state.active = state.active and bool(state.heap.view.active)
        if found != _ANSWER:
            return None
        ad = table.chosen
        view = states[ad].heap.view
        return ad, view.node, view.cov, view.marginal

    def _best_candidate(self, ad: int, state: _AdState):
        """Argmax-drop candidate for one ad: ``(node, cov, marginal, drop)``.

        With the default ``weighted`` rule, candidates are taken in
        decreasing marginal-revenue order, so drops first rise toward
        the remaining budget and then only shrink — the scan stops at
        the first candidate whose marginal fits within the remaining
        budget (exact argmax, same argument as Algorithm 1's greedy).
        The ``coverage`` rule reproduces the literal Algorithm 3: only
        the single top-coverage node is considered.

        One call of the compiled selector (``_select.c``, whose header
        states the exactness contract) answers it; :meth:`_choose` asks
        the same question of each ad whose kept answer is stale:

        *What is lazy.*  The heap holds every eligible node of positive
        score under a key that is its score at some earlier coverage —
        never below its current one, since coverage only falls between
        rebuilds — and keys are refreshed as they reach the top.  While
        the fresh top fits (the common case) a call is one pop and one
        push, O(log n).

        *When it switches.*  Once an ad's remaining budget is smaller
        than its top marginal, the first candidate that fits can sit
        hundreds of entries deep.  So the walk is given
        :func:`_walk_limit` entries; a scan that is not settled by then
        is answered by a pass over the coverage vector instead — O(n)
        however deep the answer lies — which pops nothing more.

        *Why the answer is the same.*  Keys are the exact products
        :meth:`_rebuild_heap` computes, so an entry is fresh iff its key
        equals its current score, and fresh entries leave the heap in
        ``(-score, node)`` order over the eligible nodes of positive
        score: a pure function of coverage, CTPs and eligibility, which
        the pass evaluates directly with the walk's own arithmetic and
        folds with the same :func:`~repro.algorithms.greedy._beats`
        sequence.  The heap is left a valid lazy heap either way.

        An ad whose top candidate overshoots while no node at all
        lowers its regret is retired (``state.active = False``): its
        coverage, revenue and θ change only when it takes a seed, it has
        none to take, and other ads' picks only make users ineligible.
        """
        view = self._load(ad, state)
        found = library().repro_select(state.heap.address, self._limit())
        if found == _ANSWER:
            return view.node, view.cov, view.marginal, view.drop
        if found == _RETIRE:
            state.active = False
        elif found < 0:
            raise MemoryError("the TIRM selector could not allocate memory")
        return None

    def _marginal_revenue(self, ad: int, state: _AdState, node: int,
                          cov: int) -> float:
        """Theorem 5: ``cpe(i) · n · δ(v, i) · cov(v)/θ_i``."""
        problem = self.problem
        return float(
            self.cpes[ad] * problem.num_nodes * problem.ctps[ad, node] * cov / state.theta
        )

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(state={self.state!r}, "
            f"iterations={self.iterations}, h={self.problem.num_ads}, "
            f"job_id={self.job_id!r})"
        )
