"""Resumable allocation sessions — TIRM's loop as an explicit state machine.

:class:`AllocationSession` is the engine-room of TIRM (Algorithms 2–4)
factored out of the historical monolithic ``TIRMAllocator.allocate()``
loop into discrete, externally steppable states:

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

:meth:`AllocationSession.step` advances the machine and returns a
progress snapshot — the :mod:`repro.rrset.checkpoint` payload
(:func:`~repro.rrset.checkpoint.build_snapshot`: same fields as the
on-disk artifact, no file) plus the session state.  *Iteration
boundaries* — the consistent points where the batch loop snapshotted and
honored ``max_iterations`` — land at the end of every ``SELECT`` step
that triggers no growth and at the end of every ``GROW`` step; that is
exactly where checkpoints are written, ``max_iterations`` truncates, and
a :meth:`request_cancel` takes effect, so a cancelled or truncated
session returns the same valid partial allocation the batch
``max_iterations`` machinery produces.

The session *borrows* its engine and cache — both are injected and never
closed here.  That inversion is what the service tier
(:mod:`repro.service`) builds on: a warm
:class:`~repro.rrset.sharded.ShardedSamplingEngine` leased from an
:class:`~repro.service.EnginePool` runs many sessions back to back
(``reset_for_reuse`` between runs), and the batch ``TIRMAllocator``
facade is just "build an engine, run one session, close the engine" —
byte-identical to the pre-refactor loop by the equivalence suite.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field

import numpy as np

from repro.advertising.allocation import Allocation
from repro.advertising.regret import regret_of
from repro.algorithms.base import AllocationResult
from repro.errors import SessionError
from repro.rrset.checkpoint import TIRMCheckpoint, build_snapshot, save_checkpoint
from repro.rrset.pool import RRSetPool
from repro.rrset.sampler import STREAM_MODE, RRSetSampler
from repro.rrset.sharded import ShardedSamplingEngine

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


def _select_candidate(candidates):
    """Cross-ad argmax with an order-independent tie-break.

    ``candidates`` holds one ``(drop, node, cov, ad)`` tuple per active
    ad.  The winner must not depend on catalog order — otherwise the
    same problem under a permuted catalog can yield a different
    allocation and a different regret.  Pairwise ε-comparisons cannot
    guarantee that (they are not transitive: drops can chain across the
    band boundary), so the choice is anchored at the *global* maximum
    drop, which is itself order-independent: every candidate within
    1e-12 of it is considered tied, and the tie breaks on the smaller
    node id, then the exactly larger raw drop.  Only candidates that are
    bit-identical in both remain catalog-order dependent — the
    irreducibly symmetric case.
    """
    best_drop = max(c[0] for c in candidates)
    if best_drop <= 1e-12:
        return None
    in_band = [c for c in candidates if c[0] >= best_drop - 1e-12]
    return min(in_band, key=lambda c: (c[1], -c[0]))


@dataclass
class _AdState:
    """Mutable per-advertiser bookkeeping for one TIRM run."""

    sampler: RRSetSampler
    collection: RRSetPool
    seed_size_estimate: int = 1
    revenue: float = 0.0
    seeds_in_order: list[int] = field(default_factory=list)
    marginal_coverage: dict[int, int] = field(default_factory=dict)
    heap: list[tuple[float, int]] = field(default_factory=list)
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
        # Direct constructions (tests, the service) may not have run the
        # facade's up-front backend resolution; the checkpoint config
        # records it, so resolve it here when missing.
        if getattr(config, "_backend_obj", None) is None:
            from repro.rrset.backends import resolve_backend

            config._backend_obj = resolve_backend(config.backend)
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
        self._result: AllocationResult | None = None
        # request_cancel is called from other threads (the service's
        # cancel op), step() from the session's own — an Event is the
        # whole synchronization story, checked only at boundaries.
        self._cancel = threading.Event()

    # ------------------------------------------------------------------
    # Driving
    # ------------------------------------------------------------------
    def step(self) -> dict:
        """Advance the machine by one transition and return a progress
        snapshot (:meth:`progress`).

        ``SELECT`` steps that trigger an Algorithm-4 growth event stop
        *before* it (state ``GROW``; the snapshot is mid-iteration) and
        the following step completes the growth plus the iteration
        boundary — so every boundary-side effect (checkpoint write,
        ``max_iterations`` truncation, cancellation) observes exactly
        the state the batch loop did.  Terminal states are absorbing:
        stepping them is a no-op returning the final snapshot.
        """
        self._advance()
        return self.progress()

    def _advance(self) -> None:
        """One transition, no snapshot: what :meth:`run` loops —
        building the checkpoint-shaped payload per transition is
        O(seeds) work nobody reads there."""
        if self.state in TERMINAL_STATES:
            return
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

    def run(self) -> AllocationResult:
        """Drive the machine to a terminal state and return the result
        — the batch facade's whole loop."""
        while self.state not in TERMINAL_STATES:
            self._advance()
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
        """Live progress: the checkpoint snapshot payload
        (:func:`~repro.rrset.checkpoint.build_snapshot` — same fields
        as the on-disk artifact, no file) plus the session state."""
        snapshot = {
            "state": self.state,
            "iterations": self.iterations,
            "truncated": self.truncated,
            "total_seeds": self.allocation.total_seeds(),
        }
        if self.states is not None:
            snapshot.update(
                build_snapshot(
                    config=self.config._checkpoint_config(self.problem),
                    engine=self.engine,
                    per_ad=self._per_ad_records(),
                    iterations=self.iterations,
                    lineage=self.lineage,
                )
            )
            # build_snapshot reports the loop counter; "state" above is
            # the machine position, which subsumes at-boundary-ness
            # (GROW = mid-iteration, SELECT = at a boundary).
            snapshot["iterations"] = self.iterations
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
            self.start_iterations = self.iterations
            self.state = SELECT
            self._check_cancel()
            return
        h = self.problem.num_ads
        config = self.config
        self.states = [
            _AdState(
                sampler=self.engine.sampler(ad),
                collection=self.engine.shard(ad),
            )
            for ad in range(h)
        ]
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
        self.start_iterations = self.iterations
        self.state = SELECT
        self._check_cancel()

    def _step_select(self) -> None:
        candidates = []
        for ad in range(self.problem.num_ads):
            state = self.states[ad]
            if not state.active:
                continue
            candidate = self._best_candidate(ad, state)
            if candidate is None:
                continue
            node, cov, _, drop = candidate
            candidates.append((drop, node, cov, ad))
        chosen = _select_candidate(candidates) if candidates else None
        if chosen is None:
            self._finalize(DONE)
            return
        _, best_node, best_cov, best_ad = chosen
        state = self.states[best_ad]
        marginal = self._marginal_revenue(best_ad, state, best_node, best_cov)
        self.allocation.assign(best_node, best_ad)
        state.seeds_in_order.append(best_node)
        state.marginal_coverage[best_node] = best_cov
        state.revenue += marginal
        state.collection.remove_covered(best_node)
        self.iterations += 1
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
        self._grow_samples([ad], {ad: marginal})
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
    def _per_ad_records(self) -> list[dict]:
        return [
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

    def _write_checkpoint(self) -> None:
        config = self.config
        save_checkpoint(
            config.checkpoint_path,
            config=config._checkpoint_config(self.problem),
            engine=self.engine,
            per_ad=self._per_ad_records(),
            iterations=self.iterations,
            lineage=self.lineage,
        )
        self.checkpoints_written += 1
        if self.engine.cache is not None:
            # Register the artifact and the shard prefixes a resume
            # would re-read, so `repro gc` refuses to evict them while
            # the checkpoint is live.  Re-registration (the artifact is
            # atomically overwritten each boundary) replaces the row.
            self.engine.cache.catalog.record_checkpoint(
                config.checkpoint_path,
                iterations=self.iterations,
                config=config._checkpoint_config(self.problem),
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
            backend=engine.backend_name,
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
            "backend": engine.backend_name,
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
        if hasattr(engine, "dist_stats"):
            dist = engine.dist_stats()
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
            "backend": engine.backend_name,
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
            state = _AdState(
                sampler=self.engine.sampler(ad),
                collection=self.engine.shard(ad),
            )
            state.seed_size_estimate = int(checkpoint.seed_size_estimate[ad])
            state.revenue = float(checkpoint.revenue[ad])
            state.seeds_in_order = checkpoint.seeds_in_order(ad)
            state.marginal_coverage = checkpoint.marginal_coverage(ad)
            state.active = bool(checkpoint.active[ad])
            for user in state.seeds_in_order:
                self.allocation.assign(user, ad)
            states.append(state)
        return states

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------
    def _theta_for(self, state: _AdState, s: int) -> int:
        """``θ_i = L(s, ε)`` — the config's policy method (subclassable,
        and shared with the frozen legacy harness)."""
        return self.config._theta_for(self.problem, state, s)

    def _grow_samples(self, ads, last_marginals) -> None:
        """Algorithm 2 lines 14–19: revise each listed ad's ``s_i``, top
        up the grown ``θ_i`` through the engine in one request, then
        re-estimate existing seeds' coverage (Algorithm 4) per ad.

        The entry point is batch-shaped (a list of ads) but Algorithm
        2's trigger fires for one ad per iteration — the ad whose seed
        count just reached its estimate.  Under counter-based streams
        the engine splits even that single-ad request into ``(ad,
        chunk)`` tasks fanned across its substrate, so the growth
        phase scales with workers.
        The request names the absolute target ``θ_i`` (set indices
        ``[0, θ_i)``), so the sampled sets are independent of how growth
        events interleave."""
        problem, states = self.problem, self.states
        targets: dict[int, int] = {}
        for ad in ads:
            state = states[ad]
            regret = regret_of(
                self.budgets[ad], state.revenue, problem.penalty,
                len(state.seeds_in_order),
            )
            last_marginal = last_marginals[ad]
            if last_marginal > 0:
                growth = int(math.floor(regret / last_marginal))
            else:
                growth = 0
            state.seed_size_estimate += max(growth, 1)

            if state.theta >= self.config.max_rr_sets_per_ad:
                # θ_i is clamped to the cap, so no target can exceed it:
                # skip the greedy pilot cover that would compute one.
                continue
            target = self._theta_for(state, state.seed_size_estimate)
            if target > state.theta:
                targets[ad] = target
        if not targets:
            return
        self.engine.ensure(targets)
        # Speculative pipeline hint: the *next* growth event for this ad
        # will raise s_i by at least 1, so θ(s_i + 1) lower-bounds the
        # next θ target.  Submitting those chunks now lets the substrate
        # sample them while the parent runs Algorithm 4 and the greedy
        # selection below — legal because chunks are pure functions of
        # their stream address, so the speculative sets are
        # byte-identical whether or not they are needed (never-consumed
        # chunks are drained at engine close; an in-process engine
        # submits nothing).
        hints: dict[int, int] = {}
        for ad in sorted(targets):
            state = states[ad]
            hint = self._theta_for(state, state.seed_size_estimate + 1)
            if hint > state.theta:
                hints[ad] = hint
        if hints:
            self.engine.prefetch(hints)
        for ad in sorted(targets):
            state = states[ad]
            # Algorithm 4: walk existing seeds in selection order, credit
            # each with its coverage among the new (still-alive) sets, and
            # remove what it covers so later seeds are not double-credited.
            # ``remove_covered`` returns exactly the alive-set count the
            # old code recomputed via ``sets_containing`` — one index
            # walk, not two.
            for node in state.seeds_in_order:
                state.marginal_coverage[node] += state.collection.remove_covered(node)
            self._recompute_revenue(ad, state)
            self._rebuild_heap(ad, state)

    def _recompute_revenue(self, ad: int, state: _AdState) -> None:
        self.config._recompute_revenue(self.problem, ad, state, self.cpes)

    # ------------------------------------------------------------------
    # Candidate selection (Algorithm 3 — the config's policy methods)
    # ------------------------------------------------------------------
    def _rebuild_heap(self, ad: int, state: _AdState) -> None:
        self.config._rebuild_heap(self.problem, ad, state)

    def _best_candidate(self, ad: int, state: _AdState):
        return self.config._best_candidate(
            self.problem, ad, state, self.allocation, self.budgets, self.cpes
        )

    def _marginal_revenue(self, ad: int, state: _AdState, node: int,
                          cov: int) -> float:
        return self.config._marginal_revenue(
            self.problem, ad, state, node, cov, self.cpes
        )

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(state={self.state!r}, "
            f"iterations={self.iterations}, h={self.problem.num_ads}, "
            f"job_id={self.job_id!r})"
        )
