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

:meth:`AllocationSession.step` advances the machine and returns a
progress snapshot — the :mod:`repro.rrset.checkpoint` payload
(:func:`~repro.rrset.checkpoint.build_snapshot`) plus the session
state; a checkpoint file is this snapshot taken at a boundary.  *Iteration
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
byte-identical to the frozen pre-pool loop by the equivalence suite.
"""

from __future__ import annotations

import heapq
import math
import threading
from dataclasses import dataclass, field

import numpy as np

from repro.advertising.allocation import Allocation
from repro.advertising.regret import regret_of
from repro.algorithms.base import AllocationResult
from repro.algorithms.greedy import _beats
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
#: _WALK_NODES_PER_ENTRY``.  Measured on the 2-core dev box (numpy 2,
#: ``FLIX``-shaped states, ≈ 400 overshooting entries ahead of the first
#: fit): one walked entry ≈ 3.3 µs at every ``n``; one pass ≈ 32 / 116 /
#: 217 / 968 / 3 170 / 11 250 µs at n = 300 / 3 000 / 10 000 / 30 000 /
#: 100 000 / 300 000, i.e. the walk has paid for a pass after about
#: ``16 + n // 100`` entries.  Scans are bimodal — settled within a few
#: entries or hundreds deep — so the walk gives up at half of that:
#: ``FLIX`` (n = 3 000, seeds 1 / 2 / 5) reads 0.198 / 0.219 / 0.187 s at
#: 7 entries, 0.217 / 0.219 / 0.227 s at 23, 0.224 / 0.229 / 0.219 s at
#: 45, 0.255 / 0.248 / 0.237 s at 107 and 1.29 / 0.76 / 0.74 s never
#: switching.
_WALK_BASE = 8
_WALK_NODES_PER_ENTRY = 200


def _walk_limit(num_nodes: int) -> int:
    """Entries :meth:`AllocationSession._best_candidate` walks before it
    switches to :meth:`AllocationSession._scan_coverage`: a deep scan
    costs at most a pass and a half, and a scan settled near the top of
    a paper-scale heap never pays for a pass."""
    return _WALK_BASE + num_nodes // _WALK_NODES_PER_ENTRY


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
        ...     states = [session.step()["state"] for _ in range(2)]
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
        (:func:`~repro.rrset.checkpoint.build_snapshot`) plus the
        session state — at a boundary, exactly what a checkpoint
        file holds."""
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
        self.states = [self._new_state(ad) for ad in range(h)]
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

    def _new_state(self, ad: int) -> _AdState:
        return _AdState(collection=self.engine.shard(ad))

    def _restored_states(self, checkpoint: TIRMCheckpoint) -> list[_AdState]:
        """Rebuild the per-ad allocator state (and the allocation's seed
        assignments) from a restored snapshot.  The marginal-coverage
        dicts keep their checkpointed insertion order — revenue
        re-estimation sums floats in it."""
        states = []
        for ad in range(self.engine.num_ads):
            state = self._new_state(ad)
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
    def _score(self, ad: int, node: int, cov: int) -> float:
        if self.config.select_rule == "weighted":
            return float(self.problem.ctps[ad, node]) * cov
        return float(cov)

    def _rebuild_heap(self, ad: int, state: _AdState) -> None:
        coverage = state.collection.coverage()
        nodes = np.flatnonzero(coverage > 0)
        if self.config.select_rule == "weighted":
            scores = self.problem.ctps[ad, nodes] * coverage[nodes]
        else:
            scores = coverage[nodes].astype(np.float64)
        state.heap = list(zip((-scores).tolist(), nodes.tolist()))
        heapq.heapify(state.heap)

    def _pop_fresh(self, ad: int, state: _AdState):
        """Pop the eligible node with the largest *fresh* score.

        Scores only decrease between heap rebuilds (covered sets are
        removed), so re-pushing stale entries with their current score is
        sound.  Returns ``(node, coverage, score)`` or ``None`` when no
        eligible node with positive score remains.
        """
        problem, allocation = self.problem, self.allocation
        heap = state.heap
        while heap:
            neg_score, node = heap[0]
            if not allocation.can_assign(node, ad, problem.attention):
                heapq.heappop(heap)
                continue
            cov = state.collection.coverage_of(node)
            current = self._score(ad, node, cov)
            if current <= 0.0:
                heapq.heappop(heap)
                continue
            if math.isclose(current, -neg_score, rel_tol=1e-12, abs_tol=1e-12):
                heapq.heappop(heap)
                return node, cov, current
            heapq.heapreplace(heap, (-current, node))
        return None

    def _best_candidate(self, ad: int, state: _AdState):
        """Argmax-drop candidate for one ad: ``(node, cov, marginal, drop)``.

        With the default ``weighted`` rule, candidates are taken in
        decreasing marginal-revenue order, so drops first rise toward
        the remaining budget and then only shrink — the scan stops at
        the first candidate whose marginal fits within the remaining
        budget (exact argmax, same argument as Algorithm 1's greedy).
        The ``coverage`` rule reproduces the literal Algorithm 3: only
        the single top-coverage node is considered.

        *What is lazy.*  The heap holds every eligible node of positive
        score under a key that is its score at some earlier coverage —
        never below its current one, since coverage only falls between
        rebuilds — and :meth:`_pop_fresh` refreshes keys as they reach
        the top.  While the fresh top fits (the common case) a call is
        one pop and one push, O(log n).

        *When it switches.*  Once an ad's remaining budget is smaller
        than its top marginal, the first candidate that fits can sit
        hundreds of entries deep, and a walk would pop down to it and
        push everything back on this and every later iteration.  So the
        walk is given :func:`_walk_limit` entries; a scan that is not
        settled by then is answered by :meth:`_scan_coverage` instead —
        one numpy pass over the coverage vector, O(n) however deep the
        answer lies — and pops nothing more.

        *Why the answer is the same.*  Keys are the exact products
        :meth:`_rebuild_heap` and :meth:`_score` compute, so an entry is
        fresh iff its key equals its current score, and fresh entries
        leave the heap in ``(-score, node)`` order over the eligible
        nodes of positive score: a pure function of coverage, CTPs and
        eligibility, which the pass evaluates directly with the walk's
        own arithmetic and folds with the same :func:`_beats` sequence.
        The heap is left a valid lazy heap either way.

        An ad whose top candidate overshoots while no node at all
        lowers its regret is retired (``state.active = False``): its
        coverage, revenue and θ change only when it takes a seed, it has
        none to take, and other ads' picks only make users ineligible.
        """
        problem, budgets = self.problem, self.budgets
        remaining = budgets[ad] - state.revenue
        if remaining <= 0:
            return None
        num_seeds = len(state.seeds_in_order)
        before = regret_of(budgets[ad], state.revenue, problem.penalty, num_seeds)
        literal = self.config.select_rule == "coverage"
        limit = 1 if literal else _walk_limit(problem.num_nodes)
        scanned: list[tuple[float, int]] = []
        best = None
        best_drop = 0.0
        answered = False
        while len(scanned) < limit:
            top = self._pop_fresh(ad, state)
            if top is None:
                if not scanned:
                    state.active = False
                    return None
                break
            node, cov, score = top
            scanned.append((-score, node))
            marginal = self._marginal_revenue(ad, state, node, cov)
            drop = before - regret_of(
                budgets[ad], state.revenue + marginal, problem.penalty, num_seeds + 1
            )
            fits = marginal <= remaining
            # Every entry before this one overshot, or the walk had ended.
            if drop > 1e-12 and _beats(drop, fits, best_drop, False):
                best = (node, cov, marginal, drop)
                best_drop = drop
            if literal or fits:
                # The scan ends here — but empty-handed under a top entry
                # that overshoots, the ad may have to be retired, which
                # only the pass can tell.
                answered = best is not None or len(scanned) == 1
                break
        for entry in scanned:
            heapq.heappush(state.heap, entry)
        if answered:
            return best
        return self._scan_coverage(ad, state)

    def _scan_coverage(self, ad: int, state: _AdState):
        """The ``weighted`` scan of :meth:`_best_candidate` from its
        first entry, computed instead of walked: marginals, drops and
        fit flags of all nodes at once — the same operations in the same
        order as the scalar ones, so the same doubles — then the first
        eligible node that fits in ``(-score, node)`` order, and the
        :func:`_beats` fold over the eligible nodes ahead of it that
        lower regret, in that order.  Retires the ad when there is no
        eligible node, or the top one overshoots and no node at all
        lowers regret.
        """
        problem = self.problem
        coverage = state.collection.coverage()
        marginals, drops = self._marginals_and_drops(ad, state)
        lowers = drops > 1e-12
        fits = marginals <= self.budgets[ad] - state.revenue
        scores = problem.ctps[ad] * coverage
        eligible = self.allocation.assignable(ad, problem.attention) & (scores > 0.0)
        candidates = np.flatnonzero(eligible)
        if not candidates.size:
            state.active = False
            return None
        if not lowers.any():
            # Nothing to return, and nothing ever will be if the top
            # entry overshoots (one that fits ends the walk unasked).
            # argmax takes the first of equal scores: the smallest node,
            # as the heap does.
            if not fits[candidates[scores[candidates].argmax()]]:
                state.active = False
            return None
        ahead = eligible & lowers & ~fits
        fitting = candidates[fits[candidates]]
        first_fit = None
        if fitting.size:
            first_fit = int(fitting[scores[fitting].argmax()])
            # Ahead of it: a larger score, or an equal one at a smaller id.
            tied = scores == scores[first_fit]
            tied[first_fit:] = False
            ahead &= (scores > scores[first_fit]) | tied
        ahead = np.flatnonzero(ahead)
        # Ascending node ids, stably sorted by falling score: heap order.
        ahead = ahead[np.argsort(-scores[ahead], kind="stable")]
        winner = None
        best_drop = 0.0
        for node, drop in zip(ahead.tolist(), drops[ahead].tolist()):
            if _beats(drop, False, best_drop, False):
                winner, best_drop = node, drop
        if first_fit is not None and lowers[first_fit] and _beats(
            float(drops[first_fit]), True, best_drop, False
        ):
            winner = first_fit
        if winner is None:
            return None
        return (
            winner, int(coverage[winner]), float(marginals[winner]), float(drops[winner])
        )

    def _marginals_and_drops(self, ad: int, state: _AdState):
        """:meth:`_marginal_revenue` of every node, and the regret drop
        of taking it, as two float64 vectors: the operations of the
        scalar forms in their order, hence their doubles."""
        problem, budgets, cpes = self.problem, self.budgets, self.cpes
        num_seeds = len(state.seeds_in_order)
        marginals = (
            cpes[ad] * problem.num_nodes * problem.ctps[ad]
            * state.collection.coverage() / state.theta
        )
        after = (
            np.abs(float(budgets[ad]) - (state.revenue + marginals))
            + float(problem.penalty) * (num_seeds + 1)
        )
        before = regret_of(budgets[ad], state.revenue, problem.penalty, num_seeds)
        return marginals, before - after

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
