"""TIRM — Two-phase Iterative Regret Minimization (Algorithms 2–4, §5.2).

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

This module is the **batch facade**: parameter validation, the
checkpoint compatibility record, and engine/cache lifecycle.  The loop
itself lives in :mod:`repro.algorithms.session` as the resumable
:class:`~repro.algorithms.session.AllocationSession` state machine —
``allocate()`` builds one engine, runs one session to completion, and
closes the engine.  ``engine=`` names the substrate the engine's one
chunk path fans out over — in-process, a process pool, or a socket
fleet (:mod:`repro.rrset.sharded`) — and is the only substrate choice
there is: every substrate yields the same bytes, so how workers start
and how blocks travel home are observed and recorded, never configured.
Long-lived callers (the :mod:`repro.service` tier) drive sessions
directly over pooled engines instead.
"""

from __future__ import annotations

import heapq
import math
import os

import numpy as np

from repro.advertising.problem import AdAllocationProblem
from repro.advertising.regret import regret_of
from repro.algorithms.base import AllocationResult, Allocator
from repro.algorithms.greedy import _beats

# Re-exported for compatibility: the per-ad state record and the
# cross-ad tie-break moved to the session module with the loop.
from repro.algorithms.session import (  # noqa: F401
    AllocationSession,
    _AdState,
    _select_candidate,
)
from repro.errors import ConfigurationError
from repro.rrset.backends import BACKEND_MODES, SamplingBackend, resolve_backend
from repro.rrset.checkpoint import TIRMCheckpoint
from repro.rrset.sampler import DEFAULT_CHUNK_SIZE, STREAM_MODE, STREAM_RNG
from repro.rrset.sharded import ENGINE_MODES, ShardedSamplingEngine
from repro.rrset.tim import estimate_opt_lower_bound, required_rr_sets
from repro.utils.timing import Timer

#: Engine substrates the allocator accepts: the sharded engine's
#: in-process modes plus the distributed coordinator/worker tier
#: (:mod:`repro.dist`).  All byte-identical for the same
#: ``(seed, chunk_size)``.
ALLOCATOR_ENGINE_MODES = ENGINE_MODES + ("dist",)

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
    """Entries :meth:`TIRMAllocator._best_candidate` walks before it
    switches to :meth:`TIRMAllocator._scan_coverage`: a deep scan costs
    at most a pass and a half, and a scan settled near the top of a
    paper-scale heap never pays for a pass."""
    return _WALK_BASE + num_nodes // _WALK_NODES_PER_ENTRY


class TIRMAllocator(Allocator):
    """Algorithm 2 with the Algorithm-3 selector and Algorithm-4 updates.

    Parameters
    ----------
    epsilon:
        RR-set accuracy parameter ε (paper: 0.1 quality / 0.2 scalability).
    ell:
        Confidence parameter ℓ of Eq. (5).
    select_rule:
        ``"weighted"`` (CTP-weighted coverage; default) or ``"coverage"``
        (the literal Algorithm 3).
    engine:
        ``"serial"`` (default) samples every ad's RR-sets in-process;
        ``"process"`` fans the sharded engine's chunk tasks — the
        batched pilot phase *and* every single-ad growth top-up — across
        a process pool.  The two produce identical
        allocations for the same ``(seed, chunk_size)``: every chunk of
        RR sets is a pure function of its ``(seed, ad, set_index)``
        address.  ``"dist"`` scatters the same chunk
        tasks to remote socket workers through a
        :class:`~repro.dist.Coordinator` (pass ``coordinator=``) —
        byte-identical again: topology is provenance, not contract.
    coordinator:
        Required with ``engine="dist"``: a started
        :class:`~repro.dist.Coordinator` (borrowed — the caller owns
        its lifetime) or a spec dict (``{"host": ..., "port": ...}``)
        from which each engine builds a coordinator it owns.  Rejected
        for in-process engines.
    rng:
        The recorded name of the stream contract, ``"philox"``:
        counter-based streams — every RR set is addressed by
        ``(seed, ad, set_index)``, sampling parallelizes within an ad,
        and a mid-allocation resume is deterministic.  Not an option:
        any other value raises
        :class:`~repro.errors.ConfigurationError`, so a config written
        for a different stream is refused instead of silently resampled.
    chunk_size:
        Set-index chunk width of the counter-based streams.  Part of
        the determinism contract: the same ``(seed, chunk_size)``
        reproduces the same allocation.
    backend:
        Blocked-BFS sampling backend (:mod:`repro.rrset.backends`):
        ``"numpy"`` (reference, default), ``"numba"`` (JIT kernel,
        optional extra — raises
        :class:`~repro.errors.ConfigurationError` when not installed),
        ``"auto"`` (numba if importable, else numpy with a one-time
        warning), or a ready backend instance.  Backends produce
        byte-identical samples, so the backend is **not** part of the
        determinism contract — the same seed yields the same allocation
        on every backend, and a checkpoint written under one backend
        resumes under another.  Stats and provenance record the
        *resolved* name.
    transport:
        Accepted with the single value ``"auto"``: how chunk blocks
        travel home is decided by the engine substrate (shared-memory
        descriptors in-process, RESULT frames over the fleet's sockets),
        not configured.  Any other value raises
        :class:`~repro.errors.ConfigurationError`.  Stats, provenance
        and checkpoints record what ran; resume never matches on it.
    initial_pilot:
        RR-sets sampled per ad before the first ``θ_i`` is computed.
    min_rr_sets_per_ad / max_rr_sets_per_ad:
        Clamp on each ``θ_i`` — the max keeps laptop-scale runs bounded
        (the paper ran on a 65 GB server).
    max_workers:
        Process-pool width for ``engine="process"`` (default: cpu count).
    checkpoint_path / checkpoint_every:
        Snapshot the in-flight allocation to ``checkpoint_path`` every
        ``checkpoint_every`` iteration boundaries (default 1 when a path
        is given; atomic overwrite, see :mod:`repro.rrset.checkpoint`).
        The artifact holds no RR members — the counter-based streams
        re-derive them on resume.
    resume_from:
        Restore a mid-allocation snapshot and continue.  The resumed run
        produces a byte-identical allocation to the uninterrupted one
        for the same ``(seed, chunk_size)``; mismatched parameters
        raise :class:`~repro.errors.ConfigurationError`.
    max_iterations:
        Stop after this many iterations *of this run* (writing a final
        checkpoint when ``checkpoint_path`` is set) and return the
        partial allocation with ``stats["truncated"] = True`` — the
        incremental building block for time-bounded allocation slices.
    dsan:
        Runtime determinism sanitizer (:mod:`repro.rrset.dsan`): when
        enabled the engine records a blake2 digest per ``(ad, chunk)``
        block it splices, and the result carries them in
        ``stats["dsan_digests"]`` plus a whole-run ``dsan_root``
        fingerprint (also in provenance).  ``None`` (default) defers to
        the ``REPRO_DSAN`` environment variable.  Pure observation: the
        allocation is byte-identical with dsan on or off.
    cache:
        Shard cache knob (:mod:`repro.store`): a directory path (or
        open :class:`~repro.store.ShardCache`) makes sampling
        read-through over the content-addressed block store, records
        the finished allocation (with provenance and cache counters) in
        the store's experiment catalog, and registers every checkpoint's
        shard references so ``repro gc`` keeps what a resume would
        re-read.  ``None`` (default) defers to the ``REPRO_CACHE``
        environment variable.  **Not** part of the determinism
        contract: a warm run performs zero sampling-backend invocations
        (``stats["backend_invocations"]``) yet stays byte-identical to
        a cold one.
    dataset:
        Optional label recorded in the experiment catalog's allocation
        row (shown by ``repro ls``).  The problem object carries no
        name, so the caller supplies one; purely informational.
    seed:
        Master RNG seed; per-ad samplers get independent child streams.

    Examples
    --------
    Allocate the paper's Figure-1 gadget; stats record the resolved
    RNG/backend contract that makes the run reproducible::

        >>> from repro.algorithms.tirm import TIRMAllocator
        >>> from repro.datasets.toy import figure1_problem
        >>> allocator = TIRMAllocator(seed=0, max_rr_sets_per_ad=1_000)
        >>> result = allocator.allocate(figure1_problem())
        >>> result.algorithm, result.allocation.total_seeds() > 0
        ('TIRM', True)
        >>> result.stats["rng"], result.stats["backend"]
        ('philox', 'numpy')
    """

    name = "TIRM"

    def __init__(
        self,
        *,
        epsilon: float = 0.1,
        ell: float = 1.0,
        select_rule: str = "weighted",
        engine: str = "serial",
        coordinator=None,
        rng: str = STREAM_RNG,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        backend="numpy",
        transport: str = "auto",
        initial_pilot: int = 1_000,
        min_rr_sets_per_ad: int = 500,
        max_rr_sets_per_ad: int = 200_000,
        max_workers: int | None = None,
        checkpoint_path=None,
        checkpoint_every: int | None = None,
        resume_from=None,
        max_iterations: int | None = None,
        dsan: bool | None = None,
        cache=None,
        dataset: str | None = None,
        seed=None,
    ) -> None:
        if not 0 < epsilon < 1:
            raise ConfigurationError(f"epsilon must be in (0, 1), got {epsilon}")
        if ell <= 0:
            raise ConfigurationError(f"ell must be > 0, got {ell}")
        if select_rule not in ("weighted", "coverage"):
            raise ConfigurationError(
                f"select_rule must be 'weighted' or 'coverage', got {select_rule!r}"
            )
        if engine not in ALLOCATOR_ENGINE_MODES:
            raise ConfigurationError(
                f"engine must be one of {ALLOCATOR_ENGINE_MODES}, got {engine!r}"
            )
        if rng != STREAM_RNG:
            raise ConfigurationError(
                f"rng must be {STREAM_RNG!r} (the only stream contract), got {rng!r}"
            )
        if engine == "dist":
            if coordinator is None:
                raise ConfigurationError(
                    "engine='dist' needs a coordinator: pass a started "
                    "repro.dist.Coordinator or a spec dict"
                )
        elif coordinator is not None:
            raise ConfigurationError(
                f"coordinator is only meaningful with engine='dist', "
                f"got engine={engine!r}"
            )
        if chunk_size < 1:
            raise ConfigurationError(f"chunk_size must be >= 1, got {chunk_size}")
        if not isinstance(backend, SamplingBackend) and backend not in BACKEND_MODES:
            raise ConfigurationError(
                f"backend must be one of {BACKEND_MODES} or a SamplingBackend "
                f"instance, got {backend!r}"
            )
        if transport != "auto":
            raise ConfigurationError(
                f"transport must be 'auto' (the substrate decides how blocks "
                f"travel), got {transport!r}"
            )
        if min_rr_sets_per_ad < 1 or max_rr_sets_per_ad < min_rr_sets_per_ad:
            raise ConfigurationError(
                "need 1 <= min_rr_sets_per_ad <= max_rr_sets_per_ad, got "
                f"{min_rr_sets_per_ad} / {max_rr_sets_per_ad}"
            )
        if max_workers is not None and max_workers < 1:
            raise ConfigurationError(
                f"max_workers must be >= 1, got {max_workers}"
            )
        if checkpoint_every is not None and checkpoint_every < 1:
            raise ConfigurationError(
                f"checkpoint_every must be >= 1, got {checkpoint_every}"
            )
        if checkpoint_every is not None and checkpoint_path is None:
            raise ConfigurationError(
                "checkpoint_every requires a checkpoint_path to write to"
            )
        if max_iterations is not None and max_iterations < 1:
            raise ConfigurationError(
                f"max_iterations must be >= 1, got {max_iterations}"
            )
        self.epsilon = float(epsilon)
        self.ell = float(ell)
        self.select_rule = select_rule
        self.engine = engine
        self.coordinator = coordinator
        self.rng = rng
        self.chunk_size = int(chunk_size)
        self.backend = backend
        self.initial_pilot = int(initial_pilot)
        self.min_rr_sets_per_ad = int(min_rr_sets_per_ad)
        self.max_rr_sets_per_ad = int(max_rr_sets_per_ad)
        self.max_workers = max_workers
        self.checkpoint_path = (
            os.fspath(checkpoint_path) if checkpoint_path is not None else None
        )
        self.checkpoint_every = (
            int(checkpoint_every)
            if checkpoint_every is not None
            else (1 if self.checkpoint_path is not None else None)
        )
        self.resume_from = os.fspath(resume_from) if resume_from is not None else None
        self.max_iterations = (
            int(max_iterations) if max_iterations is not None else None
        )
        # Tri-state: None defers to REPRO_DSAN at engine construction.
        self.dsan = dsan
        # Tri-state likewise: None defers to REPRO_CACHE at allocate().
        self.cache = cache
        # Pure catalog label (the problem object carries no name): shown
        # in `repro ls`, never part of any contract.
        self.dataset = dataset
        self._seed = seed
        # Resolved at allocate() (or by the session guard): "auto"
        # commits to a substrate before any sampling so stats/
        # provenance/checkpoints record the resolved name.
        self._backend_obj = None

    # ------------------------------------------------------------------
    def allocate(self, problem: AdAllocationProblem) -> AllocationResult:
        with Timer() as timer:
            result = self._allocate(problem)
        result.runtime_seconds = timer.elapsed
        return result

    # ------------------------------------------------------------------
    def _allocate(self, problem: AdAllocationProblem) -> AllocationResult:
        # Resolve the shard cache here, above the engine: the catalog
        # records (allocation row, checkpoint references) land after
        # sampling finishes, so TIRM owns what it opens and the engine
        # only shares (and flushes) the instance.  Imported lazily so a
        # cache-less allocation never touches repro.store.
        from repro.store.cache import resolve_cache

        cache, cache_owned = resolve_cache(self.cache)
        try:
            return self._allocate_with_cache(problem, cache)
        finally:
            if cache_owned and cache is not None:
                cache.close()

    def _allocate_with_cache(
        self, problem: AdAllocationProblem, cache
    ) -> AllocationResult:
        # Resolve the sampling backend up front: "auto" commits to a
        # substrate (and warns if it degrades) before any sampling, an
        # unavailable explicit "numba" fails here with a clean
        # ConfigurationError, and stats/provenance/checkpoints all
        # record the *resolved* name.  Backends are byte-identical, so
        # resolution never affects the allocation — only throughput.
        self._backend_obj = resolve_backend(self.backend)
        checkpoint = self._load_checkpoint(problem)
        engine = self._build_engine(problem, cache, checkpoint)
        with engine:
            session = AllocationSession(
                problem, self, engine=engine, cache=cache, checkpoint=checkpoint
            )
            return session.run()

    # ------------------------------------------------------------------
    # Engine / checkpoint plumbing (shared with the service tier)
    # ------------------------------------------------------------------
    def _load_checkpoint(self, problem) -> TIRMCheckpoint | None:
        """Load and validate ``resume_from``, or ``None`` for a fresh run."""
        if self.resume_from is None:
            return None
        checkpoint = TIRMCheckpoint.load(self.resume_from)
        checkpoint.validate_config(self._checkpoint_config(problem))
        return checkpoint

    def _build_engine(
        self, problem, cache, checkpoint=None
    ) -> ShardedSamplingEngine:
        """Construct the sharded engine for one run of ``problem`` —
        the batch facade and the service tier's engine pool build the
        same engine."""
        # The streams take the master seed directly (per-ad separation
        # happens in the spawn key).  On resume the checkpoint's entropy
        # roots are authoritative: they rebuild the exact streams the
        # snapshot was sampled from.
        engine_kwargs = dict(
            seeds=self._seed if checkpoint is None else list(checkpoint.entropies),
            engine=self.engine,
            max_workers=self.max_workers,
            chunk_size=self.chunk_size,
            backend=self._backend_obj if self._backend_obj is not None
            else self.backend,
            dsan=self.dsan,
            cache=cache,
        )
        engine_class = ShardedSamplingEngine
        if self.engine == "dist":
            # Imported lazily: the distributed tier is an optional layer
            # over the engine seam, and an in-process allocation never
            # touches repro.dist.
            from repro.dist.engine import DistributedEngine

            engine_class = DistributedEngine
            engine_kwargs["coordinator"] = self.coordinator
        return engine_class(
            problem.graph,
            [problem.ad_edge_probabilities(ad) for ad in range(problem.num_ads)],
            **engine_kwargs,
        )

    @property
    def recorded_seed(self) -> int | None:
        """The master seed as checkpoints, provenance and catalog rows
        record it.  A generator-valued seed was consumed while sampling
        and cannot be recorded — ``None`` then; the stream entropy root
        alone still re-derives the run."""
        return int(self._seed) if isinstance(self._seed, (int, np.integer)) else None

    def _checkpoint_config(self, problem) -> dict:
        """The compatibility record stored in (and validated against)
        every checkpoint artifact: resuming under different allocator
        parameters or a different problem would silently converge to a
        different allocation, so mismatches are refused up front.

        ``backend`` and ``transport`` are recorded as provenance but
        deliberately *not* matched on resume — substrates are
        byte-identical, so a checkpoint written on one resumes on any
        other unchanged.
        """
        if self._backend_obj is None:
            self._backend_obj = resolve_backend(self.backend)
        return {
            "algorithm": self.name,
            "rng": self.rng,
            "chunk_size": self.chunk_size,
            "backend": self._backend_obj.name,
            "transport": (
                "socket" if self.engine == "dist"
                else ShardedSamplingEngine.transport
            ),
            "sampler_mode": STREAM_MODE,
            "select_rule": self.select_rule,
            "epsilon": self.epsilon,
            "ell": self.ell,
            "initial_pilot": self.initial_pilot,
            "min_rr_sets_per_ad": self.min_rr_sets_per_ad,
            "max_rr_sets_per_ad": self.max_rr_sets_per_ad,
            "num_ads": problem.num_ads,
            "num_nodes": problem.num_nodes,
            "num_edges": problem.graph.num_edges,
            "seed": self.recorded_seed,
        }

    # ------------------------------------------------------------------
    # Selection / θ policy (Algorithm 3, lazily)
    # ------------------------------------------------------------------
    # These are the *policy* half of the refactor: pure functions of the
    # run state with no engine or lifecycle coupling, kept on the config
    # object (old signatures, ``problem`` passed in) so the session
    # delegates to them and subclasses — including the frozen legacy
    # harness in the equivalence suite — can override them.

    #: Greedy-cover pilot size for OPT_s estimation: the cover runs on an
    #: i.i.d. prefix of the sample, so a fixed-size pilot estimates the
    #: same coverage fraction at O(1) cost per growth event.
    _OPT_PILOT_SETS = 2_000

    def _theta_for(self, problem, state: _AdState, s: int) -> int:
        """``θ_i = L(s, ε)`` with a greedy-pilot OPT_s lower bound.

        The pilot is a zero-copy CSR window over the first sets of the
        pool, so each growth event costs O(pilot), not O(θ).
        """
        n = problem.num_nodes
        s = min(max(s, 1), n)
        pilot = state.collection.prefix_view(self._OPT_PILOT_SETS)
        opt_lower = estimate_opt_lower_bound(pilot, n, s)
        theta = required_rr_sets(n, s, self.epsilon, opt_lower, ell=self.ell)
        return int(min(max(theta, self.min_rr_sets_per_ad), self.max_rr_sets_per_ad))

    def _recompute_revenue(self, problem, ad: int, state: _AdState, cpes) -> None:
        """``Π_i(S_i) = Σ_v cpe·n·δ(v,i)·cov(v)/θ_i`` over chosen seeds."""
        n = problem.num_nodes
        delta = problem.ad_ctps(ad)
        theta = state.theta
        state.revenue = float(
            sum(
                cpes[ad] * n * delta[node] * count / theta
                for node, count in state.marginal_coverage.items()
            )
        )

    def _score(self, problem, ad: int, node: int, cov: int) -> float:
        if self.select_rule == "weighted":
            return float(problem.ctps[ad, node]) * cov
        return float(cov)

    def _rebuild_heap(self, problem, ad: int, state: _AdState) -> None:
        coverage = state.collection.coverage()
        nodes = np.flatnonzero(coverage > 0)
        if self.select_rule == "weighted":
            scores = problem.ctps[ad, nodes] * coverage[nodes]
        else:
            scores = coverage[nodes].astype(np.float64)
        state.heap = list(zip((-scores).tolist(), nodes.tolist()))
        heapq.heapify(state.heap)

    def _pop_fresh(self, problem, ad: int, state: _AdState, allocation):
        """Pop the eligible node with the largest *fresh* score.

        Scores only decrease between heap rebuilds (covered sets are
        removed), so re-pushing stale entries with their current score is
        sound.  Returns ``(node, coverage, score)`` or ``None`` when no
        eligible node with positive score remains.
        """
        heap = state.heap
        while heap:
            neg_score, node = heap[0]
            if not allocation.can_assign(node, ad, problem.attention):
                heapq.heappop(heap)
                continue
            cov = state.collection.coverage_of(node)
            current = self._score(problem, ad, node, cov)
            if current <= 0.0:
                heapq.heappop(heap)
                continue
            if math.isclose(current, -neg_score, rel_tol=1e-12, abs_tol=1e-12):
                heapq.heappop(heap)
                return node, cov, current
            heapq.heapreplace(heap, (-current, node))
        return None

    def _best_candidate(self, problem, ad: int, state: _AdState, allocation, budgets, cpes):
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
        remaining = budgets[ad] - state.revenue
        if remaining <= 0:
            return None
        num_seeds = len(state.seeds_in_order)
        before = regret_of(budgets[ad], state.revenue, problem.penalty, num_seeds)
        literal = self.select_rule == "coverage"
        limit = 1 if literal else _walk_limit(problem.num_nodes)
        scanned: list[tuple[float, int]] = []
        best = None
        best_drop = 0.0
        answered = False
        while len(scanned) < limit:
            top = self._pop_fresh(problem, ad, state, allocation)
            if top is None:
                if not scanned:
                    state.active = False
                    return None
                break
            node, cov, score = top
            scanned.append((-score, node))
            marginal = self._marginal_revenue(problem, ad, state, node, cov, cpes)
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
        return self._scan_coverage(problem, ad, state, allocation, budgets, cpes)

    def _scan_coverage(self, problem, ad: int, state: _AdState, allocation, budgets, cpes):
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
        coverage = state.collection.coverage()
        marginals, drops = self._marginals_and_drops(problem, ad, state, budgets, cpes)
        lowers = drops > 1e-12
        fits = marginals <= budgets[ad] - state.revenue
        scores = problem.ctps[ad] * coverage
        eligible = allocation.assignable(ad, problem.attention) & (scores > 0.0)
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

    def _marginals_and_drops(self, problem, ad: int, state: _AdState, budgets, cpes):
        """:meth:`_marginal_revenue` of every node, and the regret drop
        of taking it, as two float64 vectors: the operations of the
        scalar forms in their order, hence their doubles."""
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

    def _marginal_revenue(self, problem, ad: int, state: _AdState, node: int,
                          cov: int, cpes) -> float:
        """Theorem 5: ``cpe(i) · n · δ(v, i) · cov(v)/θ_i``."""
        return float(
            cpes[ad] * problem.num_nodes * problem.ctps[ad, node] * cov / state.theta
        )
