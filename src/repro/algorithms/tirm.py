"""TIRM — Two-phase Iterative Regret Minimization (Algorithms 2–4, §5.2):
the batch facade.

:class:`TIRMAllocator` is a validated parameter record plus the engine
and cache lifecycle around one run: parameter validation, the
checkpoint compatibility record, and engine construction.  The
algorithm itself — the loop, the ``θ_i`` policy, the Algorithm-3
selector and the Algorithm-4 updates — lives in
:mod:`repro.algorithms.session` as the resumable
:class:`~repro.algorithms.session.AllocationSession` state machine;
``allocate()`` builds one engine, runs one session to completion, and
closes the engine.  ``engine=`` names the substrate the engine's one
chunk path fans out over — in-process, a fleet of forked workers, or
a fleet of dialled socket workers (:mod:`repro.rrset.sharded`) — and is
the only substrate choice there is: every substrate yields the same
bytes, so how workers start and how blocks travel home are recorded,
never configured.
Long-lived callers (the :mod:`repro.service` tier) drive sessions
directly over pooled engines instead.
"""

from __future__ import annotations

import os

import numpy as np

from repro.advertising.problem import AdAllocationProblem
from repro.algorithms.base import AllocationResult, Allocator
from repro.algorithms.session import AllocationSession
from repro.errors import ConfigurationError
from repro.rrset.backends import NumpyBackend, resolve_backend
from repro.rrset.checkpoint import TIRMCheckpoint
from repro.rrset.sampler import DEFAULT_CHUNK_SIZE, STREAM_MODE, STREAM_RNG
from repro.rrset.sharded import ShardedSamplingEngine, check_engine


class TIRMAllocator(Allocator):
    """TIRM's validated parameter record and batch entry point: each
    :meth:`allocate` runs one
    :class:`~repro.algorithms.session.AllocationSession` (Algorithm 2
    with the Algorithm-3 selector and Algorithm-4 updates) to completion.

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
        ``"serial"`` (default) samples every ad's RR-sets in-process,
        on the calling thread and one helper thread per further CPU
        (an ad with small chunks on the calling thread alone);
        ``"process"`` fans the sharded engine's chunk tasks — the
        batched pilot phase *and* every single-ad growth top-up — across
        forked worker processes.  The two produce identical
        allocations for the same ``(seed, chunk_size)``: every chunk of
        RR sets is a pure function of its ``(seed, ad, set_index)``
        address.  ``"dist"`` scatters the same chunk
        tasks to remote socket workers through a
        :class:`~repro.dist.Coordinator` (pass ``coordinator=``) —
        byte-identical again: topology is provenance, not contract.
    coordinator:
        Required with ``engine="dist"``: a started (or startable)
        :class:`~repro.dist.Coordinator` the caller owns; each engine
        registers one session on it.  Rejected for every other
        engine.
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
        Kept for ``bench/`` until the ROADMAP's "Parked: re-cut the
        ruler" lands: the recorded name of the one blocked BFS,
        ``"numpy"`` (:mod:`repro.rrset.backends`).  Not an option: any
        other value raises :class:`~repro.errors.ConfigurationError`.
    transport:
        Accepted with the single value ``"auto"``: how chunk blocks
        travel home is decided by the engine substrate (computed inline
        on ``engine="serial"``, RESULT frames over the fleet's sockets
        otherwise), not configured.  Any other value raises
        :class:`~repro.errors.ConfigurationError`.  Stats, provenance
        and checkpoints record what ran; resume never matches on it.
    initial_pilot:
        RR-sets sampled per ad before the first ``θ_i`` is computed.
    min_rr_sets_per_ad / max_rr_sets_per_ad:
        Clamp on each ``θ_i`` — the max keeps laptop-scale runs bounded
        (the paper ran on a 65 GB server).
    max_workers:
        Forked workers for ``engine="process"`` (default: cpu count).
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
    Allocate the paper's Figure-1 gadget; stats record the
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
        backend: str = NumpyBackend.name,
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
        if not 0 < ell < float("inf"):
            raise ConfigurationError(f"ell must be finite and > 0, got {ell}")
        for name, count in (
            ("chunk_size", chunk_size),
            ("initial_pilot", initial_pilot),
            ("min_rr_sets_per_ad", min_rr_sets_per_ad),
            ("max_rr_sets_per_ad", max_rr_sets_per_ad),
            ("max_workers", max_workers),
            ("checkpoint_every", checkpoint_every),
            ("max_iterations", max_iterations),
        ):
            # NaN passes every bound check below, ±inf the lower ones, and
            # neither converts to an int: refuse them here, not mid-run.
            if count is not None and not abs(count) < float("inf"):
                raise ConfigurationError(f"{name} must be a finite count, got {count}")
        if select_rule not in ("weighted", "coverage"):
            raise ConfigurationError(
                f"select_rule must be 'weighted' or 'coverage', got {select_rule!r}"
            )
        check_engine(engine, coordinator)
        if rng != STREAM_RNG:
            raise ConfigurationError(
                f"rng must be {STREAM_RNG!r} (the only stream contract), got {rng!r}"
            )
        if chunk_size < 1:
            raise ConfigurationError(f"chunk_size must be >= 1, got {chunk_size}")
        resolve_backend(backend)  # refuses anything but "numpy"
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
        return ShardedSamplingEngine(
            problem.graph,
            [problem.ad_edge_probabilities(ad) for ad in range(problem.num_ads)],
            seeds=self._seed if checkpoint is None else list(checkpoint.entropies),
            engine=self.engine,
            coordinator=self.coordinator,
            max_workers=self.max_workers,
            chunk_size=self.chunk_size,
            dsan=self.dsan,
            cache=cache,
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
        return {
            "algorithm": self.name,
            "rng": self.rng,
            "chunk_size": self.chunk_size,
            "backend": self.backend,
            "transport": "inline" if self.engine == "serial" else "socket",
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
