"""Allocation jobs: sessions driven in worker threads over pooled engines.

A job is one :class:`~repro.algorithms.session.AllocationSession` run to
a terminal state in a daemon thread, over an engine leased from the
manager's :class:`~repro.service.pool.EnginePool` and the manager's
shared shard cache.  The worker publishes each step's progress snapshot
under the job's lock, so ``query-progress`` reads a consistent
boundary-state picture without ever touching the live session from
another thread; cancellation goes the other way through the session's
thread-safe :meth:`~repro.algorithms.session.AllocationSession.request_cancel`.

Residency is single-copy.  *Run state belongs to the lease, not the
job*: the session — per-ad states, heaps, and through them the engine's
shards — is dropped when the lease is released, because the next lease
rewinds those very shards; a finished job keeps only what its readers
need (result, last snapshot, terminal state, and the problem/allocator
``reallocate`` starts from).  The job table is bounded
(:data:`MAX_JOBS`; a submit that finds it full of running jobs is
refused), and submits by dataset name share one problem per
``(dataset, dataset_kwargs)`` (:data:`MAX_PROBLEMS`).

Incremental re-allocation (:meth:`JobManager.reallocate`) rebuilds the
source job's problem with budgets updated and/or ads added/removed and
submits it as a new job.  A pure budget change leaves the graph and the
per-ad probability rows — hence the pool key — untouched, so the new
job re-leases the *same warm engine*: its resident sets serve every
previously sampled θ range and the backend is invoked only for ranges
the new instance grows beyond the old one, while the allocation stays
byte-identical to a cold batch run of the modified instance.

This module is the service's declared wall-clock seam (R102 —
``AnalysisConfig.seed_source_modules``): ``created_at``/``finished_at``
job timestamps are provenance about the service, never sampling inputs.
"""

from __future__ import annotations

import threading
import time
import traceback
from dataclasses import replace

import numpy as np

from repro.advertising.catalog import AdCatalog
from repro.advertising.problem import AdAllocationProblem
from repro.algorithms.session import TERMINAL_STATES, AllocationSession
from repro.algorithms.tirm import TIRMAllocator
from repro.errors import ServiceError
from repro.service.pool import EnginePool

#: TIRMAllocator keyword arguments a service request may set.  The
#: lifecycle knobs (checkpoint/resume) are deliberately absent — a
#: running job lives in this process only (nothing journals it, so a
#: killed server loses it), and a finished one is its result plus the
#: catalog row it wrote; everything else passes through.  ``backend``
#: accepts only ``"numpy"``; it is kept for ``bench/`` until the
#: ROADMAP's "Parked: re-cut the ruler" lands.
ALLOCATOR_PARAMS = frozenset({
    "epsilon", "ell", "select_rule", "engine", "rng",
    "chunk_size", "backend",
    "initial_pilot", "min_rr_sets_per_ad", "max_rr_sets_per_ad",
    "max_workers", "max_iterations", "dsan", "seed",
})

#: ``load_dataset`` keyword arguments a service request may set.
DATASET_PARAMS = frozenset({"scale", "num_ads", "attention_bound", "penalty"})

#: Jobs the table holds before the oldest *finished* ones are evicted.
#: A finished job is its result, last snapshot and config; the
#: allocation's per-user count vector (``8n`` bytes) dominates — 24 KB
#: pickled on the benchmark's ``LJ`` instance, where filling the table
#: costs ≈ 6 MiB of RSS and the server is flat from then on — while a
#: client that polls or re-allocates gets dozens of later submissions'
#: worth of time to come back for an id.  Running jobs are never
#: evicted, so the bound is also the queue bound: a submit that finds
#: this many jobs running is refused rather than overshooting it.
MAX_JOBS = 64

#: Problems the manager memoizes, least recently used evicted first.
#: An entry pins a whole instance (graph + ``h·m`` probabilities +
#: ``h·n`` CTPs: 3 MB on ``LJ``, gigabytes at paper scale), so the
#: bound covers the handful of datasets one deployment serves and no
#: more; a miss costs one ``load_dataset`` call, nothing else.
MAX_PROBLEMS = 4


def build_allocator(params: dict | None, *, dataset: str | None,
                    coordinator=None) -> TIRMAllocator:
    """A validated TIRM config from a wire-shaped params dict.

    ``engine="dist"`` jobs run on the manager's shared coordinator — a
    client never names workers or sockets (topology is provenance, not
    contract), it just asks for the distributed substrate.
    """
    params = dict(params or {})
    unknown = sorted(set(params) - ALLOCATOR_PARAMS)
    if unknown:
        raise ServiceError(
            f"unknown allocator parameters {unknown}; allowed: "
            f"{sorted(ALLOCATOR_PARAMS)}"
        )
    params.setdefault("seed", 0)
    if params.get("engine") == "dist":
        if coordinator is None:
            raise ServiceError(
                "engine='dist' jobs need the service's coordinator; start "
                "the server with --dist-port (or build the JobManager with "
                "coordinator=...)"
            )
        params["coordinator"] = coordinator
    return TIRMAllocator(dataset=dataset, **params)


def modified_problem(
    problem: AdAllocationProblem,
    *,
    update_budgets: dict | None = None,
    add_ads: list | None = None,
    remove_ads: list | None = None,
) -> AdAllocationProblem:
    """A copy of ``problem`` with budgets updated and/or ads added or
    removed.  The graph is always shared; with the catalog's shape
    unchanged (budget updates only) so are both ``(h, ·)`` matrices and
    their cached content digests — an add or remove stacks fresh ones.

    ``update_budgets`` maps ad index → new budget (JSON clients send
    string keys; both are accepted).  ``add_ads`` entries are dicts with
    ``name``/``budget``/``cpe`` plus ``like``, an existing ad index whose
    probability and CTP rows the new ad copies (the service never ships
    per-edge arrays over the wire).  ``remove_ads`` lists ad indices.
    """
    advertisers = list(problem.catalog)
    probs = [problem.ad_edge_probabilities(ad) for ad in range(problem.num_ads)]
    ctps = [problem.ad_ctps(ad) for ad in range(problem.num_ads)]

    for ad, budget in sorted((update_budgets or {}).items(), key=lambda kv: int(kv[0])):
        index = int(ad)
        if not 0 <= index < len(advertisers):
            raise ServiceError(f"update_budgets: no ad with index {index}")
        advertisers[index] = replace(advertisers[index], budget=float(budget))

    for spec in add_ads or ():
        try:
            like = int(spec["like"])
            name, budget, cpe = spec["name"], float(spec["budget"]), float(spec["cpe"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ServiceError(
                f"add_ads entries need name/budget/cpe/like, got {spec!r}"
            ) from exc
        if not 0 <= like < problem.num_ads:
            raise ServiceError(f"add_ads: no ad with index {like} to copy")
        advertisers.append(replace(
            problem.catalog[like], name=name, budget=budget, cpe=cpe,
        ))
        probs.append(problem.ad_edge_probabilities(like))
        ctps.append(problem.ad_ctps(like))

    if remove_ads:
        drop = {int(ad) for ad in remove_ads}
        bad = sorted(d for d in drop if not 0 <= d < len(advertisers))
        if bad:
            raise ServiceError(f"remove_ads: no ads with indices {bad}")
        if len(drop) == len(advertisers):
            raise ServiceError("remove_ads would leave an empty catalog")
        advertisers = [a for i, a in enumerate(advertisers) if i not in drop]
        probs = [p for i, p in enumerate(probs) if i not in drop]
        ctps = [c for i, c in enumerate(ctps) if i not in drop]

    if not (add_ads or remove_ads):
        return problem.with_catalog(AdCatalog(advertisers))
    stacked = []
    for rows in (probs, ctps):
        matrix = np.stack(rows, axis=0)
        matrix.flags.writeable = False  # the new problem's own: not copied
        stacked.append(matrix)
    return AdAllocationProblem(
        problem.graph,
        AdCatalog(advertisers),
        *stacked,
        problem.attention,
        problem.penalty,
    )


class Job:
    """One allocation run and its published progress.

    ``session`` is set only while the run holds its engine lease; once
    the job is terminal it is ``None`` and the job answers from what the
    worker published (``state``, ``snapshot``, ``result``, ``error``).
    """

    def __init__(self, job_id: str, dataset: str | None, problem, allocator,
                 *, source_job_id: str | None = None) -> None:
        self.job_id = job_id
        self.dataset = dataset
        self.problem = problem
        self.allocator = allocator
        self.source_job_id = source_job_id
        self.created_at = time.time()
        self.finished_at: float | None = None
        self.lock = threading.Lock()
        self.done = threading.Event()
        # Called once with the job when ``done`` is set (see
        # JobManager.when_done); guarded by ``lock``.
        self.done_callbacks: list = []
        self.session: AllocationSession | None = None
        self._state = "pending"
        self.snapshot: dict | None = None
        self.result = None
        self.error: BaseException | None = None
        self.engine_warm: bool | None = None
        self.cancel_requested = False

    @property
    def state(self) -> str:
        with self.lock:
            return "failed" if self.error is not None else self._state

    def summary(self) -> dict:
        with self.lock:
            snapshot = self.snapshot or {}
            record = {
                "job_id": self.job_id,
                "dataset": self.dataset,
                "source_job_id": self.source_job_id,
                "created_at": self.created_at,
                "finished_at": self.finished_at,
                "engine_warm": self.engine_warm,
                "iterations": snapshot.get("iterations", 0),
                "total_seeds": snapshot.get("total_seeds", 0),
                "state": self._state,
            }
            if self.error is not None:
                record["state"] = "failed"
                record["error"] = str(self.error)
        return record


class JobManager:
    """Submit, observe, cancel and re-allocate jobs over one warm pool.

    ``cache`` follows the allocator's knob semantics: a directory path
    or open :class:`~repro.store.ShardCache` (owned iff opened here),
    ``None`` defers to the ``REPRO_CACHE`` environment variable.
    Finished jobs land as experiment-catalog allocation rows carrying
    their ``job_id`` when a cache is configured.

    ``coordinator`` enables ``engine="dist"`` jobs: a started (or
    startable) :class:`~repro.dist.Coordinator` the caller owns and
    closes.  Every distributed job shares it (and hence the worker
    fleet); ``None`` means dist jobs are refused.
    """

    def __init__(self, *, cache=None, max_idle_per_key: int = 4,
                 coordinator=None) -> None:
        from repro.store.cache import resolve_cache

        self.cache, self._cache_owned = resolve_cache(cache)
        self.coordinator = coordinator
        self.pool = EnginePool(cache=self.cache, max_idle_per_key=max_idle_per_key)
        self._jobs: dict[str, Job] = {}
        self._issued = 0  # ids are job-0001 … job-<_issued>
        self._problems: dict[tuple, AdAllocationProblem] = {}
        self._lock = threading.Lock()
        self._closed = False

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(
        self,
        dataset: str | None = None,
        *,
        problem=None,
        params: dict | None = None,
        dataset_kwargs: dict | None = None,
        source_job_id: str | None = None,
    ) -> Job:
        """Start one allocation job; returns immediately with the job.

        Either ``dataset`` (a registry name, loaded with
        ``dataset_kwargs``) or a ready ``problem`` must be given.
        """
        if problem is None:
            if dataset is None:
                raise ServiceError("submit needs a dataset name or a problem")
            problem = self._problem_for(dataset, dataset_kwargs)
        allocator = build_allocator(
            params, dataset=dataset, coordinator=self.coordinator
        )
        return self._start(dataset, problem, allocator, source_job_id)

    def _problem_for(self, dataset: str, dataset_kwargs: dict | None):
        """The one resident problem of ``(dataset, dataset_kwargs)``:
        equal requests share a graph and both matrices."""
        kwargs = dict(dataset_kwargs or {})
        unknown = sorted(set(kwargs) - DATASET_PARAMS)
        if unknown:
            raise ServiceError(
                f"unknown dataset parameters {unknown}; allowed: "
                f"{sorted(DATASET_PARAMS)}"
            )
        key = (dataset, tuple(sorted(kwargs.items())))
        with self._lock:
            problem = self._problems.pop(key, None)
            if problem is not None:
                self._problems[key] = problem  # most recently used last
        if problem is None:
            from repro.datasets.registry import load_dataset

            built = load_dataset(dataset, **kwargs)  # not under the lock
            with self._lock:
                problem = self._problems.setdefault(key, built)
                while len(self._problems) > MAX_PROBLEMS:
                    del self._problems[next(iter(self._problems))]
        return problem

    def _start(self, dataset, problem, allocator, source_job_id) -> Job:
        """Register a job under a fresh id — evicting the oldest
        finished jobs to make room within :data:`MAX_JOBS`, never a
        running one — and start its worker thread.  With the table full
        of running jobs the submit is refused, and no id is issued."""
        if self._closed:
            raise ServiceError("job manager is closed")
        with self._lock:
            excess = len(self._jobs) + 1 - MAX_JOBS
            if excess > 0:
                finished = [
                    old.job_id for old in self._jobs.values() if old.done.is_set()
                ]
                for job_id in finished[:excess]:
                    del self._jobs[job_id]
            if len(self._jobs) >= MAX_JOBS:
                raise ServiceError(
                    f"job table is full: {len(self._jobs)} jobs are running "
                    f"(the bound is {MAX_JOBS}); retry when one finishes"
                )
            self._issued += 1
            job = Job(f"job-{self._issued:04d}", dataset, problem, allocator,
                      source_job_id=source_job_id)
            self._jobs[job.job_id] = job
        threading.Thread(
            target=self._run_job, args=(job,),
            name=f"repro-{job.job_id}", daemon=True,
        ).start()
        return job

    def _run_job(self, job: Job) -> None:
        try:
            with self.pool.lease(job.problem, job.allocator) as lease:
                self._drive(job, lease)
        except BaseException as exc:  # published, never swallowed silently
            # The traceback's frames hold the session; the job must not.
            traceback.clear_frames(exc.__traceback__)
            with job.lock:
                job.error = exc
        finally:
            job.finished_at = time.time()
            with job.lock:
                job.done.set()
                callbacks, job.done_callbacks = job.done_callbacks, []
            for callback in callbacks:
                callback(job)

    def _drive(self, job: Job, lease) -> None:
        """Step one session to a terminal state over the leased engine,
        publishing state, snapshot and result as it goes.  The session
        is dropped before the lease is released: the next lease rewinds
        the shards it reads."""
        session = AllocationSession(
            job.problem, job.allocator,
            engine=lease.engine, cache=self.cache, job_id=job.job_id,
        )
        with job.lock:
            job.session = session
            job._state = session.state
            job.engine_warm = lease.warm
            if job.cancel_requested:
                session.request_cancel()
        try:
            while session.state not in TERMINAL_STATES:
                snapshot = session.step()
                with job.lock:
                    job.snapshot = snapshot
                    job._state = session.state
            result = session.result()
            with job.lock:
                job.result = result
        finally:
            with job.lock:
                job.session = None

    # ------------------------------------------------------------------
    # Observation / control
    # ------------------------------------------------------------------
    def get(self, job_id: str) -> Job:
        try:
            return self._jobs[job_id]
        except KeyError:
            pass
        try:
            number = int(str(job_id)[4:])
        except ValueError:
            number = 0
        if 1 <= number <= self._issued and job_id == f"job-{number:04d}":
            raise ServiceError(
                f"job {job_id} was evicted from the job table (it keeps the "
                f"{MAX_JOBS} most recent jobs); its catalog row, if a cache "
                "is configured, is all that remains"
            )
        raise ServiceError(f"unknown job id {job_id!r}")

    def job_count(self) -> int:
        """Jobs in the table, running and finished."""
        return len(self._jobs)

    def progress(self, job_id: str) -> dict:
        """The job summary plus the latest boundary snapshot."""
        job = self.get(job_id)
        record = job.summary()
        with job.lock:
            if job.snapshot is not None:
                record["snapshot"] = dict(job.snapshot)
        return record

    def wait(self, job_id: str, timeout: float | None = None) -> Job:
        job = self.get(job_id)
        if not job.done.wait(timeout):
            raise ServiceError(
                f"job {job_id} still running after {timeout}s"
            )
        return job

    def when_done(self, job_id: str, callback) -> Job:
        """Call ``callback(job)`` once the job is done: right here if it
        already is, else from its worker thread as it finishes.  Returns
        the job.  This is how a waiter is told without holding a thread
        (the server's ``wait``)."""
        job = self.get(job_id)
        with job.lock:
            if not job.done.is_set():
                job.done_callbacks.append(callback)
                return job
        callback(job)
        return job

    def result(self, job_id: str):
        """The finished job's AllocationResult (raises on failed jobs)."""
        job = self.wait(job_id)
        if job.error is not None:
            raise ServiceError(
                f"job {job_id} failed: {job.error}"
            ) from job.error
        return job.result

    def cancel(self, job_id: str, *, wait: bool = False,
               timeout: float | None = None) -> Job:
        """Ask the job to stop at its next iteration boundary.  The
        truncated partial allocation becomes the job's result."""
        job = self.get(job_id)
        with job.lock:
            job.cancel_requested = True
            if job.session is not None:
                job.session.request_cancel()
        if wait:
            self.wait(job_id, timeout)
        return job

    def list_jobs(self) -> list[dict]:
        """Every job's summary, submission-ordered, with the experiment
        catalog's allocation row id attached where one was recorded."""
        with self._lock:
            jobs = list(self._jobs.values())  # inserted in id order
        catalog_ids: dict[str, int] = {}
        if self.cache is not None:
            for row in self.cache.catalog.list_allocations():
                if row.get("job_id"):
                    catalog_ids[row["job_id"]] = row["id"]
        records = []
        for job in jobs:
            record = job.summary()
            record["catalog_id"] = catalog_ids.get(job.job_id)
            records.append(record)
        return records

    # ------------------------------------------------------------------
    # Incremental re-allocation
    # ------------------------------------------------------------------
    def reallocate(
        self,
        job_id: str,
        *,
        update_budgets: dict | None = None,
        add_ads: list | None = None,
        remove_ads: list | None = None,
        timeout: float | None = None,
    ) -> Job:
        """Re-run a finished job against a modified instance.

        A pure budget update keeps the graph/probability content — hence
        the engine-pool key — unchanged, so the new job re-leases the
        source job's warm engine: its resident sets serve every θ range
        the old run sampled and the backend runs only for ranges the new
        instance grows past them.  Ad additions/removals change the
        shard layout and lease cold.  Either way the result is
        byte-identical to a cold batch allocation of the modified
        instance.
        """
        if not (update_budgets or add_ads or remove_ads):
            raise ServiceError(
                "reallocate needs update_budgets, add_ads or remove_ads"
            )
        source = self.wait(job_id, timeout)
        if source.error is not None:
            raise ServiceError(
                f"cannot reallocate failed job {job_id}: {source.error}"
            ) from source.error
        problem = modified_problem(
            source.problem,
            update_budgets=update_budgets,
            add_ads=add_ads,
            remove_ads=remove_ads,
        )
        # The allocator is a pure parameter record — run state lives on
        # the session — so every shape of re-allocation runs under the
        # source's own config.  The pool key covers per-ad content: a
        # changed catalog still leases cold.
        return self._start(source.dataset, problem, source.allocator, job_id)

    # ------------------------------------------------------------------
    # Spread estimation
    # ------------------------------------------------------------------
    def estimate_spread(
        self,
        dataset: str | None = None,
        *,
        problem=None,
        ad: int = 0,
        seeds,
        num_sets: int = 10_000,
        params: dict | None = None,
        dataset_kwargs: dict | None = None,
    ) -> dict:
        """``n · F_R(S)`` over ``num_sets`` RR-sets of one ad, sampled
        through a pooled engine (warm when the pool holds one for the
        same contract)."""
        if problem is None:
            if dataset is None:
                raise ServiceError(
                    "estimate_spread needs a dataset name or a problem"
                )
            problem = self._problem_for(dataset, dataset_kwargs)
        if not 0 <= int(ad) < problem.num_ads:
            raise ServiceError(f"no ad with index {ad}")
        seeds = [int(v) for v in seeds]
        bad = sorted({v for v in seeds if not 0 <= v < problem.num_nodes})
        if bad:
            raise ServiceError(
                f"seed ids {bad} out of range [0, {problem.num_nodes})"
            )
        from repro.rrset.estimator import estimate_spread_from_sets

        allocator = build_allocator(
            params, dataset=dataset, coordinator=self.coordinator
        )
        with self.pool.lease(problem, allocator) as lease:
            lease.engine.ensure({int(ad): int(num_sets)})
            spread = estimate_spread_from_sets(
                lease.engine.shard(int(ad)), problem.num_nodes, seeds
            )
            warm = lease.warm
        return {
            "spread": float(spread),
            "ad": int(ad),
            "num_sets": int(num_sets),
            "engine_warm": warm,
        }

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self, *, timeout: float | None = 30.0) -> None:
        """Cancel running jobs, join their threads, close pooled engines
        and (when owned) the shard cache.  The coordinator stays up: it
        belongs to the caller."""
        with self._lock:
            self._closed = True
            jobs = list(self._jobs.values())
        for job in jobs:
            with job.lock:
                job.cancel_requested = True
                if job.session is not None:
                    job.session.request_cancel()
        for job in jobs:
            # Set after the lease is back in the pool: nothing is out on
            # lease once every job is done.
            job.done.wait(timeout)
        self.pool.close()
        if self._cache_owned and self.cache is not None:
            self.cache.close()

    def __enter__(self) -> "JobManager":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"JobManager(jobs={len(self._jobs)}, pool={self.pool!r}, "
            f"closed={self._closed})"
        )
