"""Allocation jobs: sessions driven in worker threads over pooled engines.

A job is one :class:`~repro.algorithms.session.AllocationSession` run to
a terminal state in a daemon thread, over an engine leased from the
manager's :class:`~repro.service.pool.EnginePool` and the manager's
shared shard cache.  The worker publishes each step's progress snapshot
under the job's lock, so ``query-progress`` reads a consistent
boundary-state picture without ever touching the live session from
another thread; cancellation goes the other way through the session's
thread-safe :meth:`~repro.algorithms.session.AllocationSession.request_cancel`.

Incremental re-allocation (:meth:`JobManager.reallocate`) rebuilds the
source job's problem with budgets updated and/or ads added/removed and
submits it as a new job.  A pure budget change leaves the graph and the
per-ad probability rows — hence the pool key — untouched, so the new
job re-leases the *same warm engine*: its retained blocks serve every
previously sampled θ range and the backend is invoked only for ranges
the new instance grows beyond the old one, while the allocation stays
byte-identical to a cold batch run of the modified instance.

This module is the service's declared wall-clock seam (R102 —
``AnalysisConfig.seed_source_modules``): ``created_at``/``finished_at``
job timestamps are provenance about the service, never sampling inputs.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import replace

from repro.advertising.catalog import AdCatalog
from repro.advertising.problem import AdAllocationProblem
from repro.algorithms.session import TERMINAL_STATES, AllocationSession
from repro.algorithms.tirm import TIRMAllocator
from repro.errors import ServiceError
from repro.service.pool import EnginePool

#: TIRMAllocator keyword arguments a service request may set.  The
#: lifecycle knobs (checkpoint/resume) are deliberately absent — jobs
#: are resident, not checkpointed; everything else passes through.
ALLOCATOR_PARAMS = frozenset({
    "epsilon", "ell", "select_rule", "engine", "rng",
    "chunk_size", "backend",
    "initial_pilot", "min_rr_sets_per_ad", "max_rr_sets_per_ad",
    "max_workers", "max_iterations", "dsan", "seed",
})

#: ``load_dataset`` keyword arguments a service request may set.
DATASET_PARAMS = frozenset({"scale", "num_ads", "attention_bound", "penalty"})


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
    removed (sharing the graph and all unchanged rows).

    ``update_budgets`` maps ad index → new budget (JSON clients send
    string keys; both are accepted).  ``add_ads`` entries are dicts with
    ``name``/``budget``/``cpe`` plus ``like``, an existing ad index whose
    probability and CTP rows the new ad copies (the service never ships
    per-edge arrays over the wire).  ``remove_ads`` lists ad indices.
    """
    import numpy as np

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

    return AdAllocationProblem(
        problem.graph,
        AdCatalog(advertisers),
        np.stack(probs, axis=0),
        np.stack(ctps, axis=0),
        problem.attention,
        problem.penalty,
    )


class Job:
    """One allocation run and its published progress."""

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
        self.thread: threading.Thread | None = None
        self.session: AllocationSession | None = None
        self.snapshot: dict | None = None
        self.result = None
        self.error: BaseException | None = None
        self.engine_warm: bool | None = None
        self.cancel_requested = False

    @property
    def state(self) -> str:
        with self.lock:
            if self.error is not None:
                return "failed"
            if self.session is None:
                return "pending"
            return self.session.state

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
            }
            if self.error is not None:
                record["state"] = "failed"
                record["error"] = str(self.error)
            elif self.session is None:
                record["state"] = "pending"
            else:
                record["state"] = self.session.state
        return record


class JobManager:
    """Submit, observe, cancel and re-allocate jobs over one warm pool.

    ``cache`` follows the allocator's knob semantics: a directory path
    or open :class:`~repro.store.ShardCache` (owned iff opened here),
    ``None`` defers to the ``REPRO_CACHE`` environment variable.
    Finished jobs land as experiment-catalog allocation rows carrying
    their ``job_id`` when a cache is configured.

    ``coordinator`` enables ``engine="dist"`` jobs: a started (or
    startable) :class:`~repro.dist.Coordinator` is *borrowed* — the
    caller owns its lifetime — while a spec dict builds one the manager
    owns and closes.  Every distributed job shares it (and hence the
    worker fleet); ``None`` means dist jobs are refused.
    """

    def __init__(self, *, cache=None, max_idle_per_key: int = 4,
                 coordinator=None) -> None:
        from repro.store.cache import resolve_cache

        self.cache, self._cache_owned = resolve_cache(cache)
        self.coordinator = None
        self._coordinator_owned = False
        if coordinator is not None:
            from repro.dist.engine import DistributedEngine

            self.coordinator, self._coordinator_owned = (
                DistributedEngine._resolve_coordinator(coordinator)
            )
        self.pool = EnginePool(cache=self.cache, max_idle_per_key=max_idle_per_key)
        self._jobs: dict[str, Job] = {}
        self._ids = itertools.count(1)
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
        if self._closed:
            raise ServiceError("job manager is closed")
        if problem is None:
            if dataset is None:
                raise ServiceError("submit needs a dataset name or a problem")
            from repro.datasets.registry import load_dataset

            kwargs = dict(dataset_kwargs or {})
            unknown = sorted(set(kwargs) - DATASET_PARAMS)
            if unknown:
                raise ServiceError(
                    f"unknown dataset parameters {unknown}; allowed: "
                    f"{sorted(DATASET_PARAMS)}"
                )
            problem = load_dataset(dataset, **kwargs)
        allocator = build_allocator(
            params, dataset=dataset, coordinator=self.coordinator
        )
        with self._lock:
            job_id = f"job-{next(self._ids):04d}"
            job = Job(job_id, dataset, problem, allocator,
                      source_job_id=source_job_id)
            self._jobs[job_id] = job
        job.thread = threading.Thread(
            target=self._run_job, args=(job,),
            name=f"repro-{job_id}", daemon=True,
        )
        job.thread.start()
        return job

    def _run_job(self, job: Job) -> None:
        try:
            lease = self.pool.lease(job.problem, job.allocator)
            try:
                session = AllocationSession(
                    job.problem, job.allocator,
                    engine=lease.engine, cache=self.cache, job_id=job.job_id,
                )
                with job.lock:
                    job.session = session
                    job.engine_warm = lease.warm
                    if job.cancel_requested:
                        session.request_cancel()
                while session.state not in TERMINAL_STATES:
                    snapshot = session.step()
                    with job.lock:
                        job.snapshot = snapshot
                result = session.result()
                with job.lock:
                    job.result = result
            finally:
                lease.release()
        except BaseException as exc:  # published, never swallowed silently
            with job.lock:
                job.error = exc
        finally:
            job.finished_at = time.time()
            job.done.set()

    # ------------------------------------------------------------------
    # Observation / control
    # ------------------------------------------------------------------
    def get(self, job_id: str) -> Job:
        try:
            return self._jobs[job_id]
        except KeyError:
            raise ServiceError(f"unknown job id {job_id!r}") from None

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
            jobs = sorted(self._jobs.values(), key=lambda j: j.job_id)
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
        source job's warm engine: retained blocks serve every θ range
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
        if problem.num_ads == source.problem.num_ads:
            allocator = source.allocator
        else:
            # The pool key covers per-ad content, so a changed catalog
            # leases cold anyway; a fresh config keeps the source job's
            # record pristine.
            allocator = build_allocator(
                self._allocator_params(source.allocator),
                dataset=source.dataset,
                coordinator=self.coordinator,
            )
        if self._closed:
            raise ServiceError("job manager is closed")
        # Unlike submit(), reallocation reuses the source config object
        # directly (same-shape case), so the two runs share resolved
        # backend state and the pool key matches exactly.
        with self._lock:
            new_id = f"job-{next(self._ids):04d}"
            job = Job(new_id, source.dataset, problem, allocator,
                      source_job_id=job_id)
            self._jobs[new_id] = job
        job.thread = threading.Thread(
            target=self._run_job, args=(job,),
            name=f"repro-{new_id}", daemon=True,
        )
        job.thread.start()
        return job

    @staticmethod
    def _allocator_params(allocator: TIRMAllocator) -> dict:
        """The wire-shaped params dict reproducing ``allocator``."""
        return {
            "epsilon": allocator.epsilon,
            "ell": allocator.ell,
            "select_rule": allocator.select_rule,
            "engine": allocator.engine,
            "rng": allocator.rng,
            "chunk_size": allocator.chunk_size,
            "backend": allocator.backend,
            "initial_pilot": allocator.initial_pilot,
            "min_rr_sets_per_ad": allocator.min_rr_sets_per_ad,
            "max_rr_sets_per_ad": allocator.max_rr_sets_per_ad,
            "max_workers": allocator.max_workers,
            "max_iterations": allocator.max_iterations,
            "dsan": allocator.dsan,
            "seed": allocator._seed,
        }

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
            from repro.datasets.registry import load_dataset

            problem = load_dataset(dataset, **(dataset_kwargs or {}))
        if not 0 <= int(ad) < problem.num_ads:
            raise ServiceError(f"no ad with index {ad}")
        from repro.rrset.estimator import estimate_spread_from_sets

        allocator = build_allocator(
            params, dataset=dataset, coordinator=self.coordinator
        )
        with self.pool.lease(problem, allocator) as lease:
            lease.engine.ensure({int(ad): int(num_sets)})
            spread = estimate_spread_from_sets(
                lease.engine.shard(int(ad)), problem.num_nodes, list(seeds)
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
        and (when owned) the shard cache."""
        with self._lock:
            self._closed = True
            jobs = list(self._jobs.values())
        for job in jobs:
            with job.lock:
                job.cancel_requested = True
                if job.session is not None:
                    job.session.request_cancel()
        for job in jobs:
            if job.thread is not None:
                job.thread.join(timeout)
        self.pool.close()
        if self._coordinator_owned and self.coordinator is not None:
            self.coordinator.close()
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
