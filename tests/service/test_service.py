"""EnginePool + JobManager: warm reuse, concurrency, incremental jobs.

The service's whole promise is *substrate, never contract*: whichever
engine a job leases — cold, warm, shared with N concurrent clients, or
re-leased for an incremental re-allocation — the allocation bytes must
equal a cold batch run of the same instance (equal dsan roots), with
the warm paths merely skipping sampling-backend invocations.
"""

from __future__ import annotations

import asyncio
import contextlib
import gc
import os
import sys
import threading
import time
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.advertising.advertiser import Advertiser
from repro.advertising.attention import AttentionBounds
from repro.advertising.catalog import AdCatalog
from repro.advertising.problem import AdAllocationProblem
from repro.algorithms.tirm import TIRMAllocator
from repro.errors import ReproError, ServiceError
from repro.graph.generators import erdos_renyi
from repro.graph.probabilities import constant_probabilities
from repro.rrset import pool as pool_module
from repro.service import jobs as jobs_module
from repro.service.client import ServiceClient
from repro.service.jobs import JobManager, build_allocator, modified_problem
from repro.service.pool import EnginePool
from repro.service.server import AllocationServer


@pytest.fixture(autouse=True)
def _no_ambient_cache(monkeypatch):
    """``cache=None`` must mean "no cache" here, not the env default."""
    monkeypatch.delenv("REPRO_CACHE", raising=False)


def _problem(seed: int = 0, num_ads: int = 3, budget: float = 6.0):
    graph = erdos_renyi(60, 0.05, seed=seed)
    catalog = AdCatalog(
        [Advertiser(name=f"a{i}", budget=budget, cpe=1.0) for i in range(num_ads)]
    )
    return AdAllocationProblem(
        graph,
        catalog,
        constant_probabilities(graph, 0.08),
        0.4,
        AttentionBounds.uniform(graph.num_nodes, num_ads),
    )


PARAMS = {"seed": 0, "max_rr_sets_per_ad": 1_000, "dsan": True}


def _assert_same_result(result, batch):
    assert result.allocation == batch.allocation
    assert result.stats["dsan_root"] == batch.stats["dsan_root"]
    assert np.array_equal(result.estimated_revenues, batch.estimated_revenues)


class TestEnginePool:
    def test_cold_then_warm_lease(self):
        problem = _problem()
        allocator = build_allocator(PARAMS, dataset=None)
        with EnginePool() as pool:
            lease = pool.lease(problem, allocator)
            assert not lease.warm
            engine = lease.engine
            engine.ensure({0: 32})  # dirty it
            lease.release()
            second = pool.lease(problem, allocator)
            assert second.warm
            assert second.engine is engine
            assert second.engine.total_sets() == 0  # reset on lease
            second.release()
            assert pool.stats() == {
                "warm_leases": 1, "cold_builds": 1,
                "idle_engines": 1, "idle_keys": 1,
            }

    def test_leases_are_exclusive(self):
        problem = _problem()
        allocator = build_allocator(PARAMS, dataset=None)
        with EnginePool() as pool:
            first = pool.lease(problem, allocator)
            second = pool.lease(problem, allocator)  # builds, never shares
            assert first.engine is not second.engine
            first.release()
            second.release()

    def test_key_covers_contract_and_content(self):
        problem = _problem()
        base = build_allocator(PARAMS, dataset=None)
        assert EnginePool.lease_key(problem, base) == EnginePool.lease_key(
            problem, build_allocator(PARAMS, dataset=None)
        )
        for change in ({"seed": 1}, {"chunk_size": 64}):
            other = build_allocator({**PARAMS, **change}, dataset=None)
            assert EnginePool.lease_key(problem, other) != EnginePool.lease_key(
                problem, base
            )
        # Different problem content → different key.
        assert EnginePool.lease_key(_problem(5), base) != EnginePool.lease_key(
            problem, base
        )

    def test_generator_seeds_are_not_poolable(self):
        problem = _problem()
        allocator = TIRMAllocator(seed=np.random.default_rng(0))
        assert EnginePool.lease_key(problem, allocator) is None
        with EnginePool() as pool:
            lease = pool.lease(problem, allocator)
            assert not lease.warm
            engine = lease.engine
            lease.release()  # closed, never pooled
            assert pool.stats()["idle_engines"] == 0
            assert not engine._finalizer.alive

    def test_closed_pool_closes_released_engines(self):
        problem = _problem()
        allocator = build_allocator(PARAMS, dataset=None)
        pool = EnginePool()
        lease = pool.lease(problem, allocator)
        pool.close()
        lease.release()
        assert not lease.engine._finalizer.alive
        with pytest.raises(ServiceError, match="closed"):
            pool.lease(problem, allocator)


class TestJobManager:
    def test_warm_resubmit_is_byte_identical_with_zero_invocations(self):
        problem = _problem()
        batch = TIRMAllocator(**PARAMS).allocate(problem)
        with JobManager(cache=None) as manager:
            cold = manager.submit(problem=problem, params=PARAMS)
            first = manager.result(cold.job_id)
            warm = manager.submit(problem=problem, params=PARAMS)
            second = manager.result(warm.job_id)
        assert cold.engine_warm is False
        assert warm.engine_warm is True
        _assert_same_result(first, batch)
        _assert_same_result(second, batch)
        assert first.stats["backend_invocations"] > 0
        assert second.stats["backend_invocations"] == 0

    def test_concurrent_clients_match_serial_batch(self):
        """N clients hammering one pool — every result byte-identical
        (equal dsan roots) to the serial batch allocation."""
        problem = _problem()
        batch = TIRMAllocator(**PARAMS).allocate(problem)
        with JobManager(cache=None) as manager:
            jobs = [
                manager.submit(problem=problem, params=PARAMS)
                for _ in range(4)
            ]
            results = [manager.result(job.job_id) for job in jobs]
        for result in results:
            _assert_same_result(result, batch)

    def test_cancel_returns_valid_truncated_partial(self):
        problem = _problem()
        with JobManager(cache=None) as manager:
            job = manager.submit(problem=problem, params=PARAMS)
            manager.cancel(job.job_id, wait=True, timeout=60)
            assert job.state in ("cancelled", "done")  # raced completion
            result = job.result
            assert result is not None
            assert result.allocation.total_seeds() == result.stats["iterations"]
            if job.state == "cancelled":
                assert result.stats["truncated"] is True

    def test_progress_and_list_jobs(self):
        problem = _problem()
        with JobManager(cache=None) as manager:
            job = manager.submit(problem=problem, params=PARAMS)
            manager.wait(job.job_id, timeout=60)
            record = manager.progress(job.job_id)
            assert record["state"] == "done"
            assert record["iterations"] > 0
            assert record["snapshot"]["theta"] == job.result.stats["theta_per_ad"]
            rows = manager.list_jobs()
            assert [row["job_id"] for row in rows] == [job.job_id]
            assert rows[0]["catalog_id"] is None  # no cache configured
            with pytest.raises(ServiceError, match="unknown job"):
                manager.progress("job-9999")

    def test_failed_job_surfaces_error(self, monkeypatch):
        problem = _problem()
        with JobManager(cache=None) as manager:
            with pytest.raises(ServiceError, match="unknown allocator"):
                manager.submit(problem=problem, params={"bogus_knob": 1})
            with pytest.raises(ServiceError, match="dataset name or a problem"):
                manager.submit()

            def boom(problem, allocator):
                raise ValueError("lease exploded")

            monkeypatch.setattr(manager.pool, "lease", boom)
            job = manager.submit(problem=problem, params=PARAMS)
            job.done.wait(60)
            assert job.state == "failed"
            summary = job.summary()
            assert summary["state"] == "failed"
            assert "lease exploded" in summary["error"]
            with pytest.raises(ServiceError, match="failed"):
                manager.result(job.job_id)
            with pytest.raises(ServiceError, match="failed"):
                manager.reallocate(job.job_id, update_budgets={0: 9.0})

    @pytest.mark.parametrize(
        "params, message",
        [
            ({"rng": "legacy"}, "rng must be 'philox'"),
            ({"sampler_mode": "scalar"}, "unknown allocator parameters"),
        ],
    )
    def test_other_stream_contracts_are_refused_at_submit(self, params, message):
        """A request naming another stream contract fails synchronously
        with a one-line :class:`ReproError` — what the server's reply
        loop answers as ``{"ok": false, "error": ...}`` — and no job."""
        with JobManager(cache=None) as manager:
            server = AllocationServer(manager)
            with pytest.raises(ReproError, match=message) as refusal:
                server.dispatch({
                    "op": "submit-allocation", "dataset": "figure1",
                    "params": {**PARAMS, **params},
                })
            assert "\n" not in str(refusal.value)
            assert manager.list_jobs() == []

    @pytest.mark.parametrize(
        "params",
        [{"transport": "auto"}, {"start_method": "fork"}, {"prefetch": False}],
    )
    def test_substrate_knobs_are_refused_at_submit(self, params):
        """How workers start and how blocks travel is the engine's
        business: a request naming any of the three retired knobs gets
        the same one-line refusal as any unknown parameter, and no job."""
        with JobManager(cache=None) as manager:
            server = AllocationServer(manager)
            with pytest.raises(
                ServiceError, match="unknown allocator parameters"
            ) as refusal:
                server.dispatch({
                    "op": "submit-allocation", "dataset": "figure1",
                    "params": {**PARAMS, **params},
                })
            assert "\n" not in str(refusal.value)
            assert manager.list_jobs() == []

    def test_restart_over_cache_dir_serves_warm_runs(self, tmp_path):
        """A killed-and-restarted service over the same --cache dir
        serves reruns from the shard store: zero backend invocations in
        the fresh process, byte-identical allocation, and catalog rows
        carrying the job ids of both lives."""
        problem = _problem()
        batch = TIRMAllocator(**PARAMS).allocate(problem)
        cache_dir = str(tmp_path / "store")
        with JobManager(cache=cache_dir) as first_life:
            job1 = first_life.submit(problem=problem, params=PARAMS)
            result1 = first_life.result(job1.job_id)
        assert result1.stats["backend_invocations"] > 0
        with JobManager(cache=cache_dir) as second_life:
            job2 = second_life.submit(problem=problem, params=PARAMS)
            result2 = second_life.result(job2.job_id)
            rows = second_life.cache.catalog.list_allocations()
        assert job2.engine_warm is False  # fresh process, cold engine...
        assert result2.stats["backend_invocations"] == 0  # ...warm store
        _assert_same_result(result2, batch)
        assert [row["job_id"] for row in rows] == ["job-0001", "job-0001"]
        assert all(row["dsan_root"] == batch.stats["dsan_root"] for row in rows)


class _HeldLease:
    """Patches ``manager.pool.lease`` so every job blocks before leasing
    until :meth:`release` lets it through — a job that is reliably
    *running*."""

    def __init__(self, manager, monkeypatch):
        self._gate = threading.Semaphore(0)
        lease = manager.pool.lease

        def held(problem, allocator):
            assert self._gate.acquire(timeout=60)
            return lease(problem, allocator)

        monkeypatch.setattr(manager.pool, "lease", held)

    def release(self, jobs: int):
        """Let the next ``jobs`` held jobs lease."""
        self._gate.release(jobs)


@contextlib.contextmanager
def _serving(manager):
    """A client of an :class:`AllocationServer` over ``manager``, served
    on its own event loop in a thread until the block exits."""
    server = AllocationServer(manager)
    listening = threading.Event()

    async def main():
        ready = asyncio.Event()
        serving = asyncio.ensure_future(server.serve_async(ready=ready))
        await ready.wait()
        listening.set()
        await serving

    thread = threading.Thread(target=asyncio.run, args=(main(),), daemon=True)
    thread.start()
    assert listening.wait(60)
    client = ServiceClient(server.bound_port, timeout=60.0)
    try:
        yield client
    finally:
        client.shutdown()
        thread.join(60)
        assert not thread.is_alive()


def _join_worker(job):
    """``done`` is set inside the worker's last frame; let it unwind."""
    for thread in threading.enumerate():
        if thread.name == f"repro-{job.job_id}":
            thread.join(60)
            assert not thread.is_alive()


class TestRunStateDiesWithTheLease:
    def test_finished_job_holds_no_session_and_no_pool(self, monkeypatch):
        """With nothing pooled (``max_idle_per_key=0``: the engine is
        closed on release) the job would be the last holder of its
        session and shards — and it lets go of both."""
        problem = _problem()
        refs = []

        class Spied(jobs_module.AllocationSession):
            def __init__(self, *args, engine, **kwargs):
                super().__init__(*args, engine=engine, **kwargs)
                refs.append(weakref.ref(self))
                refs.extend(
                    weakref.ref(engine.shard(ad)) for ad in range(engine.num_ads)
                )

        monkeypatch.setattr(jobs_module, "AllocationSession", Spied)
        with JobManager(cache=None, max_idle_per_key=0) as manager:
            job = manager.submit(problem=problem, params=PARAMS)
            manager.wait(job.job_id, timeout=60)
            _join_worker(job)
            gc.collect()
            assert len(refs) == 1 + problem.num_ads
            assert [ref() for ref in refs] == [None] * len(refs)
            assert job.session is None
            self._assert_still_answers(manager, job)

    def test_warm_engine_holds_the_only_copy(self):
        """Pooled, the shards live on — in the idle engine, rewound and
        revealed by the next lease, never in a finished job."""
        problem = _problem()
        with JobManager(cache=None) as manager:
            first = manager.submit(problem=problem, params=PARAMS)
            manager.wait(first.job_id, timeout=60)
            (engine,) = (e for idle in manager.pool._free.values() for e in idle)
            shards = [engine.shard(ad) for ad in range(engine.num_ads)]
            second = manager.submit(problem=problem, params=PARAMS)
            manager.wait(second.job_id, timeout=60)
            assert second.engine_warm is True
            assert [engine.shard(ad) for ad in range(engine.num_ads)] == shards
            assert first.session is None and second.session is None
            self._assert_still_answers(manager, first)

    def test_failed_job_holds_no_session(self, monkeypatch):
        problem = _problem()
        refs = []

        def boom(session):
            refs.append(weakref.ref(session))
            raise ValueError("step exploded")

        monkeypatch.setattr(jobs_module.AllocationSession, "step", boom)
        with JobManager(cache=None, max_idle_per_key=0) as manager:
            job = manager.submit(problem=problem, params=PARAMS)
            assert job.done.wait(60)
            _join_worker(job)
            gc.collect()
            assert job.state == "failed" and job.session is None
            assert "step exploded" in job.summary()["error"]
            assert [ref() for ref in refs] == [None]

    @staticmethod
    def _assert_still_answers(manager, job):
        assert job.state == "done"
        assert job.summary()["state"] == "done"
        record = manager.progress(job.job_id)
        assert record["snapshot"]["theta"] == job.result.stats["theta_per_ad"]
        assert manager.result(job.job_id) is job.result
        assert manager.cancel(job.job_id, wait=True, timeout=60) is job
        assert job.state == "done"  # cancelling a finished job is a no-op
        retry = manager.reallocate(job.job_id, update_budgets={0: 9.0})
        assert manager.result(retry.job_id).stats["iterations"] > 0


@pytest.fixture
def index_builds(monkeypatch) -> list:
    """Spy on both index-tier builders: one entry per build, the pool
    whose index read built it."""
    builds = []
    for name in ("_build_csr_index", "_build_pending_index"):
        def spy(*args, _original=getattr(pool_module, name)):
            builds.append(sys._getframe(1).f_locals["self"])
            return _original(*args)

        monkeypatch.setattr(pool_module, name, spy)
    return builds


class TestWarmLeaseBuildsNoIndex:
    def test_index_is_built_by_the_cold_job_only(self, index_builds):
        """The inverted index belongs to the sample: a warm resubmit and
        a budget re-allocation reveal shards whose index the cold job
        built, and build none.  (The throwaway pools of the pilot's OPT
        estimate build theirs on every job.)"""
        problem = _problem()
        with JobManager(cache=None) as manager:
            cold = manager.submit(problem=problem, params=PARAMS)
            manager.wait(cold.job_id, timeout=60)
            (engine,) = (e for idle in manager.pool._free.values() for e in idle)
            shards = [engine.shard(ad) for ad in range(engine.num_ads)]

            def shard_builds():
                builds = [p for p in index_builds if any(p is s for s in shards)]
                del index_builds[:]
                return len(builds)

            assert shard_builds() >= problem.num_ads  # one per shard, at least
            warm = manager.submit(problem=problem, params=PARAMS)
            manager.wait(warm.job_id, timeout=60)
            assert warm.engine_warm is True
            assert shard_builds() == 0
            retry = manager.reallocate(warm.job_id, update_budgets={0: 9.0})
            result = manager.result(retry.job_id)
            assert retry.engine_warm is True
            assert result.stats["backend_invocations"] == 0
            assert shard_builds() == 0


class TestBoundedJobTable:
    def test_oldest_finished_jobs_are_evicted_past_the_bound(self, monkeypatch):
        monkeypatch.setattr(jobs_module, "MAX_JOBS", 3)
        problem = _problem()
        with JobManager(cache=None) as manager:
            ids = []
            for _ in range(3 + 2):
                job = manager.submit(problem=problem, params=PARAMS)
                manager.wait(job.job_id, timeout=60)
                ids.append(job.job_id)
                assert manager.job_count() == len(manager._jobs) <= 3
            assert list(manager._jobs) == ids[-3:]
            assert [row["job_id"] for row in manager.list_jobs()] == ids[-3:]
            for evicted in ids[:2]:
                for call in (
                    lambda: manager.wait(evicted, timeout=1),
                    lambda: manager.progress(evicted),
                    lambda: manager.reallocate(evicted, update_budgets={0: 9.0}),
                ):
                    with pytest.raises(ServiceError, match="evicted"):
                        call()
            # Ids never issued — or merely shaped like one — stay unknown.
            for stranger in ("job-0006", "job-0000", "job-1", "job-", "nope", 1):
                with pytest.raises(ServiceError, match="unknown job id"):
                    manager.progress(stranger)

    def test_a_running_job_is_never_evicted(self, monkeypatch):
        """A table full of running jobs is also the queue bound: the next
        submit is refused — over the wire, one ``{"ok": false, ...}``
        line — instead of overshooting it, takes no id, and is accepted
        again as soon as one job finishes."""
        monkeypatch.setattr(jobs_module, "MAX_JOBS", 2)
        problem = _problem()
        with JobManager(cache=None) as manager, _serving(manager) as client:
            gate = _HeldLease(manager, monkeypatch)
            running = [
                manager.submit(problem=problem, params=PARAMS) for _ in range(2)
            ]
            # Nothing is finished, so nothing can go: job 3 is refused.
            with pytest.raises(ServiceError, match="full.*bound is 2"):
                client.submit("figure1", params=PARAMS)
            with pytest.raises(ServiceError, match="full.*bound is 2"):
                manager.submit(problem=problem, params=PARAMS)
            assert list(manager._jobs) == [job.job_id for job in running]
            assert client.ping()["jobs"] == manager.job_count() == 2
            gate.release(1)
            deadline = time.monotonic() + 60
            while not any(job.done.is_set() for job in running):
                assert time.monotonic() < deadline
                time.sleep(0.01)
            (still_running,) = (job for job in running if not job.done.is_set())
            accepted = client.submit("figure1", params=PARAMS)
            assert accepted == "job-0003"  # the refusals issued no id
            assert list(manager._jobs) == [still_running.job_id, accepted]
            assert manager.job_count() == 2
            gate.release(3)  # both held jobs, and the last one below
            for job_id in (still_running.job_id, accepted):
                manager.wait(job_id, timeout=60)
            last = manager.submit(problem=problem, params=PARAMS)
            assert manager.job_count() == 2
            manager.wait(last.job_id, timeout=60)
            assert list(manager._jobs) == [accepted, last.job_id]


class TestProblemMemo:
    KWARGS = {"scale": 0.002}

    def test_equal_submits_share_one_problem(self):
        with JobManager(cache=None) as manager:
            jobs = [
                manager.submit(
                    "flixster", params=PARAMS, dataset_kwargs=dict(self.KWARGS)
                )
                for _ in range(2)
            ]
            other = manager.submit(
                "flixster", params=PARAMS, dataset_kwargs={"scale": 0.003}
            )
            for job in (*jobs, other):
                manager.wait(job.job_id, timeout=120)
            assert jobs[0].problem is jobs[1].problem
            assert other.problem is not jobs[0].problem
            assert other.problem.graph is not jobs[0].problem.graph
            estimate = manager.estimate_spread(
                "flixster", ad=0, seeds=[0], num_sets=64, params=PARAMS,
                dataset_kwargs=dict(self.KWARGS),
            )
            assert estimate["engine_warm"] is True  # same problem, same key
            assert len(manager._problems) == 2

    def test_memo_is_bounded_and_evicts_least_recently_used(self, monkeypatch):
        monkeypatch.setattr(jobs_module, "MAX_PROBLEMS", 2)
        with JobManager(cache=None) as manager:
            def load(scale):
                return manager._problem_for("flixster", {"scale": scale})

            first = load(0.002)
            load(0.003)
            assert load(0.002) is first  # a hit: now the most recent
            load(0.004)                  # evicts 0.003, not 0.002
            assert len(manager._problems) == 2
            assert load(0.002) is first
            assert [dict(key[1])["scale"] for key in manager._problems] == [
                0.004, 0.002,
            ]


class TestReallocate:
    def test_budget_update_releases_warm_engine_and_matches_cold(self):
        problem = _problem()
        new_budget = float(problem.catalog[0].budget * 1.5)
        with JobManager(cache=None) as manager:
            job = manager.submit(problem=problem, params=PARAMS)
            manager.wait(job.job_id, timeout=60)
            retry = manager.reallocate(
                job.job_id, update_budgets={"0": new_budget}
            )
            result = manager.result(retry.job_id)
        assert retry.source_job_id == job.job_id
        assert retry.engine_warm is True
        modified = modified_problem(problem, update_budgets={0: new_budget})
        cold = TIRMAllocator(**PARAMS).allocate(modified)
        _assert_same_result(result, cold)
        # Backend runs only for θ ranges grown past the source job's —
        # the resident sets serve everything sampled before.
        assert result.stats["backend_invocations"] <= cold.stats[
            "backend_invocations"
        ]

    def test_add_and_remove_ads_rebuild_the_instance(self):
        """A changed catalog leases cold but runs under the source job's
        own config, non-default knobs included."""
        problem = _problem()
        params = {**PARAMS, "ell": 0.5, "select_rule": "coverage",
                  "max_iterations": 4}
        with JobManager(cache=None) as manager:
            job = manager.submit(problem=problem, params=params)
            manager.wait(job.job_id, timeout=60)
            grown = manager.reallocate(
                job.job_id,
                add_ads=[{"name": "a9", "budget": 4.0, "cpe": 1.0, "like": 0}],
            )
            grown_result = manager.result(grown.job_id)
            shrunk = manager.reallocate(job.job_id, remove_ads=[1])
            shrunk_result = manager.result(shrunk.job_id)
        assert grown.problem.num_ads == problem.num_ads + 1
        assert shrunk.problem.num_ads == problem.num_ads - 1
        assert grown.allocator is job.allocator is shrunk.allocator
        for result in (grown_result, shrunk_result):
            assert result.stats["select_rule"] == "coverage"
            assert result.stats["truncated"] and result.stats["iterations"] == 4
        cold_grown = TIRMAllocator(**params).allocate(grown.problem)
        cold_shrunk = TIRMAllocator(**params).allocate(shrunk.problem)
        _assert_same_result(grown_result, cold_grown)
        _assert_same_result(shrunk_result, cold_shrunk)

    def test_budget_update_shares_both_matrices(self):
        """A pure budget change copies no row; an add or a remove
        builds fresh stacks."""
        problem = _problem()
        rebudgeted = modified_problem(problem, update_budgets={"0": 9.0})
        assert rebudgeted.graph is problem.graph
        assert rebudgeted.edge_probabilities is problem.edge_probabilities
        assert rebudgeted.ctps is problem.ctps
        assert rebudgeted.catalog[0].budget == 9.0
        assert problem.catalog[0].budget == 6.0
        spec = {"name": "a9", "budget": 4.0, "cpe": 1.0, "like": 0}
        for changed in (
            modified_problem(problem, add_ads=[spec]),
            modified_problem(problem, remove_ads=[1]),
            modified_problem(problem, add_ads=[spec], remove_ads=[3]),
        ):
            assert changed.graph is problem.graph
            for mine, theirs in (
                (changed.edge_probabilities, problem.edge_probabilities),
                (changed.ctps, problem.ctps),
            ):
                assert not np.shares_memory(mine, theirs)
        same_shape = modified_problem(problem, add_ads=[spec], remove_ads=[3])
        assert np.array_equal(
            same_shape.edge_probabilities, problem.edge_probabilities
        )

    def test_reallocate_validation(self):
        problem = _problem()
        with JobManager(cache=None) as manager:
            job = manager.submit(problem=problem, params=PARAMS)
            manager.wait(job.job_id, timeout=60)
            with pytest.raises(ServiceError, match="needs"):
                manager.reallocate(job.job_id)
            with pytest.raises(ServiceError, match="no ad"):
                manager.reallocate(job.job_id, update_budgets={7: 1.0})
            with pytest.raises(ServiceError, match="empty catalog"):
                manager.reallocate(job.job_id, remove_ads=[0, 1, 2])
            with pytest.raises(ServiceError, match="unknown job"):
                manager.reallocate("job-9999", remove_ads=[0])


@pytest.fixture
def content_hashes(monkeypatch) -> list[str]:
    """Spy on the instance digests: one entry per ``array_digest`` or
    ``graph_digest`` call, by name."""
    from repro.utils import hashing

    calls: list[str] = []
    for name in ("array_digest", "graph_digest"):
        def spy(*args, _name=name, _digest=getattr(hashing, name), **kwargs):
            calls.append(_name)
            return _digest(*args, **kwargs)

        monkeypatch.setattr(hashing, name, spy)
    return calls


class TestInstanceHashedOnce:
    def test_warm_leases_hash_nothing(self, content_hashes):
        """The cold lease hashes the graph and every probability row; a
        warm resubmit and a budget-only re-allocation read the cached
        digests, and an add_ads re-allocation hashes its new matrix and
        leases cold."""
        problem = _problem()
        spec = {"name": "a9", "budget": 4.0, "cpe": 1.0, "like": 0}
        with JobManager(cache=None) as manager:
            cold = manager.submit(problem=problem, params=PARAMS)
            manager.wait(cold.job_id, timeout=60)
            assert content_hashes == ["graph_digest"] + ["array_digest"] * 3
            del content_hashes[:]
            warm = manager.submit(problem=problem, params=PARAMS)
            manager.wait(warm.job_id, timeout=60)
            rebudgeted = manager.reallocate(
                warm.job_id, update_budgets={"0": 9.0}
            )
            manager.result(rebudgeted.job_id)
            assert content_hashes == []
            grown = manager.reallocate(warm.job_id, add_ads=[spec])
            manager.result(grown.job_id)
        assert warm.engine_warm and rebudgeted.engine_warm
        assert not grown.engine_warm
        assert content_hashes == ["graph_digest"] + ["array_digest"] * 4


class TestEstimateSpread:
    def test_estimates_through_the_pool(self):
        from repro.rrset.estimator import estimate_spread_from_sets

        problem = _problem()
        with JobManager(cache=None) as manager:
            job = manager.submit(problem=problem, params=PARAMS)
            result = manager.result(job.job_id)
            seeds = [int(v) for v in result.allocation.seed_array(0)]
            estimate = manager.estimate_spread(
                problem=problem, ad=0, seeds=seeds, num_sets=512,
                params=PARAMS,
            )
        assert estimate["engine_warm"] is True
        assert estimate["num_sets"] == 512
        # Reference: the same estimator over a fresh engine's sets.
        allocator = TIRMAllocator(**PARAMS)
        with allocator._build_engine(problem, None, None) as engine:
            engine.ensure({0: 512})
            expected = estimate_spread_from_sets(
                engine.shard(0), problem.num_nodes, seeds
            )
        assert estimate["spread"] == pytest.approx(expected)

    def test_unknown_dataset_kwargs_are_refused_like_submit(self):
        bogus = {"bogus": 1}
        with JobManager(cache=None) as manager:
            with pytest.raises(ServiceError, match="unknown dataset parameters"):
                manager.submit("figure1", dataset_kwargs=bogus)
            with pytest.raises(ServiceError, match="unknown dataset parameters"):
                manager.estimate_spread("figure1", seeds=[0], dataset_kwargs=bogus)


class TestPing:
    def test_ping_counts_jobs_without_listing_them(self, monkeypatch):
        problem = _problem()
        with JobManager(cache=None) as manager:
            server = AllocationServer(manager)
            assert server.dispatch({"op": "ping"})["jobs"] == 0
            job = manager.submit(problem=problem, params=PARAMS)
            manager.wait(job.job_id, timeout=60)

            def listed():
                raise AssertionError("ping must not list the job table")

            monkeypatch.setattr(manager, "list_jobs", listed)
            reply = server.dispatch({"op": "ping"})
            assert reply["pong"] is True and reply["jobs"] == 1


class TestWaitersHoldNoThread:
    """A ``wait`` holds no executor thread while its job runs: more
    waiters than the loop's default executor has threads
    (``min(32, cpu + 4)``) leave ``ping`` answering."""

    @staticmethod
    def _waiting(job, count):
        deadline = time.monotonic() + 60
        while True:
            with job.lock:
                if len(job.done_callbacks) >= count:
                    return
            assert time.monotonic() < deadline, "the waiters never arrived"
            time.sleep(0.01)

    def test_waiters_leave_ping_answering_and_all_get_the_result(self, monkeypatch):
        waiters = (os.cpu_count() or 1) + 5
        problem = _problem()
        batch = TIRMAllocator(**PARAMS).allocate(problem)
        with JobManager(cache=None) as manager, _serving(manager) as client:
            gate = _HeldLease(manager, monkeypatch)
            job = manager.submit(problem=problem, params=PARAMS)
            with ThreadPoolExecutor(waiters + 1) as clients:
                replies = [
                    clients.submit(client.wait, job.job_id, 60)
                    for _ in range(waiters - 1)
                ]
                replies.append(clients.submit(client.wait, job.job_id, 0.2))
                self._waiting(job, waiters)
                started = time.monotonic()
                assert ServiceClient(client.port, timeout=1.0).ping()["pong"]
                assert time.monotonic() - started < 1.0
                assert manager.progress(job.job_id)["state"] == "pending"
                # The timed-out waiter got its answer while the job ran.
                with pytest.raises(ServiceError, match="still running after 0.2s"):
                    replies.pop().result(60)
                gate.release(1)
                results = [reply.result(60) for reply in replies]
        for result in results:
            assert result["state"] == "done"
            assert result["seeds_per_ad"] == [
                batch.allocation.seed_array(ad).tolist()
                for ad in range(problem.num_ads)
            ]

    def test_cancel_and_wait_holds_no_thread(self, monkeypatch):
        problem = _problem()
        with JobManager(cache=None) as manager, _serving(manager) as client:
            gate = _HeldLease(manager, monkeypatch)
            job = manager.submit(problem=problem, params=PARAMS)
            with ThreadPoolExecutor(1) as clients:
                reply = clients.submit(client.cancel, job.job_id, wait=True)
                self._waiting(job, 1)
                assert ServiceClient(client.port, timeout=1.0).ping()["pong"]
                assert not reply.done()
                gate.release(1)
                assert reply.result(60)["state"] == "cancelled"

    def test_reallocate_waits_for_its_source_on_the_loop(self, monkeypatch):
        problem = _problem()
        with JobManager(cache=None) as manager, _serving(manager) as client:
            gate = _HeldLease(manager, monkeypatch)
            source = manager.submit(problem=problem, params=PARAMS)
            with ThreadPoolExecutor(1) as clients:
                reply = clients.submit(
                    client.reallocate, source.job_id, update_budgets={0: 9.0}
                )
                self._waiting(source, 1)
                assert ServiceClient(client.port, timeout=1.0).ping()["pong"]
                assert not reply.done()
                gate.release(2)
                job_id = reply.result(60)
            assert client.wait(job_id, 60)["state"] == "done"
