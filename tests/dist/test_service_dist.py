"""Service tier over the distributed engine: dist jobs, warm reuse.

``engine="dist"`` is just another allocator knob to the service — the
job manager injects the shared coordinator its caller owns, the engine pool leases and
warm-reuses distributed engines like any other, and the result is
byte-identical to a serial batch run.  Requests for dist jobs on a
manager without a coordinator are refused with a clean ServiceError.
"""

from __future__ import annotations

import numpy as np
import pytest

from chaos import join_workers, start_workers
from repro.advertising.advertiser import Advertiser
from repro.advertising.attention import AttentionBounds
from repro.advertising.catalog import AdCatalog
from repro.advertising.problem import AdAllocationProblem
from repro.algorithms.tirm import TIRMAllocator
from repro.dist import Coordinator, WorkerHost
from repro.errors import ServiceError
from repro.graph.generators import erdos_renyi
from repro.graph.probabilities import constant_probabilities
from repro.service.jobs import JobManager


@pytest.fixture(autouse=True)
def _no_ambient_cache(monkeypatch):
    monkeypatch.delenv("REPRO_CACHE", raising=False)


def _problem(num_ads: int = 3):
    graph = erdos_renyi(60, 0.05, seed=9)
    catalog = AdCatalog(
        [Advertiser(name=f"a{i}", budget=6.0, cpe=1.0)
         for i in range(num_ads)]
    )
    return AdAllocationProblem(
        graph,
        catalog,
        constant_probabilities(graph, 0.08),
        0.4,
        AttentionBounds.uniform(graph.num_nodes, num_ads),
    )


PARAMS = {"seed": 0, "max_rr_sets_per_ad": 1_000, "chunk_size": 128,
          "dsan": True}


def test_dist_job_matches_serial_batch_run():
    problem = _problem()
    batch = TIRMAllocator(**PARAMS).allocate(problem)
    with Coordinator() as coordinator:
        workers = [WorkerHost("127.0.0.1", coordinator.port)
                   for _ in range(2)]
        threads = start_workers(coordinator, workers)
        with JobManager(coordinator=coordinator) as manager:
            job = manager.submit(
                problem=problem, params={**PARAMS, "engine": "dist"}
            )
            result = manager.result(job.job_id)
    join_workers(threads)
    assert result.allocation == batch.allocation
    assert result.stats["dsan_root"] == batch.stats["dsan_root"]
    assert np.array_equal(result.estimated_revenues, batch.estimated_revenues)
    assert result.stats["dist"]["tasks_completed"] > 0
    assert result.allocation.provenance["dist"]["retries"] == 0


def test_dist_jobs_warm_reuse_the_pooled_engine():
    problem = _problem()
    with Coordinator() as coordinator:
        workers = [WorkerHost("127.0.0.1", coordinator.port)]
        threads = start_workers(coordinator, workers)
        with JobManager(coordinator=coordinator) as manager:
            params = {**PARAMS, "engine": "dist"}
            first = manager.submit(problem=problem, params=params)
            cold = manager.result(first.job_id)
            second = manager.submit(problem=problem, params=params)
            warm = manager.result(second.job_id)
            assert first.engine_warm is False
            assert second.engine_warm is True
            assert cold.allocation == warm.allocation
            assert cold.stats["dsan_root"] == warm.stats["dsan_root"]
            # The warm lease replays retained blocks: no chunk crosses
            # the wire a second time.
            assert warm.stats["backend_invocations"] == 0
    join_workers(threads)


def test_dist_job_without_a_coordinator_is_refused():
    with JobManager() as manager:
        with pytest.raises(ServiceError, match="coordinator"):
            manager.submit(problem=_problem(), params={"engine": "dist"})


def test_manager_leaves_the_callers_coordinator_up():
    with Coordinator() as coordinator:
        with JobManager(coordinator=coordinator) as manager:
            assert manager.coordinator is coordinator
        assert coordinator.started
