"""The chaos suite: every worker failure mode ends byte-identically.

The PR's acceptance criterion, verbatim: killing any single worker at
any point mid-allocation must still yield a byte-identical allocation
(equal dsan root) to the serial run — demonstrated across crash, stall,
and corrupt-payload failure modes (plus torn mid-frame writes and a
re-stamped block with a negative set length), with
the failure visible only as retry provenance.
"""

from __future__ import annotations

import warnings

import pytest

from chaos import ChaosWorker, join_workers, start_workers
from repro.advertising.advertiser import Advertiser
from repro.advertising.attention import AttentionBounds
from repro.advertising.catalog import AdCatalog
from repro.advertising.problem import AdAllocationProblem
from repro.algorithms.tirm import TIRMAllocator
from repro.dist import Coordinator, WorkerHost
from repro.graph.generators import erdos_renyi
from repro.graph.probabilities import constant_probabilities

#: Which coordinator counter each injected failure must land in.
EXPECTED_COUNTER = {
    "crash": "disconnects",
    "stall": "timeouts",
    "corrupt": "corrupt_blocks",
    "truncate": "disconnects",
    "negative": "corrupt_blocks",
}


def _problem(num_ads: int = 3):
    graph = erdos_renyi(60, 0.05, seed=5)
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


def _allocator(**kwargs) -> TIRMAllocator:
    defaults = dict(seed=0, max_rr_sets_per_ad=1_500, chunk_size=128,
                    dsan=True)
    defaults.update(kwargs)
    return TIRMAllocator(**defaults)


def _assert_identical(result, reference):
    assert result.allocation == reference.allocation
    assert result.stats["dsan_root"] == reference.stats["dsan_root"]
    assert result.stats["theta_per_ad"] == reference.stats["theta_per_ad"]


@pytest.fixture(scope="module")
def serial_reference():
    problem = _problem()
    return problem, _allocator().allocate(problem)


class TestSingleWorkerFailure:
    @pytest.mark.parametrize("failure", sorted(EXPECTED_COUNTER))
    def test_failure_mid_allocation_is_byte_identical(
        self, serial_reference, failure
    ):
        problem, reference = serial_reference
        task_timeout = 1.0 if failure == "stall" else 10.0
        with Coordinator(task_timeout=task_timeout) as coordinator:
            chaos = ChaosWorker(
                "127.0.0.1", coordinator.port, failure=failure, fail_on=2,
                stall_seconds=4.0, name="chaos",
            )
            good = WorkerHost("127.0.0.1", coordinator.port, name="good")
            threads = start_workers(coordinator, [chaos, good])
            result = _allocator(
                engine="dist", coordinator=coordinator
            ).allocate(problem)
        join_workers(threads)

        _assert_identical(result, reference)
        assert chaos.failures_injected == 1
        dist = result.stats["dist"]
        assert dist["retries"] >= 1, failure
        assert dist[EXPECTED_COUNTER[failure]] >= 1, failure
        # The failure is provenance: the allocation record carries the
        # retry counters without them ever touching a sample byte.
        provenance = result.allocation.provenance["dist"]
        assert provenance["retries"] >= 1
        assert provenance[EXPECTED_COUNTER[failure]] >= 1
        assert chaos.error is None and good.error is None

    @pytest.mark.parametrize("fail_on", [1, 2, 4])
    def test_crash_at_any_chunk_boundary(self, serial_reference, fail_on):
        """'at any point mid-allocation': the crash ordinal sweeps the
        first chunks a worker serves, including its very first."""
        problem, reference = serial_reference
        with Coordinator(task_timeout=10.0) as coordinator:
            chaos = ChaosWorker(
                "127.0.0.1", coordinator.port, failure="crash",
                fail_on=fail_on,
            )
            good = WorkerHost("127.0.0.1", coordinator.port)
            threads = start_workers(coordinator, [chaos, good])
            result = _allocator(
                engine="dist", coordinator=coordinator
            ).allocate(problem)
        join_workers(threads)
        _assert_identical(result, reference)
        assert result.stats["dist"]["disconnects"] >= 1


class TestFleetDeath:
    def test_every_worker_dead_still_completes_byte_identically(
        self, serial_reference
    ):
        """The sole worker crashes mid-run and nobody replaces it: the
        engine's local fallback finishes the allocation with identical
        bytes (the same pure (seed, ad, chunk) function, computed in
        process)."""
        problem, reference = serial_reference
        with Coordinator(
            task_timeout=5.0, worker_grace=0.3, max_retries=2
        ) as coordinator:
            chaos = ChaosWorker(
                "127.0.0.1", coordinator.port, failure="crash", fail_on=3
            )
            threads = start_workers(coordinator, [chaos])
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                result = _allocator(
                    engine="dist", coordinator=coordinator
                ).allocate(problem)
        join_workers(threads)
        _assert_identical(result, reference)
        dist = result.stats["dist"]
        assert dist["local_fallbacks"] >= 1
        assert dist["disconnects"] >= 1


class TestChaosWorkerHarness:
    def test_unknown_failure_mode_rejected(self):
        with pytest.raises(ValueError, match="failure mode"):
            ChaosWorker("127.0.0.1", 1, failure="meteor")
