"""ShardedSamplingEngine: per-ad shards, serial/process parity.

The engine's contract is that ``engine="process"`` is a pure wall-clock
optimisation: for the same seeds it must fill every shard with exactly
the same sets, in the same order, as ``engine="serial"`` — which in turn
holds exactly the chunks the plain sampler draws for each ad's plan.
"""

from __future__ import annotations

import functools
import os
import subprocess
import sys
import textwrap
import threading
import time
from concurrent.futures import wait

import numpy as np
import pytest

from repro.advertising.advertiser import Advertiser
from repro.advertising.attention import AttentionBounds
from repro.advertising.catalog import AdCatalog
from repro.advertising.problem import AdAllocationProblem
from repro.algorithms.session import AllocationSession
from repro.algorithms.tirm import TIRMAllocator
from repro.datasets import flixster_like, livejournal_like
from repro.errors import ConfigurationError, DeterminismError
from repro.graph.generators import erdos_renyi
from repro.graph.probabilities import constant_probabilities
from repro.graph._traversal import BfsTable
from repro.rrset.backends import BLOCK_BATCH
from repro.rrset.block import Block
from repro.rrset.pool import RRSetPool
from repro.rrset.sampler import RRSetSampler, StreamPlan
from repro.rrset import sharded
from repro.rrset.sharded import ChunkSubstrate, ShardedSamplingEngine
from repro.service.pool import EnginePool

from tests.rrset._pool_helpers import alive_mask

SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "..", "src"))


def _problem(seed: int, num_ads: int = 3, budget: float = 6.0):
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


def _probs(problem):
    return [problem.ad_edge_probabilities(ad) for ad in range(problem.num_ads)]


def _assert_shards_equal(a: ShardedSamplingEngine, b: ShardedSamplingEngine):
    assert a.num_ads == b.num_ads
    for ad in range(a.num_ads):
        pa, pb = a.shard(ad), b.shard(ad)
        assert pa.num_total == pb.num_total
        assert pa.num_alive == pb.num_alive
        assert np.array_equal(pa.coverage(), pb.coverage())
        assert np.array_equal(alive_mask(pa), alive_mask(pb))
        va, vb = pa.prefix_view(), pb.prefix_view()
        assert np.array_equal(va.indptr, vb.indptr)
        assert np.array_equal(va.members, vb.members)


class TestConfiguration:
    def test_rejects_bad_engine(self):
        problem = _problem(0)
        with pytest.raises(ConfigurationError):
            ShardedSamplingEngine(problem.graph, _probs(problem), engine="threads")

    def test_rejects_empty_catalog(self):
        problem = _problem(0)
        with pytest.raises(ConfigurationError):
            ShardedSamplingEngine(problem.graph, [])

    def test_rejects_seed_count_mismatch(self):
        problem = _problem(0)
        with pytest.raises(ConfigurationError):
            ShardedSamplingEngine(problem.graph, _probs(problem), seeds=[1, 2])

    def test_rejects_bad_requests(self):
        problem = _problem(0)
        with ShardedSamplingEngine(problem.graph, _probs(problem), seeds=0) as eng:
            with pytest.raises(ConfigurationError):
                eng.sample({7: 10})
            with pytest.raises(ConfigurationError):
                eng.sample({0: -1})

    @pytest.mark.parametrize(
        "request_",
        [{0: 10.7}, {1: 2.5}, {0: 3.0}, {True: 5}, {0.9: 12}, {0: False},
         {np.float64(1.0): 4}, {0: np.float32(8.0)}, {0: np.bool_(True)}],
    )
    @pytest.mark.parametrize("method", ["sample", "ensure", "prefetch"])
    def test_rejects_non_integer_requests(self, method, request_):
        """A float or bool ad or count is refused, never truncated: no
        shard grows."""
        problem = _problem(0)
        with ShardedSamplingEngine(problem.graph, _probs(problem), seeds=0) as eng:
            with pytest.raises(ConfigurationError, match="must be an integer"):
                getattr(eng, method)(request_)
            assert eng.total_sets() == 0

    @pytest.mark.parametrize("cast", [int, np.int64, np.int32, np.uint16])
    def test_accepts_numpy_integer_requests(self, cast):
        problem = _problem(0)
        with ShardedSamplingEngine(problem.graph, _probs(problem), seeds=0) as eng:
            eng.ensure({cast(0): cast(10)})
            eng.sample({cast(1): cast(3)})
            assert [eng.shard(ad).num_total for ad in (0, 1)] == [10, 3]

    def test_close_is_idempotent(self):
        problem = _problem(0)
        eng = ShardedSamplingEngine(
            problem.graph, _probs(problem), seeds=0, engine="process"
        )
        eng.sample({0: 20})
        eng.close()
        eng.close()


class TestSerialCompatibility:
    @pytest.mark.parametrize("mode", ["blocked"])
    def test_serial_engine_matches_plain_samplers(self, mode):
        """A shard is the ad's plan drawn chunk by chunk through a plain
        sampler and appended whole, the sets past the requested index
        range hidden."""
        problem = _problem(1)
        h = problem.num_ads
        pools = []
        for ad in range(h):
            sampler = RRSetSampler(
                problem.graph, problem.ad_edge_probabilities(ad)
            )
            plan = StreamPlan(5, ad, chunk_size=64)
            pool = RRSetPool(problem.num_nodes)
            for chunk, _, hi in plan.chunk_tasks(0, 220):
                block = sampler.sample_chunk_block(plan, chunk)
                pool.add_flat(*block, visible=hi)
            pools.append(pool)

        with ShardedSamplingEngine(
            problem.graph, _probs(problem), seeds=5, engine="serial", chunk_size=64
        ) as eng:
            eng.sample({ad: 150 for ad in range(h)})
            eng.sample({ad: 70 for ad in range(h)})
            for ad in range(h):
                assert eng.shard(ad).num_total == pools[ad].num_total
                mine, theirs = eng.shard(ad).prefix_view(), pools[ad].prefix_view()
                assert np.array_equal(mine.indptr, theirs.indptr)
                assert np.array_equal(mine.members, theirs.members)

    def test_engines_sharing_a_graph_share_no_sampler_state(self):
        """Requests interleaved across two engines over one graph leave
        each equal to an engine that ran alone: a sampler carries no
        stream position for a neighbour to advance."""
        problem = _problem(3)

        def engine():
            return ShardedSamplingEngine(
                problem.graph, _probs(problem), seeds=5, chunk_size=32
            )

        with engine() as one, engine() as two, engine() as solo:
            assert one.sampler(0) is not two.sampler(0)
            for requests in ({0: 40, 1: 7}, {0: 30}, {1: 63}):
                one.sample(requests)
                two.sample({ad: count + 5 for ad, count in requests.items()})
                solo.sample(requests)
            _assert_shards_equal(one, solo)


class TestProcessParity:
    @pytest.mark.parametrize("mode", ["blocked"])
    def test_process_matches_serial_set_for_set(self, mode):
        problem = _problem(2)
        with ShardedSamplingEngine(
            problem.graph, _probs(problem), seeds=9, engine="serial"
        ) as serial, ShardedSamplingEngine(
            problem.graph, _probs(problem), seeds=9, engine="process"
        ) as process:
            for requests in ({0: 120, 1: 80, 2: 40}, {1: 30}, {0: 5, 2: 200}):
                serial.sample(requests)
                process.sample(requests)
            _assert_shards_equal(serial, process)

    @pytest.mark.parametrize("mode", ["blocked"])
    def test_interleaved_splice_and_removal_parity(self, mode):
        """Property-style schedule: interleaved shard appends and
        ``remove_covered`` must march in lockstep with the serial engine
        set-for-set, including across pool growth reallocations."""
        problem = _problem(3)
        rng = np.random.default_rng(17)
        with ShardedSamplingEngine(
            problem.graph, _probs(problem), seeds=23, engine="serial"
        ) as serial, ShardedSamplingEngine(
            problem.graph, _probs(problem), seeds=23, engine="process"
        ) as process:
            for _ in range(6):
                ads = rng.choice(3, size=int(rng.integers(1, 4)), replace=False)
                requests = {int(ad): int(rng.integers(1, 120)) for ad in ads}
                serial.sample(requests)
                process.sample(requests)
                for _ in range(int(rng.integers(0, 3))):
                    ad = int(rng.integers(0, 3))
                    node = int(rng.integers(0, problem.num_nodes))
                    assert serial.shard(ad).remove_covered(node) == process.shard(
                        ad
                    ).remove_covered(node)
                _assert_shards_equal(serial, process)

    def test_single_ad_growth_top_up_matches_serial(self):
        """One ad's Algorithm-4 top-up spans several chunks, which the
        process engine fans across its workers: after a warm-up of two
        chunks, a 2 000-set request at ``chunk_size=512`` (chunks 2-5,
        the last one partial) lands set for set as the serial one."""
        problem = _problem(5, num_ads=1)
        kwargs = dict(seeds=0, chunk_size=512)
        with ShardedSamplingEngine(
            problem.graph, _probs(problem), engine="serial", **kwargs
        ) as serial, ShardedSamplingEngine(
            problem.graph, _probs(problem), engine="process", **kwargs
        ) as process:
            for requests in ({0: 2 * 512}, {0: 2_000}):
                serial.sample(requests)
                process.sample(requests)
            assert process.shard(0).num_total == 3_024
            _assert_shards_equal(serial, process)

    def test_max_workers_does_not_change_results(self):
        problem = _problem(4)
        with ShardedSamplingEngine(
            problem.graph, _probs(problem), seeds=3, engine="process", max_workers=1
        ) as one, ShardedSamplingEngine(
            problem.graph, _probs(problem), seeds=3, engine="process", max_workers=2
        ) as two:
            for requests in ({0: 90, 1: 90, 2: 90}, {0: 30, 2: 10}):
                one.sample(requests)
                two.sample(requests)
            _assert_shards_equal(one, two)


class TestTIRMIntegration:
    @pytest.mark.parametrize("mode", ["blocked"])
    def test_tirm_process_engine_identical_to_serial(self, mode):
        """The acceptance contract: ``engine="process"`` yields the same
        allocation, revenues, and θ trajectory as ``engine="serial"``."""
        problem = _problem(6, num_ads=2)
        kwargs = dict(
            seed=6, initial_pilot=400, max_rr_sets_per_ad=3_000, epsilon=0.2,
        )
        serial = TIRMAllocator(engine="serial", **kwargs).allocate(problem)
        process = TIRMAllocator(engine="process", **kwargs).allocate(problem)
        assert serial.allocation == process.allocation
        assert np.array_equal(serial.estimated_revenues, process.estimated_revenues)
        assert serial.stats["theta_per_ad"] == process.stats["theta_per_ad"]
        assert (
            serial.stats["seed_size_estimates"]
            == process.stats["seed_size_estimates"]
        )
        assert serial.stats["engine"] == "serial"
        assert process.stats["engine"] == "process"

    def test_tirm_rejects_bad_engine(self):
        with pytest.raises(ConfigurationError):
            TIRMAllocator(engine="threads")


class TestLifecycle:
    """Fleet teardown on every exit path — explicit close, context
    manager, and failed task batches: no forked worker outlives its
    engine."""

    def test_context_manager_closes_and_releases_payload(self, all_reaped):
        problem = _problem(0)
        with ShardedSamplingEngine(
            problem.graph, _probs(problem), seeds=0, engine="process"
        ) as engine:
            engine.sample({0: 20, 1: 20})
            pids = list(engine._substrate.pids)
            assert pids and not all_reaped(pids)
        assert all_reaped(pids)  # reaped by close()
        assert not engine._finalizer.alive

    def test_context_manager_releases_on_exception(self, all_reaped):
        problem = _problem(0)
        with pytest.raises(RuntimeError, match="boom"):
            with ShardedSamplingEngine(
                problem.graph, _probs(problem), seeds=0, engine="process"
            ) as engine:
                engine.sample({0: 10, 1: 10})
                pids = list(engine._substrate.pids)
                raise RuntimeError("boom")
        assert pids and all_reaped(pids)
        assert not engine._finalizer.alive

    def test_failed_task_batch_routes_through_close(self, monkeypatch, all_reaped):
        """A chunk that fails in the workers *and* in the parent's local
        fallback must surface to the caller AND shut the fleet down
        (idempotent close), not leak a worker."""
        from repro.dist.engine import _LocalFleet
        from repro.rrset.sharded import ChunkSource

        def explode(self, ad, chunk_index):
            raise ValueError("worker exploded")

        pids = []
        fork = _LocalFleet._fork

        def recording_fork(self):
            fork(self)
            pids.extend(self.pids)

        # Set before the first submit, so the forked workers inherit it.
        monkeypatch.setattr(ChunkSource, "block", explode)
        monkeypatch.setattr(_LocalFleet, "_fork", recording_fork)
        problem = _problem(0)
        engine = ShardedSamplingEngine(
            problem.graph, _probs(problem), seeds=0, engine="process",
            chunk_size=8, max_workers=2,
        )
        with pytest.warns(RuntimeWarning, match="computing locally"):
            with pytest.raises(ValueError, match="worker exploded"):
                engine.sample({0: 40, 1: 40})
        assert not engine._finalizer.alive
        assert len(pids) == 2 and all_reaped(pids)
        engine.close()  # still idempotent after the failure path


class TestMemoryAccounting:
    def test_memory_bytes_counts_held_tail_blocks(self):
        """An engine holds each ad's partially consumed tail chunk in
        the shard, as hidden rows, and nothing beside the shards: its
        bytes are the shards' visible bytes, and a rerun or a
        continuation reveals the tail instead of sampling it."""
        problem = _problem(3, num_ads=2)
        with ShardedSamplingEngine(
            problem.graph, _probs(problem), seeds=4, chunk_size=64
        ) as eng:
            eng.ensure({0: 96, 1: 96})  # chunk 1 of each ad is half consumed

            def shard_bytes():
                return sum(eng.shard(ad).memory_bytes() for ad in range(2))

            def tails():
                return [
                    eng.shard(ad).num_resident - eng.shard(ad).num_total
                    for ad in range(2)
                ]

            assert eng.memory_bytes() == shard_bytes()
            assert tails() == [32, 32]
            # Idle between two leases the engine holds exactly that; a
            # rerun to the same targets samples nothing and adds nothing.
            idle = eng.memory_bytes()
            eng.reset_for_reuse()
            eng.ensure({0: 96, 1: 96})
            assert eng.backend_invocations == 0
            assert eng.memory_bytes() == idle == shard_bytes()
            assert tails() == [32, 32]
            eng.ensure({0: 128, 1: 128})  # tails consumed by a reveal
            assert eng.backend_invocations == 0
            assert eng.memory_bytes() == shard_bytes()
            assert tails() == [0, 0]

    def test_restore_builds_the_index_once_per_seeded_shard(
        self, tmp_path, build_calls
    ):
        """A checkpoint restore re-derives the sets and replays each ad's
        seeds through ``remove_covered``: a seeded shard builds its index
        once, at its first seed, and an unseeded shard never builds."""
        from repro.rrset.checkpoint import (
            TIRMCheckpoint,
            build_snapshot,
            save_checkpoint,
        )

        problem = _problem(3, num_ads=2)
        with ShardedSamplingEngine(
            problem.graph, _probs(problem), seeds=4, chunk_size=16
        ) as eng:
            eng.ensure({0: 100, 1: 40})
            shard = eng.shard(0)
            seeds = [int(np.argmax(shard.coverage()))]
            counts = [shard.remove_covered(seeds[0])]
            seeds.append(int(np.argmax(shard.coverage())))
            counts.append(shard.remove_covered(seeds[1]))
            records = [
                {"seeds": chosen, "marginal_nodes": chosen,
                 "marginal_counts": recorded, "revenue": 0.0,
                 "seed_size_estimate": 2, "active": True}
                for chosen, recorded in ((seeds, counts), ([], []))
            ]
            save_checkpoint(tmp_path / "ck.json", build_snapshot(
                config={"num_ads": 2, "num_nodes": problem.num_nodes},
                engine=eng, per_ad=records, iterations=2, lineage=[],
            ))
        build_calls.clear()
        checkpoint = TIRMCheckpoint.load(tmp_path / "ck.json")
        with ShardedSamplingEngine(
            problem.graph, _probs(problem), seeds=4, chunk_size=16
        ) as eng:
            checkpoint.restore_engine(eng)
            eng.shard(1).prefix_view(20).members
            eng.shard(1).coverage()
            eng.memory_bytes()
            assert build_calls == [eng.shard(0).prefix_view().members.size]


@pytest.fixture
def append_calls(monkeypatch) -> list[str]:
    """Spy on the two copying entry points of the pool: one entry per
    call, whichever shard it lands in."""
    calls: list[str] = []
    for name in ("add_flat", "add_flat_from_buffer"):
        def spy(self, *args, _name=name, _original=getattr(RRSetPool, name), **kwargs):
            calls.append(_name)
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(RRSetPool, name, spy)
    return calls


class _FakeSubstrate(ChunkSubstrate):
    """A substrate under the test's control: ``submit`` hands out
    unresolved futures and :meth:`resolve` completes them — in *reverse*
    submission order, the adversarial schedule real pools only produce
    by timing luck — from a twin serial engine's chunk source.  With
    ``fail_at=k`` the k-th submitted future raises instead."""

    def __init__(self, source, fail_at=None):
        self.source = source
        self.fail_at = fail_at
        self.submitted = []  # (ad, chunk, future), submission order
        self.drained = []
        self.closed = False

    def submit(self, ad, chunk_index):
        from concurrent.futures import Future

        future = Future()
        self.submitted.append((ad, chunk_index, future))
        return future

    def resolve(self):
        for index, (ad, chunk, future) in reversed(
            list(enumerate(self.submitted))
        ):
            if future.done():
                continue
            if index == self.fail_at:
                future.set_exception(ValueError("fake substrate exploded"))
            else:
                future.set_result(self.source.block(ad, chunk))

    def collect(self, ad, chunk_index, future):
        self.resolve()  # nothing completes until the gather first waits
        return super().collect(ad, chunk_index, future)

    def drain(self, futures):
        futures = list(futures)
        self.drained.extend(futures)
        super().drain(futures)

    def close(self):
        self.closed = True


def _install(engine, substrate):
    engine._substrate = engine._resources["substrate"] = substrate
    return substrate


class TestSubstrateSeam:
    """The dispatch loop knows a substrate only as submit / collect /
    drain — so a fake one can be substituted, and splice order must not
    depend on completion order."""

    def test_reverse_completion_order_matches_serial(self):
        problem = _problem(21)
        kwargs = dict(seeds=5, chunk_size=16, dsan=True)
        with ShardedSamplingEngine(
            problem.graph, _probs(problem), **kwargs
        ) as serial, ShardedSamplingEngine(
            problem.graph, _probs(problem), **kwargs
        ) as faked:
            fake = _install(faked, _FakeSubstrate(serial._source))
            for requests in ({0: 70, 1: 40, 2: 20}, {0: 33, 2: 50}):
                serial.sample(requests)
                faked.sample(requests)
            assert len(fake.submitted) > 2  # the work really went through it
            _assert_shards_equal(serial, faked)
            assert faked.dsan_digests() == serial.dsan_digests()
            assert faked.dsan_root() == serial.dsan_root()
            assert faked.backend_invocations == serial.backend_invocations
        assert fake.closed

    def test_failing_future_propagates_drains_and_closes(self):
        problem = _problem(21)
        with ShardedSamplingEngine(
            problem.graph, _probs(problem), seeds=5, chunk_size=16
        ) as source_engine:
            engine = ShardedSamplingEngine(
                problem.graph, _probs(problem), seeds=5, chunk_size=16
            )
            fake = _install(
                engine, _FakeSubstrate(source_engine._source, fail_at=2)
            )
            with pytest.raises(ValueError, match="fake substrate exploded"):
                engine.sample({0: 64, 1: 64})  # 4 + 4 chunk tasks
        assert len(fake.submitted) == 8
        # Tasks 0 and 1 were collected, task 2 raised; the five futures
        # behind it were drained, none collected.  Ad 0's run enters its
        # shard in one append, so none of it did.
        assert fake.drained == [future for _, _, future in fake.submitted[3:]]
        assert engine.shard(0).num_total == 0
        assert fake.closed and not engine._finalizer.alive
        engine.close()  # still idempotent after the failure path


# ----------------------------------------------------------------------
# engine="serial": one kernel table, the caller and the helper threads
# ----------------------------------------------------------------------
@pytest.fixture
def cpus(request, monkeypatch):
    """A fresh helper pool sized from ``request.param`` CPUs (default 4,
    more than most runners have), shut down after the test."""
    count = getattr(request, "param", 4)
    monkeypatch.setattr(sharded, "_cpus", lambda: count)
    monkeypatch.setattr(sharded, "_pool", None)
    monkeypatch.setattr(sharded, "_threads", 0)
    yield count
    if sharded._pool is not None:
        sharded._pool.shutdown(wait=True)


@pytest.fixture
def ran_on(monkeypatch) -> list[tuple[bool, int]]:
    """Spy on the runner, :meth:`BfsTable.run`: ``(on_caller, ran)`` per
    call, ``ran`` being the kernel entries — whole chunks — that call
    ran and ``on_caller`` meaning the test's own thread."""
    calls: list[tuple[bool, int]] = []
    run, caller = BfsTable.run, threading.get_ident()

    def spy(self, until=-1):
        ran = run(self, until)
        calls.append((threading.get_ident() == caller, ran))
        return ran

    monkeypatch.setattr(BfsTable, "run", spy)
    return calls


class _ChunkByChunk(ChunkSubstrate):
    """The reference path: each chunk computed alone, at submit, by
    :meth:`ChunkSource.block` — a one-entry table on the calling
    thread."""

    def __init__(self, source):
        self.source = source

    def submit(self, ad, chunk_index):
        from concurrent.futures import Future

        future = Future()
        future.set_result(self.source.block(ad, chunk_index))
        return future


#: Two TIRM instances whose runs top single ads up after the pilot
#: (Algorithm 4's θ growth): an ``LJ``-like and a ``FLIX``-like one.
_HELPER_CASES = {
    "LJ": (
        lambda: livejournal_like(scale=0.0002, num_ads=3),
        dict(epsilon=0.3, max_rr_sets_per_ad=200_000),
    ),
    "FLIX": (
        lambda: flixster_like(scale=0.02, num_ads=3),
        dict(
            epsilon=0.5, initial_pilot=100, min_rr_sets_per_ad=100,
            max_rr_sets_per_ad=100_000,
        ),
    ),
}


@functools.cache
def _helper_problem(case: str):
    return _HELPER_CASES[case][0]()


def _helper_run(case: str, chunk_by_chunk: bool = False):
    """One dsan allocation of ``case``: ``(seed sets, revenues, digests,
    requests)``, each request being the ``(ad, chunk)`` splices of one
    ``ensure`` in order; with ``chunk_by_chunk``, on :class:`_ChunkByChunk`."""
    problem = _helper_problem(case)
    allocator = TIRMAllocator(
        seed=1, chunk_size=1024, dsan=True, **_HELPER_CASES[case][1]
    )
    engine = allocator._build_engine(problem, None)
    if chunk_by_chunk:
        _install(engine, _ChunkByChunk(engine._source))
    requests: list[list[tuple[int, int]]] = []
    ensure, splice = engine.ensure, engine._splice

    def recording_ensure(targets):
        requests.append([])
        return ensure(targets)

    def recording_splice(ad, chunk_index, *rest):
        requests[-1].append((ad, chunk_index))
        return splice(ad, chunk_index, *rest)

    engine.ensure, engine._splice = recording_ensure, recording_splice
    with engine:
        result = AllocationSession(problem, allocator, engine=engine).run()
        digests = engine.dsan_digests()
    return result.allocation, list(result.estimated_revenues), digests, requests


@functools.cache
def _inline_run(case: str):
    """The reference: every chunk computed alone by the caller, in order."""
    run = _helper_run(case, chunk_by_chunk=True)
    requests = run[3]
    assert any(len({ad for ad, _ in r}) == 1 for r in requests[1:])  # a top-up
    return run


def _assert_same_run(run, inline):
    assert run[0] == inline[0]  # seed sets
    assert run[1] == inline[1]  # revenues
    assert run[2] == inline[2]  # dsan digests
    assert run[3] == inline[3]  # splices, request by request
    assert all(request == sorted(request) for request in run[3])


class TestHelperThreads:
    """``engine="serial"`` puts a request's chunks into one kernel table
    that the caller and ``cpus − 1`` helper threads run, one call each;
    which thread ran a chunk must never change a byte or the splice
    order, and no chunk may run twice."""

    @pytest.mark.parametrize("cpus", [1, 2, 4], indirect=True)
    @pytest.mark.parametrize("case", sorted(_HELPER_CASES))
    def test_same_bytes_for_any_helper_count(self, case, cpus, ran_on):
        inline = _inline_run(case)
        del ran_on[:]
        _assert_same_run(_helper_run(case), inline)
        assert sum(ran for _, ran in ran_on) == len(inline[2])  # once each
        if cpus == 1:
            assert sharded._pool is None
            assert all(on_caller for on_caller, _ in ran_on)
        else:
            assert any(ran for on_caller, ran in ran_on if not on_caller)

    def test_caller_takes_every_chunk_while_the_helpers_are_held(
        self, cpus, ran_on
    ):
        inline = _inline_run("LJ")
        del ran_on[:]
        gate = threading.Event()
        held = [sharded._helper_pool().submit(gate.wait) for _ in range(cpus - 1)]
        try:
            run = _helper_run("LJ")
        finally:
            gate.set()
        wait(held)
        _assert_same_run(run, inline)
        # The helper calls queued behind the held ones were cancelled.
        assert ran_on and all(on_caller for on_caller, _ in ran_on)
        assert sum(ran for _, ran in ran_on) == len(inline[2])

    def test_helpers_take_almost_every_chunk_from_a_slow_caller(
        self, cpus, ran_on, monkeypatch
    ):
        inline = _inline_run("LJ")
        run, caller = BfsTable.run, threading.get_ident()

        def slow(self, until=-1):
            if threading.get_ident() == caller:
                time.sleep(0.02)
            return run(self, until)

        monkeypatch.setattr(BfsTable, "run", slow)
        del ran_on[:]
        _assert_same_run(_helper_run("LJ"), inline)
        total = sum(ran for _, ran in ran_on)
        assert total == len(inline[2])
        assert sum(ran for on_caller, ran in ran_on if on_caller) <= total // 4

    def test_concurrent_engines_share_the_helpers(self, cpus):
        """Six engines sampling at once from their own threads, as
        service jobs do, on one pool of helpers and a short switch
        interval: each splices its own inline bytes."""
        problem = _problem(37)
        requests = ({0: 150, 1: 90, 2: 120}, {1: 200}, {0: 260, 2: 170})

        def digests(seed, chunk_by_chunk=False):
            with ShardedSamplingEngine(
                problem.graph, _probs(problem), seeds=seed, chunk_size=8,
                dsan=True,
            ) as engine:
                if chunk_by_chunk:
                    _install(engine, _ChunkByChunk(engine._source))
                for targets in requests:
                    engine.ensure(targets)
                return engine.dsan_digests()

        inline = {seed: digests(seed, chunk_by_chunk=True) for seed in range(6)}
        got: dict[int, dict] = {}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(
                    target=lambda seed=seed: got.update({seed: digests(seed)})
                )
                for seed in range(6)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert got == inline

    def test_fork_after_the_helpers_started_gives_the_same_root(self):
        """Serial, then the forked fleet, then serial again in one
        interpreter — as the service does — with helper threads alive
        at the fork."""
        script = """
            import threading
            from repro.rrset import sharded
            sharded._cpus = lambda: 3
            from repro.algorithms.tirm import TIRMAllocator
            from repro.datasets import livejournal_like

            problem = livejournal_like(scale=0.0002, num_ads=3)

            def root(engine):
                allocator = TIRMAllocator(
                    seed=1, chunk_size=1024, dsan=True, engine=engine,
                    max_workers=2, epsilon=0.3, max_rr_sets_per_ad=20_000,
                )
                return allocator.allocate(problem).stats["dsan_root"]

            roots = [root("serial")]
            assert sharded._pool is not None and threading.active_count() > 1
            roots += [root("process"), root("serial")]
            print(*roots)
        """
        done = subprocess.run(
            [sys.executable, "-c", textwrap.dedent(script)],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": SRC},
        )
        assert done.returncode == 0, done.stderr
        roots = done.stdout.split()
        assert len(roots) == 3 and len(set(roots)) == 1

    def test_helper_threads_are_process_wide(self, cpus):
        problem = _problem(23)
        baseline, before = threading.active_count(), set(threading.enumerate())
        allocator = TIRMAllocator(seed=3, chunk_size=32, max_rr_sets_per_ad=1_000)
        for _ in range(50):
            allocator.allocate(problem)
        with EnginePool() as pool:
            leases = [pool.lease(problem, allocator) for _ in range(4)]
            for lease in leases:
                lease.engine.ensure({0: 200, 1: 200})
                lease.release()
            assert pool.stats()["idle_engines"] == 4
            assert threading.active_count() <= baseline + cpus - 1
        helpers = [
            t for t in set(threading.enumerate()) - before
            if t.name.startswith("repro-chunk")
        ]
        assert 1 <= len(helpers) <= cpus - 1

    @pytest.mark.parametrize("where", ["helper", "caller"])
    def test_a_failed_chunk_surfaces_and_closes_the_engine(
        self, where, cpus, monkeypatch
    ):
        """One entry of the request's table asks the kernel for 2^60
        roots, so its allocation fails wherever it runs — on a helper,
        or on the caller while the helpers are held: ``ensure`` raises
        ``MemoryError``, the engine closes, and every helper call of the
        request has returned or was cancelled."""
        run, caller = BfsTable.run, threading.get_ident()
        too_many = np.full(9, 2**60, dtype=np.int64)  # chunk_size + 1
        poisoned, helper_returned = threading.Event(), threading.Event()

        def failing(self, until=-1):
            on_caller = threading.get_ident() == caller
            if self.count > 1 and not poisoned.is_set() and (
                (where == "caller") == on_caller
            ):
                self.tasks[self._cursor.value].root_indptr = too_many.ctypes.data
                poisoned.set()
                ran = run(self, until)
                helper_returned.set()
                return ran
            if where == "helper" and on_caller and self.count > 1:
                helper_returned.wait(30)  # the helpers take the bad entry
            return run(self, until)

        monkeypatch.setattr(BfsTable, "run", failing)
        gate = threading.Event()
        if where == "caller":  # hold the helpers: the caller runs it all
            held = [
                sharded._helper_pool().submit(gate.wait) for _ in range(cpus - 1)
            ]
        pool, submitted = sharded._helper_pool(), []
        submit = pool.submit

        def recording_submit(*args):
            submitted.append(submit(*args))
            return submitted[-1]

        monkeypatch.setattr(pool, "submit", recording_submit)
        problem = _problem(29)
        engine = ShardedSamplingEngine(
            problem.graph, _probs(problem), seeds=2, chunk_size=8
        )
        try:
            with pytest.raises(MemoryError, match="could not allocate"):
                engine.ensure({0: 96, 1: 96})
        finally:
            gate.set()
        assert poisoned.is_set() and len(submitted) == cpus - 1
        assert all(future.done() for future in submitted)
        assert not engine._finalizer.alive
        if where == "caller":
            assert all(future.cancelled() for future in submitted)
            wait(held)

    @pytest.mark.parametrize("cpus", [1, 2, 4], indirect=True)
    def test_wide_chunks_give_the_reference_bytes(self, cpus):
        """Chunks wider than ``BLOCK_BATCH`` are two rounds of batches,
        the second one's roots drawn from the state the first one's
        kernel left: two such chunks per request give the per-chunk
        digests and root of the numpy reference driver."""
        from tests.rrset._reference_driver import reference_drive_blocked

        chunk_size = BLOCK_BATCH + 904
        requests = ({0: 2 * chunk_size, 1: chunk_size + 7}, {1: 3 * chunk_size})
        problem = _problem(43, num_ads=2)

        class Reference(_ChunkByChunk):
            def submit(self, ad, chunk_index):
                from concurrent.futures import Future

                sampler = self.source.sampler(ad)
                future = Future()
                future.set_result(Block(*reference_drive_blocked(
                    sampler.graph, sampler._in_probs_array,
                    self.source.plan(ad).generator(chunk_index), chunk_size,
                )))
                return future

        def run(reference=False):
            with ShardedSamplingEngine(
                problem.graph, _probs(problem), seeds=13,
                chunk_size=chunk_size, dsan=True,
            ) as engine:
                if reference:
                    _install(engine, Reference(engine._source))
                for targets in requests:
                    engine.ensure(targets)
                return engine.dsan_digests(), engine.dsan_root()

        expected = run(reference=True)
        assert len(expected[0]) == 5
        assert run() == expected

    @pytest.mark.parametrize("cpus", [1, 2, 4], indirect=True)
    @pytest.mark.parametrize("case", sorted(_HELPER_CASES))
    def test_a_warm_re_lease_gives_the_cold_run(self, case, cpus):
        """The second lease reveals every chunk the first one sampled and
        re-hashes them on the caller and the helpers: the same seed
        sets, revenues and dsan digests as the inline cold run."""
        inline = _inline_run(case)
        problem = _helper_problem(case)
        allocator = TIRMAllocator(
            seed=1, chunk_size=1024, dsan=True, **_HELPER_CASES[case][1]
        )
        runs = []
        with EnginePool() as pool:
            for _ in range(2):
                with pool.lease(problem, allocator) as lease:
                    result = AllocationSession(
                        problem, allocator, engine=lease.engine
                    ).run()
                    runs.append((
                        lease.warm, lease.engine.backend_invocations,
                        (result.allocation, list(result.estimated_revenues),
                         lease.engine.dsan_digests()),
                    ))
        (cold_warm, _, cold), (warm, invocations, again) = runs
        assert not cold_warm and warm and invocations == 0
        assert cold == again == inline[:3]

    def test_a_fully_cached_run_starts_no_helper(self, cpus, monkeypatch, tmp_path):
        problem = _problem(31)
        allocator = TIRMAllocator(
            seed=4, chunk_size=32, max_rr_sets_per_ad=1_000, cache=tmp_path,
            dsan=True,
        )
        monkeypatch.setattr(sharded, "_cpus", lambda: 1)
        cold = allocator.allocate(problem)
        assert sharded._pool is None
        monkeypatch.setattr(sharded, "_cpus", lambda: cpus)
        warm = allocator.allocate(problem)
        assert warm.stats["backend_invocations"] == 0
        assert warm.stats["dsan_root"] == cold.stats["dsan_root"]
        assert sharded._pool is None


class TestResetForReuse:
    """The warm-reuse contract: after ``reset_for_reuse`` a second run
    through the same engine is byte-identical to a fresh-engine run —
    no stale shards, visible tails, in-flight futures, dsan state, or
    sampler positions may survive into the next session."""

    #: The resident member the reveal tests overwrite: ad 1, chunk 3.
    _AD, _CHUNK = 1, 3
    #: Ad 1 ends in a tail chunk, whose rest its shard holds hidden.
    _TARGETS = {0: 96, 1: 100, 2: 64}

    def _engine(self, **kwargs):
        problem = _problem(41)
        return ShardedSamplingEngine(
            problem.graph, _probs(problem), seeds=9, chunk_size=16, **kwargs
        )

    def _cold(self):
        """The cold run's dsan digests and root."""
        with self._engine(dsan=True) as cold:
            cold.ensure(self._TARGETS)
            return cold.dsan_digests(), cold.dsan_root()

    def _changed_sample(self, **kwargs):
        """An engine whose first run reached the targets, then had one
        resident member of ``(_AD, _CHUNK)`` overwritten and was
        rewound for the next lease."""
        engine = self._engine(**kwargs)
        engine.ensure(self._TARGETS)
        shard = engine.shard(self._AD)
        at = int(shard._indptr[self._CHUNK * 16]) + 1
        shard._members[at] = (shard._members[at] + 1) % shard.num_nodes
        engine.reset_for_reuse()
        return engine

    @pytest.mark.parametrize("cpus", [1, 4], indirect=True)
    def test_a_changed_resident_member_fails_the_reveal(self, cpus):
        """The reveal re-hashes the resident rows on every lease: a
        member changed between leases is named by the expected-map check,
        which closes the engine."""
        digests, _ = self._cold()
        engine = self._changed_sample(dsan_expected=digests)
        with pytest.raises(DeterminismError) as raised:
            engine.ensure(self._TARGETS)
        assert (raised.value.ad, raised.value.chunk) == (self._AD, self._CHUNK)
        assert not engine._finalizer.alive

    @pytest.mark.parametrize("cpus", [1, 4], indirect=True)
    def test_a_changed_resident_member_moves_the_root(self, cpus):
        digests, root = self._cold()
        with self._changed_sample(dsan=True) as engine:
            engine.ensure(self._TARGETS)
            assert engine.backend_invocations == 0  # every chunk revealed
            assert engine.dsan_root() != root
            changed = {
                key for key, digest in engine.dsan_digests().items()
                if digests[key] != digest
            }
        assert changed == {(self._AD, self._CHUNK)}

    def test_back_to_back_sampling_matches_fresh_engine(self):
        problem = _problem(11)
        reused = ShardedSamplingEngine(
            problem.graph, _probs(problem), seeds=5, chunk_size=16, dsan=True,
        )
        with reused:
            reused.sample({0: 40, 1: 25, 2: 33})  # dirty run, odd tails
            reused.reset_for_reuse()
            assert reused.total_sets() == 0
            assert reused.backend_invocations == 0
            reused.sample({0: 50, 1: 20, 2: 10})
            with ShardedSamplingEngine(
                problem.graph, _probs(problem), seeds=5, chunk_size=16,
                dsan=True,
            ) as fresh:
                fresh.sample({0: 50, 1: 20, 2: 10})
                _assert_shards_equal(reused, fresh)
                assert reused.dsan_digests() == fresh.dsan_digests()
                assert reused.dsan_root() == fresh.dsan_root()

    def test_back_to_back_allocations_match_fresh_engine(self):
        from repro.algorithms.session import AllocationSession

        problem = _problem(7)
        allocator = TIRMAllocator(seed=3, max_rr_sets_per_ad=1_000, dsan=True)
        fresh = allocator.allocate(problem)
        engine = allocator._build_engine(problem, None, None)
        with engine:
            first = AllocationSession(problem, allocator, engine=engine).run()
            engine.reset_for_reuse()
            second = AllocationSession(problem, allocator, engine=engine).run()
        for result in (first, second):
            assert result.allocation == fresh.allocation
            assert result.stats["dsan_root"] == fresh.stats["dsan_root"]
            assert result.stats["theta_per_ad"] == fresh.stats["theta_per_ad"]

    def test_resident_sets_serve_the_second_run(self, append_calls):
        """After a reset the shards' own resident rows answer every
        previously sampled set: a warm rerun performs zero
        sampling-backend invocations and zero copies into the pools,
        yet shows identical shards — the same pool objects."""
        problem = _problem(13)
        with ShardedSamplingEngine(
            problem.graph, _probs(problem), seeds=2, chunk_size=16,
        ) as engine:
            engine.sample({0: 64, 1: 48, 2: 32})
            cold_invocations = engine.backend_invocations
            assert cold_invocations > 0
            shards = [engine.shard(ad) for ad in range(3)]
            coverage = [shard.coverage().copy() for shard in shards]
            del append_calls[:]
            engine.reset_for_reuse()
            assert [engine.shard(ad) for ad in range(3)] == shards
            assert all(shard.num_total == 0 for shard in shards)
            assert all(not shard.coverage().any() for shard in shards)
            engine.sample({0: 64, 1: 48, 2: 32})
            assert engine.backend_invocations == 0
            assert append_calls == []
            for ad in range(3):
                assert np.array_equal(engine.shard(ad).coverage(), coverage[ad])

    def test_reset_keeps_process_pool_and_arena_warm(self):
        """The forked fleet is engine-scoped: a reset keeps the same
        coordinator and the same worker processes."""
        problem = _problem(19)
        engine = ShardedSamplingEngine(
            problem.graph, _probs(problem), seeds=4, engine="process",
            chunk_size=16, max_workers=2,
        )
        with engine:
            engine.sample({0: 40, 1: 40, 2: 40})
            executor = engine._substrate.executor
            pids = list(engine._substrate.pids)
            assert executor is not None and len(pids) == 2
            engine.reset_for_reuse()
            assert engine._substrate.executor is executor  # still warm
            engine.sample({0: 20, 1: 20, 2: 20})
            assert engine._substrate.pids == pids
            with ShardedSamplingEngine(
                problem.graph, _probs(problem), seeds=4, chunk_size=16,
            ) as fresh:
                fresh.sample({0: 20, 1: 20, 2: 20})
                _assert_shards_equal(engine, fresh)

    #: First run, chunk_size 16: ad 0 ends mid-chunk (a hidden tail), ad 1
    #: on a chunk boundary, ad 2 mid-chunk in its third chunk.
    FIRST = {0: 72, 1: 48, 2: 33}
    BELOW = {0: 40, 1: 16, 2: 33}
    ABOVE = {0: 100, 1: 64, 2: 50}

    @pytest.mark.parametrize("mode", ["serial", "process"])
    @pytest.mark.parametrize(
        "steps",
        [
            pytest.param([FIRST], id="same"),
            pytest.param([BELOW], id="below"),
            pytest.param([FIRST, ABOVE], id="above-from-the-mark"),
            pytest.param([BELOW, ABOVE], id="straddling-request"),
            pytest.param([ABOVE], id="straddling-from-zero"),
        ],
    )
    def test_rerun_around_the_resident_mark(self, mode, steps, append_calls):
        """Targets below the resident mark, at it, above it (continuing
        from the hidden tail) and one request straddling it: the rerun
        equals a fresh engine fed the same steps — shards, digests,
        bytes — and computes only the chunks the first run never saw."""
        problem = _problem(17)
        kwargs = dict(seeds=9, chunk_size=16, dsan=True)
        reused = ShardedSamplingEngine(
            problem.graph, _probs(problem), engine=mode, max_workers=2, **kwargs
        )
        with reused, ShardedSamplingEngine(
            problem.graph, _probs(problem), **kwargs
        ) as fresh:
            reused.ensure(self.FIRST)
            first_invocations = reused.backend_invocations
            reused.reset_for_reuse()
            del append_calls[:]
            for targets in steps:
                reused.ensure(targets)
            warm_appends = len(append_calls)
            for targets in steps:
                fresh.ensure(targets)
            _assert_shards_equal(reused, fresh)
            assert reused.dsan_digests() == fresh.dsan_digests()
            assert reused.dsan_root() == fresh.dsan_root()
            for ad in range(3):
                assert (
                    reused.shard(ad).memory_bytes() == fresh.shard(ad).memory_bytes()
                )
            # Rows the rerun stopped short of stay hidden and uncounted.
            assert reused.memory_bytes() == fresh.memory_bytes()
            new_chunks = max(fresh.backend_invocations - first_invocations, 0)
            assert reused.backend_invocations == new_chunks
            if steps[-1] is not self.ABOVE:
                assert new_chunks == 0 and warm_appends == 0

    def test_reset_of_closed_engine_is_refused(self):
        problem = _problem(0)
        engine = ShardedSamplingEngine(problem.graph, _probs(problem), seeds=1)
        engine.close()
        with pytest.raises(ConfigurationError, match="closed"):
            engine.reset_for_reuse()
