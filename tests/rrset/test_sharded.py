"""ShardedSamplingEngine: per-ad shards, serial/process parity.

The engine's contract is that ``engine="process"`` is a pure wall-clock
optimisation: for the same seeds it must fill every shard with exactly
the same sets, in the same order, as ``engine="serial"`` — which in turn
holds exactly the chunks the plain sampler draws for each ad's plan.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.advertising.advertiser import Advertiser
from repro.advertising.attention import AttentionBounds
from repro.advertising.catalog import AdCatalog
from repro.advertising.problem import AdAllocationProblem
from repro.algorithms.tirm import TIRMAllocator
from repro.errors import ConfigurationError
from repro.graph.generators import erdos_renyi
from repro.graph.probabilities import constant_probabilities
from repro.rrset.pool import RRSetPool
from repro.rrset.sampler import RRSetSampler, StreamPlan, _slice_flat
from repro.rrset.sharded import ChunkSubstrate, ShardedSamplingEngine


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
        assert np.array_equal(pa.alive_mask(), pb.alive_mask())
        for i in range(pa.num_total):
            assert np.array_equal(pa.get_set(i), pb.get_set(i))


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
        sampler, sliced to the requested index range."""
        problem = _problem(1)
        h = problem.num_ads
        pools = []
        for ad in range(h):
            sampler = RRSetSampler(
                problem.graph, problem.ad_edge_probabilities(ad)
            )
            plan = StreamPlan(5, ad, chunk_size=64)
            pool = RRSetPool(problem.num_nodes)
            for chunk, lo, hi in plan.chunk_tasks(0, 220):
                block = sampler.sample_chunk_block(plan, chunk)
                pool.add_flat(*_slice_flat(*block, lo, hi))
            pools.append(pool)

        with ShardedSamplingEngine(
            problem.graph, _probs(problem), seeds=5, engine="serial", chunk_size=64
        ) as eng:
            eng.sample({ad: 150 for ad in range(h)})
            eng.sample({ad: 70 for ad in range(h)})
            for ad in range(h):
                assert eng.shard(ad).num_total == pools[ad].num_total
                for i in range(pools[ad].num_total):
                    assert np.array_equal(
                        eng.shard(ad).get_set(i), pools[ad].get_set(i)
                    )

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
        """An engine keeps each ad's partially consumed tail chunk in
        the tail memo — at most one block per ad, and nothing else
        beside the shards; what it holds, it reports."""
        problem = _problem(3, num_ads=2)
        with ShardedSamplingEngine(
            problem.graph, _probs(problem), seeds=4, chunk_size=64
        ) as eng:
            eng.ensure({0: 96, 1: 96})  # chunk 1 of each ad is half consumed

            def shard_bytes():
                return sum(eng.shard(ad).memory_bytes() for ad in range(2))

            held = sum(
                part.nbytes
                for ad in range(2)
                for part in eng.sampler(ad).sample_chunk_block(eng.plan(ad), 1)
            )
            assert held > 0
            assert eng.memory_bytes() == shard_bytes() + held
            # Idle between two leases the engine holds exactly that; a
            # rerun to the same targets adds nothing to it.
            idle = eng.memory_bytes()
            eng.reset_for_reuse()
            eng.ensure({0: 96, 1: 96})
            assert eng.memory_bytes() == idle
            assert sorted(eng._blocks) == [(0, 1), (1, 1)]
            eng.ensure({0: 128, 1: 128})  # tails consumed: the memo lets go
            assert eng.memory_bytes() == shard_bytes()
            assert not eng._blocks

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
            eng.shard(1).prefix_view(20).get_set(1)
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
        # Tasks 0 and 1 were spliced, task 2 raised; the five futures
        # behind it were drained, none collected.
        assert fake.drained == [future for _, _, future in fake.submitted[3:]]
        assert engine.shard(0).num_total == 32
        assert fake.closed and not engine._finalizer.alive
        engine.close()  # still idempotent after the failure path


class TestResetForReuse:
    """The warm-reuse contract: after ``reset_for_reuse`` a second run
    through the same engine is byte-identical to a fresh-engine run —
    no stale shards, tail blocks, in-flight futures, dsan state, or
    sampler positions may survive into the next session."""

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

    #: First run, chunk_size 16: ad 0 ends mid-chunk (tail memo), ad 1
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
        from the tail block) and one request straddling it: the rerun
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
            # At most one tail block per ad beside the shards — the
            # first run's where the rerun stopped short of it.
            assert len(reused._blocks) <= reused.num_ads
            if steps != [self.BELOW]:
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
