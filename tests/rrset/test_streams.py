"""Counter-based RNG streams: purity, chunk addressing, and invariance.

The contract under test: every RR set is a pure
function of ``(global_seed, ad, set_index)`` given a chunk size — so the
sampled pools must be byte-identical across serial execution, 1-worker
and N-worker process fleets, a platform without ``os.fork``, prefetched
or not, and any way of splitting the same index ranges across requests.
"""

from __future__ import annotations

import gc
import os
import signal
import subprocess
import sys
import textwrap
import time
import warnings

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
from repro.rrset.sampler import RRSetSampler, StreamPlan, _slice_flat
from repro.rrset.sharded import ShardedSamplingEngine

SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "..", "src"))


def _python(code: str) -> subprocess.Popen:
    """``python -c code`` with ``src`` importable, output piped."""
    return subprocess.Popen(
        [sys.executable, "-c", textwrap.dedent(code)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env={**os.environ, "PYTHONPATH": SRC},
    )


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


def _fingerprint(engine: ShardedSamplingEngine):
    out = []
    for ad in range(engine.num_ads):
        view = engine.shard(ad).prefix_view()
        out.append(
            (engine.shard(ad).num_total, view.members.copy(), view.indptr.copy())
        )
    return out


def _assert_fingerprints_equal(a, b):
    assert len(a) == len(b)
    for (na, ma, pa), (nb, mb, pb) in zip(a, b):
        assert na == nb
        assert ma.tobytes() == mb.tobytes()
        assert pa.tobytes() == pb.tobytes()


class TestStreamPlan:
    def test_chunk_tasks_partition_any_range(self):
        plan = StreamPlan(42, ad=1, chunk_size=7)
        for start, stop in [(0, 0), (0, 7), (3, 25), (7, 14), (13, 14), (0, 100)]:
            tasks = plan.chunk_tasks(start, stop)
            covered = [
                chunk * 7 + off
                for chunk, lo, hi in tasks
                for off in range(lo, hi)
            ]
            assert covered == list(range(start, stop))
            # chunks appear in ascending order, each at most once
            chunks = [c for c, _, _ in tasks]
            assert chunks == sorted(set(chunks))

    def test_chunk_tasks_rejects_bad_range(self):
        plan = StreamPlan(42, ad=0)
        with pytest.raises(ValueError):
            plan.chunk_tasks(-1, 4)
        with pytest.raises(ValueError):
            plan.chunk_tasks(5, 4)

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            StreamPlan(0, ad=-1)
        with pytest.raises(ValueError):
            StreamPlan(0, ad=0, chunk_size=0)

    def test_generators_are_pure_and_distinct(self):
        plan = StreamPlan(9, ad=2, chunk_size=16)
        a = plan.generator(5).random(8)
        b = plan.generator(5).random(8)
        assert np.array_equal(a, b)  # same address, same stream
        assert not np.array_equal(a, plan.generator(6).random(8))
        other_ad = StreamPlan(9, ad=3, chunk_size=16)
        assert not np.array_equal(a, other_ad.generator(5).random(8))
        other_seed = StreamPlan(10, ad=2, chunk_size=16)
        assert not np.array_equal(a, other_seed.generator(5).random(8))


class TestSeedEntropy:
    def test_spawned_seed_sequences_get_distinct_roots(self):
        """A parent SeedSequence and its spawned child are the standard
        numpy idiom for independent streams — they must not collapse to
        the same entropy root (and hence identical Philox chunks)."""
        from repro.utils.rng import seed_entropy

        parent = np.random.SeedSequence(5)
        child = parent.spawn(1)[0]
        assert seed_entropy(parent) == 5
        assert seed_entropy(child) != seed_entropy(parent)
        a = StreamPlan(seed_entropy(parent), ad=0, chunk_size=8)
        b = StreamPlan(seed_entropy(child), ad=0, chunk_size=8)
        assert not np.array_equal(a.generator(0).random(8), b.generator(0).random(8))

    def test_generator_seed_draws_deterministically(self):
        from repro.utils.rng import seed_entropy

        a = seed_entropy(np.random.default_rng(3))
        b = seed_entropy(np.random.default_rng(3))
        assert a == b


class TestChunkSampling:
    """A chunk block is stateless, and ``_slice_flat`` cuts any set
    range out of it."""

    @pytest.mark.parametrize("mode", ["blocked"])
    def test_recomputing_a_chunk_is_identical(self, mode, small_random_graph):
        probs = constant_probabilities(small_random_graph, 0.1)
        plan = StreamPlan(5, ad=0, chunk_size=32)
        sampler = RRSetSampler(small_random_graph, probs)
        first = sampler.sample_chunk_block(plan, 2)
        again = sampler.sample_chunk_block(plan, 2)
        assert first[0].tobytes() == again[0].tobytes()
        assert first[1].tolist() == again[1].tolist()

    @pytest.mark.parametrize("mode", ["blocked"])
    def test_slices_agree_with_full_chunk(self, mode, small_random_graph):
        """Sets [lo, hi) of a chunk equal the same rows of the full chunk —
        the property that makes partial-chunk resume pure."""
        probs = constant_probabilities(small_random_graph, 0.1)
        plan = StreamPlan(5, ad=1, chunk_size=24)
        sampler = RRSetSampler(small_random_graph, probs)
        members, lengths = sampler.sample_chunk_block(plan, 0)
        bounds = np.concatenate(([0], np.cumsum(lengths)))
        for lo, hi in [(0, 24), (0, 10), (10, 24), (7, 13), (23, 24), (5, 5)]:
            m, ln = _slice_flat(members, lengths, lo, hi)
            assert ln.tolist() == lengths[lo:hi].tolist()
            assert m.tobytes() == members[bounds[lo] : bounds[hi]].tobytes()


class TestRequestSplitInvariance:
    """The same index ranges sampled through any request schedule produce
    byte-identical shards (deterministic mid-allocation resume)."""

    @pytest.mark.parametrize("mode", ["blocked"])
    def test_one_shot_equals_incremental(self, mode):
        problem = _problem(1)
        with ShardedSamplingEngine(
            problem.graph, _probs(problem), seeds=11, chunk_size=16
        ) as one_shot, ShardedSamplingEngine(
            problem.graph, _probs(problem), seeds=11, chunk_size=16
        ) as incremental:
            one_shot.sample({0: 150, 1: 90, 2: 40})
            incremental.sample({0: 40})
            incremental.sample({1: 90, 0: 23})
            incremental.sample({0: 87, 2: 40})
            _assert_fingerprints_equal(
                _fingerprint(one_shot), _fingerprint(incremental)
            )

    @pytest.mark.parametrize("mode", ["blocked"])
    def test_ensure_is_an_index_range_request(self, mode):
        problem = _problem(2)
        with ShardedSamplingEngine(
            problem.graph, _probs(problem), seeds=3, chunk_size=8
        ) as a, ShardedSamplingEngine(
            problem.graph, _probs(problem), seeds=3, chunk_size=8
        ) as b:
            a.sample({0: 60})
            b.ensure({0: 25})
            b.ensure({0: 60})
            b.ensure({0: 10})  # at/below current count: no-op
            _assert_fingerprints_equal(_fingerprint(a), _fingerprint(b))
            assert b.shard(0).num_total == 60

    @pytest.mark.parametrize("mode", ["blocked"])
    def test_partial_tail_chunks_are_computed_once(self, mode, monkeypatch):
        """Continuation requests re-entering a partially consumed chunk
        must reuse the cached block, not resample it — with the cache,
        every chunk is computed exactly once per engine lifetime.  Every
        chunk the engine computes is made a kernel task by
        :meth:`RRSetSampler.chunk_task` first."""
        problem = _problem(3, num_ads=1)
        computed = []
        original = RRSetSampler.chunk_task

        def counting(self, plan, chunk_index):
            computed.append(chunk_index)
            return original(self, plan, chunk_index)

        monkeypatch.setattr(RRSetSampler, "chunk_task", counting)
        with ShardedSamplingEngine(
            problem.graph, _probs(problem), seeds=6, chunk_size=16
        ) as eng, ShardedSamplingEngine(
            problem.graph, _probs(problem), seeds=6, chunk_size=16
        ) as one_shot:
            for count in (10, 10, 20):  # tails at 10, 20, 40 — chunks 0..2
                eng.sample({0: count})
            assert computed == [0, 1, 2]  # no chunk ever resampled
            computed.clear()
            one_shot.sample({0: 40})
            _assert_fingerprints_equal(_fingerprint(eng), _fingerprint(one_shot))

    def test_ensure_validates(self):
        problem = _problem(2)
        with ShardedSamplingEngine(problem.graph, _probs(problem), seeds=0) as eng:
            with pytest.raises(ConfigurationError):
                eng.ensure({9: 10})
            with pytest.raises(ConfigurationError):
                eng.ensure({0: -1})
        with pytest.raises(ConfigurationError):
            ShardedSamplingEngine(problem.graph, _probs(problem), chunk_size=0)


class TestWorkerCountInvariance:
    """The acceptance matrix: byte-identical pools for workers in
    {1, 2, 4} × chunk_size in {1, 7, 64}."""

    @pytest.mark.parametrize("workers", [1, 2, 4])
    @pytest.mark.parametrize("chunk_size", [1, 7, 64])
    @pytest.mark.parametrize("mode", ["blocked"])
    def test_pools_byte_identical(self, mode, chunk_size, workers):
        problem = _problem(4, num_ads=2)
        with ShardedSamplingEngine(
            problem.graph, _probs(problem), seeds=8,
            engine="serial", chunk_size=chunk_size,
        ) as serial, ShardedSamplingEngine(
            problem.graph, _probs(problem), seeds=8,
            engine="process", max_workers=workers, chunk_size=chunk_size,
        ) as process:
            for requests in ({0: 70, 1: 40}, {0: 33}, {1: 5}):
                serial.sample(requests)
                process.sample(requests)
            _assert_fingerprints_equal(_fingerprint(serial), _fingerprint(process))

    def test_single_ad_topup_fans_out_chunks(self, monkeypatch):
        """A one-ad growth request must go through the worker pool as
        multiple chunk tasks — the previously-serial phase the
        counter-based streams exist to parallelize."""
        problem = _problem(5, num_ads=1)
        dispatched = []
        original = ShardedSamplingEngine._run_tasks

        def recording(self, tasks):
            dispatched.append(list(tasks))
            return original(self, tasks)

        monkeypatch.setattr(ShardedSamplingEngine, "_run_tasks", recording)
        with ShardedSamplingEngine(
            problem.graph, _probs(problem), seeds=2, engine="process",
            chunk_size=16, max_workers=2,
        ) as eng:
            eng.sample({0: 50})
            assert eng._substrate.executor is not None  # the pool ran them
        assert len(dispatched) == 1
        tasks = dispatched[0]
        assert len(tasks) == 4  # ceil(50 / 16) chunks, all for ad 0
        assert all(ad == 0 and not resident for ad, _, _, _, resident in tasks)


class TestTransportMatrix:
    """What each substrate records about itself — provenance only: the
    pools are byte-identical on all of them (TestWorkerCountInvariance,
    ``tests/dist``)."""

    @pytest.mark.parametrize(
        "engine,transport,start_method",
        [("serial", "inline", None), ("process", "socket", "fork")],
    )
    def test_substrate_provenance(self, engine, transport, start_method):
        if engine == "process" and not hasattr(os, "fork"):  # pragma: no cover
            pytest.skip("os.fork unavailable")
        problem = _problem(4, num_ads=1)
        with ShardedSamplingEngine(
            problem.graph, _probs(problem), engine=engine, max_workers=1
        ) as eng:
            assert eng.transport == transport
            assert eng.start_method == start_method

    def test_repr_names_the_transport(self):
        problem = _problem(4, num_ads=1)
        with ShardedSamplingEngine(problem.graph, _probs(problem)) as eng:
            assert "transport='inline'" in repr(eng)


class TestPrefetch:
    """Speculative chunk prefetch: same bytes, overlapped wall-clock.

    Legal because every chunk is a pure function of
    ``(entropy, ad, chunk_index)`` — *when* it is computed cannot change
    *what* is computed.
    """

    def test_prefetch_then_ensure_matches_serial(self):
        problem = _problem(4, num_ads=2)
        with ShardedSamplingEngine(
            problem.graph, _probs(problem), seeds=8, engine="serial",
            chunk_size=16,
        ) as serial, ShardedSamplingEngine(
            problem.graph, _probs(problem), seeds=8, engine="process",
            max_workers=2, chunk_size=16,
        ) as process:
            submitted = process.prefetch({0: 70, 1: 40})
            assert submitted == 5 + 3  # ceil(70/16) + ceil(40/16) chunks
            # resubmission of in-flight chunks is a no-op
            assert process.prefetch({0: 70, 1: 40}) == 0
            process.ensure({0: 70, 1: 40})  # harvests the futures
            serial.ensure({0: 70, 1: 40})
            # prefetch beyond, then only partially consume
            process.prefetch({0: 120})
            process.sample({0: 33})
            serial.sample({0: 33})
            _assert_fingerprints_equal(_fingerprint(serial), _fingerprint(process))

    def test_prefetched_chunks_are_harvested_not_resampled(self):
        problem = _problem(5, num_ads=1)
        with ShardedSamplingEngine(
            problem.graph, _probs(problem), seeds=2, engine="process",
            chunk_size=16, max_workers=2,
        ) as eng:
            eng.prefetch({0: 50})
            assert len(eng._inflight) == 4  # ceil(50/16)
            eng.ensure({0: 50})
            assert not eng._inflight  # all harvested, none dropped
            assert eng.shard(0).num_total == 50

    def test_prefetch_is_a_noop_on_serial_engines(self):
        problem = _problem(4, num_ads=1)
        with ShardedSamplingEngine(
            problem.graph, _probs(problem), seeds=8, engine="serial"
        ) as eng:
            assert eng.prefetch({0: 40}) == 0

    def test_prefetch_is_a_noop_after_close(self):
        problem = _problem(4, num_ads=1)
        eng = ShardedSamplingEngine(
            problem.graph, _probs(problem), seeds=8, engine="process"
        )
        eng.close()
        assert eng.prefetch({0: 40}) == 0
        assert not eng._inflight

    def test_prefetch_validates_targets(self):
        problem = _problem(4, num_ads=1)
        with ShardedSamplingEngine(
            problem.graph, _probs(problem), seeds=8, engine="process"
        ) as eng:
            with pytest.raises(ConfigurationError):
                eng.prefetch({9: 10})
            with pytest.raises(ConfigurationError):
                eng.prefetch({0: -1})

    def test_close_drains_unconsumed_prefetch(self):
        problem = _problem(4, num_ads=2)
        eng = ShardedSamplingEngine(
            problem.graph, _probs(problem), seeds=8, engine="process",
            chunk_size=16, max_workers=2,
        )
        assert eng.prefetch({0: 100, 1: 50}) > 0
        eng.close()
        assert not eng._inflight
        eng.close()  # idempotent with drained futures


class TestDegradedFallback:
    """A platform without ``os.fork`` gets no fleet: ``engine="process"``
    computes every chunk in the parent, warns once per engine, and holds
    the serial engine's bytes."""

    def test_warns_once_per_engine_and_matches_serial(self, monkeypatch):
        problem = _problem(6, num_ads=2)
        monkeypatch.delattr(os, "fork", raising=False)
        kwargs = dict(seeds=4, chunk_size=8, dsan=True)
        with ShardedSamplingEngine(
            problem.graph, _probs(problem), engine="process", **kwargs
        ) as eng, ShardedSamplingEngine(
            problem.graph, _probs(problem), engine="serial", **kwargs
        ) as serial:
            assert eng.start_method is None and eng.transport == "inline"
            with pytest.warns(RuntimeWarning, match="no usable process start"):
                eng.sample({0: 30, 1: 30})
            # the second request must not warn again on the same engine
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                eng.sample({0: 10})
            assert eng._substrate.executor is None
            serial.sample({0: 30, 1: 30})
            serial.sample({0: 10})
            _assert_fingerprints_equal(_fingerprint(eng), _fingerprint(serial))
            assert eng.dsan_root() == serial.dsan_root()

    def test_each_engine_instance_warns(self, monkeypatch):
        problem = _problem(6, num_ads=2)
        monkeypatch.delattr(os, "fork", raising=False)
        for _ in range(2):  # a fresh engine warns even after another already did
            with ShardedSamplingEngine(
                problem.graph, _probs(problem), seeds=4, engine="process",
                chunk_size=8,
            ) as eng:
                with pytest.warns(RuntimeWarning, match="will sample serially"):
                    eng.sample({0: 20, 1: 20})


class TestTeardown:
    """No forked worker outlives its engine — after close(), GC, or a
    SIGKILL of the parent (interpreter exit: TestShmHygiene)."""

    def test_close_releases_payload_and_is_idempotent(self, all_reaped):
        problem = _problem(7)
        eng = ShardedSamplingEngine(
            problem.graph, _probs(problem), seeds=0, engine="process", chunk_size=8
        )
        assert not eng._substrate.pids  # nothing forked before a request
        eng.sample({0: 20, 1: 20})
        pids = list(eng._substrate.pids)
        assert pids
        eng.close()
        assert all_reaped(pids)  # SHUTDOWN, then reaped
        eng.close()  # idempotent
        # a closed engine still samples, in-process
        eng.sample({0: 10})
        assert eng.shard(0).num_total == 30

    def test_gc_without_close_releases_payload(self, all_reaped):
        problem = _problem(7)
        eng = ShardedSamplingEngine(
            problem.graph, _probs(problem), seeds=0, engine="process", chunk_size=8
        )
        eng.sample({0: 10, 1: 10})
        pids = list(eng._substrate.pids)
        del eng
        gc.collect()
        assert pids and all_reaped(pids)

    def test_sigkill_of_the_parent_takes_the_fleet_down(self, all_exited):
        """Each worker holds only its own end of its pair, so the
        parent's death reaches it as EOF (or a broken pipe mid-chunk)."""
        proc = _python(
            """
            import time
            from repro.graph.generators import erdos_renyi
            from repro.graph.probabilities import constant_probabilities
            from repro.rrset.sharded import ChunkSource, ShardedSamplingEngine

            block = ChunkSource.block

            def slow_block(self, ad, chunk_index):
                time.sleep(0.05)
                return block(self, ad, chunk_index)

            ChunkSource.block = slow_block  # inherited by the workers
            graph = erdos_renyi(40, 0.06, seed=2)
            probs = [constant_probabilities(graph, 0.08)] * 2
            eng = ShardedSamplingEngine(
                graph, probs, seeds=5, engine="process", chunk_size=8,
                max_workers=2,
            )
            eng.prefetch({0: 16})  # forks the fleet
            print(*eng._substrate.pids, flush=True)
            eng.ensure({0: 80_000, 1: 80_000})  # minutes of chunks
            """
        )
        try:
            pids = [int(pid) for pid in proc.stdout.readline().split()]
            assert len(pids) == 2, proc.stderr.read()
            time.sleep(0.3)  # mid-request
            assert proc.poll() is None
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=10)
        finally:
            if proc.poll() is None:  # pragma: no cover - failure path
                proc.kill()
                proc.wait()
            proc.stdout.close()
            proc.stderr.close()
        gone = all_exited(pids, timeout=5.0)
        for pid in [] if gone else pids:  # pragma: no cover - failure path
            try:
                os.kill(pid, signal.SIGKILL)  # do not leak the failure
            except ProcessLookupError:
                pass
        assert gone


class TestShmHygiene:
    """The fleet needs no shared memory: nothing appears in ``/dev/shm``
    and teardown is silent on every path."""

    def test_no_segments_left_in_dev_shm(self):
        if not os.path.isdir("/dev/shm"):
            pytest.skip("no /dev/shm on this platform")
        before = set(os.listdir("/dev/shm"))
        problem = _problem(7, num_ads=2)
        with ShardedSamplingEngine(
            problem.graph, _probs(problem), seeds=3, engine="process",
            chunk_size=16, max_workers=2,
        ) as eng:
            eng.sample({0: 40, 1: 20})
            eng.prefetch({0: 100})  # left unconsumed on purpose
        gc.collect()
        assert set(os.listdir("/dev/shm")) - before == set()

    def test_teardown_emits_no_resource_tracker_warnings(self, all_exited):
        """An engine never closed, with prefetched work nobody collects:
        interpreter exit reaps the fleet and prints nothing at all."""
        proc = _python(
            """
            from repro.graph.generators import erdos_renyi
            from repro.graph.probabilities import constant_probabilities
            from repro.rrset.sharded import ShardedSamplingEngine

            graph = erdos_renyi(40, 0.06, seed=2)
            probs = [constant_probabilities(graph, 0.08)] * 2
            eng = ShardedSamplingEngine(
                graph, probs, seeds=5, engine="process", chunk_size=8,
                max_workers=2,
            )
            eng.sample({0: 30, 1: 10})
            eng.prefetch({0: 200})  # abandoned in-flight work
            print(*eng._substrate.pids)
            """
        )
        out, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err
        assert err == ""
        pids = [int(pid) for pid in out.split()]
        assert len(pids) == 2 and all_exited(pids)


class TestTIRMContract:
    def test_chunk_size_is_part_of_the_contract(self):
        problem = _problem(9, num_ads=2)
        kwargs = dict(
            seed=3, initial_pilot=300, max_rr_sets_per_ad=2_000, epsilon=0.25
        )
        a = TIRMAllocator(chunk_size=32, **kwargs).allocate(problem)
        b = TIRMAllocator(chunk_size=32, **kwargs).allocate(problem)
        assert a.allocation == b.allocation
        assert np.array_equal(a.estimated_revenues, b.estimated_revenues)

    def test_rejects_bad_rng_params(self):
        for other_stream in ("mersenne", "legacy"):
            with pytest.raises(ConfigurationError, match="rng must be 'philox'"):
                TIRMAllocator(rng=other_stream)
        with pytest.raises(ConfigurationError):
            TIRMAllocator(chunk_size=0)

    def test_stats_and_provenance_record_the_contract(self):
        problem = _problem(9, num_ads=2)
        result = TIRMAllocator(
            seed=3, initial_pilot=300, max_rr_sets_per_ad=2_000, epsilon=0.25,
            chunk_size=64,
        ).allocate(problem)
        assert result.stats["rng"] == "philox"
        assert result.stats["chunk_size"] == 64
        provenance = result.allocation.provenance
        assert provenance["rng"] == "philox"
        assert provenance["chunk_size"] == 64
        assert provenance["seed"] == 3
        assert provenance["stream_entropy"] == 3
        assert result.allocation.copy().provenance == provenance

    def test_stats_and_provenance_record_the_transport(self):
        problem = _problem(9, num_ads=2)
        result = TIRMAllocator(
            seed=3, initial_pilot=300, max_rr_sets_per_ad=2_000, epsilon=0.25,
            chunk_size=64,
        ).allocate(problem)
        assert result.stats["transport"] == "inline"
        assert result.allocation.provenance["transport"] == "inline"
        assert result.stats["start_method"] is None  # serial: nothing started
        assert "prefetch" not in result.stats

    def test_rejects_bad_transport_params(self):
        """The substrate knobs are gone from the allocator's entrance:
        ``transport`` keeps its one legal value, the other two are not
        parameters at all."""
        TIRMAllocator(transport="auto")
        for transport in ("pickle", "shm", "carrier-pigeon"):
            with pytest.raises(ConfigurationError, match="transport must be 'auto'"):
                TIRMAllocator(transport=transport)
        with pytest.raises(TypeError, match="start_method"):
            TIRMAllocator(start_method="fork")
        with pytest.raises(TypeError, match="prefetch"):
            TIRMAllocator(prefetch=False)
