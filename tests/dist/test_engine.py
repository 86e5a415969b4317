"""``engine="dist"``: byte-identity with serial, fallback, lifecycle.

The tentpole invariant — every chunk is a pure function of
``(seed, ad, chunk)`` — means a dialled fleet must produce shards
byte-identical to the serial engine regardless of worker count,
scatter order, prefetching, or a completely empty fleet (local
fallback).  These tests pin that, plus the engine-side plumbing:
session registration/release on a caller-owned coordinator, the
engine/coordinator pairing, and allocator-level validation.
"""

from __future__ import annotations

import threading
import warnings

import pytest

from chaos import ChaosWorker, join_workers, start_workers
from repro.algorithms.tirm import TIRMAllocator
from repro.dist import Coordinator, WorkerHost
from repro.errors import ConfigurationError
from repro.graph.generators import erdos_renyi
from repro.graph.probabilities import constant_probabilities
from repro.rrset.sharded import ShardedSamplingEngine

CHUNK = 128
TARGETS = {0: 500, 1: 700}


def _graph():
    return erdos_renyi(50, 0.06, seed=11)


def _probs(graph, h=2):
    probs = constant_probabilities(graph, 0.1)
    return [probs for _ in range(h)]


def _fingerprint(engine) -> list[tuple]:
    out = []
    for ad in range(engine.num_ads):
        shard = engine.shard(ad)
        view = shard.prefix_view()
        out.append((
            shard.num_total,
            view.members.tobytes(),
            view.indptr.tobytes(),
        ))
    return out


def _serial_reference(graph, probs, targets=TARGETS):
    with ShardedSamplingEngine(
        graph, probs, seeds=7, chunk_size=CHUNK, dsan=True
    ) as engine:
        engine.ensure(targets)
        return _fingerprint(engine), engine.dsan_root()


class TestByteIdentity:
    @pytest.mark.parametrize("num_workers", [1, 2, 4])
    def test_matches_serial_for_any_worker_count(self, num_workers):
        graph = _graph()
        probs = _probs(graph)
        reference, reference_root = _serial_reference(graph, probs)
        with Coordinator() as coordinator:
            workers = [
                WorkerHost("127.0.0.1", coordinator.port, name=f"w{i}")
                for i in range(num_workers)
            ]
            threads = start_workers(coordinator, workers)
            with ShardedSamplingEngine(
                graph, probs, engine="dist", coordinator=coordinator, seeds=7,
                chunk_size=CHUNK, dsan=True,
            ) as engine:
                engine.ensure(TARGETS)
                assert _fingerprint(engine) == reference
                assert engine.dsan_root() == reference_root
                stats = engine.dist_stats()
                assert stats["tasks_completed"] > 0
                assert stats["local_fallbacks"] == 0
        join_workers(threads)
        assert sum(w.chunks_served for w in workers) == stats["tasks_completed"]

    def test_each_result_is_hashed_once_on_the_parent_side(self, digest_calls):
        """The parent verifies a RESULT's stamp over the arrays it
        splices and dsan records that digest: one hash per block on
        each side of the wire."""
        graph = _graph()
        probs = _probs(graph)
        _, reference_root = _serial_reference(graph, probs)
        del digest_calls[:]
        with Coordinator() as coordinator:
            threads = start_workers(
                coordinator, [WorkerHost("127.0.0.1", coordinator.port)]
            )
            with ShardedSamplingEngine(
                graph, probs, engine="dist", coordinator=coordinator, seeds=7,
                chunk_size=CHUNK, dsan=True,
            ) as engine:
                engine.ensure(TARGETS)
                assert engine.dsan_root() == reference_root
                chunks = len(engine.dsan_digests())
                assert engine.dist_stats()["tasks_completed"] == chunks
        join_workers(threads)
        parent = [c for c in digest_calls if c != "_compute_result"]
        assert parent == ["parse"] * chunks
        assert digest_calls.count("_compute_result") == chunks  # the stamp

    def test_prefetch_overlaps_without_changing_bytes(self):
        graph = _graph()
        probs = _probs(graph)
        reference, reference_root = _serial_reference(graph, probs)
        with Coordinator() as coordinator:
            workers = [WorkerHost("127.0.0.1", coordinator.port)
                       for _ in range(2)]
            threads = start_workers(coordinator, workers)
            with ShardedSamplingEngine(
                graph, probs, engine="dist", coordinator=coordinator, seeds=7,
                chunk_size=CHUNK, dsan=True,
            ) as engine:
                submitted = engine.prefetch(TARGETS)
                assert submitted > 0
                engine.ensure(TARGETS)
                assert _fingerprint(engine) == reference
                assert engine.dsan_root() == reference_root
        join_workers(threads)

    def test_empty_fleet_falls_back_locally_byte_identically(self):
        graph = _graph()
        probs = _probs(graph)
        reference, reference_root = _serial_reference(graph, probs)
        with Coordinator(worker_grace=0.2) as coordinator:
            with ShardedSamplingEngine(
                graph, probs, engine="dist", coordinator=coordinator, seeds=7,
                chunk_size=CHUNK, dsan=True,
            ) as engine:
                with pytest.warns(RuntimeWarning, match="computing\\s+locally"):
                    engine.ensure(TARGETS)
                assert _fingerprint(engine) == reference
                assert engine.dsan_root() == reference_root
                assert engine.dist_stats()["local_fallbacks"] > 0

    def test_reset_for_reuse_clears_the_fallback_record(self):
        """Local fallbacks and their one warning are run-scoped: a warm
        lease must not report the previous job's fallbacks, and a later
        fallback run must warn again.  (A rerun reveals what is
        resident, so each run here reaches further than the last: only
        the sets past the mark are fleet work.)"""
        graph = _graph()
        probs = _probs(graph)
        twice = {ad: 2 * target for ad, target in TARGETS.items()}
        thrice = {ad: 3 * target for ad, target in TARGETS.items()}
        with Coordinator(worker_grace=0.2) as coordinator:
            with ShardedSamplingEngine(
                graph, probs, engine="dist", coordinator=coordinator, seeds=7,
                chunk_size=CHUNK, dsan=True,
            ) as engine:
                with pytest.warns(RuntimeWarning, match="computing\\s+locally"):
                    engine.ensure(TARGETS)  # empty fleet: every chunk falls back
                assert engine.dist_stats()["local_fallbacks"] > 0
                engine.reset_for_reuse()
                assert engine.dist_stats()["local_fallbacks"] == 0

                # One worker that serves the whole clean run (4 + 5 new
                # chunks) and crashes on the first chunk of the run after.
                worker = ChaosWorker(
                    "127.0.0.1", coordinator.port, failure="crash", fail_on=10
                )
                threads = start_workers(coordinator, [worker])
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    engine.ensure(twice)  # clean run on a live fleet
                assert engine.dist_stats()["local_fallbacks"] == 0
                assert worker.chunks_served == 9

                engine.reset_for_reuse()
                with pytest.warns(RuntimeWarning, match="computing\\s+locally"):
                    engine.ensure(thrice)  # the fleet empties mid-run
                assert engine.dist_stats()["local_fallbacks"] > 0
                assert engine.dsan_root() == _serial_reference(
                    graph, probs, thrice
                )[1]
        join_workers(threads)

    def test_rerun_reveals_resident_sets_and_samples_past_them(self):
        """On a dialled fleet ``reset_for_reuse`` keeps the base
        contract: a rerun to the same targets is no fleet work
        at all, one past them sends only the chunks the first run never
        saw — bytes and digests those of a serial run either way."""
        graph = _graph()
        probs = _probs(graph)
        further = {0: 900, 1: 700}  # ad 0 straddles its mark, ad 1 sits on it
        with Coordinator() as coordinator:
            worker = WorkerHost("127.0.0.1", coordinator.port)
            threads = start_workers(coordinator, [worker])
            with ShardedSamplingEngine(
                graph, probs, engine="dist", coordinator=coordinator, seeds=7,
                chunk_size=CHUNK, dsan=True,
            ) as engine:
                engine.ensure(TARGETS)
                served = worker.chunks_served
                assert served == 4 + 6
                engine.reset_for_reuse()
                assert engine.prefetch(TARGETS) == 0
                engine.ensure(TARGETS)
                assert engine.backend_invocations == 0
                assert worker.chunks_served == served
                assert (_fingerprint(engine), engine.dsan_root()) == (
                    _serial_reference(graph, probs)
                )
                engine.reset_for_reuse()
                engine.ensure(further)
                # Ad 0: chunk 3 comes from the tail memo, chunks 4-7 new.
                assert engine.backend_invocations == 4
                assert worker.chunks_served == served + 4
                assert (_fingerprint(engine), engine.dsan_root()) == (
                    _serial_reference(graph, probs, further)
                )
        join_workers(threads)


class TestWorkerLocalCache:
    def test_second_session_is_served_from_the_worker_cache(
        self, tmp_path, digest_calls
    ):
        graph = _graph()
        probs = _probs(graph)
        with Coordinator() as coordinator:
            worker = WorkerHost(
                "127.0.0.1", coordinator.port, cache=str(tmp_path)
            )
            threads = start_workers(coordinator, [worker])
            reference, reference_root = _serial_reference(graph, probs)
            calls = []
            for _ in range(2):
                del digest_calls[:]
                with ShardedSamplingEngine(
                    graph, probs, engine="dist", coordinator=coordinator, seeds=7,
                    chunk_size=CHUNK, dsan=True,
                ) as engine:
                    engine.ensure(TARGETS)
                    assert _fingerprint(engine) == reference
                    assert engine.dsan_root() == reference_root
                    chunks = len(engine.dsan_digests())
                calls.append(sorted(digest_calls))
            assert worker.cache_hits == chunks
        join_workers(threads)
        cold, warm = calls
        # A first-session chunk is hashed once by the worker, and that
        # digest both stamps the RESULT and goes into the cache entry;
        # the parent's RESULT check is the only other hash.
        assert cold == ["_compute_result"] * chunks + ["parse"] * chunks
        # Every chunk of the second session is a worker-cache hit: the
        # worker's load and the parent's RESULT check hash it once each,
        # and the RESULT is stamped with the digest the load verified.
        assert warm == ["parse"] * (2 * chunks)


class TestLifecycle:
    def test_non_coordinator_refused(self):
        graph = _graph()
        with pytest.raises(ConfigurationError, match="coordinator"):
            ShardedSamplingEngine(
                graph, _probs(graph), engine="dist", coordinator=object(),
                seeds=7, chunk_size=CHUNK,
            )

    def test_dist_engine_needs_a_coordinator(self):
        graph = _graph()
        with pytest.raises(ConfigurationError, match="coordinator"):
            ShardedSamplingEngine(graph, _probs(graph), engine="dist")

    @pytest.mark.parametrize("engine", ["serial", "process"])
    def test_coordinator_refused_off_the_dist_engine(self, engine):
        graph = _graph()
        with pytest.raises(ConfigurationError, match="dist"):
            ShardedSamplingEngine(
                graph, _probs(graph), engine=engine, coordinator=Coordinator()
            )

    def test_refused_registration_leaves_no_cache_handle_open(
        self, tmp_path, monkeypatch
    ):
        from repro.store.cache import ShardCache

        closed = []
        original = ShardCache.close

        def close(cache):
            closed.append(cache)
            original(cache)

        monkeypatch.setattr(ShardCache, "close", close)
        graph = _graph()
        coordinator = Coordinator()
        coordinator.close()
        with pytest.raises(ConfigurationError, match="closed"):
            ShardedSamplingEngine(
                graph, _probs(graph), engine="dist", coordinator=coordinator,
                cache=str(tmp_path),
            )
        assert len(closed) == 1

    def test_close_releases_the_session(self):
        graph = _graph()
        with Coordinator() as coordinator:
            engine = ShardedSamplingEngine(
                graph, _probs(graph), engine="dist", coordinator=coordinator,
                seeds=7, chunk_size=CHUNK,
            )
            session = engine.dist_stats()["session"]
            engine.close()
            assert coordinator.started  # the caller's: stays up
            with pytest.raises(ConfigurationError, match="session"):
                coordinator.submit(session, 0, 0)

    def test_engine_reports_socket_substrate(self):
        graph = _graph()
        with Coordinator() as coordinator:
            with ShardedSamplingEngine(
                graph, _probs(graph), engine="dist", coordinator=coordinator,
                seeds=7, chunk_size=CHUNK,
            ) as engine:
                assert engine.engine == "dist"
                assert engine.transport == "socket"

    @pytest.mark.parametrize("engine", ["serial", "process"])
    def test_only_the_dist_engine_reports_dist_stats(self, engine):
        graph = _graph()
        with ShardedSamplingEngine(
            graph, _probs(graph), engine=engine, max_workers=1
        ) as sharded:
            assert sharded.dist_stats() is None


class TestAllocatorValidation:
    def test_dist_engine_needs_a_coordinator(self):
        with pytest.raises(ConfigurationError, match="coordinator"):
            TIRMAllocator(engine="dist")

    def test_coordinator_needs_the_dist_engine(self):
        with pytest.raises(ConfigurationError, match="dist"):
            TIRMAllocator(engine="serial", coordinator=Coordinator())

    def test_dist_allocator_builds_the_one_engine_class(self):
        from repro.datasets.toy import figure1_problem

        with Coordinator() as coordinator:
            allocator = TIRMAllocator(engine="dist", coordinator=coordinator)
            with allocator._build_engine(figure1_problem(), None) as engine:
                assert type(engine) is ShardedSamplingEngine
