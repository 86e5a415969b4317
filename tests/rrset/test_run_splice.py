"""An ad's run of chunks enters its shard in one append.

``ShardedSamplingEngine._run_tasks`` gathers each request's blocks in
ascending ``(ad, chunk)`` order and splices every ad's run with one
``RRSetPool.add_flat`` over their concatenation.  The shard it leaves
must be the one per-chunk appends leave — rows, offsets, the index a
read builds, coverage, alive flags, the byte accounting and the digest
of every resident chunk — however the blocks arrived, and every block
it held must be released on every path.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.advertising.advertiser import Advertiser
from repro.advertising.attention import AttentionBounds
from repro.advertising.catalog import AdCatalog
from repro.advertising.problem import AdAllocationProblem
from repro.algorithms.tirm import TIRMAllocator
from repro.dist import Coordinator, WorkerHost
from repro.errors import DeterminismError
from repro.graph.generators import erdos_renyi
from repro.graph.probabilities import constant_probabilities
from repro.rrset.dsan import digest_block
from repro.rrset.pool import RRSetPool
from repro.rrset.sampler import RRSetSampler, StreamPlan
from repro.rrset.sharded import ShardedSamplingEngine
from repro.store.blocks import HEADER_SIZE
from repro.store.cache import ShardCache
from repro.utils import hashing
from repro.utils.rng import seed_entropy

from tests.store.test_warm_start import _problem

CHUNK = 64
SEED = 5
#: Request 1 ends mid-chunk on every ad (hidden tails); request 2
#: continues ads 0 and 2 through their tails into new chunks and leaves
#: ad 1 alone; request 3 reveals part of ad 1's tail and nothing else.
REQUESTS = ({0: 150, 1: 70, 2: 10}, {0: 100, 2: 200}, {1: 40})


def _inputs():
    graph = erdos_renyi(60, 0.05, seed=2)
    return graph, [constant_probabilities(graph, p) for p in (0.05, 0.08, 0.1)]


def _reference_shards(graph, probs) -> list[RRSetPool]:
    """The shards per-chunk appends leave for :data:`REQUESTS`: each
    request split at the resident mark, the resident part revealed, and
    every chunk past it appended on its own, its sets past the request
    hidden."""
    entropy = seed_entropy(SEED)
    pools = [RRSetPool(graph.num_nodes) for _ in probs]
    for requests in REQUESTS:
        for ad in sorted(requests):
            pool, plan = pools[ad], StreamPlan(entropy, ad, CHUNK)
            sampler = RRSetSampler(graph, probs[ad])
            start = pool.num_total
            stop = start + requests[ad]
            mark = min(pool.num_resident, stop)
            pool.reveal(mark - start)
            for chunk, lo, hi in plan.chunk_tasks(mark, stop):
                members, lengths = sampler.sample_chunk_block(plan, chunk)
                pool.add_flat(members, lengths, visible=hi - lo)
    return pools


def _state(pool: RRSetPool) -> dict:
    """Everything a splice can leave different in a shard, before and
    after an index read and a removal."""
    resident = pool.num_resident
    state = {
        "marks": (pool.num_total, resident, pool.num_alive),
        "rows": [a.tobytes() for a in pool.resident_rows(0, resident)],
        "indptr": pool._indptr[: resident + 1].tobytes(),
        "chunks": [
            digest_block(*pool.resident_rows(lo, min(lo + CHUNK, resident)))
            for lo in range(0, resident, CHUNK)
        ],
        "memory": [pool.memory_bytes()],
    }
    state["covered"] = pool.coverage_of_set([1, 7, 30])  # builds the index
    state["index"] = (
        pool._idx_indptr.tobytes(), pool._idx_sets.tobytes(), pool._index_sets,
    )
    state["memory"].append(pool.memory_bytes())
    state["killed"] = pool.remove_covered(7)
    state["coverage"] = pool.coverage().tobytes()
    state["alive"] = pool._alive_mask[: pool.num_total].tobytes()
    state["memory"].append(pool.memory_bytes())
    return state


@pytest.fixture
def appends(monkeypatch) -> list[tuple[int, int]]:
    """Spy on ``RRSetPool.add_flat``: one ``(sets, visible)`` entry per
    call."""
    calls: list[tuple[int, int]] = []
    original = RRSetPool.add_flat

    def spy(self, members, lengths, *, visible=None):
        calls.append((len(lengths), visible))
        return original(self, members, lengths, visible=visible)

    monkeypatch.setattr(RRSetPool, "add_flat", spy)
    return calls


def _run(graph, probs, **kwargs):
    """Engine states, dsan root and backend invocations after
    :data:`REQUESTS`."""
    with ShardedSamplingEngine(
        graph, probs, seeds=SEED, chunk_size=CHUNK, dsan=True, **kwargs
    ) as engine:
        for requests in REQUESTS:
            engine.sample(requests)
        states = [_state(engine.shard(ad)) for ad in range(engine.num_ads)]
        return states, engine.dsan_root(), engine.backend_invocations


#: One append per ad and request that splices anything: request 1 all
#: three ads, request 2 ads 0 and 2 (past their tails), request 3 none.
#: ``(sets appended, visible)``: whole chunks, the request's count shown.
EXPECTED_APPENDS = [(192, 150), (128, 70), (64, 10), (64, 58), (192, 146)]


class TestOneAppendPerAd:
    def test_inline_arrivals(self, appends):
        graph, probs = _inputs()
        expected = [_state(pool) for pool in _reference_shards(graph, probs)]
        del appends[:]
        states, _, _ = _run(graph, probs)
        assert appends == EXPECTED_APPENDS
        assert states == expected

    def test_cache_hit_arrivals(self, tmp_path, appends):
        graph, probs = _inputs()
        expected = [_state(pool) for pool in _reference_shards(graph, probs)]
        _, cold_root, _ = _run(graph, probs, cache=str(tmp_path))
        del appends[:]
        states, root, invocations = _run(graph, probs, cache=str(tmp_path))
        assert invocations == 0 and root == cold_root
        assert appends == EXPECTED_APPENDS
        assert states == expected

    def test_forked_arrivals(self, appends):
        graph, probs = _inputs()
        expected = [_state(pool) for pool in _reference_shards(graph, probs)]
        del appends[:]
        states, _, _ = _run(graph, probs, engine="process", max_workers=2)
        assert appends == EXPECTED_APPENDS
        assert states == expected

    def test_socket_arrivals(self, appends):
        graph, probs = _inputs()
        expected = [_state(pool) for pool in _reference_shards(graph, probs)]
        del appends[:]
        with Coordinator() as coordinator:
            worker = WorkerHost("127.0.0.1", coordinator.port)
            thread = threading.Thread(target=worker.run, daemon=True)
            thread.start()
            states, _, _ = _run(
                graph, probs, engine="dist", coordinator=coordinator
            )
        thread.join(10)
        assert worker.chunks_served > 0
        assert appends == EXPECTED_APPENDS
        assert states == expected

    def test_a_corrupt_entry_mid_run_is_recomputed_inline(self, tmp_path):
        """Ad 0's first run is chunks 0–2: poisoning chunk 1's entry
        quarantines it, the chunk is computed inline, and the run still
        enters the shard whole, with the cold run's root."""
        graph, probs = _inputs()
        expected = [_state(pool) for pool in _reference_shards(graph, probs)]
        with ShardedSamplingEngine(
            graph, probs, seeds=SEED, chunk_size=CHUNK, cache=str(tmp_path),
            dsan=True,
        ) as engine:
            for requests in REQUESTS:
                engine.sample(requests)
            cold_root = engine.dsan_root()
            key = engine.shard_cache_refs()[0][0]
        with ShardCache(str(tmp_path)) as cache:
            path = cache.entry_path(key, 1)
        with open(path, "r+b") as handle:
            handle.seek(HEADER_SIZE + 4)
            byte = handle.read(1)
            handle.seek(HEADER_SIZE + 4)
            handle.write(bytes([byte[0] ^ 0xFF]))
        with pytest.warns(RuntimeWarning, match="corrupt entry"):
            states, root, invocations = _run(graph, probs, cache=str(tmp_path))
        assert invocations == 1 and root == cold_root
        assert states == expected


class TestDigestsHandedOver:
    def test_a_second_cached_allocation_hashes_no_row(self, tmp_path, monkeypatch):
        """TIRM hands the engine the problem's cached digests: the first
        cached allocation hashes each row once (the problem's
        ``content_digests``), a second one none."""
        calls: list[str] = []
        original = hashing.array_digest

        def spy(array, *, label=""):
            calls.append(label)
            return original(array, label=label)

        monkeypatch.setattr(hashing, "array_digest", spy)
        problem = _problem()
        allocator = TIRMAllocator(seed=3, cache=str(tmp_path), max_rr_sets_per_ad=600)
        first = allocator.allocate(problem)
        assert calls == ["probs"] * problem.num_ads
        del calls[:]
        second = allocator.allocate(problem)
        assert calls == []
        assert second.stats["cache"]["hits"] > 0
        assert second.allocation == first.allocation

    def test_keys_from_digests_equal_keys_from_hashing(self, tmp_path):
        graph, rows = _inputs()
        problem = AdAllocationProblem(
            graph,
            AdCatalog([Advertiser(name=f"a{i}", budget=6.0, cpe=1.0) for i in range(3)]),
            np.stack(rows),
            0.4,
            AttentionBounds.uniform(graph.num_nodes, 3),
        )
        probs = [problem.ad_edge_probabilities(ad) for ad in range(3)]
        with ShardCache(str(tmp_path)) as cache:
            with ShardedSamplingEngine(
                problem.graph, probs, seeds=SEED, cache=cache,
            ) as hashed, ShardedSamplingEngine(
                problem.graph, probs, seeds=SEED, cache=cache,
                content_digests=problem.content_digests(),
            ) as handed:
                assert len(set(hashed._shard_keys)) == 3
                assert handed._shard_keys == hashed._shard_keys
                assert handed._cache_meta == hashed._cache_meta


class TestHeldBlocksAreReleased:
    def _held(self, monkeypatch) -> list:
        """Every block the cache hands out, kept to inspect after."""
        loaded = []
        load = ShardCache.load

        def spy(self, *args, **kwargs):
            entry = load(self, *args, **kwargs)
            loaded.append(entry)
            return entry

        monkeypatch.setattr(ShardCache, "load", spy)
        return loaded

    def test_an_append_that_raises_mid_ad(self, tmp_path, monkeypatch):
        graph, probs = _inputs()
        _run(graph, probs, cache=str(tmp_path))
        loaded = self._held(monkeypatch)

        def explode(self, members, lengths, *, visible=None):
            raise MemoryError("append failed")

        monkeypatch.setattr(RRSetPool, "add_flat", explode)
        engine = ShardedSamplingEngine(
            graph, probs, seeds=SEED, chunk_size=CHUNK, cache=str(tmp_path),
        )
        with pytest.raises(MemoryError, match="append failed"):
            engine.sample(REQUESTS[0])
        assert len(loaded) == 3  # ad 0's run: chunks 0-2
        assert all(entry.buffer is None and entry.members is None for entry in loaded)
        assert not engine._finalizer.alive

    def test_a_dsan_divergence_mid_ad(self, tmp_path, monkeypatch):
        graph, probs = _inputs()
        _run(graph, probs, cache=str(tmp_path))
        loaded = self._held(monkeypatch)
        engine = ShardedSamplingEngine(
            graph, probs, seeds=SEED, chunk_size=CHUNK, cache=str(tmp_path),
            dsan_expected={(0, 1): "0" * 32},
        )
        with pytest.raises(DeterminismError):
            engine.sample(REQUESTS[0])
        assert len(loaded) == 2  # ad 0's chunks 0 and 1, the second diverged
        assert all(entry.buffer is None and entry.members is None for entry in loaded)
        assert engine.shard(0).num_total == 0
        assert not engine._finalizer.alive
