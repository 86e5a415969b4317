"""The warm-start contract, end to end.

A second run against a populated cache must perform **zero**
sampling-backend invocations while producing byte-identical shards,
dsan roots, and allocations — across engine substrates.  And the
cache must be failure-transparent: poisoned entries are quarantined and
recomputed, concurrent writers race benignly.
"""

from __future__ import annotations

import os
import subprocess
import sys

import numpy as np
import pytest

import repro
from repro.advertising.advertiser import Advertiser
from repro.advertising.attention import AttentionBounds
from repro.advertising.catalog import AdCatalog
from repro.advertising.problem import AdAllocationProblem
from repro.algorithms.tirm import TIRMAllocator
from repro.graph.generators import erdos_renyi
from repro.graph.probabilities import constant_probabilities
from repro.rrset.sharded import ShardedSamplingEngine
from repro.store.blocks import HEADER_SIZE
from repro.store.cache import ShardCache

REQUESTS = ({0: 120, 1: 80, 2: 40}, {1: 30}, {0: 5, 2: 200})


def _inputs(seed: int = 2):
    graph = erdos_renyi(60, 0.05, seed=seed)
    probs = [constant_probabilities(graph, p) for p in (0.05, 0.08, 0.1)]
    return graph, probs


def _problem(seed: int = 6, num_ads: int = 2):
    graph = erdos_renyi(60, 0.05, seed=seed)
    catalog = AdCatalog(
        [Advertiser(name=f"a{i}", budget=6.0, cpe=1.0) for i in range(num_ads)]
    )
    return AdAllocationProblem(
        graph,
        catalog,
        constant_probabilities(graph, 0.08),
        0.4,
        AttentionBounds.uniform(graph.num_nodes, num_ads),
    )


def _assert_shards_equal(a: ShardedSamplingEngine, b: ShardedSamplingEngine):
    for ad in range(a.num_ads):
        pa, pb = a.shard(ad), b.shard(ad)
        assert pa.num_total == pb.num_total
        va, vb = pa.prefix_view(), pb.prefix_view()
        assert np.array_equal(va.indptr, vb.indptr)
        assert np.array_equal(va.members, vb.members)


def _entry_files(cache_dir) -> list[str]:
    files = []
    for root, _, names in os.walk(os.path.join(cache_dir, "objects")):
        files += [os.path.join(root, n) for n in names if n.endswith(".blk")]
    return sorted(files)


def _run(cache, *, engine="serial", **kwargs):
    graph, probs = _inputs()
    eng = ShardedSamplingEngine(
        graph, probs, seeds=5, engine=engine, chunk_size=64,
        dsan=True, cache=cache, **kwargs,
    )
    with eng:
        for requests in REQUESTS:
            eng.sample(requests)
        return eng, eng.backend_invocations, eng.dsan_root(), dict(eng.cache_stats() or {})


class TestWarmStartMatrix:
    @pytest.mark.parametrize(
        "engine,rng", [("serial", "philox"), ("process", "philox")]
    )
    def test_warm_run_performs_zero_backend_invocations(self, tmp_path, engine, rng):
        graph, probs = _inputs()
        kwargs = dict(seeds=5, engine=engine, chunk_size=64, dsan=True)
        with ShardedSamplingEngine(
            graph, probs, cache=str(tmp_path), **kwargs
        ) as cold:
            for requests in REQUESTS:
                cold.sample(requests)
            cold_invocations = cold.backend_invocations
            cold_root = cold.dsan_root()
        assert cold_invocations > 0

        with ShardedSamplingEngine(
            graph, probs, cache=str(tmp_path), **kwargs
        ) as warm, ShardedSamplingEngine(graph, probs, **kwargs) as uncached:
            for requests in REQUESTS:
                warm.sample(requests)
                uncached.sample(requests)
            assert warm.backend_invocations == 0  # the headline invariant
            stats = warm.cache_stats()
            assert stats["hits"] > 0
            assert warm.dsan_root() == cold_root == uncached.dsan_root()
            _assert_shards_equal(warm, uncached)

    def test_warm_run_shm_transport(self, tmp_path):
        cold, cold_invocations, cold_root, _ = _run(
            str(tmp_path), engine="process"
        )
        if cold.start_method is None:  # pragma: no cover - platform guard
            pytest.skip("shared-memory transport unavailable on this platform")
        assert cold_invocations > 0
        _, warm_invocations, warm_root, stats = _run(
            str(tmp_path), engine="process"
        )
        assert warm_invocations == 0
        assert warm_root == cold_root
        assert stats["hits"] > 0

    def test_warm_prefetch_spawns_no_worker_pool(self, tmp_path):
        _run(str(tmp_path), engine="serial")
        graph, probs = _inputs()
        with ShardedSamplingEngine(
            graph, probs, seeds=5, engine="process", chunk_size=64,
            cache=str(tmp_path),
        ) as warm:
            targets = {ad: sum(r.get(ad, 0) for r in REQUESTS) for ad in range(3)}
            assert warm.prefetch(targets) == 0
            warm.ensure(targets)
            assert warm.backend_invocations == 0
            # A fully warm run never pays for process-pool spin-up.
            assert warm._substrate.executor is None

    def test_each_arrival_is_hashed_once(self, tmp_path, digest_calls):
        """A fresh block is hashed by dsan and written under that digest;
        a cache hit is hashed by the load's verification and recorded
        under it; a revealed resident chunk is re-hashed by dsan — the
        check that the sample did not change between leases."""
        graph, probs = _inputs()
        targets = {0: 128, 1: 64, 2: 192}  # whole 64-set chunks: no tail memo
        chunks = 2 + 1 + 3

        def engine():
            return ShardedSamplingEngine(
                graph, probs, seeds=5, chunk_size=64, dsan=True,
                cache=str(tmp_path),
            )

        with engine() as cold:
            cold.ensure(targets)
            assert cold.backend_invocations == chunks
            root = cold.dsan_root()
        assert digest_calls == ["record"] * chunks
        del digest_calls[:]
        with engine() as warm:
            warm.ensure(targets)
            assert warm.backend_invocations == 0
            assert warm.dsan_root() == root
            assert warm.cache_stats()["hits"] == chunks  # stored digests held
            assert digest_calls == ["parse"] * chunks
            del digest_calls[:]
            warm.reset_for_reuse()
            warm.ensure(targets)
            assert warm.dsan_root() == root
        assert digest_calls == ["record"] * chunks

    def test_cache_off_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE", raising=False)
        graph, probs = _inputs()
        with ShardedSamplingEngine(graph, probs, seeds=5) as eng:
            assert eng.cache is None
            assert eng.cache_stats() is None


class TestFailureTransparency:
    def test_poisoned_entry_quarantined_and_recomputed(self, tmp_path):
        _, cold_invocations, cold_root, _ = _run(str(tmp_path))
        blocks = _entry_files(tmp_path)
        assert blocks
        with open(blocks[0], "r+b") as handle:
            handle.seek(HEADER_SIZE + 4)
            byte = handle.read(1)
            handle.seek(HEADER_SIZE + 4)
            handle.write(bytes([byte[0] ^ 0xFF]))

        with pytest.warns(RuntimeWarning, match="corrupt entry"):
            _, warm_invocations, warm_root, stats = _run(str(tmp_path))
        # Exactly the poisoned block was recomputed; bytes unchanged.
        assert warm_invocations == 1
        assert warm_root == cold_root
        assert stats["corrupt"] == 1

    def test_wrong_width_entry_is_quarantined_once(self, tmp_path):
        """A digest-valid entry whose set count is not the chunk size
        can never be spliced.  It must go the way of any poisoned entry
        — warned about, removed, counted corrupt, recomputed *and
        replaced* — not be reported as a hit and recomputed forever."""
        from repro.store.blocks import load_block, write_block

        _, _, clean_root, _ = _run(str(tmp_path / "clean"))
        cache_dir = tmp_path / "cache"
        _run(str(cache_dir))
        victim = _entry_files(cache_dir)[0]
        entry = load_block(victim)
        lengths = np.array(entry.lengths[:-1])  # one set short
        members = np.array(entry.members[: int(lengths.sum())])
        entry.release()
        write_block(victim, members, lengths)  # valid digest, wrong width

        with pytest.warns(RuntimeWarning, match="corrupt entry") as seen:
            _, invocations, root, stats = _run(str(cache_dir))
        assert len(seen) == 1
        assert invocations == 1  # exactly the planted block was recomputed
        assert root == clean_root
        assert stats["corrupt"] == 1
        assert stats["stores"] == 1  # ...and a full-width entry replaced it

        _, invocations, root, stats = _run(str(cache_dir))
        assert invocations == 0
        assert root == clean_root
        assert stats["corrupt"] == 0 and stats["misses"] == 0
        assert stats["hits"] > 0

    @pytest.mark.parametrize("delta", [-1, 1], ids=["short", "long"])
    def test_entry_whose_lengths_miss_its_members_is_quarantined(
        self, tmp_path, delta
    ):
        """A digest-valid entry whose lengths sum to one member fewer (or
        more) than it holds must not be spliced (wrong sets, silently) or
        crash the splice (overrun): it is quarantined and recomputed."""
        from repro.store.blocks import load_block, write_block

        _, _, clean_root, _ = _run(str(tmp_path / "clean"))
        cache_dir = tmp_path / "cache"
        _run(str(cache_dir))
        victim = _entry_files(cache_dir)[0]
        entry = load_block(victim)
        members, lengths = np.array(entry.members), np.array(entry.lengths)
        entry.release()
        lengths[0] += delta
        write_block(victim, members, lengths)  # valid digest, bad lengths

        with pytest.warns(RuntimeWarning, match="corrupt entry") as seen:
            _, invocations, root, stats = _run(str(cache_dir))
        assert len(seen) == 1
        assert invocations == 1  # exactly the planted block was recomputed
        assert root == clean_root
        assert stats["corrupt"] == 1

    def test_concurrent_writers_agree(self, tmp_path):
        """Two processes cold-populating one cache directory race
        benignly (atomic renames, WAL catalog); a warm run against the
        result is complete and bit-exact."""
        script = tmp_path / "populate.py"
        script.write_text(
            "import sys\n"
            "from repro.graph.generators import erdos_renyi\n"
            "from repro.graph.probabilities import constant_probabilities\n"
            "from repro.rrset.sharded import ShardedSamplingEngine\n"
            "graph = erdos_renyi(60, 0.05, seed=2)\n"
            "probs = [constant_probabilities(graph, p) for p in (0.05, 0.08, 0.1)]\n"
            "with ShardedSamplingEngine(graph, probs, seeds=5, chunk_size=64,\n"
            "                           dsan=True, cache=sys.argv[1]) as eng:\n"
            "    for requests in ({0: 120, 1: 80, 2: 40}, {1: 30}, {0: 5, 2: 200}):\n"
            "        eng.sample(requests)\n"
            "    print(eng.dsan_root())\n",
            encoding="utf-8",
        )
        env = dict(os.environ)
        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        cache_dir = tmp_path / "cache"
        writers = [
            subprocess.Popen(
                [sys.executable, str(script), str(cache_dir)],
                env=env, stdout=subprocess.PIPE, text=True,
            )
            for _ in range(2)
        ]
        roots = []
        for writer in writers:
            out, _ = writer.communicate(timeout=120)
            assert writer.returncode == 0
            roots.append(out.strip())
        assert roots[0] == roots[1]

        _, warm_invocations, warm_root, stats = _run(str(cache_dir))
        assert warm_invocations == 0
        assert warm_root == roots[0]
        assert stats["hits"] > 0


class TestTIRMWarmStart:
    def test_second_allocation_skips_sampling_and_matches(self, tmp_path):
        problem = _problem()
        kwargs = dict(
            seed=6, initial_pilot=400, max_rr_sets_per_ad=3_000, epsilon=0.2,
            cache=str(tmp_path), dataset="toy",
        )
        cold = TIRMAllocator(**kwargs).allocate(problem)
        warm = TIRMAllocator(**kwargs).allocate(problem)
        assert cold.stats["backend_invocations"] > 0
        assert warm.stats["backend_invocations"] == 0
        assert warm.allocation == cold.allocation
        assert np.array_equal(warm.estimated_revenues, cold.estimated_revenues)
        assert warm.stats["theta_per_ad"] == cold.stats["theta_per_ad"]

        with ShardCache(tmp_path) as cache:
            rows = cache.catalog.list_allocations()
            assert len(rows) == 2
            assert rows[0]["dataset"] == rows[1]["dataset"] == "toy"
            assert rows[1]["backend_invocations"] == 0
            record = cache.catalog.get_allocation(rows[0]["id"])
            assert record["stats"]["total_rr_sets"] == record["total_rr_sets"]

    def test_warm_process_engine_matches_cold_serial(self, tmp_path):
        """Cache entries are engine-agnostic: blocks written by the
        serial engine warm-start the process engine bit-exactly."""
        problem = _problem()
        kwargs = dict(
            seed=6, initial_pilot=400, max_rr_sets_per_ad=3_000, epsilon=0.2,
            cache=str(tmp_path), dataset="toy",
        )
        cold = TIRMAllocator(engine="serial", **kwargs).allocate(problem)
        warm = TIRMAllocator(engine="process", **kwargs).allocate(problem)
        assert warm.stats["backend_invocations"] == 0
        assert warm.allocation == cold.allocation
        assert warm.stats["theta_per_ad"] == cold.stats["theta_per_ad"]
