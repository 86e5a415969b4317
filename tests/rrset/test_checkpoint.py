"""Checkpoint/resume: artifact contract, restore fidelity, and the
kill-and-resume determinism property.

The contract under test (``docs/rrset_engine.md``): a TIRM run
interrupted at *any* iteration boundary and resumed from its checkpoint
produces a byte-identical allocation (seeds, revenues, θ targets,
provenance) to the uninterrupted run for the same
``(seed, chunk_size)`` — across serial/process/distributed engines —
and the artifact persists zero RR-set members (the counter-based
streams re-derive them on load).
"""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from repro.advertising.advertiser import Advertiser
from repro.advertising.attention import AttentionBounds
from repro.advertising.catalog import AdCatalog
from repro.advertising.problem import AdAllocationProblem
from repro.algorithms.tirm import TIRMAllocator
from repro.datasets.toy import figure1_problem
from repro.errors import CheckpointError, ConfigurationError
from repro.graph.generators import erdos_renyi
from repro.graph.probabilities import constant_probabilities
from repro.rrset.checkpoint import (
    CHECKPOINT_FORMAT_VERSION,
    TIRMCheckpoint,
    save_checkpoint,
)
from repro.rrset.sharded import ShardedSamplingEngine


def _problem(seed: int = 7, num_ads: int = 3, budget: float = 5.0):
    graph = erdos_renyi(50, 0.06, seed=seed)
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


def _allocator(**kwargs) -> TIRMAllocator:
    defaults = dict(seed=3, initial_pilot=300, max_rr_sets_per_ad=3_000)
    defaults.update(kwargs)
    return TIRMAllocator(**defaults)


def _engine_fingerprint(engine: ShardedSamplingEngine):
    out = []
    for ad in range(engine.num_ads):
        shard = engine.shard(ad)
        view = shard.prefix_view()
        out.append(
            (
                shard.num_total,
                view.members.tobytes(),
                view.indptr.tobytes(),
                shard.alive_mask().tobytes(),
                shard.coverage().tobytes(),
            )
        )
    return out


def _dummy_per_ad(h: int) -> list[dict]:
    return [
        {
            "seeds": [],
            "marginal_nodes": [],
            "marginal_counts": [],
            "revenue": 0.0,
            "seed_size_estimate": 1,
            "active": True,
        }
        for _ in range(h)
    ]


def _rewrite_meta(path, mutate) -> None:
    """Re-save the artifact at ``path`` with ``mutate(meta)`` applied to
    its decoded ``meta_json``."""
    with np.load(path, allow_pickle=False) as data:
        arrays = {name: data[name] for name in data.files}
    meta = json.loads(str(arrays["meta_json"][()]))
    mutate(meta)
    arrays["meta_json"] = np.array(json.dumps(meta))
    np.savez(path, **arrays)


def _results_identical(a, b) -> bool:
    """Byte-identity of everything the resume contract covers."""
    prov_a = dict(a.allocation.provenance or {})
    prov_b = dict(b.allocation.provenance or {})
    # Not part of the determinism contract: the checkpoint lineage, the
    # engine label (serial vs process vs dist), the transport, and the
    # distributed-fleet counters describe *how* the run executed, and
    # cross-substrate resumes differ in them by design.
    for key in ("checkpoint", "engine", "transport", "dist"):
        prov_a.pop(key, None)
        prov_b.pop(key, None)
    return (
        a.allocation == b.allocation
        and np.asarray(a.estimated_revenues).tobytes()
        == np.asarray(b.estimated_revenues).tobytes()
        and a.stats["theta_per_ad"] == b.stats["theta_per_ad"]
        and a.stats["seed_size_estimates"] == b.stats["seed_size_estimates"]
        and a.stats["iterations"] == b.stats["iterations"]
        and prov_a == prov_b
    )


# ---------------------------------------------------------------------------
# Engine-level save/restore fidelity
# ---------------------------------------------------------------------------
class TestEngineRestore:
    @pytest.mark.parametrize("rng", ["philox"])
    @pytest.mark.parametrize("mode", ["blocked"])
    def test_restore_rebuilds_shards_and_alive_state(self, tmp_path, rng, mode):
        problem = _problem()
        path = tmp_path / "ck.npz"
        config = {"num_ads": problem.num_ads, "rng": rng, "chunk_size": 64}
        with ShardedSamplingEngine(
            problem.graph, _probs(problem), seeds=11, chunk_size=64
        ) as engine:
            engine.sample({0: 120, 1: 75, 2: 40})
            # kill a few sets through the normal removal path
            engine.shard(0).remove_covered(int(engine.shard(0).get_set(0)[0]))
            engine.shard(1).remove_covered(int(engine.shard(1).get_set(3)[0]))
            reference = _engine_fingerprint(engine)
            save_checkpoint(
                path, config=config, engine=engine,
                per_ad=_dummy_per_ad(problem.num_ads), iterations=5, lineage=[],
            )

        checkpoint = TIRMCheckpoint.load(path)
        assert checkpoint.iterations == 5
        with ShardedSamplingEngine(
            problem.graph, _probs(problem), seeds=11, chunk_size=64
        ) as restored:
            checkpoint.restore_engine(restored)
            assert _engine_fingerprint(restored) == reference

    def test_restore_requires_fresh_engine(self, tmp_path):
        problem = _problem()
        path = tmp_path / "ck.npz"
        config = {"num_ads": problem.num_ads, "rng": "philox", "chunk_size": 64}
        with ShardedSamplingEngine(
            problem.graph, _probs(problem), seeds=11, chunk_size=64
        ) as engine:
            engine.sample({0: 10})
            save_checkpoint(
                path, config=config, engine=engine,
                per_ad=_dummy_per_ad(problem.num_ads), iterations=1, lineage=[],
            )
            with pytest.raises(CheckpointError, match="fresh"):
                TIRMCheckpoint.load(path).restore_engine(engine)


    def test_restore_refuses_foreign_stream_roots(self, tmp_path):
        """Shards are re-derived, so an engine on other entropy roots —
        or an artifact that records none — cannot restore."""
        problem = _problem()
        path = tmp_path / "ck.npz"
        config = {"num_ads": problem.num_ads, "rng": "philox", "chunk_size": 64}
        with ShardedSamplingEngine(
            problem.graph, _probs(problem), seeds=11, chunk_size=64
        ) as engine:
            engine.sample({0: 10})
            save_checkpoint(
                path, config=config, engine=engine,
                per_ad=_dummy_per_ad(problem.num_ads), iterations=1, lineage=[],
            )
        checkpoint = TIRMCheckpoint.load(path)
        with ShardedSamplingEngine(
            problem.graph, _probs(problem), seeds=12, chunk_size=64
        ) as other:
            with pytest.raises(ConfigurationError, match="entropies"):
                checkpoint.restore_engine(other)
        checkpoint.entropies = None
        with ShardedSamplingEngine(
            problem.graph, _probs(problem), seeds=11, chunk_size=64
        ) as same:
            with pytest.raises(ConfigurationError, match="entropies"):
                checkpoint.restore_engine(same)


# ---------------------------------------------------------------------------
# Artifact contract
# ---------------------------------------------------------------------------
class TestArtifact:
    def test_philox_artifact_holds_zero_rr_members(self, tmp_path):
        """The headline size win: counter-based addressing means the
        artifact names the sample, it does not store it."""
        problem = _problem()
        path = tmp_path / "ck.npz"
        with ShardedSamplingEngine(
            problem.graph, _probs(problem), seeds=11, chunk_size=64
        ) as engine:
            engine.sample({ad: 400 for ad in range(problem.num_ads)})
            save_checkpoint(
                path,
                config={"num_ads": problem.num_ads, "rng": "philox",
                        "chunk_size": 64},
                engine=engine, per_ad=_dummy_per_ad(problem.num_ads),
                iterations=1, lineage=[],
            )
        with np.load(path, allow_pickle=False) as data:
            spill_keys = [n for n in data.files if "spill" in n or "member" in n]
        assert spill_keys == []
        assert [f for f in os.listdir(tmp_path) if "members" in f] == []
        # and it is small: metadata + masks, not O(total member bytes)
        assert os.path.getsize(path) < 20_000

    def test_load_rejects_missing_corrupt_and_foreign_files(self, tmp_path):
        with pytest.raises(CheckpointError, match="no checkpoint artifact"):
            TIRMCheckpoint.load(tmp_path / "absent.npz")
        corrupt = tmp_path / "corrupt.npz"
        corrupt.write_bytes(b"definitely not a zip archive")
        with pytest.raises(CheckpointError, match="could not read"):
            TIRMCheckpoint.load(corrupt)
        foreign = tmp_path / "foreign.npz"
        np.savez(foreign, payload=np.arange(4))
        with pytest.raises(CheckpointError, match="not a TIRM checkpoint"):
            TIRMCheckpoint.load(foreign)
        # a *truncated* zip keeps the PK magic and raises BadZipFile,
        # which is not an OSError/ValueError — it must still be wrapped
        truncated = tmp_path / "truncated.npz"
        truncated.write_bytes(foreign.read_bytes()[:40])
        with pytest.raises(CheckpointError, match="could not read"):
            TIRMCheckpoint.load(truncated)

    def test_load_rejects_unknown_format_version(self, tmp_path):
        problem = _problem()
        path = tmp_path / "ck.npz"
        with ShardedSamplingEngine(
            problem.graph, _probs(problem), seeds=11
        ) as engine:
            save_checkpoint(
                path,
                config={"num_ads": problem.num_ads, "rng": "philox",
                        "chunk_size": 1024},
                engine=engine, per_ad=_dummy_per_ad(problem.num_ads),
                iterations=0, lineage=[],
            )
        _rewrite_meta(
            path, lambda meta: meta.update(
                format_version=CHECKPOINT_FORMAT_VERSION + 1
            )
        )
        with pytest.raises(CheckpointError, match="unsupported checkpoint format"):
            TIRMCheckpoint.load(path)


# ---------------------------------------------------------------------------
# Resume compatibility validation
# ---------------------------------------------------------------------------
class TestResumeValidation:
    def _write(self, problem, path, **overrides):
        allocator = _allocator(checkpoint_path=path, max_iterations=1, **overrides)
        allocator.allocate(problem)

    @pytest.mark.parametrize(
        "mismatch",
        [
            {"epsilon": 0.2},
            {"seed": 4},
            {"chunk_size": 32},
            {"max_rr_sets_per_ad": 2_000},
        ],
    )
    def test_mismatched_run_is_refused(self, tmp_path, mismatch):
        problem = figure1_problem()
        path = tmp_path / "ck.npz"
        self._write(problem, path)
        with pytest.raises(ConfigurationError, match="incompatible"):
            _allocator(resume_from=path, **mismatch).allocate(problem)

    @pytest.mark.parametrize(
        "field, value", [("rng", "legacy"), ("sampler_mode", "scalar")]
    )
    def test_foreign_stream_artifact_is_refused_by_field(
        self, tmp_path, field, value
    ):
        """An artifact whose stored config names another stream contract
        (and, like those artifacts, records no entropies) is config
        drift like any other: refused up front, naming the field —
        never a failure deeper in the restore."""
        problem = figure1_problem()
        path = tmp_path / "ck.npz"
        self._write(problem, path)
        def as_foreign(meta):
            meta["config"][field] = value
            meta["entropies"] = None

        _rewrite_meta(path, as_foreign)
        with pytest.raises(
            ConfigurationError, match=f"incompatible.*{field}: checkpoint='{value}'"
        ):
            _allocator(resume_from=path).allocate(problem)

    def test_written_config_names_the_stream_contract(self, tmp_path):
        """Resume matches on these two recorded names, so dropping or
        renaming either would orphan every existing checkpoint."""
        path = tmp_path / "ck.npz"
        self._write(figure1_problem(), path)
        config = TIRMCheckpoint.load(path).config
        assert (config["rng"], config["sampler_mode"]) == ("philox", "blocked")

    def test_mismatched_problem_is_refused(self, tmp_path):
        path = tmp_path / "ck.npz"
        self._write(figure1_problem(), path)
        with pytest.raises(ConfigurationError, match="incompatible"):
            _allocator(resume_from=path).allocate(_problem())

    def test_matching_run_resumes(self, tmp_path):
        problem = figure1_problem()
        path = tmp_path / "ck.npz"
        self._write(problem, path)
        result = _allocator(resume_from=path).allocate(problem)
        lineage = result.allocation.provenance["checkpoint"]
        assert lineage["resumed_from"] == str(path)
        assert lineage["resumed_at_iteration"] == 1
        assert lineage["lineage"][-1]["at_iteration"] == 1


# ---------------------------------------------------------------------------
# The kill-and-resume determinism property
# ---------------------------------------------------------------------------
class TestKillAndResumeDeterminism:
    """Interrupt at every iteration boundary k, resume, and demand the
    byte-identical allocation the uninterrupted run produces."""

    @pytest.mark.parametrize("rng", ["philox"])
    @pytest.mark.parametrize("mode", ["blocked"])
    def test_every_boundary_serial(self, tmp_path, rng, mode):
        problem = figure1_problem()
        path = tmp_path / "ck.npz"
        reference = _allocator(rng=rng).allocate(problem)
        total = reference.stats["iterations"]
        assert total >= 3, "fixture must run several iterations"
        for k in range(1, total):
            killed = _allocator(
                rng=rng, checkpoint_path=path, max_iterations=k
            ).allocate(problem)
            assert killed.stats["truncated"] is True
            assert killed.stats["iterations"] == k
            resumed = _allocator(rng=rng, resume_from=path).allocate(problem)
            assert resumed.stats["resumed_at_iteration"] == k
            assert _results_identical(resumed, reference), k

    @pytest.mark.parametrize("rng", ["philox"])
    def test_process_engine_resume(self, tmp_path, rng):
        problem = figure1_problem()
        path = tmp_path / "ck.npz"
        kwargs = dict(rng=rng, chunk_size=64)
        reference = _allocator(**kwargs).allocate(problem)
        k = max(1, reference.stats["iterations"] // 2)
        _allocator(
            engine="process", max_workers=2, checkpoint_path=path,
            max_iterations=k, **kwargs,
        ).allocate(problem)
        resumed = _allocator(
            engine="process", max_workers=2, resume_from=path, **kwargs
        ).allocate(problem)
        assert _results_identical(resumed, reference)

    def test_cross_engine_resume(self, tmp_path):
        """A serial checkpoint resumed under the process engine (and the
        reverse) lands on the same allocation: counter-based chunks make
        the shards engine-invariant."""
        problem = figure1_problem()
        path = tmp_path / "ck.npz"
        kwargs = dict(chunk_size=64)
        reference = _allocator(**kwargs).allocate(problem)
        k = max(1, reference.stats["iterations"] // 2)
        _allocator(
            checkpoint_path=path, max_iterations=k, **kwargs
        ).allocate(problem)
        resumed = _allocator(
            engine="process", max_workers=2, resume_from=path, **kwargs
        ).allocate(problem)
        assert _results_identical(resumed, reference)
        _allocator(
            engine="process", max_workers=2, checkpoint_path=path,
            max_iterations=k, **kwargs,
        ).allocate(problem)
        back = _allocator(resume_from=path, **kwargs).allocate(problem)
        assert _results_identical(back, reference)

    def test_chained_resumes_cover_every_boundary(self, tmp_path):
        """Resume → one iteration → checkpoint, repeated to completion:
        every boundary is both written and restored in one lineage."""
        problem = figure1_problem()
        path = tmp_path / "ck.npz"
        reference = _allocator().allocate(problem)
        total = reference.stats["iterations"]
        result = _allocator(checkpoint_path=path, max_iterations=1).allocate(
            problem
        )
        hops = 1
        while result.stats["truncated"]:
            result = _allocator(
                checkpoint_path=path, resume_from=path, max_iterations=1
            ).allocate(problem)
            hops += 1
            assert hops <= total + 1, "chained resume failed to converge"
        assert _results_identical(result, reference)
        # one resume per boundary, plus the final no-op hop at `total`
        lineage = result.allocation.provenance["checkpoint"]["lineage"]
        assert [entry["at_iteration"] for entry in lineage] == list(
            range(1, total + 1)
        )

    def test_larger_problem_mid_kill(self, tmp_path):
        """One deeper run on a non-toy graph."""
        problem = _problem()
        path = tmp_path / "ck.npz"
        reference = _allocator().allocate(problem)
        k = max(1, reference.stats["iterations"] // 2)
        _allocator(checkpoint_path=path, max_iterations=k).allocate(problem)
        resumed = _allocator(resume_from=path).allocate(problem)
        assert _results_identical(resumed, reference)


class TestCrossSubstrateResumeMatrix:
    """A checkpoint written under one substrate resumes under any
    other: serial/numpy snapshots land byte-identically when finished
    by a distributed fleet of 1/2/4 workers (numpy and, when installed,
    numba), and a distributed snapshot finishes serially.  Counter-based
    chunks make the shards substrate-invariant; the checkpoint matches
    on the contract (seed/rng/chunk size), never the topology."""

    @staticmethod
    def _backends():
        from repro.rrset.backends import resolve_backend

        backends = ["numpy"]
        try:
            resolve_backend("numba")
        except ConfigurationError:
            pass
        else:
            backends.append("numba")
        return backends

    @staticmethod
    def _spawn_fleet(coordinator, count: int, backend: str):
        import threading

        from repro.dist import WorkerHost

        workers = [
            WorkerHost(coordinator.host, coordinator.port, backend=backend)
            for _ in range(count)
        ]
        threads = [
            threading.Thread(target=worker.run, daemon=True)
            for worker in workers
        ]
        for thread in threads:
            thread.start()
        coordinator.wait_for_workers(count, timeout=10.0)
        return threads

    @pytest.mark.parametrize("num_workers", [1, 2, 4])
    def test_serial_checkpoint_finishes_on_a_distributed_fleet(
        self, tmp_path, num_workers
    ):
        from repro.dist import Coordinator

        problem = figure1_problem()
        kwargs = dict(chunk_size=64)
        reference = _allocator(**kwargs).allocate(problem)
        k = max(1, reference.stats["iterations"] // 2)
        for backend in self._backends():
            path = tmp_path / f"ck-{num_workers}-{backend}.npz"
            _allocator(
                checkpoint_path=path, max_iterations=k, **kwargs
            ).allocate(problem)
            with Coordinator() as coordinator:
                threads = self._spawn_fleet(coordinator, num_workers, backend)
                resumed = _allocator(
                    engine="dist", coordinator=coordinator,
                    resume_from=path, **kwargs,
                ).allocate(problem)
            for thread in threads:
                thread.join(timeout=10.0)
            assert resumed.stats["resumed_at_iteration"] == k
            assert _results_identical(resumed, reference), (
                num_workers, backend,
            )

    def test_distributed_checkpoint_finishes_serially(self, tmp_path):
        from repro.dist import Coordinator

        problem = figure1_problem()
        path = tmp_path / "ck.npz"
        kwargs = dict(chunk_size=64)
        reference = _allocator(**kwargs).allocate(problem)
        k = max(1, reference.stats["iterations"] // 2)
        with Coordinator() as coordinator:
            threads = self._spawn_fleet(coordinator, 2, "numpy")
            _allocator(
                engine="dist", coordinator=coordinator,
                checkpoint_path=path, max_iterations=k, **kwargs,
            ).allocate(problem)
        for thread in threads:
            thread.join(timeout=10.0)
        resumed = _allocator(resume_from=path, **kwargs).allocate(problem)
        assert _results_identical(resumed, reference)


class TestTruncationKnob:
    def test_max_iterations_returns_partial_allocation(self, tmp_path):
        problem = figure1_problem()
        result = _allocator(max_iterations=2).allocate(problem)
        assert result.stats["truncated"] is True
        assert result.stats["iterations"] == 2
        assert result.allocation.total_seeds() == 2

    def test_untruncated_run_reports_flag_false(self):
        problem = figure1_problem()
        result = _allocator().allocate(problem)
        assert result.stats["truncated"] is False
        assert result.stats["checkpoints_written"] == 0
        assert result.stats["resumed_at_iteration"] is None

    def test_checkpoint_every_counts_boundaries(self, tmp_path):
        problem = figure1_problem()
        path = tmp_path / "ck.npz"
        result = _allocator(
            checkpoint_path=path, checkpoint_every=2
        ).allocate(problem)
        total = result.stats["iterations"]
        assert result.stats["checkpoints_written"] == total // 2
        assert path.exists()
