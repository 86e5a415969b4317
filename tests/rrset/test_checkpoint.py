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
from repro.algorithms.session import FAILED, TERMINAL_STATES, AllocationSession
from repro.algorithms.tirm import TIRMAllocator
from repro.datasets.toy import figure1_problem
from repro.errors import CheckpointError, ConfigurationError
from repro.graph.generators import erdos_renyi
from repro.graph.probabilities import constant_probabilities
from repro.rrset.checkpoint import (
    CHECKPOINT_FORMAT_VERSION,
    TIRMCheckpoint,
    build_snapshot,
    save_checkpoint,
)
from repro.rrset.sharded import ShardedSamplingEngine

from tests.rrset._pool_helpers import alive_mask, get_set


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
                alive_mask(shard).tobytes(),
                shard.coverage().tobytes(),
            )
        )
    return out


def _per_ad(engine, seeds=None) -> list[dict]:
    """Per-ad records for ``engine``: ``seeds[ad]`` (none by default)
    are taken in order through ``remove_covered``, and each records the
    count it removed — the state a session leaves at a boundary."""
    records = []
    for ad in range(engine.num_ads):
        chosen = list((seeds or {}).get(ad, ()))
        counts = [engine.shard(ad).remove_covered(node) for node in chosen]
        records.append({
            "seeds": chosen,
            "marginal_nodes": chosen,
            "marginal_counts": counts,
            "revenue": 0.0,
            "seed_size_estimate": 1,
            "active": True,
        })
    return records


def _save(path, engine, problem, seeds=None, iterations=1) -> dict:
    """Snapshot ``engine`` (after applying ``seeds``) to ``path``;
    returns the snapshot written."""
    snapshot = build_snapshot(
        config={"num_ads": problem.num_ads, "num_nodes": problem.num_nodes,
                "rng": "philox", "chunk_size": engine.chunk_size},
        engine=engine, per_ad=_per_ad(engine, seeds),
        iterations=iterations, lineage=[],
    )
    save_checkpoint(path, snapshot)
    return snapshot


def _rewrite_meta(path, mutate) -> None:
    """Re-save the artifact at ``path`` with ``mutate(snapshot)``
    applied to its decoded JSON."""
    snapshot = json.loads(path.read_text())
    mutate(snapshot)
    path.write_text(json.dumps(snapshot))


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
        """The alive sets and coverage counters come back from the
        recorded seeds alone: each is replayed through ``remove_covered``
        in selection order, recounting what it covered."""
        problem = _problem()
        path = tmp_path / "ck.json"
        with ShardedSamplingEngine(
            problem.graph, _probs(problem), seeds=11, chunk_size=64
        ) as engine:
            engine.sample({0: 120, 1: 75, 2: 40})
            first = int(get_set(engine.shard(0), 0)[0])
            seeds = {
                0: [first, int(np.argmax(engine.shard(0).coverage()))],
                1: [int(get_set(engine.shard(1), 3)[0])],
            }
            if seeds[0][1] == first:
                seeds[0].pop()
            snapshot = _save(path, engine, problem, seeds, iterations=5)
            reference = _engine_fingerprint(engine)
        assert all(snapshot["marginal_counts"][0]) and snapshot["seeds"][2] == []

        checkpoint = TIRMCheckpoint.load(path)
        assert checkpoint.iterations == 5
        with ShardedSamplingEngine(
            problem.graph, _probs(problem), seeds=11, chunk_size=64
        ) as restored:
            checkpoint.restore_engine(restored)
            assert _engine_fingerprint(restored) == reference

    def test_restore_requires_fresh_engine(self, tmp_path):
        problem = _problem()
        path = tmp_path / "ck.json"
        with ShardedSamplingEngine(
            problem.graph, _probs(problem), seeds=11, chunk_size=64
        ) as engine:
            engine.sample({0: 10})
            _save(path, engine, problem)
            with pytest.raises(CheckpointError, match="fresh"):
                TIRMCheckpoint.load(path).restore_engine(engine)


    def test_restore_refuses_foreign_stream_roots(self, tmp_path):
        """Shards are re-derived, so an engine on other entropy roots —
        or an artifact that records none — cannot restore."""
        problem = _problem()
        path = tmp_path / "ck.json"
        with ShardedSamplingEngine(
            problem.graph, _probs(problem), seeds=11, chunk_size=64
        ) as engine:
            engine.sample({0: 10})
            _save(path, engine, problem)
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

    def test_tampered_recount_is_refused_before_the_session_steps(self, tmp_path):
        """A marginal count the re-derived sets do not reproduce means
        the artifact does not describe these samples: the restore names
        the ad and the seed, and the session never selects."""
        problem = figure1_problem()
        path = tmp_path / "ck.json"
        _allocator(checkpoint_path=path, max_iterations=2).allocate(problem)
        snapshot = json.loads(path.read_text())
        ad = next(i for i, seeds in enumerate(snapshot["seeds"]) if seeds)
        seed = snapshot["seeds"][ad][0]
        _rewrite_meta(
            path, lambda meta: meta["marginal_counts"][ad].__setitem__(
                0, meta["marginal_counts"][ad][0] + 1
            )
        )
        allocator = _allocator(resume_from=path)
        checkpoint = TIRMCheckpoint.load(path)
        engine = allocator._build_engine(problem, None, checkpoint)
        with engine:
            session = AllocationSession(
                problem, allocator, engine=engine, checkpoint=checkpoint
            )
            with pytest.raises(
                CheckpointError, match=f"ad {ad} seed {seed} covers"
            ):
                session.step()
            assert session.state == FAILED
            assert session.allocation.total_seeds() == 0


# ---------------------------------------------------------------------------
# Artifact contract
# ---------------------------------------------------------------------------
class TestArtifact:
    def test_philox_artifact_holds_zero_rr_members(self, tmp_path):
        """The headline size win: counter-based addressing means the
        artifact names the sample, it does not store it — and the alive
        sets are re-derived from the seeds, so no mask is stored either."""
        problem = _problem()
        path = tmp_path / "ck.json"
        with ShardedSamplingEngine(
            problem.graph, _probs(problem), seeds=11, chunk_size=64
        ) as engine:
            engine.sample({ad: 400 for ad in range(problem.num_ads)})
            _save(path, engine, problem)
        keys = json.loads(path.read_text())
        assert [k for k in keys if "member" in k or "alive" in k] == []
        assert os.listdir(tmp_path) == ["ck.json"]
        assert os.path.getsize(path) < 2_000

    def test_artifact_size_does_not_grow_with_theta(self, tmp_path):
        """The same seeds over 400 and over 40 000 sets per ad: only the
        digits of the θ targets and the counts differ."""
        problem = _problem()
        sizes = []
        for theta in (400, 40_000):
            path = tmp_path / f"ck-{theta}.json"
            with ShardedSamplingEngine(
                problem.graph, _probs(problem), seeds=11, chunk_size=1024
            ) as engine:
                engine.sample({ad: theta for ad in range(problem.num_ads)})
                _save(path, engine, problem, {ad: [ad, 7] for ad in range(3)})
            sizes.append(os.path.getsize(path))
        assert abs(sizes[1] - sizes[0]) <= 24, sizes

    def test_file_is_the_progress_snapshot(self, tmp_path):
        """At every boundary the artifact is ``json.dumps`` of the
        session's progress report — one format, no second writer."""
        problem = figure1_problem()
        path = tmp_path / "ck.json"
        allocator = _allocator(checkpoint_path=path)
        engine = allocator._build_engine(problem, None, None)
        compared = 0
        with engine:
            session = AllocationSession(problem, allocator, engine=engine)
            while session.state not in TERMINAL_STATES:
                written = session.checkpoints_written
                state = session.step()
                if session.checkpoints_written > written:
                    assert state == "select"
                    assert path.read_text() == json.dumps(session.progress())
                    compared += 1
        assert compared == session.iterations >= 3

    def test_write_fsyncs_before_the_rename(self, tmp_path, monkeypatch):
        """The data reaches the disk before the rename publishes it, so
        a host crash cannot leave an empty artifact under the name."""
        from repro.rrset import checkpoint as checkpoint_module

        calls = []
        fsync, replace = os.fsync, os.replace

        def spy_fsync(fd):
            calls.append("fsync")
            return fsync(fd)

        def spy_replace(src, dst):
            calls.append("replace")
            return replace(src, dst)

        monkeypatch.setattr(checkpoint_module.os, "fsync", spy_fsync)
        monkeypatch.setattr(checkpoint_module.os, "replace", spy_replace)
        path = tmp_path / "ck.json"
        save_checkpoint(path, {"format": "tirm-checkpoint"})
        assert calls == ["fsync", "replace"]
        assert json.loads(path.read_text()) == {"format": "tirm-checkpoint"}
        assert os.listdir(tmp_path) == ["ck.json"]

    def test_load_rejects_missing_corrupt_and_foreign_files(self, tmp_path):
        with pytest.raises(CheckpointError, match="no checkpoint artifact"):
            TIRMCheckpoint.load(tmp_path / "absent.json")
        corrupt = tmp_path / "corrupt.json"
        corrupt.write_bytes(b"definitely not json")
        with pytest.raises(CheckpointError, match="could not read"):
            TIRMCheckpoint.load(corrupt)
        foreign = tmp_path / "foreign.json"
        foreign.write_text(json.dumps({"payload": [0, 1, 2, 3]}))
        with pytest.raises(CheckpointError, match="not a TIRM checkpoint"):
            TIRMCheckpoint.load(foreign)
        listed = tmp_path / "list.json"
        listed.write_text("[1, 2]")
        with pytest.raises(CheckpointError, match="not a TIRM checkpoint"):
            TIRMCheckpoint.load(listed)
        truncated = tmp_path / "truncated.json"
        truncated.write_text(json.dumps({"format": "tirm-checkpoint"})[:12])
        with pytest.raises(CheckpointError, match="could not read"):
            TIRMCheckpoint.load(truncated)

    def test_load_rejects_unknown_format_version(self, tmp_path):
        problem = _problem()
        path = tmp_path / "ck.json"
        with ShardedSamplingEngine(
            problem.graph, _probs(problem), seeds=11
        ) as engine:
            _save(path, engine, problem, iterations=0)
        _rewrite_meta(
            path, lambda meta: meta.update(
                format_version=CHECKPOINT_FORMAT_VERSION + 1
            )
        )
        with pytest.raises(CheckpointError, match="unsupported checkpoint format"):
            TIRMCheckpoint.load(path)


class TestMalformedArtifacts:
    """Every malformed artifact is refused with ``CheckpointError`` at
    load — never a ``KeyError``, an ``IndexError`` or a NaN revenue."""

    @pytest.fixture
    def path(self, tmp_path):
        problem = figure1_problem()
        path = tmp_path / "ck.json"
        _allocator(checkpoint_path=path, max_iterations=2).allocate(problem)
        TIRMCheckpoint.load(path)  # the untampered artifact loads
        return path

    @staticmethod
    def _first_seeded(meta) -> int:
        return next(i for i, seeds in enumerate(meta["seeds"]) if seeds)

    def _set_seed(self, meta, value):
        ad = self._first_seeded(meta)
        meta["seeds"][ad][0] = meta["marginal_nodes"][ad][0] = value

    @pytest.mark.parametrize(
        "tamper, match",
        [
            (lambda self, m: m.pop("config"), "no config"),
            (lambda self, m: m.update(config=[1, 2]), "no config"),
            (lambda self, m: m["config"].pop("num_nodes"), "num_nodes"),
            (lambda self, m: m["theta"].pop(), "'theta' as a list of"),
            (lambda self, m: m["seeds"].pop(), "'seeds' as a list of"),
            (lambda self, m: m.update(revenue=None), "'revenue' as a list of"),
            (lambda self, m: m["revenue"].__setitem__(0, float("nan")),
             "bad 'revenue' entry for ad 0"),
            (lambda self, m: m["revenue"].__setitem__(0, float("inf")),
             "bad 'revenue' entry"),
            (lambda self, m: m["active"].__setitem__(0, 1), "bad 'active'"),
            (lambda self, m: self._set_seed(m, m["config"]["num_nodes"]),
             "bad 'seeds' entry"),
            (lambda self, m: self._set_seed(m, -1), "bad 'seeds' entry"),
            (lambda self, m: self._set_seed(m, 1.0), "bad 'seeds' entry"),
            (lambda self, m: self._set_seed(m, [0]), "bad 'seeds' entry"),
            (lambda self, m: m["marginal_nodes"][self._first_seeded(m)].append(0),
             "marginal_nodes"),
            (lambda self, m: m["marginal_counts"][self._first_seeded(m)].pop(),
             "marginal_counts"),
            (lambda self, m: m.update(iterations=-1), "iteration count"),
            (lambda self, m: m.update(lineage="resumed"), "bad lineage"),
            (lambda self, m: m.update(state="grow"), "not at an iteration boundary"),
        ],
    )
    def test_refused(self, path, tamper, match):
        _rewrite_meta(path, lambda meta: tamper(self, meta))
        with pytest.raises(CheckpointError, match=match):
            TIRMCheckpoint.load(path)

    def test_repeated_seed_is_refused(self, path):
        def repeat(meta):
            ad = self._first_seeded(meta)
            meta["seeds"][ad].append(meta["seeds"][ad][0])
            meta["marginal_nodes"][ad] = list(meta["seeds"][ad])
            meta["marginal_counts"][ad].append(0)

        _rewrite_meta(path, repeat)
        with pytest.raises(CheckpointError, match="bad 'seeds' entry"):
            TIRMCheckpoint.load(path)

    def test_version_1_npz_is_refused(self, tmp_path):
        """An artifact in the old layout — an ``.npz`` of per-ad arrays
        and bit-packed alive masks — is not JSON, so it is refused as
        unreadable instead of half-parsed."""
        path = tmp_path / "old.ckpt.npz"
        meta = {"format": "tirm-checkpoint", "format_version": 1,
                "config": {"num_ads": 1}, "iterations": 1}
        np.savez(
            path, meta_json=np.array(json.dumps(meta)),
            theta=np.array([16]), seeds_0=np.array([3]),
            alive_0=np.packbits(np.ones(16, dtype=bool)),
        )
        with pytest.raises(CheckpointError, match="could not read"):
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
        path = tmp_path / "ck.json"
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
        path = tmp_path / "ck.json"
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
        path = tmp_path / "ck.json"
        self._write(figure1_problem(), path)
        config = TIRMCheckpoint.load(path).config
        assert (config["rng"], config["sampler_mode"]) == ("philox", "blocked")

    def test_recorded_numba_backend_resumes_to_same_root(self, tmp_path):
        """Older builds could record ``backend: "numba"``.  The name is
        provenance, never matched, so such an artifact still resumes —
        to the uninterrupted run's dsan root, recording ``"numpy"``."""
        problem = figure1_problem()
        reference = _allocator(dsan=True).allocate(problem)
        path = tmp_path / "ck.json"
        self._write(problem, path, dsan=True)
        _rewrite_meta(path, lambda meta: meta["config"].update(backend="numba"))
        assert TIRMCheckpoint.load(path).config["backend"] == "numba"
        resumed = _allocator(resume_from=path, dsan=True).allocate(problem)
        assert resumed.stats["resumed_at_iteration"] == 1
        assert resumed.stats["dsan_root"] == reference.stats["dsan_root"]
        assert resumed.stats["backend"] == "numpy"
        assert _results_identical(resumed, reference)

    def test_mismatched_problem_is_refused(self, tmp_path):
        path = tmp_path / "ck.json"
        self._write(figure1_problem(), path)
        with pytest.raises(ConfigurationError, match="incompatible"):
            _allocator(resume_from=path).allocate(_problem())

    def test_matching_run_resumes(self, tmp_path):
        problem = figure1_problem()
        path = tmp_path / "ck.json"
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
        path = tmp_path / "ck.json"
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
        path = tmp_path / "ck.json"
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
        path = tmp_path / "ck.json"
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
        path = tmp_path / "ck.json"
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
        path = tmp_path / "ck.json"
        reference = _allocator().allocate(problem)
        k = max(1, reference.stats["iterations"] // 2)
        _allocator(checkpoint_path=path, max_iterations=k).allocate(problem)
        resumed = _allocator(resume_from=path).allocate(problem)
        assert _results_identical(resumed, reference)


class TestCrossSubstrateResumeMatrix:
    """A checkpoint written under one substrate resumes under any
    other: serial snapshots land byte-identically when finished by a
    distributed fleet of 1/2/4 workers, and a distributed snapshot
    finishes serially.  Counter-based
    chunks make the shards substrate-invariant; the checkpoint matches
    on the contract (seed/rng/chunk size), never the topology."""

    @staticmethod
    def _spawn_fleet(coordinator, count: int):
        import threading

        from repro.dist import WorkerHost

        workers = [
            WorkerHost(coordinator.host, coordinator.port)
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
        path = tmp_path / f"ck-{num_workers}.json"
        _allocator(
            checkpoint_path=path, max_iterations=k, **kwargs
        ).allocate(problem)
        with Coordinator() as coordinator:
            threads = self._spawn_fleet(coordinator, num_workers)
            resumed = _allocator(
                engine="dist", coordinator=coordinator,
                resume_from=path, **kwargs,
            ).allocate(problem)
        for thread in threads:
            thread.join(timeout=10.0)
        assert resumed.stats["resumed_at_iteration"] == k
        assert _results_identical(resumed, reference), num_workers

    def test_distributed_checkpoint_finishes_serially(self, tmp_path):
        from repro.dist import Coordinator

        problem = figure1_problem()
        path = tmp_path / "ck.json"
        kwargs = dict(chunk_size=64)
        reference = _allocator(**kwargs).allocate(problem)
        k = max(1, reference.stats["iterations"] // 2)
        with Coordinator() as coordinator:
            threads = self._spawn_fleet(coordinator, 2)
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
        path = tmp_path / "ck.json"
        result = _allocator(
            checkpoint_path=path, checkpoint_every=2
        ).allocate(problem)
        total = result.stats["iterations"]
        assert result.stats["checkpoints_written"] == total // 2
        assert path.exists()
