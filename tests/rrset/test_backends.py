"""Sampling-backend layer: resolution, fallback, and byte-identity.

The contract under test (``repro.rrset.backends``): every backend is a
plug-in level op under one shared RNG-owning driver, so for the same
generator state all backends produce **byte-identical** packed blocks —
through the raw backend API, the chunk-addressed sampler, the sharded
engine at any worker count, TIRM allocations, and checkpoint resume.

The numba *kernel logic* is pinned even where numba is not installed:
``NumbaBackend(jit=False)`` runs the identical kernel function
uncompiled, so these tests exercise the real dedup/merge code on every
machine.  When numba is importable the same assertions additionally run
against the JIT-compiled kernel.
"""

from __future__ import annotations

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
from repro.rrset import backends as backends_pkg
from repro.rrset.backends import (
    NumbaBackend,
    NumpyBackend,
    SamplingBackend,
    available_backends,
    numba_available,
    resolve_backend,
)
from repro.rrset.backends import numba_backend as numba_module
from repro.rrset.sampler import RRSetSampler, StreamPlan
from repro.rrset.sharded import ShardedSamplingEngine


def _graph_and_probs(seed=5, n=80, p=0.05, prob=0.12):
    graph = erdos_renyi(n, p, seed=seed)
    probs = np.asarray(constant_probabilities(graph, prob), dtype=np.float64)
    return graph, probs


def _problem(seed: int, num_ads: int = 2, budget: float = 6.0):
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


def _fingerprint(engine):
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


def _alternative_backends() -> list:
    """Every non-reference backend testable on this machine: always the
    uncompiled numba kernel; the JIT-compiled one too when available."""
    alternatives = [NumbaBackend(jit=False)]
    if numba_available():
        alternatives.append(NumbaBackend())
    return alternatives


def _no_numba(monkeypatch):
    """Make this process look like one without the numba extra."""
    monkeypatch.setattr(numba_module, "_COMPILED", None)
    monkeypatch.setattr(numba_module, "numba_available", lambda: False)
    monkeypatch.setattr(backends_pkg, "numba_available", lambda: False)


class TestResolution:
    def test_names_resolve(self):
        assert resolve_backend("numpy").name == "numpy"
        assert isinstance(resolve_backend("numpy"), NumpyBackend)

    def test_instances_pass_through(self):
        backend = NumbaBackend(jit=False)
        assert resolve_backend(backend) is backend

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigurationError, match="backend must be one of"):
            resolve_backend("cuda")

    def test_numba_unavailable_raises_cleanly(self, monkeypatch):
        _no_numba(monkeypatch)
        with pytest.raises(ConfigurationError, match="numba"):
            resolve_backend("numba")
        assert available_backends() == ("numpy",)

    def test_numba_available_survives_missing_import(self, monkeypatch):
        """The real availability probe, with the import itself failing —
        the exact situation on a machine without the optional extra."""
        import builtins

        real_import = builtins.__import__

        def failing_import(name, *args, **kwargs):
            if name == "numba" or name.startswith("numba."):
                raise ImportError("No module named 'numba'")
            return real_import(name, *args, **kwargs)

        monkeypatch.setattr(numba_module, "_COMPILED", None)
        monkeypatch.setattr(builtins, "__import__", failing_import)
        assert numba_module.numba_available() is False
        with pytest.raises(ConfigurationError, match="numba"):
            NumbaBackend()

    def test_auto_prefers_numba_when_available(self, monkeypatch):
        monkeypatch.setattr(backends_pkg, "numba_available", lambda: True)
        monkeypatch.setattr(numba_module, "numba_available", lambda: True)
        assert resolve_backend("auto").name == "numba"

    def test_auto_falls_back_with_one_time_warning(self, monkeypatch):
        _no_numba(monkeypatch)
        monkeypatch.setattr(backends_pkg, "_WARNED_AUTO_FALLBACK", False)
        with pytest.warns(RuntimeWarning, match="falling back"):
            assert resolve_backend("auto").name == "numpy"
        with warnings.catch_warnings():  # second resolve: no new warning
            warnings.simplefilter("error")
            assert resolve_backend("auto").name == "numpy"

    def test_resolved_backends_never_report_auto(self):
        assert "auto" not in {
            resolve_backend(name).name for name in available_backends()
        }


class TestByteIdentity:
    """NumPy reference vs numba kernel, at the raw backend interface."""

    @pytest.mark.parametrize("batch_size", [None, 13, 64])
    def test_sample_flat_identical(self, batch_size):
        graph, probs = _graph_and_probs()
        in_probs = probs[graph.in_edge_ids]
        reference = NumpyBackend()
        for alternative in _alternative_backends():
            for seed in (0, 3):
                expected = reference.sample_flat(
                    graph, in_probs, np.random.default_rng(seed), 300, batch_size
                )
                actual = alternative.sample_flat(
                    graph, in_probs, np.random.default_rng(seed), 300, batch_size
                )
                assert expected[0].tobytes() == actual[0].tobytes()
                assert expected[1].tobytes() == actual[1].tobytes()

    def test_rng_stream_position_identical(self):
        """Backends must consume the generator identically — a drifted
        stream position would desync any caller interleaving draws."""
        graph, probs = _graph_and_probs()
        in_probs = probs[graph.in_edge_ids]
        for alternative in _alternative_backends():
            ra, rb = np.random.default_rng(7), np.random.default_rng(7)
            NumpyBackend().sample_flat(graph, in_probs, ra, 120)
            alternative.sample_flat(graph, in_probs, rb, 120)
            assert ra.bit_generator.state == rb.bit_generator.state

    @pytest.mark.parametrize("chunk_size", [1, 7, 64])
    def test_chunk_addressed_sampling_identical(self, chunk_size):
        graph, probs = _graph_and_probs(seed=9)
        plan = StreamPlan(21, ad=1, chunk_size=chunk_size)
        reference = RRSetSampler(graph, probs, backend="numpy")
        for alternative_backend in _alternative_backends():
            alternative = RRSetSampler(
                graph, probs, backend=alternative_backend
            )
            for chunk in (0, 2):
                expected = reference.sample_chunk_block(plan, chunk)
                actual = alternative.sample_chunk_block(plan, chunk)
                assert expected[0].tobytes() == actual[0].tobytes()
                assert expected[1].tobytes() == actual[1].tobytes()


class TestEngineInvariance:
    """Backend-cross worker-count invariance: numpy-serial is the
    reference; every backend × engine × worker count must match it."""

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("chunk_size", [7, 64])
    @pytest.mark.parametrize("mode", ["blocked"])
    def test_shards_byte_identical_across_backends(self, mode, chunk_size, workers):
        problem = _problem(4)
        with ShardedSamplingEngine(
            problem.graph, _probs(problem), seeds=8,
            chunk_size=chunk_size, backend="numpy",
        ) as reference:
            for requests in ({0: 70, 1: 40}, {0: 33}):
                reference.sample(requests)
            expected = _fingerprint(reference)
        for alternative_backend in _alternative_backends():
            with ShardedSamplingEngine(
                problem.graph, _probs(problem), seeds=8,
                chunk_size=chunk_size, engine="process", max_workers=workers,
                backend=alternative_backend,
            ) as engine:
                for requests in ({0: 70, 1: 40}, {0: 33}):
                    engine.sample(requests)
                _assert_fingerprints_equal(expected, _fingerprint(engine))

    def test_engine_records_resolved_backend(self):
        problem = _problem(4)
        with ShardedSamplingEngine(
            problem.graph, _probs(problem), seeds=1, backend="numpy"
        ) as engine:
            # symmetric with RRSetSampler: .backend is the resolved
            # instance, .backend_name the stats/provenance string
            assert isinstance(engine.backend, NumpyBackend)
            assert engine.backend_name == "numpy"
            assert "backend='numpy'" in repr(engine)
            assert engine.sampler(0).backend_name == "numpy"


class TestTIRMBackendInvariance:
    _kwargs = dict(
        seed=3, initial_pilot=300, min_rr_sets_per_ad=300,
        max_rr_sets_per_ad=2_000, epsilon=0.25,
    )

    def test_allocations_identical_across_backends(self):
        problem = _problem(9)
        reference = TIRMAllocator(backend="numpy", **self._kwargs).allocate(problem)
        for alternative_backend in _alternative_backends():
            alternative = TIRMAllocator(
                backend=alternative_backend, **self._kwargs
            ).allocate(problem)
            assert alternative.allocation == reference.allocation
            assert np.array_equal(
                alternative.estimated_revenues, reference.estimated_revenues
            )
            assert alternative.stats["theta_per_ad"] == reference.stats["theta_per_ad"]

    def test_stats_and_provenance_record_resolved_backend(self, monkeypatch):
        problem = _problem(9)
        result = TIRMAllocator(backend="numpy", **self._kwargs).allocate(problem)
        assert result.stats["backend"] == "numpy"
        assert result.allocation.provenance["backend"] == "numpy"
        # auto without numba resolves (and records) numpy, not "auto"
        _no_numba(monkeypatch)
        monkeypatch.setattr(backends_pkg, "_WARNED_AUTO_FALLBACK", True)
        result = TIRMAllocator(backend="auto", **self._kwargs).allocate(problem)
        assert result.stats["backend"] == "numpy"
        assert result.allocation.provenance["backend"] == "numpy"

    def test_rejects_unknown_backend_at_construction(self):
        with pytest.raises(ConfigurationError, match="backend"):
            TIRMAllocator(backend="cuda")

    def test_unavailable_numba_fails_at_allocate(self, monkeypatch):
        _no_numba(monkeypatch)
        problem = _problem(9)
        with pytest.raises(ConfigurationError, match="numba"):
            TIRMAllocator(backend="numba", **self._kwargs).allocate(problem)


class TestCheckpointCrossBackend:
    def test_numpy_checkpoint_resumes_under_numba_byte_identically(self, tmp_path):
        """The backend is provenance, not contract: a checkpoint written
        under the numpy backend must resume under the numba kernel and
        converge to the byte-identical allocation."""
        problem = _problem(12)
        kwargs = dict(
            seed=5, initial_pilot=300, min_rr_sets_per_ad=300,
            max_rr_sets_per_ad=2_000, epsilon=0.25, chunk_size=64,
        )
        reference = TIRMAllocator(backend="numpy", **kwargs).allocate(problem)
        path = tmp_path / "run.ckpt.npz"
        truncated = TIRMAllocator(
            backend="numpy", checkpoint_path=path, max_iterations=2, **kwargs
        ).allocate(problem)
        assert truncated.stats["truncated"]
        resumed = TIRMAllocator(
            backend=NumbaBackend(jit=False), resume_from=path, **kwargs
        ).allocate(problem)
        assert resumed.allocation == reference.allocation
        assert np.array_equal(
            resumed.estimated_revenues, reference.estimated_revenues
        )
        assert resumed.stats["theta_per_ad"] == reference.stats["theta_per_ad"]
        assert resumed.allocation.provenance["backend"] == "numba"
        assert resumed.stats["resumed_at_iteration"] == 2


class TestKernelEdgeCases:
    """Kernel paths the random graphs may not reliably hit."""

    def test_isolated_roots(self):
        graph = erdos_renyi(10, 0.0, seed=0)  # no edges at all
        probs = np.empty(0, dtype=np.float64)
        for alternative in _alternative_backends():
            members, lengths = alternative.sample_flat(
                graph, probs, np.random.default_rng(0), 5
            )
            assert lengths.tolist() == [1] * 5  # each set is just its root

    def test_zero_count(self):
        graph, probs = _graph_and_probs()
        for alternative in _alternative_backends():
            members, lengths = alternative.sample_flat(
                graph, probs[graph.in_edge_ids], np.random.default_rng(0), 0
            )
            assert members.size == 0 and lengths.size == 0

    def test_dense_probabilities_saturate_sets(self):
        """p=1 edges: every reachable node joins, dedup works hard."""
        graph, probs = _graph_and_probs(seed=2, n=30, p=0.2, prob=1.0)
        in_probs = probs[graph.in_edge_ids]
        expected = NumpyBackend().sample_flat(
            graph, in_probs, np.random.default_rng(1), 50
        )
        for alternative in _alternative_backends():
            actual = alternative.sample_flat(
                graph, in_probs, np.random.default_rng(1), 50
            )
            assert expected[0].tobytes() == actual[0].tobytes()
            assert expected[1].tobytes() == actual[1].tobytes()

    def test_warmup_is_safe_and_idempotent(self):
        graph, _ = _graph_and_probs()
        backend = NumbaBackend(jit=False)
        backend.warmup(graph)
        backend.warmup(graph)

    def test_backend_is_not_a_sampling_backend_subclass_check(self):
        assert isinstance(NumpyBackend(), SamplingBackend)
        assert isinstance(NumbaBackend(jit=False), SamplingBackend)


@pytest.mark.skipif(not numba_available(), reason="numba not installed")
class TestCompiledKernel:
    """Extra assertions that only run where the JIT is importable."""

    def test_compiled_and_python_kernels_agree(self):
        graph, probs = _graph_and_probs(seed=11)
        in_probs = probs[graph.in_edge_ids]
        jit = NumbaBackend()
        jit.warmup(graph)
        python = NumbaBackend(jit=False)
        a = jit.sample_flat(graph, in_probs, np.random.default_rng(2), 400)
        b = python.sample_flat(graph, in_probs, np.random.default_rng(2), 400)
        assert a[0].tobytes() == b[0].tobytes()
        assert a[1].tobytes() == b[1].tobytes()

    def test_backend_fixture_matrix_runs_jit(self, rrset_backend):
        """Under ``pytest --backend numba`` the fixture resolves to the
        JIT backend and a TIRM allocation matches the numpy reference."""
        problem = _problem(13)
        kwargs = dict(
            seed=1, initial_pilot=300, min_rr_sets_per_ad=300,
            max_rr_sets_per_ad=1_500, epsilon=0.3,
        )
        reference = TIRMAllocator(backend="numpy", **kwargs).allocate(problem)
        other = TIRMAllocator(backend=rrset_backend, **kwargs).allocate(problem)
        assert other.allocation == reference.allocation
