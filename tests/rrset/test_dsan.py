"""The runtime determinism sanitizer (:mod:`repro.rrset.dsan`).

The contract under test: with dsan enabled, per-``(ad, chunk)`` digests
are equal across serial/process execution and any worker count;
recording never perturbs the sampled bytes; and a
divergence — a tampered expected map, or a deliberately perturbed
sampler — raises :class:`~repro.errors.DeterminismError` naming the
*first* divergent chunk.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms.tirm import TIRMAllocator
from repro.datasets.toy import figure1_problem
from repro.errors import DeterminismError
from repro.graph.generators import erdos_renyi
from repro.graph.probabilities import constant_probabilities
from repro.rrset import ShardedSamplingEngine, compare_digests
from repro.rrset.dsan import DsanRecorder, digest_block, dsan_enabled
from repro.rrset.sampler import StreamPlan


@pytest.fixture
def graph():
    return erdos_renyi(60, 0.08, seed=3)


@pytest.fixture
def probs(graph):
    return constant_probabilities(graph, 0.1)


def _engine(graph, probs, **kwargs):
    kwargs.setdefault("seeds", 11)
    kwargs.setdefault("chunk_size", 16)
    kwargs.setdefault("dsan", True)
    return ShardedSamplingEngine(graph, [probs, probs], **kwargs)


TARGETS = {0: 40, 1: 25}


def _digests(graph, probs, **kwargs):
    with _engine(graph, probs, **kwargs) as engine:
        engine.ensure(TARGETS)
        return engine.dsan_digests(), [
            engine.shard(ad).all_sets() for ad in range(2)
        ]


# ----------------------------------------------------------------------
# Recorder / digest primitives
# ----------------------------------------------------------------------
def test_digest_block_is_dtype_normalised():
    members = np.array([1, 2, 3], dtype=np.int64)
    lengths = np.array([2, 1], dtype=np.int32)
    canonical = digest_block(
        members.astype(np.int32), lengths.astype(np.int64)
    )
    assert digest_block(members, lengths) == canonical
    assert digest_block([1, 2, 3], [2, 1]) == canonical


def test_recorder_records_and_fingerprints():
    recorder = DsanRecorder(label="unit")
    d1 = recorder.record(0, 0, [1, 2], [2])
    d2 = recorder.record(0, 1, [3], [1])
    assert len(recorder) == 2
    assert recorder.digests == {(0, 0): d1, (0, 1): d2}
    root = recorder.root_digest()
    assert root != DsanRecorder().root_digest()
    # Re-recording identical bytes is idempotent.
    assert recorder.record(0, 0, [1, 2], [2]) == d1
    assert recorder.root_digest() == root
    assert "unit" in repr(recorder)


def test_recorder_impure_recompute_raises():
    recorder = DsanRecorder()
    recorder.record(2, 5, [1, 2], [2])
    with pytest.raises(DeterminismError) as info:
        recorder.record(2, 5, [9, 9], [2])
    assert info.value.ad == 2 and info.value.chunk == 5
    assert "pure function" in str(info.value)


def test_recorder_expected_map_checks_inline():
    reference = DsanRecorder()
    reference.record(0, 0, [1, 2], [2])
    checked = DsanRecorder(expected=reference.digests, label="replay")
    checked.record(0, 0, [1, 2], [2])  # matches: no raise
    tampered = dict(reference.digests)
    tampered[(0, 0)] = "0" * 32
    with pytest.raises(DeterminismError) as info:
        DsanRecorder(expected=tampered).record(0, 0, [1, 2], [2])
    assert (info.value.ad, info.value.chunk) == (0, 0)


def test_compare_digests_names_first_divergent_chunk():
    reference = {(0, 0): "a", (0, 1): "b", (1, 0): "c"}
    compare_digests(reference, dict(reference))  # equal: no raise
    other = dict(reference)
    other[(0, 1)] = "X"
    other[(1, 0)] = "Y"
    with pytest.raises(DeterminismError) as info:
        compare_digests(reference, other)
    assert (info.value.ad, info.value.chunk) == (0, 1)  # first, in key order


def test_compare_digests_missing_chunk_is_structural():
    with pytest.raises(DeterminismError, match="never"):
        compare_digests({(0, 0): "a", (0, 1): "b"}, {(0, 0): "a"})


def test_dsan_enabled_resolution(monkeypatch):
    monkeypatch.delenv("REPRO_DSAN", raising=False)
    assert dsan_enabled(True) and not dsan_enabled(False)
    assert not dsan_enabled(None)
    monkeypatch.setenv("REPRO_DSAN", "1")
    assert dsan_enabled(None)
    assert not dsan_enabled(False)  # explicit knob beats the env
    monkeypatch.setenv("REPRO_DSAN", "off")
    assert not dsan_enabled(None)


# ----------------------------------------------------------------------
# Engine invariance: digests equal across execution substrates
# ----------------------------------------------------------------------
def test_digests_identical_serial_vs_process_vs_transports(graph, probs):
    serial, serial_sets = _digests(graph, probs)
    assert serial  # recorded something
    for kwargs in (
        {"engine": "process", "max_workers": 1},
        {"engine": "process", "max_workers": 2},
    ):
        digests, sets = _digests(graph, probs, **kwargs)
        assert digests == serial, kwargs
        for ad in range(2):
            assert all(
                np.array_equal(a, b)
                for a, b in zip(serial_sets[ad], sets[ad])
            )


def test_digests_invariant_to_request_splitting(graph, probs):
    one_shot, _ = _digests(graph, probs)
    with _engine(graph, probs) as engine:
        engine.ensure({0: 7})
        engine.ensure({0: 40, 1: 10})
        engine.ensure(TARGETS)
        assert engine.dsan_digests() == one_shot


def test_dsan_recording_is_pure_observation(graph, probs):
    _, sanitized_sets = _digests(graph, probs)
    with _engine(graph, probs, dsan=False) as engine:
        assert not engine.dsan and engine.dsan_digests() == {}
        assert engine.dsan_root() is None
        engine.ensure(TARGETS)
        for ad in range(2):
            assert all(
                np.array_equal(a, b)
                for a, b in zip(sanitized_sets[ad], engine.shard(ad).all_sets())
            )


def test_env_var_enables_engine_dsan(graph, probs, monkeypatch):
    monkeypatch.setenv("REPRO_DSAN", "1")
    with _engine(graph, probs, dsan=None) as engine:
        engine.ensure({0: 5})
        assert engine.dsan and len(engine.dsan_digests()) == 1


# ----------------------------------------------------------------------
# Divergence detection
# ----------------------------------------------------------------------
def test_tampered_expected_map_raises_at_splice(graph, probs):
    reference, _ = _digests(graph, probs)
    tampered = dict(reference)
    tampered[(0, 1)] = "deadbeef" * 4
    with _engine(graph, probs, dsan_expected=tampered) as engine:
        assert engine.dsan  # expected map implies dsan
        with pytest.raises(DeterminismError) as info:
            engine.ensure(TARGETS)
    assert (info.value.ad, info.value.chunk) == (0, 1)


def test_perturbed_sampler_names_the_divergent_chunk(graph, probs, monkeypatch):
    """The ISSUE's canary: an extra RNG draw inside one chunk's stream
    must surface as a DeterminismError naming exactly that (ad, chunk)."""
    reference, _ = _digests(graph, probs)
    real_generator = StreamPlan.generator

    def skewed(self, chunk_index):
        rng = real_generator(self, chunk_index)
        if self.ad == 1 and chunk_index == 1:
            rng.random()  # consume one draw: every coin after shifts
        return rng

    monkeypatch.setattr(StreamPlan, "generator", skewed)
    with _engine(graph, probs) as engine:
        engine.ensure(TARGETS)
        perturbed = engine.dsan_digests()
    # Only the perturbed chunk's digest moved...
    assert perturbed != reference
    assert {k for k in reference if perturbed[k] != reference[k]} == {(1, 1)}
    # ...and both detection paths name it.
    with pytest.raises(DeterminismError) as info:
        compare_digests(reference, perturbed)
    assert (info.value.ad, info.value.chunk) == (1, 1)
    with _engine(graph, probs, dsan_expected=reference) as engine:
        with pytest.raises(DeterminismError) as info:
            engine.ensure(TARGETS)
    assert (info.value.ad, info.value.chunk) == (1, 1)
    assert "first divergent chunk" in str(info.value)


# ----------------------------------------------------------------------
# TIRM integration
# ----------------------------------------------------------------------
def test_tirm_dsan_stats_and_provenance():
    problem = figure1_problem()
    base = TIRMAllocator(seed=0, max_rr_sets_per_ad=2_000).allocate(problem)
    sanitized = TIRMAllocator(
        seed=0, max_rr_sets_per_ad=2_000, dsan=True
    ).allocate(problem)
    # Byte-identical allocation: dsan is observation, not behavior.
    assert all(
        base.allocation.seeds(ad) == sanitized.allocation.seeds(ad)
        for ad in range(base.allocation.num_ads)
    )
    assert np.array_equal(base.estimated_revenues, sanitized.estimated_revenues)
    assert base.stats["dsan"] is False
    assert "dsan_digests" not in base.stats
    assert "dsan_root" not in base.allocation.provenance
    assert sanitized.stats["dsan"] is True
    digests = sanitized.stats["dsan_digests"]
    assert digests and all(
        isinstance(k, str) and ":" in k for k in digests
    )
    assert sanitized.stats["dsan_root"] == sanitized.allocation.provenance["dsan_root"]


def test_tirm_dsan_digests_match_across_engines():
    problem = figure1_problem()
    serial = TIRMAllocator(
        seed=0, max_rr_sets_per_ad=2_000, dsan=True
    ).allocate(problem)
    process = TIRMAllocator(
        seed=0, max_rr_sets_per_ad=2_000, dsan=True,
        engine="process", max_workers=2,
    ).allocate(problem)
    assert process.stats["dsan_digests"] == serial.stats["dsan_digests"]
    assert process.stats["dsan_root"] == serial.stats["dsan_root"]
