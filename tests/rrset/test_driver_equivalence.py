"""The compiled batch BFS against the numpy driver it replaced.

``tests/rrset/_reference_driver.py`` is a numpy ``drive_blocked`` and
level op, kept verbatim as the test oracle.  The shipped driver, which
runs each batch in the C kernel and draws every coin through the bit
generator's own ``next_double``, must equal it in values, dtypes *and*
generator state after the call.  Guards are properties, never clocks.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.digraph import DirectedGraph
from repro.graph.generators import erdos_renyi
from repro.graph.probabilities import constant_probabilities
from repro.rrset.backends import drive_blocked
from repro.rrset.sampler import RRSetSampler, StreamPlan

from tests.rrset._reference_driver import reference_drive_blocked

# p = 0 and p = 1 edges, and probabilities from rare to near-certain.
PROBABILITIES = st.sampled_from([0.0, 1.0, 0.004, 0.03, 0.2, 0.6, 0.97])


@st.composite
def cases(draw):
    """``(graph, in_probs, count, batch_size, roots, seed)``: up to 14
    nodes of which a tail has no in-edges (so roots can be isolated and
    first levels empty), a dense-ish edge set (so one level reaches a
    ``(set, node)`` pair through several live edges), and a ``count``
    that need not divide into batches."""
    n = draw(st.integers(1, 14))
    with_in_edges = draw(st.integers(0, n))
    pairs = [(u, v) for v in range(with_in_edges) for u in range(n) if u != v]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=50)) if pairs else []
    graph = DirectedGraph.from_edges(edges, num_nodes=n)
    probs = np.asarray(
        draw(st.lists(PROBABILITIES, min_size=len(edges), max_size=len(edges))),
        dtype=np.float64,
    )
    count = draw(st.integers(0, 40))
    batch_size = draw(st.sampled_from([None, 1, 3, 16]))
    roots = draw(
        st.none()
        | st.lists(st.integers(0, n - 1), min_size=count, max_size=count).map(
            lambda r: np.asarray(r, dtype=np.int64)
        )
    )
    return graph, probs[graph.in_edge_ids], count, batch_size, roots, draw(st.integers(0, 2**32))


def _stream_position(rng):
    """A Philox generator's full state, comparable with ``==``."""
    state = rng.bit_generator.state
    return (
        state["state"]["counter"].tolist(), state["state"]["key"].tolist(),
        state["buffer"].tolist(), state["buffer_pos"],
        state["has_uint32"], state["uinteger"],
    )


def _assert_same_as_reference(graph, in_probs, count, batch_size, roots, seed):
    expected_rng = np.random.Generator(np.random.Philox(seed))
    actual_rng = np.random.Generator(np.random.Philox(seed))
    expected = reference_drive_blocked(
        graph, in_probs, expected_rng, count, batch_size, roots
    )
    actual = drive_blocked(graph, in_probs, actual_rng, count, batch_size, roots)
    for want, got in zip(expected, actual):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
    assert _stream_position(actual_rng) == _stream_position(expected_rng)


@given(case=cases())
@settings(max_examples=150, deadline=None)
def test_driver_equals_the_reference(case):
    _assert_same_as_reference(*case)


def test_driver_equals_the_reference_on_pcg64():
    """The kernel draws through whatever ``next_double`` the bit
    generator carries, so a non-Philox generator takes the same words
    as ``Generator.random`` too."""
    edges = {(u, v) for v in range(40) for u in ((v * 7 + 1) % 40, (v * 11 + 5) % 40)}
    graph = DirectedGraph.from_edges(
        sorted((u, v) for u, v in edges if u != v), num_nodes=40
    )
    in_probs = np.linspace(0.05, 0.9, graph.num_edges)[graph.in_edge_ids]
    expected_rng = np.random.Generator(np.random.PCG64(11))
    actual_rng = np.random.Generator(np.random.PCG64(11))
    expected = reference_drive_blocked(graph, in_probs, expected_rng, 300, 64)
    actual = drive_blocked(graph, in_probs, actual_rng, 300, 64)
    for want, got in zip(expected, actual):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
    assert actual_rng.bit_generator.state == expected_rng.bit_generator.state
    assert actual_rng.random() == expected_rng.random()


def test_threads_sampling_different_chunks_match_a_serial_run():
    """The kernel runs with the GIL released: chunks sampled on more
    threads than cores at once (as the service steps sessions) equal a
    serial run, chunk for chunk."""
    graph = erdos_renyi(300, 0.03, seed=4)
    sampler = RRSetSampler(graph, constant_probabilities(graph, 0.3))
    plan = StreamPlan(entropy=9, ad=0, chunk_size=512)
    chunks = range(12)
    serial = [sampler.sample_chunk_block(plan, c) for c in chunks]
    threaded: dict[int, tuple] = {}
    workers = 4
    barrier = threading.Barrier(workers)

    def work(mine):
        barrier.wait()
        for c in mine:
            threaded[c] = sampler.sample_chunk_block(plan, c)

    threads = [
        threading.Thread(target=work, args=(chunks[k::workers],))
        for k in range(workers)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for c, (members, lengths) in enumerate(serial):
        assert np.array_equal(threaded[c][0], members)
        assert np.array_equal(threaded[c][1], lengths)


class TestInputValidation:
    """Each bad argument is a ``ValueError`` that names it, raised before
    any array work (they used to surface as numpy errors from deep
    inside the driver, or — ``batch_size=0`` — as a hang)."""

    graph = DirectedGraph.from_edges([(0, 1), (1, 2)], num_nodes=3)
    probs = np.full(2, 0.5)

    def _sample(self, count, **kwargs):
        return drive_blocked(
            self.graph, self.probs, np.random.default_rng(0), count, **kwargs
        )

    @pytest.mark.parametrize("root", [-1, 3])
    def test_root_out_of_range(self, root):
        with pytest.raises(ValueError, match=r"roots must lie in \[0, 3\)"):
            self._sample(1, roots=np.array([root]))

    def test_roots_shorter_than_count(self):
        with pytest.raises(ValueError, match="roots must hold one root per set"):
            self._sample(3, roots=np.array([0, 1]))

    def test_negative_count(self):
        with pytest.raises(ValueError, match="count must be >= 0"):
            self._sample(-1)

    def test_non_positive_batch_size(self):
        with pytest.raises(ValueError, match="batch_size must be >= 1"):
            self._sample(2, batch_size=0)

    @pytest.mark.parametrize("size", [1, 5], ids=["short", "long"])
    def test_in_probs_of_the_wrong_length(self, size):
        """A short array used to fail inside numpy, a long one was
        silently read; the kernel would read past a short one."""
        with pytest.raises(ValueError, match=r"in_probs must be a float64 array of shape \(2,\)"):
            drive_blocked(
                self.graph, np.full(size, 0.5), np.random.default_rng(0), 3
            )

    @pytest.mark.parametrize(
        "probs", [np.full(2, 0.5, dtype=np.float32), [0.5, 0.5]],
        ids=["float32", "list"],
    )
    def test_in_probs_not_a_float64_array(self, probs):
        with pytest.raises(ValueError, match="in_probs must be a float64 array"):
            drive_blocked(self.graph, probs, np.random.default_rng(0), 3)

    def test_valid_roots_are_honoured(self):
        members, lengths = self._sample(3, roots=[2, 0, 1], batch_size=2)
        starts = np.concatenate(([0], np.cumsum(lengths)[:-1]))
        assert members[starts].tolist() == [2, 0, 1]
