"""The bound-prefilter driver against the driver it replaced.

``tests/rrset/_reference_driver.py`` is the pre-PR-21 ``drive_blocked``
and NumPy level op, verbatim.  The shipped driver must equal it in
values, dtypes *and* generator state after the call, on every backend —
the prefilter only ever skips edges that cannot be live, and everything
after a batch's last coin is bookkeeping.  Guards are properties and
call counts, never clocks.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.digraph import DirectedGraph
from repro.rrset import sampler as sampler_module
from repro.rrset.backends import (
    NumbaBackend,
    NumpyBackend,
    base,
    node_bounds,
    numpy_backend,
    resolve_backend,
)
from repro.rrset.sharded import ShardedSamplingEngine

from tests.rrset._reference_driver import reference_drive_blocked

# p = 0 and p = 1 edges, probabilities far below a node's bound (loose
# bounds) and close to it, and ones small enough to take the prefilter.
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


def _assert_same_as_reference(backend, graph, in_probs, count, batch_size, roots, seed):
    expected_rng = np.random.Generator(np.random.Philox(seed))
    actual_rng = np.random.Generator(np.random.Philox(seed))
    expected = reference_drive_blocked(
        graph, in_probs, expected_rng, count, batch_size, roots
    )
    actual = backend.sample_flat(graph, in_probs, actual_rng, count, batch_size, roots)
    for want, got in zip(expected, actual):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
    assert _stream_position(actual_rng) == _stream_position(expected_rng)


@given(case=cases())
@settings(max_examples=150, deadline=None)
def test_driver_equals_the_reference(case, rrset_backend):
    _assert_same_as_reference(resolve_backend(rrset_backend), *case)


@given(case=cases())
@settings(max_examples=50, deadline=None)
def test_uncompiled_kernel_equals_the_reference(case):
    _assert_same_as_reference(NumbaBackend(jit=False), *case)


@pytest.mark.parametrize("share", [0.0, np.inf], ids=["never", "always"])
@given(case=cases())
@settings(max_examples=60, deadline=None)
def test_either_side_of_the_prefilter_choice_equals_the_reference(share, case):
    """The per-level choice is a cost decision only: forcing every
    level down either path yields the same block."""
    original = numpy_backend._PREFILTER_MAX_SHARE
    numpy_backend._PREFILTER_MAX_SHARE = share
    try:
        _assert_same_as_reference(NumpyBackend(), *case)
    finally:
        numpy_backend._PREFILTER_MAX_SHARE = original


class TestNodeBounds:
    def test_bound_is_the_largest_in_probability(self):
        # in-edges: 0 <- {1, 2}, 2 <- {0}; nodes 1, 3, 4 have none —
        # one empty range between two full ones and two trailing.
        graph = DirectedGraph.from_edges([(1, 0), (2, 0), (0, 2)], num_nodes=5)
        probs = np.zeros(graph.num_edges)
        probs[graph.edge_id(1, 0)] = 0.25
        probs[graph.edge_id(2, 0)] = 0.75
        probs[graph.edge_id(0, 2)] = 0.5
        in_degree, bound = node_bounds(graph, probs[graph.in_edge_ids])
        assert in_degree.tolist() == [2, 0, 1, 0, 0]
        assert bound.tolist() == [0.75, 0.0, 0.5, 0.0, 0.0]

    def test_edgeless_graph(self):
        graph = DirectedGraph.from_edges([], num_nodes=4)
        in_degree, bound = node_bounds(graph, np.empty(0))
        assert in_degree.tolist() == [0] * 4 and bound.tolist() == [0.0] * 4

    @given(case=cases())
    @settings(max_examples=60, deadline=None)
    def test_matches_a_per_node_loop(self, case):
        graph, in_probs = case[0], case[1]
        in_degree, bound = node_bounds(graph, in_probs)
        for v in range(graph.num_nodes):
            slots = in_probs[graph.in_indptr[v] : graph.in_indptr[v + 1]]
            assert in_degree[v] == slots.size
            assert bound[v] == (slots.max() if slots.size else 0.0)

    def test_built_once_per_ad_not_per_chunk(self, monkeypatch, rrset_backend):
        """O(m) per call: paid per chunk it cost more than the prefilter
        saved on small chunks.  Counted over a 16-chunk ``ensure``."""
        calls = []

        def spy(graph, in_probs):
            calls.append(graph)
            return node_bounds(graph, in_probs)

        monkeypatch.setattr(base, "node_bounds", spy)
        monkeypatch.setattr(sampler_module, "node_bounds", spy)
        graph = DirectedGraph.from_edges(
            [(u, (u * 3 + 1) % 20) for u in range(20) if u != (u * 3 + 1) % 20],
            num_nodes=20,
        )
        probs = [np.full(graph.num_edges, p) for p in (0.3, 0.6)]
        with ShardedSamplingEngine(
            graph, probs, seeds=4, chunk_size=8, backend=rrset_backend
        ) as engine:
            engine.ensure({0: 8 * 8, 1: 8 * 8})
            engine.ensure({0: 8 * 16, 1: 8 * 16})
            assert engine.shard(0).num_total == engine.shard(1).num_total == 128
        assert len(calls) == 2


def test_no_comparison_sort_or_unique_on_the_sampling_path(monkeypatch):
    """What the driver rebuild removed must stay removed: the stable
    int64 argsort of the regroup (a merge sort; owners below the batch
    size fit uint16, where numpy's stable sort is a radix sort) and the
    level op's ``np.unique`` / ``np.insert``."""
    edges = {(u, v) for v in range(30) for u in ((v * 7 + 1) % 30, (v * 11 + 5) % 30)}
    graph = DirectedGraph.from_edges(
        sorted((u, v) for u, v in edges if u != v), num_nodes=30
    )
    sorted_dtypes = []
    argsort = np.argsort

    def spy(a, *args, **kwargs):
        sorted_dtypes.append(np.asarray(a).dtype)
        return argsort(a, *args, **kwargs)

    def banned(*args, **kwargs):
        raise AssertionError("np.unique / np.insert on the sampling path")

    monkeypatch.setattr(np, "argsort", spy)
    monkeypatch.setattr(np, "unique", banned)
    monkeypatch.setattr(np, "insert", banned)
    in_probs = np.full(graph.num_edges, 0.4)
    members, lengths = NumpyBackend().sample_flat(
        graph, in_probs, np.random.default_rng(0), 5_000
    )
    assert lengths.size == 5_000 and members.size > 5_000
    assert sorted_dtypes == [np.dtype(np.uint16)] * 2  # 4 096 + 904 sets


class TestInputValidation:
    """Each bad argument is a ``ValueError`` that names it, raised before
    any array work (they used to surface as numpy errors from deep
    inside the driver, or — ``batch_size=0`` — as a hang)."""

    graph = DirectedGraph.from_edges([(0, 1), (1, 2)], num_nodes=3)
    probs = np.full(2, 0.5)

    def _sample(self, count, **kwargs):
        return NumpyBackend().sample_flat(
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

    def test_valid_roots_are_honoured(self):
        members, lengths = self._sample(3, roots=[2, 0, 1], batch_size=2)
        starts = np.concatenate(([0], np.cumsum(lengths)[:-1]))
        assert members[starts].tolist() == [2, 0, 1]
