"""The BFS kernel's two coin arms, held to numpy's own Philox.

A batch drawing from a ``numpy.random.Philox`` on a CPU with
AVX-512F/DQ computes the Philox words in the kernel, 16 blocks per
step (the vector arm); every other batch calls the bit generator's
``next_double`` once per coin (the per-slot arm).  Either way the coins
must be numpy's ``next_double`` of the words ``Philox.random_raw``
returns, and the generator must be left in the state ``random_raw``
leaves.

The ``arm`` fixture runs each test on both arms, forcing the per-slot
one through ``repro.graph._traversal._vector_arm``; the vector half is
skipped where the CPU lacks the instructions.  The hypothesis cases of
``test_driver_equivalence.py`` have at most 14 nodes and rarely fill a
64-word step, so the graphs here have levels of hundreds of coins.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro._native import library
from repro.diffusion.ic import estimate_spread, simulate_clicks
from repro.diffusion.montecarlo import combine_mean_variance
from repro.graph import _traversal
from repro.graph.digraph import DirectedGraph
from repro.graph.generators import erdos_renyi
from repro.graph.probabilities import constant_probabilities
from repro.rrset.backends import drive_blocked

from tests.diffusion._reference_ic import simulate_rounds as reference_rounds
from tests.rrset._reference_driver import reference_drive_blocked

KEY = np.array([0x0123456789ABCDEF, 0xFEDCBA9876543210], dtype=np.uint64)
#: Words an entry's buffer holds before its first coin.
BUFFER = np.array(
    [0x8000000000000000, 0x7FF, 0xFFFFFFFFFFFFFFFF, 0x5555555555555555],
    dtype=np.uint64,
)
#: The second carries through every counter word: its next blocks are at
#: [2^64 - 2, ...], [2^64 - 1, ...] and then [0, 0, 0, 1].
COUNTERS = ([7, 0, 0, 0], [2**64 - 3, 2**64 - 1, 2**64 - 1, 0])


@pytest.fixture(params=["vector", "per-slot"])
def arm(request, monkeypatch):
    if request.param == "vector" and not library().repro_philox_vector():
        pytest.skip("no vector arm here: not an x86-64 build, or the CPU lacks AVX-512F/DQ")
    monkeypatch.setattr(_traversal, "_vector_arm", request.param == "vector")
    return request.param


def _philox(counter, buffer_pos) -> np.random.Philox:
    """A Philox at ``counter`` whose buffer has ``4 - buffer_pos`` words
    left."""
    bit_generator = np.random.Philox(key=KEY)
    state = bit_generator.state
    state["state"]["counter"] = np.array(counter, dtype=np.uint64)
    state["buffer"], state["buffer_pos"] = BUFFER.copy(), buffer_pos
    bit_generator.state = state
    return bit_generator


def _position(bit_generator) -> tuple:
    """A Philox's full state, comparable with ``==``."""
    state = bit_generator.state
    return (
        state["state"]["counter"].tolist(), state["state"]["key"].tolist(),
        state["buffer"].tolist(), state["buffer_pos"],
        state["has_uint32"], state["uinteger"],
    )


def _next_doubles(words: np.ndarray) -> np.ndarray:
    """numpy's ``next_double`` of each word."""
    return (words >> np.uint64(11)).astype(np.float64) * 2.0**-53


class TestWords:
    """One BFS from node 0 of a star whose ``count`` in-edges come from
    nodes with no in-edges: exactly ``count`` coins, one per in-slot.
    With each slot's probability equal to numpy's coin for that word no
    edge is live; with the next double above it every edge is.  Both
    hold only if each coin is exactly numpy's."""

    @pytest.mark.parametrize("counter", COUNTERS, ids=["small", "carry"])
    @pytest.mark.parametrize("buffer_pos", range(5))
    @pytest.mark.parametrize("count", [0, 1, 3, 63, 64, 65, 127, 128, 129])
    @pytest.mark.parametrize("from_buffer_end", [False, True])
    def test_coins_and_final_state(self, arm, counter, buffer_pos, count,
                                   from_buffer_end):
        """``from_buffer_end`` counts the words past the buffer's, so
        the 64-word steps end just before, at and just after the last
        coin."""
        if from_buffer_end:
            count += 4 - buffer_pos
        graph = DirectedGraph.from_edges(
            [(source, 0) for source in range(1, count + 1)], num_nodes=count + 1
        )
        expected = _philox(counter, buffer_pos)
        coins = _next_doubles(expected.random_raw(count))
        for in_probs, live in ((coins, False), (np.nextafter(coins, 2.0), True)):
            bit_generator = _philox(counter, buffer_pos)
            members, lengths = drive_blocked(
                graph, in_probs, np.random.Generator(bit_generator), 1, roots=[0]
            )
            assert members.tolist() == ([0, *range(1, count + 1)] if live else [0])
            assert lengths.tolist() == [members.size]
            assert _position(bit_generator) == _position(expected)


class TestWideLevels:
    """Levels of hundreds of coins, many steps each, against the numpy
    driver and cascade loop: same bytes, same generator state."""

    @pytest.fixture(scope="class")
    def graph(self):
        return erdos_renyi(300, 0.08, seed=5)

    @pytest.mark.parametrize("batch_size", [None, 7])
    @pytest.mark.parametrize("probability", [0.01, 0.05, 0.3])
    def test_rr_sets_equal_the_reference_driver(self, arm, graph, batch_size,
                                                probability):
        in_probs = constant_probabilities(graph, probability)[graph.in_edge_ids]
        actual = np.random.Generator(np.random.Philox(11))
        expected = np.random.Generator(np.random.Philox(11))
        for rng in (actual, expected):
            rng.random(3)  # start mid-buffer
        want = reference_drive_blocked(graph, in_probs, expected, 40, batch_size)
        got = drive_blocked(graph, in_probs, actual, 40, batch_size)
        for w, g in zip(want, got):
            assert g.dtype == w.dtype and np.array_equal(g, w)
        assert _position(actual.bit_generator) == _position(expected.bit_generator)

    def test_two_simulate_clicks_runs(self, arm, graph):
        """Each run reads the generator's state after the CTP coins and
        writes back what its cascade drew."""
        probs = constant_probabilities(graph, 0.05)
        ctps = np.full(graph.num_nodes, 0.7)
        seeds = list(range(0, 300, 30))
        actual = np.random.Generator(np.random.Philox(4))
        expected = np.random.Generator(np.random.Philox(4))
        for _ in range(2):
            clicks = simulate_clicks(graph, probs, seeds, ctps=ctps, rng=actual)
            rounds = reference_rounds(graph, probs, seeds, ctps=ctps, rng=expected)
            assert np.array_equal(clicks, rounds >= 0)
            assert _position(actual.bit_generator) == _position(expected.bit_generator)

    def test_one_cascade_many_runs(self, arm, graph):
        """``estimate_spread`` runs one prepared cascade: its generator
        is bound once and read afresh at every run."""
        probs = constant_probabilities(graph, 0.05)
        ctps = np.full(graph.num_nodes, 0.7)
        seeds = list(range(0, 300, 30))
        actual = np.random.Generator(np.random.Philox(8))
        expected = np.random.Generator(np.random.Philox(8))
        estimate = estimate_spread(graph, probs, seeds, ctps=ctps, num_runs=6, seed=actual)
        counts = [
            int((reference_rounds(graph, probs, seeds, ctps=ctps, rng=expected) >= 0).sum())
            for _ in range(6)
        ]
        assert (estimate.mean, estimate.std_error) == combine_mean_variance(counts)
        assert _position(actual.bit_generator) == _position(expected.bit_generator)
