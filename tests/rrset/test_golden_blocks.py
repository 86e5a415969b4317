"""Literal digests of sampled chunk blocks — the stream, pinned.

Every other root assertion in the suite is *relative* (serial vs
process, numpy vs numba, cold vs warm), so a driver change that shifts
all paths equally would pass them all.  These digests are literals: the
``(members, lengths)`` bytes of a handful of ``(graph, probability
shape, chunk_size, chunk_index)`` stream addresses, recorded before the
bound-prefilter driver (PR 21) replaced the one it was measured against.
A digest that moves means the determinism contract of
``docs/rrset_engine.md`` moved: every cached shard, checkpoint and
recorded dsan root is then stale, and that has to be a decision, not a
side effect.

The graphs and probabilities are built arithmetically (no generator
draws), so the digests pin the sampler and nothing else.  To re-record
after a deliberate contract change: ``python tests/rrset/
test_golden_blocks.py`` prints the table.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.graph.digraph import DirectedGraph
from repro.graph.generators import cycle_graph
from repro.graph.probabilities import weighted_cascade_probabilities
from repro.rrset.backends import BLOCK_BATCH, NumbaBackend
from repro.rrset.sampler import RRSetSampler, StreamPlan

ENTROPY = 20_211


def _fan_graph(n: int = 300) -> DirectedGraph:
    """Node ``v`` has ``1 + 7v mod 9`` in-edges from scattered sources;
    the last 12 nodes have none (zero in-degree at the end of the
    in-CSR)."""
    edges = set()
    for v in range(n - 12):
        for j in range(1 + (v * 7) % 9):
            u = (v * 31 + j * 17 + 3) % n
            if u != v:
                edges.add((u, v))
    return DirectedGraph.from_edges(sorted(edges), num_nodes=n)


def _topic_like(graph: DirectedGraph) -> np.ndarray:
    """Heterogeneous per-edge probabilities in ``[0.01, 0.46)``, cubed so
    most are small and a node's largest in-probability (the prefilter's
    bound) is loose for its other in-edges."""
    ids = np.arange(graph.num_edges, dtype=np.uint64)
    unit = ((ids * np.uint64(2_654_435_761)) % np.uint64(2**32)) / 2.0**32
    return 0.01 + 0.45 * unit**3


_SHAPES = {
    "weighted_cascade": weighted_cascade_probabilities,
    "topic_like": _topic_like,
    "certain": lambda graph: np.ones(graph.num_edges),
    "constant": lambda graph: np.full(graph.num_edges, 0.15),
    "mixed_0_1": lambda graph: (np.arange(graph.num_edges) % 3 == 0).astype(float),
}
_GRAPHS = {"fan": _fan_graph, "cycle": lambda: cycle_graph(40)}

#: ``(graph, shape, chunk_size, chunk_index) -> blake2b-128`` of the
#: block, recorded at the parent of PR 21 (commit 8b80fed).
GOLDEN = {
    ("fan", "weighted_cascade", 64, 0): "f0ccd259412c41d4944816d8046bbaa0",
    ("fan", "weighted_cascade", 64, 3): "cb7a2fbfcaa9bc2a9974f609ab71648b",
    ("fan", "topic_like", 256, 1): "176fd4203b12d059419bf12e91ec6333",
    ("fan", "topic_like", 5_000, 0): "fb33290704b706f2e2824bcf9d6df9c0",
    ("fan", "constant", 100, 7): "73ef48b52becc3a16e93835cff18aa69",
    ("fan", "mixed_0_1", 128, 2): "13dbb1869c7a50ce3e89b07a9c861eb2",
    ("cycle", "certain", 32, 0): "0fec6bd23a72e7ee557eaab5d8208b8a",
}


def block_digest(members: np.ndarray, lengths: np.ndarray) -> str:
    digest = hashlib.blake2b(digest_size=16)
    for array in (members, lengths):
        digest.update(f"{array.dtype.str}:{array.size};".encode())
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


def _block(address, backend):
    graph_name, shape, chunk_size, chunk_index = address
    graph = _GRAPHS[graph_name]()
    sampler = RRSetSampler(graph, _SHAPES[shape](graph), backend=backend)
    return sampler.sample_chunk_block(
        StreamPlan(ENTROPY, ad=2, chunk_size=chunk_size), chunk_index
    )


@pytest.mark.parametrize("address", sorted(GOLDEN), ids=lambda a: "-".join(map(str, a)))
def test_block_digest_is_the_recorded_literal(address, rrset_backend):
    assert block_digest(*_block(address, rrset_backend)) == GOLDEN[address]


@pytest.mark.parametrize("address", sorted(GOLDEN), ids=lambda a: "-".join(map(str, a)))
def test_uncompiled_kernel_matches_the_recorded_literal(address):
    """The numba kernel's logic, runnable where numba is absent."""
    assert block_digest(*_block(address, NumbaBackend(jit=False))) == GOLDEN[address]


def test_a_pinned_chunk_spans_the_batch_boundary():
    """One address is wider than a BFS batch, so the digest also pins
    where the driver cuts batches (the batch sets the coin interleaving)."""
    assert any(chunk_size > BLOCK_BATCH for _, _, chunk_size, _ in GOLDEN)


if __name__ == "__main__":
    for address in GOLDEN:
        print(f"    {address!r}: {block_digest(*_block(address, 'numpy'))!r},")
