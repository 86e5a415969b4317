"""Shared fixtures: small deterministic graphs and problem instances."""

from __future__ import annotations

import os
import sys
import time

import numpy as np
import pytest

from repro.advertising.advertiser import Advertiser
from repro.advertising.attention import AttentionBounds
from repro.advertising.catalog import AdCatalog
from repro.advertising.problem import AdAllocationProblem
from repro.graph.digraph import DirectedGraph
from repro.graph.generators import erdos_renyi
from repro.graph.probabilities import constant_probabilities


@pytest.fixture
def build_calls(monkeypatch) -> list[int]:
    """Spy on the builds of the pool's inverted index (its counting
    sort): one entry (the number of members indexed) per build."""
    from repro.rrset import pool as pool_module

    calls: list[int] = []
    build = pool_module._build_csr_index

    def spy(members, *args):
        calls.append(int(members.size))
        return build(members, *args)

    monkeypatch.setattr(pool_module, "_build_csr_index", spy)
    return calls


@pytest.fixture
def digest_calls(monkeypatch) -> list[str]:
    """Spy on ``digest_block`` in every module that hashes a block: one
    entry per call, naming the calling function — ``record`` (dsan, a
    spliced block), ``_hash_block`` (dsan, a revealed resident chunk),
    ``pack`` (a RESULT stamp or cache write without a digest in hand),
    ``_compute_result`` (a socket worker's freshly computed block) or
    ``parse`` (a cache load or a RESULT check)."""
    from repro.dist import worker
    from repro.rrset import block, dsan

    calls: list[str] = []
    original = dsan.digest_block

    def spy(members, lengths):
        calls.append(sys._getframe(1).f_code.co_name)
        return original(members, lengths)

    for module in (dsan, block, worker):
        monkeypatch.setattr(module, "digest_block", spy)
    return calls


def _exited(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as handle:
            # "pid (comm) state ..."; comm may itself hold ")".
            return handle.read().rpartition(")")[2].split()[0] == "Z"
    except FileNotFoundError:
        return True


@pytest.fixture
def all_exited():
    """``all_exited(pids, timeout=5.0)``: whether every process in
    ``pids`` has exited within ``timeout`` seconds.  A zombie nobody has
    reaped yet counts as exited — an orphan's reaper is not ours."""
    if not os.path.isdir("/proc"):
        pytest.skip("process checks read /proc")

    def wait(pids, timeout: float = 5.0) -> bool:
        deadline = time.monotonic() + timeout
        while not all(_exited(pid) for pid in pids):
            if time.monotonic() > deadline:
                return False
            time.sleep(0.02)
        return True

    return wait


@pytest.fixture
def all_reaped():
    """``all_reaped(pids)``: whether every process in ``pids`` — children
    of this process — has exited *and* been waited for."""

    def check(pids) -> bool:
        for pid in pids:
            try:
                os.waitpid(pid, os.WNOHANG)
            except ChildProcessError:
                continue
            return False
        return True

    return check


@pytest.fixture
def line_graph() -> DirectedGraph:
    """0 → 1 → 2 → 3."""
    return DirectedGraph.from_edges([(0, 1), (1, 2), (2, 3)], num_nodes=4)


@pytest.fixture
def diamond_graph() -> DirectedGraph:
    """0 → {1, 2} → 3 (two length-2 paths)."""
    return DirectedGraph.from_edges([(0, 1), (0, 2), (1, 3), (2, 3)], num_nodes=4)


@pytest.fixture
def small_random_graph() -> DirectedGraph:
    """A deterministic 60-node G(n, p) used by the sampling tests."""
    return erdos_renyi(60, 0.06, seed=123)


@pytest.fixture
def two_ad_problem(diamond_graph) -> AdAllocationProblem:
    """Two ads over the diamond with uniform probabilities and CTPs."""
    catalog = AdCatalog(
        [
            Advertiser(name="alpha", budget=2.0, cpe=1.0),
            Advertiser(name="beta", budget=1.0, cpe=2.0),
        ]
    )
    edge_probs = np.vstack(
        [
            constant_probabilities(diamond_graph, 0.5),
            constant_probabilities(diamond_graph, 0.2),
        ]
    )
    ctps = np.vstack(
        [np.full(diamond_graph.num_nodes, 0.8), np.full(diamond_graph.num_nodes, 0.5)]
    )
    attention = AttentionBounds.uniform(diamond_graph.num_nodes, 1)
    return AdAllocationProblem(diamond_graph, catalog, edge_probs, ctps, attention)
