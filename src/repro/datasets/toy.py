"""The six-node gadget of Fig. 1 and Examples 1–2.

Topology (node ids 0..5 for v1..v6)::

    v1 ─0.2─▶ v3 ─0.5─▶ v4 ─0.1─▶ v6
    v2 ─0.2─▶ v3 ─0.5─▶ v5 ─0.1─▶ v6

Four ads {a, b, c, d} share the edge probabilities; CTPs are uniform per
ad (0.9 / 0.8 / 0.7 / 0.6), budgets are (4, 2, 2, 1), every CPE is 1 and
every attention bound is 1.

The paper computes expected clicks 5.55 for Allocation A (everything to
ad a) and 6.3 for Allocation B (the virality-aware split), treating v4
and v5 as independent when scoring v6 — exact possible-world enumeration
differs in the third decimal (they share ancestor v3).
"""

from __future__ import annotations

import numpy as np

from repro.advertising.allocation import Allocation
from repro.advertising.advertiser import Advertiser
from repro.advertising.attention import AttentionBounds
from repro.advertising.catalog import AdCatalog
from repro.advertising.problem import AdAllocationProblem
from repro.graph.digraph import DirectedGraph

#: Paper's (rounded, independence-approximated) expected clicks.
PAPER_EXPECTED_CLICKS_A = 5.55
PAPER_EXPECTED_CLICKS_B = 6.3
#: Paper's regrets at λ = 0 (Example 1) and λ = 0.1 (Example 2).
PAPER_REGRET_A_LAMBDA0 = 6.6
PAPER_REGRET_B_LAMBDA0 = 2.7
PAPER_REGRET_A_LAMBDA01 = 7.2
PAPER_REGRET_B_LAMBDA01 = 3.3

_EDGES = [(0, 2), (1, 2), (2, 3), (2, 4), (3, 5), (4, 5)]
_EDGE_PROBS = {(0, 2): 0.2, (1, 2): 0.2, (2, 3): 0.5, (2, 4): 0.5, (3, 5): 0.1, (4, 5): 0.1}
_CTPS = [0.9, 0.8, 0.7, 0.6]
_BUDGETS = [4.0, 2.0, 2.0, 1.0]
_AD_NAMES = ["a", "b", "c", "d"]


def figure1_gadget() -> tuple[DirectedGraph, np.ndarray]:
    """The gadget graph and its per-canonical-edge probabilities."""
    graph = DirectedGraph.from_edges(_EDGES, num_nodes=6)
    probs = np.zeros(graph.num_edges)
    for (u, v), p in _EDGE_PROBS.items():
        probs[graph.edge_id(u, v)] = p
    return graph, probs


def figure1_problem(penalty: float = 0.0) -> AdAllocationProblem:
    """The full four-ad Problem-1 instance of Fig. 1 / Examples 1–2."""
    graph, probs = figure1_gadget()
    catalog = AdCatalog(
        [Advertiser(name=name, budget=b, cpe=1.0) for name, b in zip(_AD_NAMES, _BUDGETS)]
    )
    edge_probabilities = np.tile(probs, (len(catalog), 1))
    ctps = np.repeat(np.asarray(_CTPS)[:, None], graph.num_nodes, axis=1)
    attention = AttentionBounds.uniform(graph.num_nodes, 1)
    return AdAllocationProblem(graph, catalog, edge_probabilities, ctps, attention, penalty)


def figure1_allocation_a() -> Allocation:
    """Allocation A: every user gets ad ``a`` (Myopic's choice)."""
    return Allocation.from_seed_sets([[0, 1, 2, 3, 4, 5], [], [], []], num_nodes=6)


def figure1_allocation_b() -> Allocation:
    """Allocation B: ⟨v1,a⟩ ⟨v2,a⟩ ⟨v3,b⟩ ⟨v4,c⟩ ⟨v5,c⟩ ⟨v6,d⟩."""
    return Allocation.from_seed_sets([[0, 1], [2], [3, 4], [5]], num_nodes=6)
