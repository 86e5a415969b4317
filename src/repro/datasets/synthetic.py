"""Simulated stand-ins for the four evaluation networks (Table 1–2).

Each factory mirrors the corresponding §6 configuration — graph shape,
probability regime, topic structure, CTPs, budgets, CPEs — at a
``scale`` fraction of the original node count (default 1/10th for the
quality datasets, 1/100th for the scalability ones, so the default
objects are laptop-sized).  Budgets scale with the node count so the
"thousands of seeds required" regime of §6 is preserved relatively.
"""

from __future__ import annotations

import numpy as np

from repro.advertising.advertiser import Advertiser
from repro.advertising.attention import AttentionBounds
from repro.advertising.catalog import AdCatalog
from repro.advertising.problem import AdAllocationProblem
from repro.graph.generators import community_graph, power_law_graph
from repro.graph.probabilities import weighted_cascade_probabilities
from repro.topics.ctp import uniform_ctps
from repro.topics.distribution import TopicDistribution
from repro.topics.model import TopicModel
from repro.topics.synthetic import synthetic_topic_model
from repro.utils.rng import as_generator


def _skewed_catalog(num_ads, num_topics, budgets, cpes) -> AdCatalog:
    """Ads with 0.91 topic mass on their own topic (the §6 recipe)."""
    advertisers = []
    for i in range(num_ads):
        advertisers.append(
            Advertiser(
                name=f"ad-{i}",
                budget=float(budgets[i]),
                cpe=float(cpes[i]),
                topics=TopicDistribution.skewed(num_topics, i % num_topics, mass=0.91),
            )
        )
    return AdCatalog(advertisers)


def flixster_like(
    *,
    scale: float = 0.1,
    num_ads: int = 10,
    num_topics: int = 10,
    attention_bound: int = 1,
    penalty: float = 0.0,
    seed: int = 7,
) -> AdAllocationProblem:
    """FLIXSTER stand-in: 30K nodes / 425K directed edges at scale 1.

    Learned-TIC-style sparse per-topic probabilities, ads with 0.91 mass
    on their own topic, CTPs ~ U[0.01, 0.03], budgets ~ U[200, 600] and
    CPEs ~ U[5, 6] (Table 2), scaled by ``scale``.
    """
    if not 0 < scale <= 1:
        raise ValueError(f"scale must be in (0, 1], got {scale}")
    rng = as_generator(seed)
    n = max(int(30_000 * scale), 50)
    graph = power_law_graph(n, avg_out_degree=14.0, exponent=2.1, reciprocity=0.3, seed=rng)
    # Learned TIC probabilities are small (influence attempts rarely
    # succeed); a 0.05-mean home-topic strength keeps per-seed cascades
    # short so budgets need many seeds, the §6 regime.
    model = synthetic_topic_model(
        graph,
        num_topics,
        home_topics_per_edge=2,
        edge_strength_mean=0.05,
        background_strength=0.002,
        seed=rng,
    )
    budgets = rng.uniform(200.0, 600.0, size=num_ads) * scale
    cpes = rng.uniform(5.0, 6.0, size=num_ads)
    catalog = _skewed_catalog(num_ads, num_topics, budgets, cpes)
    ctps = uniform_ctps(num_ads, n, 0.01, 0.03, seed=rng)
    attention = AttentionBounds.uniform(n, attention_bound)
    return AdAllocationProblem.from_topic_model(
        model, catalog, attention, penalty=penalty, ctps=ctps
    )


def epinions_like(
    *,
    scale: float = 0.1,
    num_ads: int = 10,
    num_topics: int = 10,
    attention_bound: int = 1,
    penalty: float = 0.0,
    exponential_rate: float = 30.0,
    seed: int = 11,
) -> AdAllocationProblem:
    """EPINIONS stand-in: 76K nodes / 509K directed edges at scale 1.

    Per-topic influence probabilities drawn ``Exp(rate=30)`` via the
    inverse transform (§6), Flixster-style skewed ads, CTPs ~
    U[0.01, 0.03], budgets ~ U[100, 350] and CPEs ~ U[2.5, 6].
    """
    if not 0 < scale <= 1:
        raise ValueError(f"scale must be in (0, 1], got {scale}")
    rng = as_generator(seed)
    n = max(int(76_000 * scale), 50)
    graph = power_law_graph(n, avg_out_degree=6.7, exponent=2.0, reciprocity=0.25, seed=rng)
    uniform = rng.random((num_topics, graph.num_edges))
    edge_probs = np.minimum(-np.log1p(-uniform) / exponential_rate, 1.0)
    seed_probs = rng.uniform(0.005, 0.05, size=(num_topics, graph.num_nodes))
    model = TopicModel(graph, edge_probs, seed_probs)
    budgets = rng.uniform(100.0, 350.0, size=num_ads) * scale
    cpes = rng.uniform(2.5, 6.0, size=num_ads)
    catalog = _skewed_catalog(num_ads, num_topics, budgets, cpes)
    ctps = uniform_ctps(num_ads, n, 0.01, 0.03, seed=rng)
    attention = AttentionBounds.uniform(n, attention_bound)
    return AdAllocationProblem.from_topic_model(
        model, catalog, attention, penalty=penalty, ctps=ctps
    )


def dblp_like(
    *,
    scale: float = 0.01,
    num_ads: int = 5,
    budget_per_ad: float | None = None,
    attention_bound: int = 1,
    penalty: float = 0.0,
    seed: int = 13,
) -> AdAllocationProblem:
    """DBLP stand-in: 317K nodes / 1.05M undirected edges at scale 1.

    Community structure, every edge directed both ways, weighted-cascade
    probabilities, CTP = CPE = 1 and identical topic profiles for all
    ads — the fully competitive §6.2 scalability setting.  The default
    per-ad budget mirrors the paper's 5K scaled by ``scale``.
    """
    if not 0 < scale <= 1:
        raise ValueError(f"scale must be in (0, 1], got {scale}")
    rng = as_generator(seed)
    n = max(int(317_000 * scale), 60)
    # Communities of ~120 authors with p=0.05 give within-degree ≈ 6,
    # matching DBLP's average degree of ≈ 6.6 at every scale.
    graph = community_graph(
        n,
        num_communities=max(n // 120, 2),
        within_probability=0.05,
        between_edges_per_node=0.4,
        seed=rng,
    )
    probs = weighted_cascade_probabilities(graph)
    if budget_per_ad is None:
        budget_per_ad = max(5_000.0 * scale, 10.0)
    catalog = AdCatalog(
        [Advertiser(name=f"ad-{i}", budget=float(budget_per_ad), cpe=1.0) for i in range(num_ads)]
    )
    attention = AttentionBounds.uniform(n, attention_bound)
    return AdAllocationProblem(graph, catalog, probs, 1.0, attention, penalty)


def livejournal_like(
    *,
    scale: float = 0.002,
    num_ads: int = 5,
    budget_per_ad: float | None = None,
    attention_bound: int = 1,
    penalty: float = 0.0,
    seed: int = 17,
) -> AdAllocationProblem:
    """LIVEJOURNAL stand-in: 4.8M nodes / 69M directed edges at scale 1.

    Large directed power-law graph (average out-degree ≈ 14.4),
    weighted-cascade probabilities, CTP = CPE = 1.  The default per-ad
    budget mirrors the paper's 80K scaled by ``scale``.
    """
    if not 0 < scale <= 1:
        raise ValueError(f"scale must be in (0, 1], got {scale}")
    rng = as_generator(seed)
    n = max(int(4_800_000 * scale), 100)
    graph = power_law_graph(n, avg_out_degree=14.4, exponent=2.3, reciprocity=0.5, seed=rng)
    probs = weighted_cascade_probabilities(graph)
    if budget_per_ad is None:
        budget_per_ad = max(80_000.0 * scale, 10.0)
    catalog = AdCatalog(
        [Advertiser(name=f"ad-{i}", budget=float(budget_per_ad), cpe=1.0) for i in range(num_ads)]
    )
    attention = AttentionBounds.uniform(n, attention_bound)
    return AdAllocationProblem(graph, catalog, probs, 1.0, attention, penalty)
