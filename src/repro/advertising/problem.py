"""The complete REGRET-MINIMIZATION instance (Problem 1, §3).

An :class:`AdAllocationProblem` bundles everything an allocator needs:

* the social graph;
* the ad catalog (budgets, CPEs, topic distributions);
* per-ad edge probabilities ``p^i_{u,v}`` — an ``(h, m)`` matrix, either
  given directly or collapsed from a :class:`~repro.topics.TopicModel`
  through Eq. (1);
* per-ad CTPs ``δ(u, i)`` — an ``(h, n)`` matrix;
* attention bounds ``κ_u`` and the seed penalty ``λ``.

The instance is immutable in fact, not only by convention: its graph's
arrays and both ``(h, ·)`` matrices are read-only, so the content digests
an engine pool keys on (:meth:`AdAllocationProblem.content_digests`) are
hashed once and can never go stale.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.advertising.attention import AttentionBounds
from repro.advertising.catalog import AdCatalog
from repro.errors import ConfigurationError
from repro.graph.digraph import DirectedGraph
from repro.topics.model import TopicModel
from repro.utils import hashing
from repro.utils.validation import check_probability_array


def _frozen(array: np.ndarray, given) -> np.ndarray:
    """``array`` made read-only, copied first unless the problem owns
    it: a caller's writable array, or a view of anything, is copied; a
    fresh conversion, and a read-only array such as another problem's
    matrix, are kept as they are."""
    if array.base is not None or (array is given and array.flags.writeable):
        array = array.copy()
    array.flags.writeable = False
    return array


class AdAllocationProblem:
    """Immutable Problem-1 instance consumed by every allocator.

    Parameters
    ----------
    graph:
        Social graph ``G = (V, E)``.
    catalog:
        The ``h`` advertisers.
    edge_probabilities:
        ``(h, m)`` matrix of per-ad influence probabilities in canonical
        edge order.  A 1-D array of length ``m`` is broadcast to all ads
        (the §6.2 setting where all ads share one distribution).
    ctps:
        ``(h, n)`` matrix of click-through probabilities ``δ(u, i)``; a
        scalar or 1-D array of length ``n`` is broadcast likewise.
    attention:
        Per-user bounds ``κ_u``.
    penalty:
        The seed penalty ``λ ≥ 0`` of Eq. (3).

    Both matrices are stored read-only — a caller's writable array is
    copied first — and the graph's arrays are read-only too, so an
    in-place write raises ``ValueError``.  The content digests are
    hashed once (:meth:`content_digests`) and shared by every problem
    derived over the same arrays (:meth:`with_catalog`,
    :meth:`with_penalty`, :meth:`with_attention`).
    """

    __slots__ = (
        "graph", "catalog", "edge_probabilities", "ctps", "attention",
        "penalty", "_digests",
    )

    def __init__(
        self,
        graph: DirectedGraph,
        catalog: AdCatalog,
        edge_probabilities,
        ctps,
        attention: AttentionBounds,
        penalty: float = 0.0,
    ) -> None:
        h, n, m = len(catalog), graph.num_nodes, graph.num_edges

        given = edge_probabilities
        edge_probabilities = check_probability_array("edge_probabilities", edge_probabilities)
        if edge_probabilities.ndim == 1:
            edge_probabilities = np.broadcast_to(edge_probabilities, (h, m)).copy()
        if edge_probabilities.shape != (h, m):
            raise ConfigurationError(
                f"edge_probabilities must be ({h}, {m}), got {edge_probabilities.shape}"
            )

        given_ctps = ctps
        ctps = np.asarray(ctps, dtype=np.float64)
        if ctps.ndim == 0:
            ctps = np.full((h, n), float(ctps))
        elif ctps.ndim == 1:
            ctps = np.broadcast_to(ctps, (h, n)).copy()
        ctps = check_probability_array("ctps", ctps)
        if ctps.shape != (h, n):
            raise ConfigurationError(f"ctps must be ({h}, {n}), got {ctps.shape}")

        if attention.num_nodes != n:
            raise ConfigurationError(
                f"attention bounds cover {attention.num_nodes} users, graph has {n}"
            )
        if penalty < 0:
            raise ConfigurationError(f"penalty (lambda) must be >= 0, got {penalty}")

        self.graph = graph
        self.catalog = catalog
        self.edge_probabilities = _frozen(edge_probabilities, given)
        self.ctps = _frozen(ctps, given_ctps)
        self.attention = attention
        self.penalty = float(penalty)
        # Filled by content_digests(); shared with every problem derived
        # over the same graph and matrices.
        self._digests: dict = {}

    # ------------------------------------------------------------------
    @classmethod
    def from_topic_model(
        cls,
        model: TopicModel,
        catalog: AdCatalog,
        attention: AttentionBounds,
        *,
        penalty: float = 0.0,
        ctps=None,
    ) -> "AdAllocationProblem":
        """Collapse a topic model into a Problem-1 instance.

        Per-ad edge probabilities come from Eq. (1) applied to each
        advertiser's ``~γ_i``.  CTPs come from the model's per-topic
        seeding probabilities unless an explicit ``(h, n)`` matrix is given
        (the §6 experiments sample CTPs from ``U[0.01, 0.03]`` instead).
        """
        missing = [ad.name for ad in catalog if ad.topics is None]
        if missing:
            raise ConfigurationError(
                f"advertisers {missing} lack topic distributions; either provide "
                "them or construct the problem with explicit edge probabilities"
            )
        edge_probs = np.stack(
            [model.ad_edge_probabilities(ad.topics) for ad in catalog], axis=0
        )
        edge_probs.flags.writeable = False  # the problem's own: not copied
        if ctps is None:
            ctps = np.stack([model.ad_ctps(ad.topics) for ad in catalog], axis=0)
            ctps.flags.writeable = False
        return cls(model.graph, catalog, edge_probs, ctps, attention, penalty)

    # ------------------------------------------------------------------
    @property
    def num_ads(self) -> int:
        """``h``."""
        return len(self.catalog)

    @property
    def num_nodes(self) -> int:
        """``n``."""
        return self.graph.num_nodes

    def ad_edge_probabilities(self, ad: int) -> np.ndarray:
        """Per-edge probabilities ``p^i_{u,v}`` for one ad."""
        return self.edge_probabilities[ad]

    def ad_ctps(self, ad: int) -> np.ndarray:
        """Per-node CTPs ``δ(u, i)`` for one ad."""
        return self.ctps[ad]

    def expected_seed_revenue(self, ad: int) -> np.ndarray:
        """``δ(u, i) · cpe(i)`` per user — the no-network expected revenue
        of seeding each user, the quantity Myopic ranks by (§6)."""
        return self.ctps[ad] * self.catalog[ad].cpe

    def max_penalty_for_theorem2(self) -> float:
        """The largest λ satisfying the Theorem-2 assumption
        ``λ ≤ δ(u, i)·cpe(i)`` for every user and ad."""
        per_ad_min = self.ctps.min(axis=1) * self.catalog.cpes()
        return float(per_ad_min.min())

    def content_digests(self) -> tuple[str, tuple[str, ...]]:
        """``(graph digest, per-ad probability-row digests)`` — the
        content an RR-set sample depends on, which the service's engine
        pool keys on.  Hashed on the first call (the graph's digest is
        cached on the graph itself) and kept: the arrays are read-only,
        so the digests cannot go stale."""
        cached = self._digests.get("content")
        if cached is None:
            cached = self._digests["content"] = (
                hashing.graph_digest(self.graph),
                tuple(
                    hashing.array_digest(row, label="probs")
                    for row in self.edge_probabilities
                ),
            )
        return cached

    def with_catalog(self, catalog: AdCatalog) -> "AdAllocationProblem":
        """A copy of this instance with a catalog of the same size (new
        budgets or CPEs; shares arrays and digests)."""
        return self._sharing(catalog, self.attention, self.penalty)

    def with_penalty(self, penalty: float) -> "AdAllocationProblem":
        """A copy of this instance with a different λ (shares arrays and
        digests)."""
        return self._sharing(self.catalog, self.attention, penalty)

    def with_attention(self, attention: AttentionBounds) -> "AdAllocationProblem":
        """A copy of this instance with different attention bounds
        (shares arrays and digests)."""
        return self._sharing(self.catalog, attention, self.penalty)

    def _sharing(self, catalog, attention, penalty) -> "AdAllocationProblem":
        problem = AdAllocationProblem(
            self.graph, catalog, self.edge_probabilities, self.ctps,
            attention, penalty,
        )
        problem._digests = self._digests
        return problem

    def memory_bytes(self) -> int:
        """Bytes held by the instance's dense matrices plus the graph."""
        return int(
            self.edge_probabilities.nbytes
            + self.ctps.nbytes
            + self.attention.kappa.nbytes
            + self.graph.memory_bytes()
        )

    def __setstate__(self, state) -> None:
        # An unpickled or deep-copied problem holds fresh, writable arrays.
        for name, value in state[1].items():
            setattr(self, name, value)
        self.edge_probabilities.flags.writeable = False
        self.ctps.flags.writeable = False

    def __repr__(self) -> str:
        return (
            f"AdAllocationProblem(h={self.num_ads}, n={self.num_nodes}, "
            f"m={self.graph.num_edges}, lambda={self.penalty:g})"
        )
