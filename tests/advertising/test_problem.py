"""AdAllocationProblem: validation, broadcasting, topic-model collapse."""

import copy
import pickle

import numpy as np
import pytest

from repro.advertising.advertiser import Advertiser
from repro.advertising.attention import AttentionBounds
from repro.advertising.catalog import AdCatalog
from repro.advertising.problem import AdAllocationProblem
from repro.errors import ConfigurationError
from repro.topics.distribution import TopicDistribution
from repro.topics.model import TopicModel


def test_shapes(two_ad_problem):
    assert two_ad_problem.num_ads == 2
    assert two_ad_problem.num_nodes == 4
    assert two_ad_problem.edge_probabilities.shape == (2, 4)
    assert two_ad_problem.ctps.shape == (2, 4)


def test_broadcasting_1d_edge_probs(diamond_graph):
    catalog = AdCatalog([Advertiser(name="a", budget=1.0, cpe=1.0)] )
    problem = AdAllocationProblem(
        diamond_graph,
        catalog,
        np.full(4, 0.3),
        0.5,
        AttentionBounds.uniform(4, 1),
    )
    assert problem.edge_probabilities.shape == (1, 4)
    assert np.all(problem.ctps == 0.5)


def test_scalar_ctp_broadcast(two_ad_problem, diamond_graph):
    problem = AdAllocationProblem(
        diamond_graph,
        two_ad_problem.catalog,
        two_ad_problem.edge_probabilities,
        1.0,
        two_ad_problem.attention,
    )
    assert np.all(problem.ctps == 1.0)


def test_expected_seed_revenue(two_ad_problem):
    # ad 1 (beta): cpe 2.0, ctp 0.5 -> 1.0 per user
    assert np.allclose(two_ad_problem.expected_seed_revenue(1), 1.0)


def test_max_penalty_for_theorem2(two_ad_problem):
    # min over ads of min-CTP * cpe = min(0.8*1, 0.5*2) = 0.8
    assert two_ad_problem.max_penalty_for_theorem2() == pytest.approx(0.8)


def test_with_penalty_shares_arrays(two_ad_problem):
    changed = two_ad_problem.with_penalty(0.7)
    assert changed.penalty == 0.7
    assert changed.edge_probabilities is two_ad_problem.edge_probabilities


def test_with_attention(two_ad_problem):
    new_bounds = AttentionBounds.uniform(4, 2)
    changed = two_ad_problem.with_attention(new_bounds)
    assert changed.attention is new_bounds
    assert changed.penalty == two_ad_problem.penalty


class TestFrozen:
    """A built problem is immutable in fact: both matrices are
    read-only, a caller's writable array is copied first, and the
    content digests are hashed once and shared by derived problems."""

    def test_in_place_writes_are_refused(self, two_ad_problem):
        for matrix in (two_ad_problem.edge_probabilities, two_ad_problem.ctps):
            with pytest.raises(ValueError, match="read-only"):
                matrix[0, 0] = 0.9
            with pytest.raises(ValueError, match="read-only"):
                matrix *= 0.5
        with pytest.raises(ValueError, match="read-only"):
            two_ad_problem.ad_edge_probabilities(1)[:] = 0.0

    def test_a_writable_argument_is_copied_a_read_only_one_shared(
        self, two_ad_problem
    ):
        mine = np.array(two_ad_problem.edge_probabilities)
        problem = AdAllocationProblem(
            two_ad_problem.graph, two_ad_problem.catalog, mine,
            two_ad_problem.ctps, two_ad_problem.attention,
        )
        assert not np.shares_memory(problem.edge_probabilities, mine)
        mine[0, 0] = 0.0  # the caller's array stays the caller's
        assert problem.edge_probabilities[0, 0] == 0.5
        assert problem.ctps is two_ad_problem.ctps  # read-only: shared
        view = AdAllocationProblem(
            two_ad_problem.graph, two_ad_problem.catalog,
            two_ad_problem.edge_probabilities[:, :], two_ad_problem.ctps,
            two_ad_problem.attention,
        )
        assert view.edge_probabilities.base is None  # a view is copied

    def test_derived_problems_share_arrays_and_digests(self, two_ad_problem):
        digests = two_ad_problem.content_digests()
        catalog = AdCatalog(
            [Advertiser(name="alpha", budget=5.0, cpe=1.0),
             Advertiser(name="beta", budget=1.0, cpe=2.0)]
        )
        for derived in (
            two_ad_problem.with_penalty(0.3),
            two_ad_problem.with_attention(AttentionBounds.uniform(4, 2)),
            two_ad_problem.with_catalog(catalog),
        ):
            assert derived.edge_probabilities is two_ad_problem.edge_probabilities
            assert derived.ctps is two_ad_problem.ctps
            assert derived.content_digests() is digests
        with pytest.raises(ConfigurationError, match="edge_probabilities"):
            two_ad_problem.with_catalog(AdCatalog(list(catalog)[:1]))

    @pytest.mark.parametrize(
        "clone", [copy.deepcopy, lambda p: pickle.loads(pickle.dumps(p))]
    )
    def test_a_copy_stays_frozen(self, two_ad_problem, clone):
        """A copy carries the cached digests, so its fresh arrays must be
        read-only too."""
        digests = two_ad_problem.content_digests()
        twin = clone(two_ad_problem)
        assert twin.content_digests() == digests
        for array in (
            twin.edge_probabilities, twin.ctps, twin.graph.edge_sources,
            twin.graph.in_edge_ids,
        ):
            assert not array.flags.writeable

    def test_content_digests_are_the_hashing_module_digests(self, two_ad_problem):
        from repro.utils.hashing import array_digest, graph_digest

        graph_hash, probs_hashes = two_ad_problem.content_digests()
        assert graph_hash == graph_digest(two_ad_problem.graph)
        assert probs_hashes == tuple(
            array_digest(np.array(two_ad_problem.ad_edge_probabilities(ad)),
                         label="probs")
            for ad in range(two_ad_problem.num_ads)
        )


def test_memory_bytes_positive(two_ad_problem):
    assert two_ad_problem.memory_bytes() > 0


class TestValidation:
    def test_bad_edge_prob_shape(self, diamond_graph, two_ad_problem):
        with pytest.raises(ConfigurationError):
            AdAllocationProblem(
                diamond_graph,
                two_ad_problem.catalog,
                np.zeros((2, 3)),
                0.5,
                two_ad_problem.attention,
            )

    def test_bad_ctp_shape(self, diamond_graph, two_ad_problem):
        with pytest.raises(ConfigurationError):
            AdAllocationProblem(
                diamond_graph,
                two_ad_problem.catalog,
                two_ad_problem.edge_probabilities,
                np.zeros((2, 3)),
                two_ad_problem.attention,
            )

    def test_bad_attention_size(self, diamond_graph, two_ad_problem):
        with pytest.raises(ConfigurationError):
            AdAllocationProblem(
                diamond_graph,
                two_ad_problem.catalog,
                two_ad_problem.edge_probabilities,
                0.5,
                AttentionBounds.uniform(5, 1),
            )

    def test_negative_penalty(self, diamond_graph, two_ad_problem):
        with pytest.raises(ConfigurationError):
            AdAllocationProblem(
                diamond_graph,
                two_ad_problem.catalog,
                two_ad_problem.edge_probabilities,
                0.5,
                two_ad_problem.attention,
                penalty=-0.1,
            )


class TestFromTopicModel:
    @pytest.fixture
    def model(self, diamond_graph):
        edge_probs = np.asarray([[0.2] * 4, [0.6] * 4])
        seed_probs = np.asarray([[0.02] * 4, [0.08] * 4])
        return TopicModel(diamond_graph, edge_probs, seed_probs)

    def test_collapse(self, model, diamond_graph):
        catalog = AdCatalog(
            [
                Advertiser(
                    name="a", budget=1.0, cpe=1.0, topics=TopicDistribution.point(2, 0)
                ),
                Advertiser(
                    name="b", budget=1.0, cpe=1.0, topics=TopicDistribution.point(2, 1)
                ),
            ]
        )
        problem = AdAllocationProblem.from_topic_model(
            model, catalog, AttentionBounds.uniform(4, 1)
        )
        assert np.allclose(problem.ad_edge_probabilities(0), 0.2)
        assert np.allclose(problem.ad_edge_probabilities(1), 0.6)
        assert np.allclose(problem.ad_ctps(0), 0.02)
        assert np.allclose(problem.ad_ctps(1), 0.08)

    def test_explicit_ctps_override(self, model):
        catalog = AdCatalog(
            [Advertiser(name="a", budget=1.0, cpe=1.0, topics=TopicDistribution.point(2, 0))]
        )
        problem = AdAllocationProblem.from_topic_model(
            model, catalog, AttentionBounds.uniform(4, 1), ctps=np.full((1, 4), 0.5)
        )
        assert np.all(problem.ctps == 0.5)

    def test_missing_topics_rejected(self, model):
        catalog = AdCatalog([Advertiser(name="a", budget=1.0, cpe=1.0)])
        with pytest.raises(ConfigurationError, match="lack topic distributions"):
            AdAllocationProblem.from_topic_model(
                model, catalog, AttentionBounds.uniform(4, 1)
            )
