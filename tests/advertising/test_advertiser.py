"""Advertiser entity."""

import pytest

from repro.advertising.advertiser import Advertiser
from repro.topics.distribution import TopicDistribution


def test_basic():
    ad = Advertiser(name="a", budget=100.0, cpe=2.0)
    assert ad.effective_budget == 100.0
    assert ad.clicks_to_budget() == pytest.approx(50.0)


def test_boost_raises_effective_budget():
    """The β of the §3 Discussion: B' = (1 + β)·B."""
    ad = Advertiser(name="a", budget=100.0, cpe=1.0, boost=0.2)
    assert ad.effective_budget == pytest.approx(120.0)
    assert ad.clicks_to_budget() == pytest.approx(120.0)


def test_topics_optional():
    ad = Advertiser(name="a", budget=1.0, cpe=1.0, topics=TopicDistribution.uniform(3))
    assert ad.topics.num_topics == 3


@pytest.mark.parametrize(
    "kwargs",
    [
        {"name": "a", "budget": 0.0, "cpe": 1.0},
        {"name": "a", "budget": -1.0, "cpe": 1.0},
        {"name": "a", "budget": 1.0, "cpe": 0.0},
        {"name": "a", "budget": 1.0, "cpe": 1.0, "boost": -0.1},
        {"name": "", "budget": 1.0, "cpe": 1.0},
    ],
)
def test_validation(kwargs):
    with pytest.raises(ValueError):
        Advertiser(**kwargs)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"budget": True}, "budget must be a number"),
        ({"budget": float("inf")}, "budget must be a finite number"),
        ({"budget": float("nan")}, "budget must be a finite number > 0"),
        ({"cpe": True}, "cpe must be a number"),
        ({"cpe": float("inf")}, "cpe must be a finite number"),
        ({"boost": float("inf")}, "boost must be a finite number"),
        ({"boost": float("nan")}, "boost must be a finite number >= 0"),
    ],
)
def test_refuses_bool_and_non_finite_amounts(kwargs, message):
    """An infinite budget would leave its ad without seeds, silently,
    and ``True`` is not a budget of 1."""
    with pytest.raises(ValueError, match=message):
        Advertiser(**{"name": "a", "budget": 1.0, "cpe": 1.0, **kwargs})


def test_frozen():
    ad = Advertiser(name="a", budget=1.0, cpe=1.0)
    with pytest.raises(AttributeError):
        ad.budget = 5.0
