"""The advertiser ``a_i``: an ad, a budget and a cost-per-engagement."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.topics.distribution import TopicDistribution
from repro.utils.validation import check_positive


@dataclass(frozen=True)
class Advertiser:
    """One advertiser in a Problem-1 instance.

    Attributes
    ----------
    name:
        Stable identifier (e.g. ``"ad-3"``); unique within a catalog.
    budget:
        ``B_i`` — the maximum total amount the advertiser pays the host.
    cpe:
        ``cpe(i)`` — amount paid per click/engagement (CPE model, §1).
    topics:
        The ad's topic distribution ``~γ_i``; optional because the
        scalability experiments (§6.2) bypass the topic model and give
        per-ad edge probabilities directly.
    boost:
        The ``β`` of the §3 "Discussion": regret is measured against the
        boosted budget ``B'_i = (1 + β)·B_i``, allowing the host to treat
        modest overshoot as acceptable.  Defaults to 0 (plain Problem 1).
    """

    name: str
    budget: float
    cpe: float
    topics: TopicDistribution | None = field(default=None)
    boost: float = 0.0

    def __post_init__(self) -> None:
        check_positive("budget", self.budget)
        check_positive("cpe", self.cpe)
        check_positive("boost", self.boost, strict=False)
        if not self.name:
            raise ValueError("advertiser name must be non-empty")

    @property
    def effective_budget(self) -> float:
        """``B'_i = (1 + β)·B_i`` — equals ``budget`` when ``boost`` is 0."""
        return (1.0 + self.boost) * self.budget

    def clicks_to_budget(self) -> float:
        """Expected number of clicks that exactly exhausts the budget."""
        return self.effective_budget / self.cpe
