"""The rule registry.

Rules register by inclusion in :data:`ALL_RULES`; the linter
instantiates them fresh per run via :func:`default_rules` (rules are
stateless, but fresh instances keep any future per-run caches private).
Codes are unique — :func:`rules_by_code` is the ``--select`` lookup.
"""

from __future__ import annotations

from repro.analysis.rules.base import LintContext, Rule, dotted_name, run_rules
from repro.analysis.rules.r101_rng import RngDisciplineRule
from repro.analysis.rules.r102_seed_sources import SeedSourceRule
from repro.analysis.rules.r103_unordered_iteration import UnorderedIterationRule
from repro.analysis.rules.r104_resource_hygiene import ResourceHygieneRule
from repro.analysis.rules.r105_pool_internals import PoolInternalsRule

#: Every shipped rule class, in code order.
ALL_RULES: tuple[type[Rule], ...] = (
    RngDisciplineRule,
    SeedSourceRule,
    UnorderedIterationRule,
    ResourceHygieneRule,
    PoolInternalsRule,
)


def default_rules() -> list[Rule]:
    """Fresh instances of every shipped rule."""
    return [cls() for cls in ALL_RULES]


def rules_by_code() -> dict[str, type[Rule]]:
    """``{"R101": RngDisciplineRule, ...}``."""
    return {cls.code: cls for cls in ALL_RULES}


__all__ = [
    "ALL_RULES",
    "LintContext",
    "PoolInternalsRule",
    "ResourceHygieneRule",
    "RngDisciplineRule",
    "Rule",
    "SeedSourceRule",
    "UnorderedIterationRule",
    "default_rules",
    "dotted_name",
    "rules_by_code",
    "run_rules",
]
