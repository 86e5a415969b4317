"""Common allocator interface and result type.

Every algorithm consumes an :class:`~repro.advertising.AdAllocationProblem`
and produces an :class:`AllocationResult`: the seed-set allocation, the
algorithm's *internal* revenue estimates (what it believed while running),
and run statistics.  Ground-truth regret is always re-measured afterwards
by the neutral Monte-Carlo referee in :mod:`repro.evaluation` — exactly as
the paper evaluates all algorithms with 10K MC runs regardless of how they
estimated spread internally (§6).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.advertising.allocation import Allocation
from repro.advertising.problem import AdAllocationProblem
from repro.advertising.regret import RegretBreakdown, allocation_regret
from repro.utils.timing import Timer


@dataclass
class AllocationResult:
    """Outcome of one allocator run.

    Attributes
    ----------
    algorithm:
        Human-readable algorithm name ("TIRM", "Myopic", ...).
    allocation:
        The seed sets ``S = (S_1, ..., S_h)``.
    estimated_revenues:
        The allocator's own ``Π_i(S_i)`` estimates at termination (not
        ground truth).
    budgets:
        Effective budgets ``B'_i``, copied from the problem for
        self-contained reporting.
    penalty:
        λ used.
    runtime_seconds:
        Wall-clock allocation time.
    stats:
        Free-form counters (RR-sets sampled, memory bytes, iterations...).
    """

    algorithm: str
    allocation: Allocation
    estimated_revenues: np.ndarray
    budgets: np.ndarray
    penalty: float
    runtime_seconds: float = 0.0
    stats: dict[str, Any] = field(default_factory=dict)

    def estimated_regret(self) -> RegretBreakdown:
        """Regret according to the allocator's internal estimates."""
        return allocation_regret(
            self.estimated_revenues,
            self.budgets,
            self.allocation.seed_counts(),
            self.penalty,
        )

    def num_targeted_users(self) -> int:
        """Distinct users targeted at least once (the Table-3 metric)."""
        return len(self.allocation.targeted_users())

    def __repr__(self) -> str:
        return (
            f"AllocationResult({self.algorithm}, seeds={self.allocation.total_seeds()}, "
            f"est_regret={self.estimated_regret().total:.4g}, "
            f"time={self.runtime_seconds:.2f}s)"
        )


class Allocator(ABC):
    """Base class for all allocation algorithms: :meth:`allocate` times
    the subclass's :meth:`_allocate` and records ``runtime_seconds``."""

    #: Display name used in reports and figures.
    name: str = "allocator"

    def allocate(self, problem: AdAllocationProblem) -> AllocationResult:
        """Compute a valid allocation for ``problem``."""
        with Timer() as timer:
            result = self._allocate(problem)
        result.runtime_seconds = timer.elapsed
        return result

    @abstractmethod
    def _allocate(self, problem: AdAllocationProblem) -> AllocationResult:
        """The algorithm body (untimed)."""

    def _empty_allocation(self, problem: AdAllocationProblem) -> Allocation:
        return Allocation(problem.num_ads, problem.num_nodes)
