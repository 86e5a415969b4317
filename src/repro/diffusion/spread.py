"""Spread oracles: the pluggable ``σ_i(S)`` evaluators behind Algorithm 1.

The greedy allocator of §4.1 only needs the ability to evaluate expected
spread for candidate seed sets.  Three interchangeable oracles:

* :class:`ExactSpreadOracle` — possible-world enumeration (toy graphs);
* :class:`MonteCarloSpreadOracle` — the paper's MC estimation [19], with
  common random numbers across evaluations so that marginal gains are
  differences of correlated estimates (far less noise for greedy);
* an RR-set oracle lives in :mod:`repro.rrset.estimator` (it needs the
  collection machinery).

All oracles memoise on the (ad, frozen seed set) pair.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING

import numpy as np

from repro.diffusion.exact import exact_spread
from repro.diffusion.ic import _Cascade
from repro.utils.rng import keyed_generator

if TYPE_CHECKING:  # imported lazily to avoid a package-level cycle:
    # advertising.advertiser -> topics -> topics.learning -> diffusion
    from repro.advertising.problem import AdAllocationProblem


class SpreadOracle(ABC):
    """Evaluates expected spread ``σ_i(S)`` for a Problem-1 instance."""

    def __init__(self, problem: "AdAllocationProblem") -> None:
        self.problem = problem

    @abstractmethod
    def spread(self, ad: int, seeds: frozenset[int]) -> float:
        """Expected number of clicks for ad ``ad`` with seed set ``seeds``."""

    def revenue(self, ad: int, seeds: frozenset[int]) -> float:
        """``Π_i(S) = cpe(i) · σ_i(S)``."""
        return self.problem.catalog[ad].cpe * self.spread(ad, seeds)


class CachingSpreadOracle(SpreadOracle):
    """Shared memoisation layer for the concrete oracles."""

    def __init__(self, problem: "AdAllocationProblem") -> None:
        super().__init__(problem)
        self._cache: dict[tuple[int, frozenset[int]], float] = {}

    def spread(self, ad: int, seeds: frozenset[int]) -> float:
        seeds = frozenset(int(s) for s in seeds)
        key = (ad, seeds)
        if key not in self._cache:
            self._cache[key] = self._compute(ad, seeds)
        return self._cache[key]

    def _compute(self, ad: int, seeds: frozenset[int]) -> float:
        raise NotImplementedError

    @property
    def cache_size(self) -> int:
        """Number of memoised evaluations."""
        return len(self._cache)


class ExactSpreadOracle(CachingSpreadOracle):
    """Exact enumeration — only for graphs with at most ~20 uncertain edges."""

    def _compute(self, ad: int, seeds: frozenset[int]) -> float:
        if not seeds:
            return 0.0
        return exact_spread(
            self.problem.graph,
            self.problem.ad_edge_probabilities(ad),
            np.fromiter(seeds, dtype=np.int64),
            ctps=self.problem.ad_ctps(ad),
        )


class MonteCarloSpreadOracle(CachingSpreadOracle):
    """Monte-Carlo oracle with common random numbers.

    Every evaluation of ad ``i`` reuses the same per-run random seeds, so
    two seed sets are simulated in the *same* sequence of possible worlds;
    marginal gains ``σ(S ∪ {x}) − σ(S)`` are then exact differences within
    each world and the greedy comparison is far more stable than with
    independent estimates.
    """

    def __init__(
        self, problem: "AdAllocationProblem", *, num_runs: int = 200, seed=None
    ) -> None:
        super().__init__(problem)
        if num_runs < 1:
            raise ValueError(f"num_runs must be >= 1, got {num_runs}")
        self.num_runs = int(num_runs)
        sequence = (
            seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
        )
        self._run_seeds = sequence.generate_state(self.num_runs, dtype=np.uint64)

    def _compute(self, ad: int, seeds: frozenset[int]) -> float:
        if not seeds:
            return 0.0
        problem = self.problem
        cascade = _Cascade(
            problem.graph, problem.ad_edge_probabilities(ad),
            np.fromiter(seeds, dtype=np.int64), problem.ad_ctps(ad),
        )
        total = 0
        for run_seed in self._run_seeds:
            # Common random numbers, keyed by (run, ad): the stream is a
            # pure function of the key, so every evaluation of ad ``ad``
            # replays the same possible worlds (stream-identical to the
            # historical np.random.default_rng([run_seed, ad]) call).
            total += cascade(keyed_generator(int(run_seed), ad))[0].size
        return total / self.num_runs
