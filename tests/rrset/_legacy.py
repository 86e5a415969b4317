"""Reference (pre-pool) RR-set engine, kept verbatim for equivalence tests.

This module preserves the original pure-Python implementations that the
flat-CSR :class:`repro.rrset.pool.RRSetPool` replaced: the
``list[np.ndarray]`` collection with its ``list[list[int]]`` inverted
index, the list-based greedy max-cover, and a TIRM variant wired to
them.  The equivalence suite asserts the production engine reproduces
these bit-for-bit (same seeds, same counts, same picks, same
allocations).  Do not "fix" or optimise this file — its value is being
frozen history.

Two parts are not history.  Where the frozen TIRM loop gets its RR
sets: :class:`StreamReplay` hands it the production
``(entropy, ad, set_index)`` stream, so the loop, the collection and the
greedy are compared against the default allocator on identical samples.
And what it asks of each ad: the candidate scan, the heap and the
revenue recount are the shipped
:class:`~repro.algorithms.session.AllocationSession` methods, asked of a
session that holds the loop's allocation.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.algorithms.session import AllocationSession, _AdState
from repro.algorithms.tirm import TIRMAllocator
from repro.rrset.sharded import ShardedSamplingEngine
from repro.rrset.tim import required_rr_sets

from tests.algorithms._reference_selector import make_session
from tests.rrset._pool_helpers import get_set


class LegacyRRSetCollection:
    """The seed implementation of the RR-set coverage index."""

    def __init__(self, num_nodes: int) -> None:
        if num_nodes < 0:
            raise ValueError("num_nodes must be >= 0")
        self.num_nodes = int(num_nodes)
        self._sets: list[np.ndarray] = []
        self._alive: list[bool] = []
        self._member_of: list[list[int]] = [[] for _ in range(num_nodes)]
        self._coverage = np.zeros(num_nodes, dtype=np.int64)
        self._num_alive = 0

    def add_sets(self, sets: Iterable[np.ndarray]) -> Sequence[int]:
        new_ids = []
        member_of = self._member_of
        coverage = self._coverage
        for members in sets:
            members = np.asarray(members, dtype=np.int64)
            set_id = len(self._sets)
            self._sets.append(members)
            self._alive.append(True)
            self._num_alive += 1
            for node in members.tolist():
                member_of[node].append(set_id)
                coverage[node] += 1
            new_ids.append(set_id)
        return new_ids

    def remove_covered(self, node: int) -> int:
        removed = 0
        coverage = self._coverage
        for set_id in self._member_of[node]:
            if self._alive[set_id]:
                self._alive[set_id] = False
                self._num_alive -= 1
                for member in self._sets[set_id].tolist():
                    coverage[member] -= 1
                removed += 1
        return removed

    @property
    def num_total(self) -> int:
        return len(self._sets)

    @property
    def num_alive(self) -> int:
        return self._num_alive

    def coverage(self) -> np.ndarray:
        view = self._coverage.view()
        view.flags.writeable = False
        return view

    def coverage_of(self, node: int) -> int:
        return int(self._coverage[node])

    def coverage_of_set(self, nodes) -> int:
        nodes = set(int(v) for v in np.asarray(nodes, dtype=np.int64).ravel())
        hit = 0
        seen: set[int] = set()
        for node in nodes:
            for set_id in self._member_of[node]:
                if self._alive[set_id] and set_id not in seen:
                    seen.add(set_id)
                    hit += 1
        return hit

    def sets_containing(self, node: int, *, alive_only: bool = True) -> list[int]:
        ids = self._member_of[node]
        if not alive_only:
            return list(ids)
        return [i for i in ids if self._alive[i]]

    def get_set(self, set_id: int) -> np.ndarray:
        return self._sets[set_id]

    def all_sets(self) -> list[np.ndarray]:
        return list(self._sets)

    def is_alive(self, set_id: int) -> bool:
        return self._alive[set_id]


def legacy_greedy_max_coverage(
    sets: list[np.ndarray],
    num_nodes: int,
    k: int,
    *,
    eligible=None,
) -> tuple[list[int], int]:
    """The seed list-based greedy Max k-Cover."""
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    collection = LegacyRRSetCollection(num_nodes)
    collection.add_sets(sets)
    coverage = collection.coverage()
    mask = None
    if eligible is not None:
        mask = np.asarray(eligible, dtype=bool)
        if mask.shape != (num_nodes,):
            raise ValueError(f"eligible must have shape ({num_nodes},)")
    chosen: list[int] = []
    covered = 0
    for _ in range(min(k, num_nodes)):
        if mask is None:
            best = int(np.argmax(coverage))
        else:
            if not mask.any():
                break
            scores = np.where(mask, coverage, -1)
            best = int(np.argmax(scores))
        if coverage[best] <= 0:
            break
        covered += collection.remove_covered(best)
        chosen.append(best)
        if mask is not None:
            mask[best] = False
    return chosen, covered


class StreamReplay:
    """Set source for the frozen loop: ``sample(count)`` returns the next
    ``count`` sets of one ad's ``(entropy, ad, set_index)`` stream — read
    back from a private serial engine — as the ``list[np.ndarray]`` the
    seed collection consumes."""

    def __init__(self, problem, ad: int, seed, chunk_size: int) -> None:
        self._ad = ad
        self._engine = ShardedSamplingEngine(
            problem.graph,
            [problem.ad_edge_probabilities(i) for i in range(problem.num_ads)],
            seeds=seed,
            chunk_size=chunk_size,
        )

    def sample(self, count: int) -> list[np.ndarray]:
        shard = self._engine.shard(self._ad)
        start = shard.num_total
        self._engine.sample({self._ad: count})
        return [
            get_set(shard, i).astype(np.int64) for i in range(start, start + count)
        ]


class LegacyTIRMAllocator(TIRMAllocator):
    """TIRM wired to the seed collection and greedy.

    The methods that touched the storage engine are overridden with
    their original (pre-pool) bodies, and ``_allocate`` itself is the
    frozen pre-sharding loop — per-ad serial initialisation, the
    scan-order ``drop > best + 1e-12`` argmax, and single-ad growth —
    so any engine- or loop-level divergence shows up as a different
    allocation.
    """

    name = "TIRM-legacy"

    def _allocate(self, problem):
        from repro.algorithms.base import AllocationResult

        h = problem.num_ads
        selector = make_session(problem, self)
        budgets = selector.budgets
        allocation = selector.allocation
        samplers = [
            StreamReplay(problem, ad, self._seed, self.chunk_size) for ad in range(h)
        ]

        states = [self._initial_state(problem, samplers[ad]) for ad in range(h)]
        for ad in range(h):
            selector._rebuild_heap(ad, states[ad])

        iterations = 0
        while True:
            best_ad = -1
            best_drop = 0.0
            best_node = -1
            best_cov = 0
            for ad in range(h):
                state = states[ad]
                if not state.active:
                    continue
                candidate = selector._best_candidate(ad, state)
                if candidate is None:
                    continue
                node, cov, _, drop = candidate
                if drop > best_drop + 1e-12:
                    best_ad, best_drop = ad, drop
                    best_node, best_cov = node, cov
            if best_ad < 0:
                break

            state = states[best_ad]
            marginal = selector._marginal_revenue(best_ad, state, best_node, best_cov)
            allocation.assign(best_node, best_ad)
            state.seeds_in_order.append(best_node)
            state.marginal_coverage[best_node] = best_cov
            state.revenue += marginal
            state.collection.remove_covered(best_node)
            iterations += 1

            if len(state.seeds_in_order) == state.seed_size_estimate:
                self._grow_sample(
                    selector, best_ad, state, samplers[best_ad], marginal
                )

        revenues = np.asarray([s.revenue for s in states])
        return AllocationResult(
            algorithm=self.name,
            allocation=allocation,
            estimated_revenues=revenues,
            budgets=budgets,
            penalty=problem.penalty,
            stats={
                "iterations": iterations,
                "theta_per_ad": [s.theta for s in states],
                "seed_size_estimates": [s.seed_size_estimate for s in states],
            },
        )

    def _initial_state(self, problem, sampler: StreamReplay) -> _AdState:
        collection = LegacyRRSetCollection(problem.num_nodes)
        pilot = max(
            min(self.initial_pilot, self.max_rr_sets_per_ad), self.min_rr_sets_per_ad
        )
        collection.add_sets(sampler.sample(pilot))
        state = _AdState(collection=collection)
        target = self._theta_for(problem, state, s=1)
        if target > state.theta:
            collection.add_sets(sampler.sample(target - state.theta))
        return state

    def _theta_for(self, problem, state: _AdState, s: int) -> int:
        n = problem.num_nodes
        s = min(max(s, 1), n)
        pilot = state.collection.all_sets()[: AllocationSession._OPT_PILOT_SETS]
        _, covered = legacy_greedy_max_coverage(pilot, n, s)
        opt_lower = max(n * covered / len(pilot), float(min(s, n)), 1.0)
        theta = required_rr_sets(n, s, self.epsilon, opt_lower, ell=self.ell)
        return int(min(max(theta, self.min_rr_sets_per_ad), self.max_rr_sets_per_ad))

    def _grow_sample(self, selector, ad: int, state: _AdState,
                     sampler: StreamReplay, last_marginal: float) -> None:
        import math

        from repro.advertising.regret import regret_of

        problem, budgets = selector.problem, selector.budgets
        regret = regret_of(
            budgets[ad], state.revenue, problem.penalty, len(state.seeds_in_order)
        )
        if last_marginal > 0:
            growth = int(math.floor(regret / last_marginal))
        else:
            growth = 0
        state.seed_size_estimate += max(growth, 1)

        target = max(
            self._theta_for(problem, state, state.seed_size_estimate), state.theta
        )
        extra = target - state.theta
        if extra <= 0:
            return
        state.collection.add_sets(sampler.sample(extra))
        for node in state.seeds_in_order:
            fresh = len(state.collection.sets_containing(node, alive_only=True))
            state.marginal_coverage[node] += fresh
            state.collection.remove_covered(node)
        selector._recompute_revenue(ad, state)
        selector._rebuild_heap(ad, state)
