"""Reference (pre-pool) RR-set engine, kept verbatim for equivalence tests.

This module preserves the original pure-Python implementations that the
flat-CSR :class:`repro.rrset.pool.RRSetPool` replaced: the
``list[np.ndarray]`` collection with its ``list[list[int]]`` inverted
index, the list-based greedy max-cover, and a TIRM variant wired to
them.  The equivalence suite asserts the production engine reproduces
these bit-for-bit (same seeds, same counts, same picks, same
allocations).  Do not "fix" or optimise this file — its value is being
frozen history.

The one part that is not history is where the frozen TIRM loop gets its
RR sets: :class:`StreamReplay` hands it the production
``(entropy, ad, set_index)`` stream, so the loop, the collection and the
greedy are compared against the default allocator on identical samples.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.algorithms.tirm import TIRMAllocator, _AdState
from repro.rrset.sharded import ShardedSamplingEngine
from repro.rrset.tim import required_rr_sets


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

    def average_set_size(self) -> float:
        if not self._sets:
            return 0.0
        return float(sum(len(s) for s in self._sets) / len(self._sets))

    def memory_bytes(self) -> int:
        sets_bytes = sum(s.nbytes for s in self._sets)
        index_entries = sum(len(lst) for lst in self._member_of)
        return int(sets_bytes + 8 * index_entries + self._coverage.nbytes)


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
            shard.get_set(i).astype(np.int64) for i in range(start, start + count)
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
        import math

        from repro.advertising.allocation import Allocation
        from repro.algorithms.base import AllocationResult
        from repro.utils.rng import spawn_generators

        h, n = problem.num_ads, problem.num_nodes
        budgets = problem.catalog.budgets()
        cpes = problem.catalog.cpes()
        allocation = Allocation(h, n)
        rngs = spawn_generators(self._seed, h)

        states = [self._initial_state(problem, ad, rngs[ad]) for ad in range(h)]
        for ad in range(h):
            self._rebuild_heap(problem, ad, states[ad])

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
                candidate = self._best_candidate(
                    problem, ad, state, allocation, budgets, cpes
                )
                if candidate is None:
                    continue
                node, cov, _, drop = candidate
                if drop > best_drop + 1e-12:
                    best_ad, best_drop = ad, drop
                    best_node, best_cov = node, cov
            if best_ad < 0:
                break

            state = states[best_ad]
            marginal = self._marginal_revenue(
                problem, best_ad, state, best_node, best_cov, cpes
            )
            allocation.assign(best_node, best_ad)
            state.seeds_in_order.append(best_node)
            state.marginal_coverage[best_node] = best_cov
            state.revenue += marginal
            state.collection.remove_covered(best_node)
            iterations += 1

            if len(state.seeds_in_order) == state.seed_size_estimate:
                self._grow_sample(problem, best_ad, state, budgets, cpes, marginal)

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
                "total_rr_sets": int(sum(s.theta for s in states)),
                "rr_memory_bytes": int(
                    sum(s.collection.memory_bytes() for s in states)
                ),
                "epsilon": self.epsilon,
                "select_rule": self.select_rule,
            },
        )

    def _initial_state(self, problem, ad: int, rng) -> _AdState:
        sampler = StreamReplay(problem, ad, self._seed, self.chunk_size)
        collection = LegacyRRSetCollection(problem.num_nodes)
        pilot = max(
            min(self.initial_pilot, self.max_rr_sets_per_ad), self.min_rr_sets_per_ad
        )
        collection.add_sets(sampler.sample(pilot))
        state = _AdState(sampler=sampler, collection=collection)
        target = self._theta_for(problem, state, s=1)
        if target > state.theta:
            collection.add_sets(sampler.sample(target - state.theta))
        return state

    def _theta_for(self, problem, state: _AdState, s: int) -> int:
        n = problem.num_nodes
        s = min(max(s, 1), n)
        pilot = state.collection.all_sets()[: self._OPT_PILOT_SETS]
        _, covered = legacy_greedy_max_coverage(pilot, n, s)
        opt_lower = max(n * covered / len(pilot), float(min(s, n)), 1.0)
        theta = required_rr_sets(n, s, self.epsilon, opt_lower, ell=self.ell)
        return int(min(max(theta, self.min_rr_sets_per_ad), self.max_rr_sets_per_ad))

    def _grow_sample(self, problem, ad: int, state: _AdState, budgets, cpes,
                     last_marginal: float) -> None:
        import math

        from repro.advertising.regret import regret_of

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
        state.collection.add_sets(state.sampler.sample(extra))
        for node in state.seeds_in_order:
            fresh = len(state.collection.sets_containing(node, alive_only=True))
            state.marginal_coverage[node] += fresh
            state.collection.remove_covered(node)
        self._recompute_revenue(problem, ad, state, cpes)
        self._rebuild_heap(problem, ad, state)
