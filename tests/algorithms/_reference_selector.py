"""The Algorithm-3 selector as it stood at commit c3d1ac2, kept verbatim
as the in-test reference.

The next commit stopped ``AllocationSession._best_candidate`` from
walking the lazy heap down to the first candidate that fits: past a few
entries the scan's answer is computed from the coverage vector in one
numpy pass.  The answer — ``(node, cov, marginal, drop)`` and every
``state.active`` transition — may not move, so the walk lives on here,
unoptimized and obviously Algorithm 3, and
``test_selector_equivalence.py`` holds the shipped selector equal to it
call by call.  The three method bodies are untouched but for their
argument plumbing: the run state they took as arguments is the
session's own.

:func:`make_session` is how the tests build sessions — this subclass,
the shipped class, or a test's own override — over a real engine or,
for selector questions about hand-built per-ad states, over none.
"""

from __future__ import annotations

import heapq
import math
from types import SimpleNamespace

import numpy as np

from repro.advertising.regret import regret_of
from repro.algorithms.greedy import _beats
from repro.algorithms.session import AllocationSession, _AdState


def make_session(problem, config, session_class=AllocationSession, engine=None):
    """``session_class(problem, config)`` over ``engine``.

    Without an engine the session gets a stand-in that holds no sets:
    enough for the selector and θ methods on states a test builds by
    hand, which never sample.  ``problem`` then needs only what those
    methods read, plus ``num_ads``, ``num_nodes`` and a ``catalog`` with
    ``budgets()`` and ``cpes()``.
    """
    if engine is None:
        engine = SimpleNamespace(num_ads=problem.num_ads, total_sets=lambda: 0)
    return session_class(problem, config, engine=engine)


class ReferenceSelector(AllocationSession):
    """TIRM with the heap-walking candidate scan of commit c3d1ac2."""

    def _pop_fresh(self, ad: int, state: _AdState):
        """Pop the eligible node with the largest *fresh* score.

        Scores only decrease between heap rebuilds (covered sets are
        removed), so re-pushing stale entries with their current score is
        sound.  Returns ``(node, coverage, score)`` or ``None`` when no
        eligible node with positive score remains.
        """
        problem, allocation = self.problem, self.allocation
        heap = state.heap
        while heap:
            neg_score, node = heap[0]
            if not allocation.can_assign(node, ad, problem.attention):
                heapq.heappop(heap)
                continue
            cov = state.collection.coverage_of(node)
            current = self._score(ad, node, cov)
            if current <= 0.0:
                heapq.heappop(heap)
                continue
            if math.isclose(current, -neg_score, rel_tol=1e-12, abs_tol=1e-12):
                heapq.heappop(heap)
                return node, cov, current
            heapq.heapreplace(heap, (-current, node))
        return None

    def _best_candidate(self, ad: int, state: _AdState):
        """Argmax-drop candidate for one ad: ``(node, cov, marginal, drop)``.

        With the default ``weighted`` rule, candidates come off the heap
        in decreasing marginal-revenue order, so drops first rise toward
        the remaining budget and then only shrink — the scan stops at
        the first candidate whose marginal fits within the remaining
        budget (exact argmax, same argument as Algorithm 1's greedy).
        The ``coverage`` rule reproduces the literal Algorithm 3: only
        the single top-coverage node is considered.

        When the top of the heap overshoots and lowers nothing, the scan
        first asks :meth:`_some_node_lowers_regret`; an ad no node can
        help is retired instead of having its whole heap popped and
        pushed back on this and every later iteration.
        """
        problem, budgets = self.problem, self.budgets
        remaining = budgets[ad] - state.revenue
        if remaining <= 0:
            return None
        num_seeds = len(state.seeds_in_order)
        scanned: list[tuple[float, int]] = []
        best = None
        best_drop = 0.0
        best_fits = False
        while True:
            top = self._pop_fresh(ad, state)
            if top is None:
                if not scanned and best is None:
                    state.active = False
                break
            node, cov, score = top
            scanned.append((-score, node))
            marginal = self._marginal_revenue(ad, state, node, cov)
            drop = regret_of(
                budgets[ad], state.revenue, problem.penalty, num_seeds
            ) - regret_of(
                budgets[ad], state.revenue + marginal, problem.penalty, num_seeds + 1
            )
            fits = marginal <= remaining
            if drop > 1e-12 and _beats(drop, fits, best_drop, best_fits):
                best = (node, cov, marginal, drop)
                best_drop, best_fits = drop, fits
            if self.config.select_rule == "coverage" or fits:
                break
            if (
                best is None
                and len(scanned) == 1
                and not self._some_node_lowers_regret(ad, state)
            ):
                # The answer stands: this ad's coverage, revenue and θ
                # change only when it takes a seed, it has none to offer,
                # and other ads' picks only make users ineligible.
                state.active = False
                break
        for entry in scanned:
            heapq.heappush(state.heap, entry)
        return best

    def _some_node_lowers_regret(self, ad: int, state: _AdState) -> bool:
        """Whether any node at all passes :meth:`_best_candidate`'s
        ``drop > 1e-12`` test: its drops over the whole coverage vector
        at once, the same operations in the same order — O(n) numpy
        where popping the heap down to the answer is O(n log n) Python.
        """
        problem, budgets, cpes = self.problem, self.budgets, self.cpes
        num_seeds = len(state.seeds_in_order)
        marginals = (
            cpes[ad] * problem.num_nodes * problem.ctps[ad]
            * state.collection.coverage() / state.theta
        )
        after = (
            np.abs(float(budgets[ad]) - (state.revenue + marginals))
            + float(problem.penalty) * (num_seeds + 1)
        )
        before = regret_of(budgets[ad], state.revenue, problem.penalty, num_seeds)
        return bool(((before - after) > 1e-12).any())
