"""TIRM (Algorithms 2–4)."""

import ctypes

import numpy as np
import pytest

from repro._native import library
from repro.advertising.advertiser import Advertiser
from repro.advertising.attention import AttentionBounds
from repro.advertising.catalog import AdCatalog
from repro.advertising.problem import AdAllocationProblem
from repro.algorithms.session import AllocationSession, _SelectView, _StepTable
from repro.algorithms.tirm import TIRMAllocator
from repro.datasets.toy import figure1_problem
from repro.errors import ConfigurationError
from repro.graph.digraph import DirectedGraph
from repro.evaluation.evaluator import RegretEvaluator
from repro.graph.generators import erdos_renyi, star_graph
from repro.graph.probabilities import constant_probabilities
from repro.rrset.sampler import RRSetSampler
from repro.rrset.sharded import ShardedSamplingEngine

from tests.algorithms._reference_selector import (
    ReferenceSelector,
    make_session,
    select_candidate,
)


def _compiled_choice(answers):
    """The node ``repro_select_step`` picks among kept answers, one
    ``(drop, node)`` per ad in ad order."""
    views = [
        _SelectView(active=1, stale=0, node=node, drop=drop, top=-1, fit=-1)
        for drop, node in answers
    ]
    ads = (ctypes.c_void_p * len(views))(*map(ctypes.addressof, views))
    table = _StepTable(ads=ctypes.addressof(ads), count=len(views), limit=1)
    assert library().repro_select_step(ctypes.addressof(table)) == 1
    picked = views[table.chosen].node
    # The pick makes stale exactly the answers that name its node.
    assert [view.stale for view in views] == [view.node == picked for view in views]
    return picked


def tirm(**kwargs):
    defaults = dict(seed=0, initial_pilot=500, max_rr_sets_per_ad=8_000)
    defaults.update(kwargs)
    return TIRMAllocator(**defaults)


class TestConfiguration:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"epsilon": 0.0},
            {"epsilon": 1.0},
            {"ell": 0.0},
            {"select_rule": "banana"},
            {"min_rr_sets_per_ad": 0},
            {"min_rr_sets_per_ad": 10, "max_rr_sets_per_ad": 5},
            {"ell": float("nan")},
            {"ell": float("inf")},
            {"min_rr_sets_per_ad": float("nan")},
        ],
    )
    def test_rejects_bad_params(self, kwargs):
        with pytest.raises(ConfigurationError):
            TIRMAllocator(**kwargs)

    def test_nan_edge_probability_refused(self):
        """A NaN probability is refused where the problem is built, and
        a built problem's matrix can be neither written nor made
        writable again.  The engine TIRM builds refuses a NaN row too,
        at construction, before a set is drawn."""
        problem = figure1_problem()
        probs = problem.edge_probabilities.copy()
        probs[0, 0] = np.nan
        with pytest.raises(ValueError, match="edge_probabilities.*NaN"):
            AdAllocationProblem(
                problem.graph, problem.catalog, probs, problem.ctps,
                problem.attention, problem.penalty,
            )
        with pytest.raises(ValueError, match="read-only"):
            problem.edge_probabilities[0, 0] = np.nan
        with pytest.raises(ValueError, match="WRITEABLE"):
            problem.edge_probabilities.flags.writeable = True
        with pytest.raises(ValueError, match="edge_probabilities.*NaN"):
            ShardedSamplingEngine(problem.graph, list(probs), seeds=1)
        with pytest.raises(ValueError, match="edge_probabilities.*NaN"):
            RRSetSampler(problem.graph, probs[0])


class TestToyBehaviour:
    def test_beats_myopic_on_figure1(self):
        from repro.algorithms.myopic import MyopicAllocator

        problem = figure1_problem()
        evaluator = RegretEvaluator(problem, num_runs=2_000, seed=9)
        tirm_report = evaluator.evaluate(tirm().allocate(problem).allocation)
        myopic_report = evaluator.evaluate(MyopicAllocator().allocate(problem).allocation)
        assert tirm_report.total_regret < myopic_report.total_regret

    def test_valid_allocation(self):
        problem = figure1_problem()
        result = tirm().allocate(problem)
        assert result.allocation.is_valid(problem.attention)

    def test_deterministic_under_seed(self):
        problem = figure1_problem()
        a = tirm(seed=5).allocate(problem)
        b = tirm(seed=5).allocate(problem)
        assert a.allocation == b.allocation
        assert np.allclose(a.estimated_revenues, b.estimated_revenues)

    def test_stats_shape(self):
        problem = figure1_problem()
        result = tirm().allocate(problem)
        assert len(result.stats["theta_per_ad"]) == problem.num_ads
        assert result.stats["total_rr_sets"] >= problem.num_ads * 500
        assert result.stats["rr_memory_bytes"] > 0

    def test_coverage_rule_runs(self):
        problem = figure1_problem()
        result = tirm(select_rule="coverage").allocate(problem)
        assert result.allocation.is_valid(problem.attention)


class TestBudgetTracking:
    def test_internal_estimates_near_budgets_when_feasible(self):
        """On a graph with plenty of independent nodes and CTP 1, TIRM's
        internal revenue estimates should land within one marginal gain
        of each budget."""
        graph = erdos_renyi(120, 0.01, seed=3)
        catalog = AdCatalog(
            [Advertiser(name=f"a{i}", budget=8.0, cpe=1.0) for i in range(2)]
        )
        problem = AdAllocationProblem(
            graph,
            catalog,
            constant_probabilities(graph, 0.05),
            1.0,
            AttentionBounds.uniform(120, 2),
        )
        result = tirm().allocate(problem)
        for ad in range(2):
            assert result.estimated_revenues[ad] == pytest.approx(8.0, abs=2.5)

    def test_seed_size_estimates_grow(self):
        graph = erdos_renyi(120, 0.01, seed=4)
        catalog = AdCatalog([Advertiser(name="a", budget=10.0, cpe=1.0)])
        problem = AdAllocationProblem(
            graph,
            catalog,
            constant_probabilities(graph, 0.02),
            1.0,
            AttentionBounds.uniform(120, 1),
        )
        result = tirm().allocate(problem)
        # ~10 seeds needed; s must have been revised beyond its initial 1
        assert result.stats["seed_size_estimates"][0] > 1
        assert result.allocation.seed_counts()[0] >= 5

    def test_hub_not_picked_when_it_overshoots(self):
        """Star hub has spread 21 but budget is 2: TIRM must prefer
        leaves (spread 1 each) to the hub."""
        graph = star_graph(20)
        catalog = AdCatalog([Advertiser(name="a", budget=2.0, cpe=1.0)])
        problem = AdAllocationProblem(
            graph,
            catalog,
            constant_probabilities(graph, 1.0),
            1.0,
            AttentionBounds.uniform(21, 1),
        )
        result = tirm().allocate(problem)
        assert 0 not in result.allocation.seeds(0)
        assert result.estimated_regret().total < 1.0


class TestTieBreaking:
    """Near-ties in the cross-ad argmax must not resolve by catalog order."""

    @staticmethod
    def _two_ad_problem(ctps_rows):
        """Two mutually-linked users with p=1: every RR-set is {0, 1}, so
        coverage is θ for both nodes and all marginals are exact — the
        only noise left is the crafted sub-1e-12 gap in the CTPs."""
        graph = DirectedGraph(2, [0, 1], [1, 0])
        catalog = AdCatalog(
            [Advertiser(name=name, budget=100.0, cpe=1.0) for name, _ in ctps_rows]
        )
        return AdAllocationProblem(
            graph,
            catalog,
            np.ones((2, 2)),
            np.asarray([row for _, row in ctps_rows]),
            AttentionBounds.uniform(2, 1),
        )

    def test_near_tie_is_permutation_invariant(self):
        """Ads A and B both want node 0 with drops 4e-13 apart — inside
        the float-noise band the old rule resolved by scan order, so
        permuting the catalog changed the allocation and the regret.
        The (drop, node, raw-drop) cascade must give ad A (whose raw
        drop is exactly larger) node 0 under either catalog order."""
        a = ("A", [1.0, 0.9])
        b = ("B", [1.0 - 2e-13, 0.3])
        kwargs = dict(
            seed=0, initial_pilot=100, min_rr_sets_per_ad=100,
            max_rr_sets_per_ad=500, epsilon=0.3,
        )
        first = TIRMAllocator(**kwargs).allocate(self._two_ad_problem([a, b]))
        second = TIRMAllocator(**kwargs).allocate(self._two_ad_problem([b, a]))
        # map positions back to advertiser identity: A is 0 then 1
        assert first.allocation.seeds(0) == second.allocation.seeds(1)
        assert first.allocation.seeds(1) == second.allocation.seeds(0)
        assert first.estimated_revenues[0] == second.estimated_revenues[1]
        assert first.estimated_revenues[1] == second.estimated_revenues[0]
        # the exactly-larger raw drop wins the contested node either way
        assert 0 in first.allocation.seeds(0)
        assert 0 in second.allocation.seeds(1)
        assert first.estimated_regret().total == second.estimated_regret().total

    def test_selection_is_scan_order_independent(self):
        """Pairwise ε-comparisons are not transitive: drops can chain
        across the 1e-12 band (a≈b, b≈c, a<c).  The compiled step's
        anchored-max rule must pick the same candidate under every
        order of the ads — the one the reference rule picks."""
        import itertools

        chain = [(1.0, 0), (1.0 + 8e-13, 5), (1.0 + 1.6e-12, 9)]
        picks = {
            _compiled_choice(list(perm))
            for perm in itertools.permutations(chain)
        }
        assert picks == {5}
        reference = select_candidate(
            [(drop, node, 10, ad) for ad, (drop, node) in enumerate(chain)]
        )
        assert reference[1] == 5

    def test_distinct_node_ties_prefer_smaller_node(self):
        """When tied candidates propose different nodes, the smaller node
        id wins regardless of which ad scanned first."""
        a = ("A", [0.8, 1.0])
        b = ("B", [1.0, 0.8])
        kwargs = dict(
            seed=0, initial_pilot=100, min_rr_sets_per_ad=100,
            max_rr_sets_per_ad=500, epsilon=0.3,
        )
        # A's best is node 1, B's best is node 0, scores exactly equal:
        # node 0 must be assigned first under both catalog orders.
        first = TIRMAllocator(**kwargs).allocate(self._two_ad_problem([a, b]))
        second = TIRMAllocator(**kwargs).allocate(self._two_ad_problem([b, a]))
        assert first.allocation.seeds(1) == {0}
        assert second.allocation.seeds(0) == {0}
        assert first.allocation.seeds(0) == {1}
        assert second.allocation.seeds(1) == {1}


class TestPenalty:
    def test_penalty_reduces_seed_usage(self):
        problem = figure1_problem()
        free = tirm().allocate(problem)
        taxed = tirm().allocate(problem.with_penalty(0.5))
        assert taxed.allocation.total_seeds() <= free.allocation.total_seeds()


class TestAttention:
    def test_attention_bound_shared_across_ads(self):
        """With κ=1 a user can serve only one ad even if both want it."""
        graph = star_graph(6)
        catalog = AdCatalog(
            [
                Advertiser(name="a", budget=6.0, cpe=1.0),
                Advertiser(name="b", budget=6.0, cpe=1.0),
            ]
        )
        problem = AdAllocationProblem(
            graph,
            catalog,
            constant_probabilities(graph, 1.0),
            1.0,
            AttentionBounds.uniform(7, 1),
        )
        result = tirm().allocate(problem)
        assert result.allocation.is_valid(problem.attention)
        # the hub (spread 7 > budget...) — regardless of who gets what,
        # no user may appear in both seed sets
        overlap = result.allocation.seeds(0) & result.allocation.seeds(1)
        assert overlap == frozenset()


class _FullScan(ReferenceSelector):
    """The selector as a plain heap walk, without even the end-game
    question: every scan pops the heap down to the answer, as if some
    node could always help."""

    def _some_node_lowers_regret(self, ad, state):
        return True


def _count_steps(monkeypatch, session):
    """Per compiled ``SELECT`` step, per ad: ``(active, stale)`` as the
    step found the ad's view, and the asks and fresh-entry searches the
    step made of it — read off the views' counters."""
    steps = []
    lib = library()
    step = lib.repro_select_step

    def counting_step(address):
        views = [state.heap.view for state in session.states]
        before = [(v.active, v.stale, v.calls, v.pops) for v in views]
        found = step(address)
        steps.append([
            (bool(active), bool(stale), v.calls - calls, v.pops - pops)
            for (active, stale, calls, pops), v in zip(before, views)
        ])
        return found

    monkeypatch.setattr(lib, "repro_select_step", counting_step)
    return steps


class TestEndGame:
    """An ad that stopped short of its budget with nothing left to gain
    is asked once and retired — not re-scanned on every later iteration
    — and the allocation cannot tell."""

    KWARGS = dict(seed=3, epsilon=0.3, max_rr_sets_per_ad=3_000)

    @staticmethod
    def _problem(penalty=0.0):
        from repro.datasets import flixster_like

        return flixster_like(scale=0.02, num_ads=4).with_penalty(penalty)

    @pytest.mark.parametrize("penalty", [0.0, 0.05])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_allocation_is_the_full_scans(self, seed, penalty):
        problem = self._problem(penalty)
        kwargs = {**self.KWARGS, "seed": seed}
        retiring = TIRMAllocator(**kwargs).allocate(problem)
        allocator = TIRMAllocator(**kwargs)
        with allocator._build_engine(problem, None) as engine:
            scanning = make_session(problem, allocator, _FullScan, engine).run()
        assert retiring.stats["iterations"] == scanning.stats["iterations"]
        for ad in range(problem.num_ads):
            assert retiring.allocation.seeds(ad) == scanning.allocation.seeds(ad)
        assert retiring.estimated_revenues.tolist() == scanning.estimated_revenues.tolist()

    def test_a_fruitless_scan_stops_at_the_top_of_the_heap(self, monkeypatch):
        """Counts, not seconds: each step asks exactly the active ads
        whose kept answer is stale, no ask walks the heap past the
        switch count (one more fresh-entry search may find it empty), a
        retired ad is not asked again, and the run asks and pops a
        fraction of what asking every ad on every step did."""
        from repro.algorithms import session as session_module

        problem = self._problem()
        allocator = TIRMAllocator(**self.KWARGS)
        with allocator._build_engine(problem, None) as engine:
            session = AllocationSession(problem, allocator, engine=engine)
            steps = _count_steps(monkeypatch, session)
            result = session.run()
        assert len(steps) == result.stats["iterations"] + 1
        for step in steps:
            for active, stale, asked, _ in step:
                assert asked == (active and stale)
        asks = [(asks, popped) for step in steps for _, _, asks, popped in step]
        limit = session_module._walk_limit(problem.num_nodes)
        assert max(popped for _, popped in asks) <= limit + 1
        # Asking every active ad on every step made 267 asks; the
        # parent of the compiled selector (commit c3d1ac2) popped 26 042
        # entries over them, 523 in the deepest one.
        assert sum(asked for asked, _ in asks) == 71
        assert sum(popped for _, popped in asks) < 26_042 // 10
        # Retirement is for good, and the instance has some.
        active = [[flag for flag, _, _, _ in step] for step in steps]
        assert any(not all(flags) for flags in active), (
            "the instance must leave some ad short of its budget"
        )
        for before, after in zip(active, active[1:]):
            assert all(a <= b for a, b in zip(after, before))

    def test_the_question_is_the_scans_own_arithmetic(self, monkeypatch):
        """The compiled pass must pick with the marginals and drops the
        walk computes one at a time, and decide "no node lowers regret"
        as the walk's drops do, including on the ``2·remaining`` edge
        where the drop is 0.  ``_WALK_BASE = 0`` makes every call a
        pass (``n // 200`` is 0 here)."""
        import itertools

        from repro.advertising.regret import regret_of
        from repro.algorithms import session as session_module
        from repro.algorithms.session import _AdState

        monkeypatch.setattr(session_module, "_WALK_BASE", 0)

        class _Pool:
            def __init__(self, coverage, theta):
                self._coverage, self.num_total = coverage, theta

            def coverage(self):
                return self._coverage

        rng = np.random.default_rng(0)
        answers = set()
        cases = itertools.product(
            (0.0, 0.3), (0, 2), (0.0, 38.5, 39.45, 39.999999999999)
        )
        on_the_edge = 0
        for trial, (penalty, num_seeds, revenue) in enumerate(cases):
            n = 50
            graph = erdos_renyi(n, 0.05, seed=trial)
            ctps = rng.uniform(0.01, 1.0, size=(1, n))
            # Node 0 at coverage 40: marginal 1.5·50·1·40/1000 = 3 exactly,
            # twice the 1.5 that a revenue of 38.5 leaves.
            ctps[0, 0] = 1.0
            problem = AdAllocationProblem(
                graph,
                AdCatalog([Advertiser(name="a", budget=40.0, cpe=1.5)]),
                constant_probabilities(graph, 0.1),
                ctps,
                AttentionBounds.uniform(n, 1),
                penalty,
            )
            session = make_session(problem, TIRMAllocator(seed=0))
            budgets = session.budgets
            edge = rng.integers(0, 400, size=n)
            edge[0] = 40
            for coverage in (
                edge,
                rng.integers(300, 400, size=n),   # every marginal far too big
                np.zeros(n, dtype=np.int64),
            ):
                state = _AdState(collection=_Pool(coverage, 1_000))
                state.revenue = revenue
                state.seeds_in_order = list(range(num_seeds))
                before = regret_of(budgets[0], revenue, penalty, num_seeds)
                marginal = [
                    session._marginal_revenue(0, state, node, int(coverage[node]))
                    for node in range(n)
                ]
                scalar = [
                    before - regret_of(
                        budgets[0], revenue + marginal[node], penalty, num_seeds + 1
                    )
                    for node in range(n)
                ]
                on_the_edge += coverage is edge and scalar[0] == 0.0
                session._rebuild_heap(0, state)
                answer = session._best_candidate(0, state)
                assert state.heap.view.passes == 1
                lowers = any(drop > 1e-12 for drop in scalar)
                if answer is not None:
                    node = answer[0]
                    assert answer == (
                        node, int(coverage[node]), marginal[node], scalar[node]
                    )
                    assert lowers and state.active
                elif not lowers:
                    # Retired unless the top entry fits (with every user
                    # eligible, the top is the largest positive score).
                    scores = problem.ctps[0] * coverage
                    top = int(np.argmax(scores))
                    fits = marginal[top] <= budgets[0] - revenue
                    assert state.active == bool(scores[top] > 0 and fits)
                answers.add((answer is not None, lowers, state.active))
        assert {(True, True, True), (False, False, False)} <= answers
        assert on_the_edge == 2  # revenue 38.5, λ = 0, either seed count


class TestCheckpointKnobValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"chunk_size": 0},
            {"rng": "mersenne"},
            {"max_workers": 0},
            {"max_workers": -4},
            {"checkpoint_every": 0, "checkpoint_path": "x.json"},
            {"checkpoint_every": 2},  # every without a path
            {"max_iterations": 0},
        ],
    )
    def test_rejects_bad_knobs_at_the_boundary(self, kwargs):
        with pytest.raises(ConfigurationError):
            TIRMAllocator(**kwargs)

    def test_checkpoint_path_defaults_every_to_one(self, tmp_path):
        allocator = TIRMAllocator(checkpoint_path=tmp_path / "ck.json")
        assert allocator.checkpoint_every == 1
        assert TIRMAllocator().checkpoint_every is None
