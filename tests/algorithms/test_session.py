"""AllocationSession: the TIRM loop as an externally driven machine.

The batch facade's equivalence is covered by tests/rrset/test_equivalence;
here the *session* semantics are on trial: state progression, progress
snapshots, boundary cancellation, terminal absorption, error capture,
and the injected-engine contract (never closed, must start empty).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.advertising.advertiser import Advertiser
from repro.advertising.attention import AttentionBounds
from repro.advertising.catalog import AdCatalog
from repro.advertising.problem import AdAllocationProblem
from repro.algorithms.session import (
    CANCELLED,
    DONE,
    ESTIMATE_THETA,
    FAILED,
    GROW,
    PILOT,
    SELECT,
    TERMINAL_STATES,
    AllocationSession,
)
from repro.algorithms.tirm import TIRMAllocator
from repro.errors import SessionError
from repro.graph.generators import erdos_renyi
from repro.graph.probabilities import constant_probabilities

from tests.algorithms._reference_selector import make_session


def _problem(seed: int = 0, num_ads: int = 3, budget: float = 6.0):
    graph = erdos_renyi(60, 0.05, seed=seed)
    catalog = AdCatalog(
        [Advertiser(name=f"a{i}", budget=budget, cpe=1.0) for i in range(num_ads)]
    )
    return AdAllocationProblem(
        graph,
        catalog,
        constant_probabilities(graph, 0.08),
        0.4,
        AttentionBounds.uniform(graph.num_nodes, num_ads),
    )


def _allocator(**kwargs):
    kwargs.setdefault("seed", 0)
    kwargs.setdefault("max_rr_sets_per_ad", 1_000)
    return TIRMAllocator(**kwargs)


def _session(problem, allocator, session_class=AllocationSession):
    engine = allocator._build_engine(problem, None, None)
    return engine, make_session(problem, allocator, session_class, engine)


class TestStateMachine:
    def test_progression_pilot_theta_select(self):
        problem = _problem()
        engine, session = _session(problem, _allocator())
        with engine:
            assert session.state == PILOT
            session.step()
            assert session.state == ESTIMATE_THETA
            assert engine.total_sets() > 0
            session.step()
            assert session.state == SELECT
            while session.state not in TERMINAL_STATES:
                assert session.state in (SELECT, GROW)
                session.step()
            assert session.state == DONE

    def test_run_matches_batch_facade(self):
        problem = _problem()
        batch = _allocator(dsan=True).allocate(problem)
        allocator = _allocator(dsan=True)
        engine, session = _session(problem, allocator)
        with engine:
            result = session.run()
        assert result.allocation == batch.allocation
        assert result.stats["dsan_root"] == batch.stats["dsan_root"]
        assert np.array_equal(result.estimated_revenues, batch.estimated_revenues)
        assert result.stats["theta_per_ad"] == batch.stats["theta_per_ad"]

    def test_terminal_states_are_absorbing(self):
        problem = _problem()
        engine, session = _session(problem, _allocator())
        with engine:
            result = session.run()
            iterations = session.iterations
            snapshot = session.step()  # no-op
            assert session.state == DONE
            assert session.iterations == iterations
            assert snapshot["state"] == DONE
            assert session.result() is result

    def test_session_never_closes_the_engine(self):
        problem = _problem()
        engine, session = _session(problem, _allocator())
        with engine:
            session.run()
            assert engine._finalizer.alive  # still usable after the run

    def test_step_snapshots_carry_progress(self):
        problem = _problem()
        engine, session = _session(problem, _allocator())
        with engine:
            first = session.step()
            assert first["state"] == ESTIMATE_THETA
            assert first["total_seeds"] == 0
            # Once per-ad state exists the snapshot is checkpoint-shaped.
            second = session.step()
            for key in ("theta", "seeds", "revenue", "active", "config"):
                assert key in second, key
            final = session.run()
            stats = final.stats
            assert stats["iterations"] == session.iterations > 0

    def test_run_builds_no_snapshot(self, monkeypatch):
        """``step()`` returns a checkpoint-shaped snapshot per
        transition; ``run()`` — the batch facade's loop — has no reader
        for one and builds none unless a checkpoint path asks."""
        from repro.algorithms import session as session_module

        built = []
        build = session_module.build_snapshot

        def spy(**kwargs):
            built.append(kwargs["iterations"])
            return build(**kwargs)

        monkeypatch.setattr(session_module, "build_snapshot", spy)
        problem = _problem()
        result = _allocator().allocate(problem)
        assert result.stats["iterations"] > 0 and built == []
        engine, session = _session(problem, _allocator())
        steps = 0
        with engine:
            while session.state not in TERMINAL_STATES:
                session.step()
                steps += 1
        assert len(built) == steps > session.iterations

    def test_a_capped_ad_is_not_re_estimated(self, monkeypatch):
        """θ_i is clamped to ``max_rr_sets_per_ad``: once an ad sits at
        the cap no growth event can raise its target, so the greedy
        pilot cover that would compute one runs once per ad — from
        ``ESTIMATE_THETA`` — and never again, while ``s_i`` still
        advances."""
        from repro.algorithms import session as session_module

        covers = []
        cover = session_module.estimate_opt_lower_bound

        def spy(pilot, n, s):
            covers.append(s)
            return cover(pilot, n, s)

        monkeypatch.setattr(session_module, "estimate_opt_lower_bound", spy)
        problem = _problem()
        # min = max: the cap binds at θ(1) whatever the pilot estimates.
        result = _allocator(
            min_rr_sets_per_ad=600, max_rr_sets_per_ad=600
        ).allocate(problem)
        assert result.stats["theta_per_ad"] == [600] * problem.num_ads
        assert max(result.stats["seed_size_estimates"]) > 1, "no growth event ran"
        assert covers == [1] * problem.num_ads


class TestCancellation:
    def test_cancel_before_loop_returns_empty_truncated(self):
        problem = _problem()
        engine, session = _session(problem, _allocator())
        with engine:
            session.request_cancel()
            result = session.run()
        assert session.state == CANCELLED
        assert result.stats["truncated"] is True
        assert result.allocation.total_seeds() == 0

    def test_cancel_mid_grow_matches_max_iterations_truncation(self):
        """Cancel requested while the machine sits in GROW lands at the
        post-growth boundary — byte-identical to a batch run truncated
        by ``max_iterations`` at the same iteration count."""
        problem = _problem()
        allocator = _allocator()
        engine, session = _session(problem, allocator)
        with engine:
            while session.state != GROW:
                session.step()
                assert session.state not in TERMINAL_STATES, (
                    "fixture never grew; enlarge the problem"
                )
            k = session.iterations
            session.request_cancel()
            result = session.run()
        assert session.state == CANCELLED
        assert result.stats["truncated"] is True
        assert result.stats["iterations"] == k
        batch = _allocator(max_iterations=k).allocate(problem)
        assert result.allocation == batch.allocation
        assert np.array_equal(
            result.estimated_revenues, batch.estimated_revenues
        )

    def test_cancel_helper_drives_to_terminal(self):
        problem = _problem()
        engine, session = _session(problem, _allocator())
        with engine:
            session.step()
            result = session.cancel()
        assert session.state == CANCELLED
        assert result.stats["truncated"] is True


class TestErrors:
    def test_requires_matching_engine_shape(self):
        problem = _problem(num_ads=3)
        other = _problem(num_ads=2)
        allocator = _allocator()
        engine = allocator._build_engine(other, None, None)
        with engine:
            with pytest.raises(SessionError, match="shards"):
                AllocationSession(problem, allocator, engine=engine)

    def test_requires_empty_engine_when_fresh(self):
        problem = _problem()
        allocator = _allocator()
        engine = allocator._build_engine(problem, None, None)
        with engine:
            engine.ensure({0: 32})
            with pytest.raises(SessionError, match="reset_for_reuse"):
                AllocationSession(problem, allocator, engine=engine)

    def test_result_before_terminal_raises(self):
        problem = _problem()
        engine, session = _session(problem, _allocator())
        with engine:
            with pytest.raises(SessionError, match="no result"):
                session.result()

    def test_step_failure_lands_in_failed_state(self):
        class Exploding(AllocationSession):
            def _rebuild_heap(self, ad, state):
                raise ValueError("boom")

        problem = _problem()
        engine, session = _session(problem, _allocator(), Exploding)
        with engine:
            with pytest.raises(ValueError, match="boom"):
                session.run()
        assert session.state == FAILED
        assert session.error is not None
        with pytest.raises(SessionError, match="failed"):
            session.result()


class TestAlgorithm4Recredit:
    """After a GROW top-up, every seed's marginal coverage is what a
    from-scratch recount over the grown sample gives, and each ad's
    revenue is the Theorem-5 value of that recount (Algorithm 4)."""

    @staticmethod
    def _recount(state) -> dict[int, int]:
        """Credit each set in ``[0, θ)`` to the first seed, in selection
        order, that it contains."""
        view = state.collection.prefix_view()
        members, indptr = view.members, view.indptr
        credit = dict.fromkeys(state.seeds_in_order, 0)
        for j in range(state.theta):
            contained = set(members[indptr[j]:indptr[j + 1]].tolist())
            for seed in state.seeds_in_order:
                if seed in contained:
                    credit[seed] += 1
                    break
        return credit

    def test_every_grow_recredits_to_a_from_scratch_recount(self):
        problem = _problem(seed=2, num_ads=2, budget=12.0)
        allocator = _allocator(
            initial_pilot=64, min_rr_sets_per_ad=64,
            max_rr_sets_per_ad=100_000, chunk_size=32,
        )
        engine, session = _session(problem, allocator)
        # θ = 128·s grows with s and never reaches the cap, so every
        # GROW step tops its ad up and re-credits the existing seeds.
        session._theta_for = lambda state, s: 128 * s
        cpes = problem.catalog.cpes()
        grows = 0
        with engine:
            while session.state not in TERMINAL_STATES:
                if session.state != GROW:
                    session.step()
                    continue
                grown = session._pending_growth[0]
                before = session.states[grown].theta
                session.step()
                assert session.states[grown].theta > before  # the top-up sampled
                grows += 1
                for ad, state in enumerate(session.states):
                    recount = self._recount(state)
                    assert state.marginal_coverage == recount, ad
                    delta = problem.ad_ctps(ad)
                    revenue = sum(
                        cpes[ad] * problem.num_nodes * delta[node] * count / state.theta
                        for node, count in recount.items()
                    )
                    assert state.revenue == pytest.approx(revenue, rel=1e-12), ad
        assert session.state == DONE
        assert grows >= 4
