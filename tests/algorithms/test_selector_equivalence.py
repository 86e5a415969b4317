"""The shipped candidate scan equals the heap walk it replaced.

``AllocationSession._best_candidate`` walks a few heap entries and then
computes the scan from the coverage vector;
``tests/algorithms/_reference_selector.py`` is the earlier scan that
pops the heap down to the answer.  Both are driven from the same
synthetic per-ad state and must return the same ``(node, cov, marginal,
drop)``, leave the same ``state.active``, and — the heap left behind
being a valid lazy heap — answer a second call the same way.  The
states are built to land on the scan's edges: exact score ties, zero
coverage and zero CTP, ineligible would-be winners, a remaining budget
of nothing / next to nothing / exactly one marginal, marginals on the
``2·remaining − λ`` edge where a drop is 0, drops inside ``_beats``'s
1e-12 band, stale heap keys.
"""

from __future__ import annotations

import copy
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.advertising.attention import AttentionBounds
from repro.algorithms import session as session_module
from repro.algorithms.session import AllocationSession, _AdState
from repro.algorithms.tirm import TIRMAllocator

from tests.algorithms._reference_selector import ReferenceSelector, make_session

BUDGET = 24.0
#: ``cpe · n / θ`` is 1 (θ = CPE · n below), so a marginal is ``ctp · cov``
#: up to rounding, and dyadic CTPs make the engineered edges exact.
CPE = 10.0
#: Repeated and near-equal products: 0.1·6, 0.2·3, 0.3·2, 0.6·1 and 0.15·4
#: agree to within 2e-16 without being equal; the last entry puts two
#: marginals, hence two drops, inside one 1e-12 band.
CTPS = (0.0, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.5, 0.6, 1.0, 0.5 + 1e-13)


class _Pool:
    """The two reads the selector makes of an ad's RR-set pool."""

    def __init__(self, coverage: np.ndarray, theta: int) -> None:
        self._coverage, self.num_total = coverage, theta

    def coverage(self) -> np.ndarray:
        return self._coverage

    def coverage_of(self, node: int) -> int:
        return int(self._coverage[node])


@st.composite
def cases(draw):
    n = draw(st.integers(1, 40))
    # A few values per case, so scores, marginals and drops repeat.
    ctp_menu = draw(st.lists(st.sampled_from(CTPS), min_size=1, max_size=3))
    cov_menu = draw(st.lists(st.integers(0, 12), min_size=1, max_size=4))
    ctps = np.asarray([draw(st.sampled_from(ctp_menu)) for _ in range(n)])
    coverage = np.asarray(
        [draw(st.sampled_from(cov_menu)) for _ in range(n)], dtype=np.int64
    )
    # Keys in the heap are scores at an earlier, larger coverage.
    stale = coverage + np.asarray(
        [draw(st.sampled_from((0, 0, 0, 1, 5))) for _ in range(n)]
    )
    penalty = draw(st.sampled_from((0.0, 0.05, 0.3)))
    marginals = CPE * n * ctps * coverage / (int(CPE) * n)
    pivot = float(marginals[draw(st.integers(0, n - 1))])
    remaining = draw(st.one_of(
        st.sampled_from((0.0, -1.0, 5e-13, 1e-6, BUDGET)),
        st.sampled_from((
            pivot,                          # the pivot fits exactly
            pivot - 1e-13,                  # ... overshoots by a hair
            (pivot + penalty) / 2,          # its drop is 0
            (pivot + penalty) / 2 + 3e-13,  # ... is inside the band
            (pivot + penalty) / 2 - 3e-13,
        )),
        st.floats(0.01, 8.0),
    ))
    # Either way ``budget − revenue`` is about ``remaining``; with no
    # revenue it is ``remaining`` to the bit, and the edges are exact.
    budget, revenue = draw(st.sampled_from(
        ((remaining, 0.0), (BUDGET, BUDGET - remaining))
    ))
    taken = draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n // 2 + 1))
    if draw(st.booleans()) and marginals.any():
        # The node the scan would most likely return, made ineligible.
        taken = sorted(set(taken) | {int(np.argmax(marginals))})
    own = [node for node in taken if draw(st.booleans())]
    rule = draw(st.sampled_from(("weighted", "weighted", "coverage")))
    return n, ctps, coverage, stale, penalty, budget, revenue, taken, own, rule


def _build(session_class, case):
    n, ctps, coverage, stale, penalty, budget, revenue, taken, own, rule = case
    problem = SimpleNamespace(
        num_ads=2,
        num_nodes=n,
        ctps=ctps[None, :],
        penalty=penalty,
        attention=AttentionBounds.uniform(n, 1),
        catalog=SimpleNamespace(
            budgets=lambda: np.asarray([budget, 1.0]),
            cpes=lambda: np.asarray([CPE, 1.0]),
        ),
    )
    session = make_session(problem, TIRMAllocator(select_rule=rule), session_class)
    # Ad 0 is the one asked; a user taken by ad 1 has κ_u = 1 exhausted.
    state = _AdState(collection=_Pool(stale, int(CPE) * n))
    session._rebuild_heap(0, state)
    state.collection = _Pool(coverage, int(CPE) * n)
    for node in taken:
        session.allocation.assign(node, 0 if node in own else 1)
    state.seeds_in_order = list(own)
    state.revenue = revenue
    return session, state


def _assert_same_as_reference(case):
    shipped, state = _build(AllocationSession, case)
    reference, reference_state = _build(ReferenceSelector, case)
    assert state.heap == reference_state.heap
    answer = shipped._best_candidate(0, state)
    expected = reference._best_candidate(0, reference_state)
    assert answer == expected
    if answer is not None:
        assert [type(field) for field in answer] == [int, int, float, float]
    assert state.active == reference_state.active
    # What the scan left behind still answers the same question.
    again = copy.deepcopy(state)
    assert shipped._best_candidate(0, again) == expected
    assert again.active == reference_state.active
    return answer, state.active


@pytest.mark.parametrize(
    "walk_base", [0, session_module._WALK_BASE, 10**9],
    ids=["pass-only", "natural", "walk-only"],
)
@given(case=cases())
@settings(max_examples=500, deadline=None)
def test_scan_equals_the_reference(walk_base, case):
    """The switch is a cost decision only: never walking, walking
    ``_walk_limit`` entries and never computing give the same answer."""
    original = session_module._WALK_BASE
    session_module._WALK_BASE = walk_base
    try:
        _assert_same_as_reference(case)
    finally:
        session_module._WALK_BASE = original


def _case(coverage, remaining, *, ctp=1.0, penalty=0.0, taken=()):
    coverage = np.asarray(coverage, dtype=np.int64)
    ctps = np.broadcast_to(np.asarray(ctp, dtype=np.float64), coverage.shape)
    return (coverage.size, ctps, coverage, coverage, penalty, BUDGET,
            BUDGET - remaining, list(taken), [], "weighted")


@pytest.mark.parametrize("walk_base", [0, 2], ids=["pass-only", "walk-2"])
@pytest.mark.parametrize(
    "case, walked, node, active",
    [
        # The top entry fits: one pop.
        (_case([3, 2, 1], 5.0), True, 0, True),
        # ... fits, and λ is all it would earn: a drop of 0 is no drop.
        (_case([1], 5.0, ctp=0.05, penalty=0.05), True, None, True),
        # ... also while a node that would earn more is another ad's seed.
        (_case([1, 3], 5.0, ctp=[0.05, 1.0], penalty=0.05, taken=[1]), True, None, True),
        # 9, 8 and 7 overshoot 2.5 by more than they gain; 2 fits.
        (_case([9, 8, 7, 2, 1], 2.5), False, 3, True),
        # Both overshoot 1.5 and gain 1, node 1 by 4e-13 more: inside the
        # band, so the first one scanned stays.
        (_case([4, 4], 1.5, ctp=[0.5 + 1e-13, 0.5]), False, 0, True),
        # 3 overshoots but gains (drop 5 − 3), and is another ad's seed:
        # nothing to return, yet no certificate that nothing ever helps.
        (_case([9, 8, 7, 3], 2.5, taken=[3]), False, None, True),
        # No node at all lowers regret: retired.
        (_case([9, 8, 7], 2.5), False, None, False),
        # ... also when the walk itself gets to a node that fits.
        (_case([3, 1], 0.2, ctp=0.1, penalty=0.3), False, None, False),
        # No eligible node at all: retired.
        (_case([9, 8], 2.5, taken=[0, 1]), True, None, False),
    ],
    ids=["top-fits", "top-fits-lowers-nothing", "top-fits-a-seed-would-lower",
         "deep-fit", "banded-drops",
         "only-ineligible-help", "retired", "retired-past-a-fit", "no-candidates"],
)
def test_each_outcome_of_a_scan(monkeypatch, walk_base, case, walked, node, active):
    """The outcomes the property above must be landing in, one each;
    ``walked`` says a two-entry walk settles the scan without a pass."""
    scans = []
    scan = AllocationSession._scan_coverage

    def counting_scan(self, *args):
        scans.append(1)
        return scan(self, *args)

    monkeypatch.setattr(AllocationSession, "_scan_coverage", counting_scan)
    monkeypatch.setattr(session_module, "_WALK_BASE", walk_base)
    answer, still_active = _assert_same_as_reference(case)
    assert (None if answer is None else answer[0]) == node
    assert still_active == active
    # Once for the first call, once for the repeat.
    assert len(scans) == (0 if walked and walk_base else 2)
