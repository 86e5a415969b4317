"""A kept selector answer is the answer a fresh call would give.

The compiled ``SELECT`` step asks an ad again only when its answer is
stale: its own pick or a ``GROW`` happened, or another ad picked a node
the answer depends on (``repro_select_depends``; the header of
``algorithms/_select.c`` says which nodes and why).  Here another ad's
picks are played out on synthetic selector states: one eligible node at
a time becomes ineligible, and wherever the rule keeps the answer, a
fresh call on a copy of the state must return it unchanged and leave
the ad active.  Where the rule says "stale", the answer is asked again
and kept from there.
"""

from __future__ import annotations

import copy
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._native import library
from repro.algorithms import session as session_module
from repro.algorithms.session import AllocationSession

from tests.algorithms.test_selector_equivalence import _build, _case, cases


def _depends(state, node: int) -> bool:
    return bool(library().repro_select_depends(state.heap.address, node))


def _play(case, choose):
    """Ask ad 0, then let ad 1 take the eligible nodes ``choose(free)``
    names, one at a time, checking every kept answer against a fresh
    call.  Returns ``(node, stale)`` per take."""
    session, state = _build(AllocationSession, case)
    attention = session.problem.attention
    answer = session._best_candidate(0, state)
    takes = []
    while state.active:
        free = [
            node for node in range(session.problem.num_nodes)
            if session.allocation.can_assign(node, 0, attention)
        ]
        if not free:
            break
        node = choose(free)
        stale = _depends(state, node)
        session.allocation.assign(node, 1)  # κ = 1: gone for ad 0
        takes.append((node, stale))
        if stale:
            answer = session._best_candidate(0, state)
            continue
        fresh = copy.deepcopy(state)
        assert session._best_candidate(0, fresh) == answer
        assert fresh.active
    return takes


@contextmanager
def _walk_base(value: int):
    original = session_module._WALK_BASE
    session_module._WALK_BASE = value
    try:
        yield
    finally:
        session_module._WALK_BASE = original


#: Answers recorded by the coverage pass, and by the heap walk where it
#: settles the scan.
WALK_BASES = pytest.mark.parametrize(
    "walk_base", [0, session_module._WALK_BASE], ids=["pass", "walk"]
)


#: Five nodes at coverage 4 with 1.5 of budget left.  Node 0 overshoots
#: and lowers nothing (the top), node 4 fits with a drop of 0.25 (the
#: first fit), and nodes 1, 2, 3 overshoot with drops 1 − 1.6e-12,
#: 1 − 0.8e-12 and 1: neighbours lie inside the 1e-12 band, the ends
#: outside it.  The fold keeps node 1, passes over node 2, and takes
#: node 3.  Without node 1 it keeps node 2, and node 3 no longer beats
#: it.
CHAIN = _case([4] * 5, 1.5, ctp=[1.0, 0.5 + 4e-13, 0.5 + 2e-13, 0.5, 0.0625])


@st.composite
def chains(draw):
    """:data:`CHAIN`'s shape at random: three to six overshooting nodes
    whose drops step by about 0.8e-12, among nodes that overshoot
    without lowering regret, fit, or score 0, in any node order, some
    of them another ad's already."""
    run = [0.5 + 2e-13 * i for i in range(draw(st.integers(3, 6)))]
    others = draw(st.lists(st.sampled_from((0.0, 0.0625, 0.25, 1.0)), max_size=5))
    ctps = draw(st.permutations(run + others))
    taken = draw(st.lists(st.integers(0, len(ctps) - 1), unique=True, max_size=2))
    return _case([4] * len(ctps), 1.5, ctp=ctps, taken=taken)


@WALK_BASES
@given(case=st.one_of(cases(), chains()), data=st.data())
@settings(max_examples=300, deadline=None)
def test_a_kept_answer_is_a_fresh_calls(walk_base, case, data):
    with _walk_base(walk_base):
        _play(case, lambda free: data.draw(st.sampled_from(free)))


@WALK_BASES
def test_a_near_tie_chain_makes_every_folded_node_a_dependency(monkeypatch, walk_base):
    monkeypatch.setattr(session_module, "_WALK_BASE", walk_base)
    session, state = _build(AllocationSession, CHAIN)
    assert session._best_candidate(0, state)[0] == 3
    view = state.heap.view
    assert (view.top, view.fit, view.fragile) == (0, 4, 1)
    # Node 1 is neither the winner, the top nor the first fit; only the
    # chain makes the answer depend on it ...
    assert [_depends(state, node) for node in range(5)] == [True] * 5
    # ... and it does: without node 1 the answer is node 2.
    session.allocation.assign(1, 1)
    assert session._best_candidate(0, copy.deepcopy(state))[0] == 2
    # The rule's own playthrough, node 1 first.
    order = iter([1, 0, 2, 3, 4])
    assert _play(CHAIN, lambda free: next(order))[0] == (1, True)


@WALK_BASES
def test_an_unchained_fold_keeps_its_answer_past_other_nodes(monkeypatch, walk_base):
    """The same shape with drops 1e-3 apart: nothing chains, so taking
    a folded node that is neither the winner, the top nor the first fit
    keeps the answer."""
    monkeypatch.setattr(session_module, "_WALK_BASE", walk_base)
    case = _case([4] * 5, 1.5, ctp=[1.0, 0.5 + 5e-4, 0.5 + 2.5e-4, 0.5, 0.0625])
    session, state = _build(AllocationSession, case)
    assert session._best_candidate(0, state)[0] == 3
    assert state.heap.view.fragile == 0
    assert [_depends(state, node) for node in range(5)] == [True, False, False, True, True]
    order = iter([1, 2, 3, 0, 4])
    assert _play(case, lambda free: next(order))[:2] == [(1, False), (2, False)]
