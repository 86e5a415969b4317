"""Literal fingerprints of whole allocations — the selector, pinned.

The property test in ``test_selector_equivalence.py`` holds
``AllocationSession._best_candidate`` equal to the heap walk it replaced
call by call on synthetic states; this panel holds the *runs* equal:
33 allocations (the benchmark's ``LJ`` instance at two budgets × six
seeds, its ``FLIX`` instance at three seeds, the small ``FLIX`` of
``TestEndGame`` under both select rules × four seeds, every registry
dataset × two seeds), each reduced to one blake2b-128 over its seed
sets, ``estimated_revenues``, ``iterations``, ``seed_size_estimates``,
``theta_per_ad``, per-ad ``active`` flags and dsan root.  The literals were recorded at the
parent of PR 22 (commit c3d1ac2), before the selector was touched.  To
re-record after a deliberate change of the algorithm: ``python
tests/algorithms/test_selector_panel.py`` prints the table.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.algorithms.session import AllocationSession
from repro.algorithms.tirm import TIRMAllocator
from repro.datasets import DATASETS, flixster_like, livejournal_like
from repro.service.jobs import modified_problem

_LJ = dict(epsilon=0.1, max_rr_sets_per_ad=16_000)
_FLIX = dict(epsilon=0.1, max_rr_sets_per_ad=30_000)
_SMALL = dict(epsilon=0.3, max_rr_sets_per_ad=3_000)
_REGISTRY = dict(epsilon=0.3, max_rr_sets_per_ad=2_000)

_PROBLEMS = {}


def _problem(name: str):
    """Instances are built once per process; allocations never mutate them."""
    if name not in _PROBLEMS:
        if name == "LJ@40":
            _PROBLEMS[name] = livejournal_like(scale=0.0005, num_ads=5)
        elif name == "LJ@50":
            _PROBLEMS[name] = modified_problem(
                _problem("LJ@40"), update_budgets={0: 50.0}
            )
        elif name == "FLIX":
            _PROBLEMS[name] = flixster_like(scale=0.1, num_ads=4)
        elif name == "flix-small":
            _PROBLEMS[name] = flixster_like(scale=0.02, num_ads=4)
        else:
            _PROBLEMS[name] = DATASETS[name]()
    return _PROBLEMS[name]


def _panel():
    for budget in ("LJ@40", "LJ@50"):
        for seed in range(6):
            yield budget, "weighted", seed, _LJ
    for seed in (1, 2, 5):
        yield "FLIX", "weighted", seed, _FLIX
    for rule in ("weighted", "coverage"):
        for seed in range(4):
            yield "flix-small", rule, seed, _SMALL
    for name in DATASETS:
        for seed in (0, 1):
            yield name, "weighted", seed, _REGISTRY


PANEL = {(name, rule, seed): kwargs for name, rule, seed, kwargs in _panel()}

#: ``(instance, select_rule, seed) -> (iterations, blake2b-128)``,
#: recorded at the parent of PR 22 (commit c3d1ac2).
GOLDEN = {
    ("LJ@40", "weighted", 0): (5, "694caf65d7ae1a09aee46fb8b07ce33a"),
    ("LJ@40", "weighted", 1): (5, "1af1dc237473d7f679df5b0f06c141eb"),
    ("LJ@40", "weighted", 2): (5, "f772beafbcc75c3061688c5ea2243df3"),
    ("LJ@40", "weighted", 3): (5, "214a006324e93d95173200aac120299a"),
    ("LJ@40", "weighted", 4): (5, "48135fabfbaa3b66ff9707916462fd0a"),
    ("LJ@40", "weighted", 5): (5, "03ecd0ad916a9f86478b57ecaa95dba0"),
    ("LJ@50", "weighted", 0): (5, "e86e78e6a42e51b4ccdc2b96d9ddb0b5"),
    ("LJ@50", "weighted", 1): (5, "933d722fc24cc17677eb5453183ff1b3"),
    ("LJ@50", "weighted", 2): (5, "9e24c4fb40c81c2bf07e02ae2f707a0d"),
    ("LJ@50", "weighted", 3): (5, "5b6eab6ba3235aeee878214014ba27e2"),
    ("LJ@50", "weighted", 4): (5, "caed7035888d484fb253e1483a41a987"),
    ("LJ@50", "weighted", 5): (5, "b9ac50122a7c554f82e7dce4d3950dff"),
    ("FLIX", "weighted", 1): (376, "ce5196daa21fe81a21f6cf6227996b92"),
    ("FLIX", "weighted", 2): (373, "f8ea3d13cabf1f01bf698b8dbaaab61b"),
    ("FLIX", "weighted", 5): (370, "7ae68546cde4cfd5fdbf1c7ba8540f21"),
    ("flix-small", "weighted", 0): (69, "73643afa13b81aeaa817796edee37e5a"),
    ("flix-small", "weighted", 1): (70, "1b4127222767865b044c1caf7e4652ed"),
    ("flix-small", "weighted", 2): (66, "aa2cf695f90c4aebe45799c57bc0f4b2"),
    ("flix-small", "weighted", 3): (67, "77fae9bf93a2f75b0ea3cff986b40ed1"),
    ("flix-small", "coverage", 0): (78, "4f7f4ed476db1b7b952872fa74273d4a"),
    ("flix-small", "coverage", 1): (86, "8e2398ee6728b3b8da7eb21a57395b9f"),
    ("flix-small", "coverage", 2): (81, "d611e303b9beb24301b7b001a796a614"),
    ("flix-small", "coverage", 3): (82, "9b2effecfda75676b891efe97bc90652"),
    ("figure1", "weighted", 0): (6, "e542764d124b931855d67c4f04043468"),
    ("figure1", "weighted", 1): (6, "31427f15ad14d0b1f42c32d2d971ca70"),
    ("flixster", "weighted", 0): (406, "82ede845b9089b2ba4616289b9d55a54"),
    ("flixster", "weighted", 1): (402, "8916c0063a87e40062dc9ddb07ddbf54"),
    ("epinions", "weighted", 0): (61, "8944b1ee564196fbd776157686280fe4"),
    ("epinions", "weighted", 1): (63, "52493d9ca9ef425496c1628d452dda09"),
    ("dblp", "weighted", 0): (13, "439697052f1f9fdac7612272ab05b601"),
    ("dblp", "weighted", 1): (15, "1940830dbc2452718e1aa09349b6260f"),
    ("livejournal", "weighted", 0): (5, "2afb1411d4be0fb04170a2522c9c5f64"),
    ("livejournal", "weighted", 1): (5, "f6d7423da26532f0aaf9a6dd14f64134"),
}


def fingerprint(key) -> tuple[int, str]:
    name, rule, seed = key
    problem = _problem(name)
    allocator = TIRMAllocator(
        seed=seed, select_rule=rule, dsan=True, **PANEL[key]
    )
    # The facade's loop with the session in hand: the per-ad ``active``
    # flags are part of what the selector decides and of no result.
    with allocator._build_engine(problem, None) as engine:
        session = AllocationSession(problem, allocator, engine=engine)
        result = session.run()
    record = {
        "active": [state.active for state in session.states],
        "seeds": [
            result.allocation.seed_array(ad).tolist()
            for ad in range(problem.num_ads)
        ],
        "revenues": [value.hex() for value in result.estimated_revenues.tolist()],
        "iterations": result.stats["iterations"],
        "seed_size_estimates": result.stats["seed_size_estimates"],
        "theta_per_ad": result.stats["theta_per_ad"],
        "dsan_root": result.stats["dsan_root"],
    }
    digest = hashlib.blake2b(
        json.dumps(record, sort_keys=True).encode(), digest_size=16
    ).hexdigest()
    return result.stats["iterations"], digest


def test_the_panel_is_the_recorded_one():
    assert len(PANEL) == 33 and set(GOLDEN) == set(PANEL)


@pytest.mark.parametrize("key", list(PANEL), ids=lambda k: "-".join(map(str, k)))
def test_allocation_is_the_parents(key):
    assert fingerprint(key) == GOLDEN[key]


if __name__ == "__main__":
    print("GOLDEN = {")
    for key in PANEL:
        print(f"    {key!r}: {fingerprint(key)!r},")
    print("}")
