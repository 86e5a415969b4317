"""F6 — Fig. 6: running time vs. number of advertisers and vs. budget.

Paper (§6.2, CTP = CPE = 1, weighted cascade, κ=1, ε=0.2): TIRM scales
~linearly in h on both DBLP and LiveJournal; its time stays ~flat as
per-ad budgets grow (seed selection is linear once RR-sets exist);
Greedy-IRIE's time grows superlinearly in budget ("due to more
iterations of seed selections") and falls behind TIRM as h grows.

Bench-scale budgets are raised above the proportional default so that
allocations need hundreds of seeds — the regime the paper's timing
claims are about.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import DBLP_SCALE, LIVEJOURNAL_SCALE, MAX_RR_SETS
from repro.algorithms.irie import GreedyIRIEAllocator
from repro.algorithms.tirm import TIRMAllocator
from repro.datasets.synthetic import dblp_like, livejournal_like
from repro.evaluation.reporting import format_table

#: Per-ad budget making each ad need tens of seeds at bench scale.
DBLP_BUDGET = 60.0


def _tirm():
    return TIRMAllocator(seed=0, epsilon=0.2, max_rr_sets_per_ad=MAX_RR_SETS)


def test_fig6a_dblp_time_vs_num_ads(run_once):
    counts = (1, 5, 10)

    def experiment():
        rows = []
        for h in counts:
            problem = dblp_like(
                scale=DBLP_SCALE, num_ads=h, budget_per_ad=DBLP_BUDGET, seed=13
            )
            tirm_result = _tirm().allocate(problem)
            irie_time = GreedyIRIEAllocator(alpha=0.7).allocate(problem).runtime_seconds
            rows.append([h, tirm_result.runtime_seconds, irie_time,
                         tirm_result.allocation.total_seeds()])
        return rows

    rows = run_once(experiment)
    print()
    print(format_table(
        ["h", "TIRM (s)", "IRIE (s)", "TIRM seeds"],
        rows,
        title="Fig. 6(a) dblp-like: running time vs number of advertisers",
    ))
    tirm_times = {h: t for h, t, _, _ in rows}
    irie_times = {h: t for h, _, t, _ in rows}
    # TIRM ~linear in h: 10x the ads costs well under quadratic blowup.
    assert tirm_times[10] >= tirm_times[1]
    assert tirm_times[10] <= max(tirm_times[1], 0.05) * 25
    # IRIE's cost grows substantially with h (every seed of every ad
    # triggers an IR solve).  At bench scale TIRM carries a fixed RR-set
    # sampling overhead that keeps IRIE absolutely faster; the paper's
    # crossover (IRIE 6x slower at h=15, DNF at h>=5 on LiveJournal)
    # appears once budgets require thousands of seeds.
    assert irie_times[10] > irie_times[1] * 2


def test_fig6b_dblp_time_vs_budget(run_once):
    budgets = (30.0, 60.0, 120.0)

    def experiment():
        rows = []
        for budget in budgets:
            problem = dblp_like(
                scale=DBLP_SCALE, num_ads=5, budget_per_ad=budget, seed=13
            )
            result = _tirm().allocate(problem)
            irie_time = GreedyIRIEAllocator(alpha=0.7).allocate(problem).runtime_seconds
            rows.append([budget, result.runtime_seconds, irie_time,
                         result.allocation.total_seeds()])
        return rows

    rows = run_once(experiment)
    print()
    print(format_table(
        ["budget/ad", "TIRM (s)", "IRIE (s)", "TIRM seeds"],
        rows,
        title="Fig. 6(b) dblp-like: time vs per-ad budget",
    ))
    tirm_times = [t for _, t, _, _ in rows]
    irie_times = [t for _, _, t, _ in rows]
    # TIRM ~flat in budget: 4x budget costs < 5x time ("relatively
    # stable, barring minor fluctuations").
    assert max(tirm_times) <= max(min(tirm_times), 0.05) * 5.0
    # IRIE grows with budget (more seed-selection iterations, each with
    # an IR solve).
    assert irie_times[-1] > irie_times[0]


def test_fig6cd_livejournal(run_once):
    def experiment():
        rows = []
        for h in (1, 5):
            problem = livejournal_like(
                scale=LIVEJOURNAL_SCALE, num_ads=h, budget_per_ad=120.0, seed=17
            )
            result = _tirm().allocate(problem)
            rows.append([h, problem.num_nodes, result.runtime_seconds,
                         result.allocation.total_seeds()])
        return rows

    rows = run_once(experiment)
    print()
    print(format_table(
        ["h", "n", "TIRM (s)", "seeds"],
        rows,
        title="Fig. 6(c,d) livejournal-like: TIRM time vs h",
    ))
    assert rows[1][2] >= rows[0][2]  # more ads cost more time
    assert rows[1][2] <= max(rows[0][2], 0.05) * 15  # ...but ~linearly
