"""F4 — Fig. 4: total regret vs. the seed penalty λ.

Paper: regret grows with λ for every algorithm, the algorithm hierarchy
is unchanged (TIRM the consistent winner), and TIRM stays strong even at
λ = 1, beyond the conservative Theorem-2 assumption λ ≤ δ·cpe.  TIRM is
read by its median over ``TIRM_SEEDS``.
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
from repro.evaluation.experiments import sweep_penalties
from repro.evaluation.reporting import format_records

LAMBDAS = (0.0, 0.1, 0.5, 1.0)


@pytest.mark.parametrize("dataset", ["flixster", "epinions"])
def test_fig4_total_regret_vs_lambda(run_once, dataset):
    if dataset == "flixster":
        factory = lambda lam: flixster_like(  # noqa: E731
            scale=FLIXSTER_SCALE, attention_bound=1, penalty=lam, seed=7
        )
    else:
        factory = lambda lam: epinions_like(  # noqa: E731
            scale=EPINIONS_SCALE, attention_bound=1, penalty=lam, seed=11
        )

    records = run_once(
        sweep_penalties,
        f"fig4-{dataset}",
        factory,
        quality_allocators(),
        LAMBDAS,
        eval_runs=EVAL_RUNS,
        eval_seed=101,
    )
    print()
    print(format_records(
        records, title=f"Fig. 4 ({dataset}, kappa=1): total regret vs lambda"
    ))

    by_cell = median_over_seeds(records, "lambda")
    for lam in LAMBDAS:
        slack = MYOPIC_PLUS_SLACK if lam == 0.0 else 1.0
        assert by_cell[(lam, "TIRM")] < by_cell[(lam, "Myopic")]
        assert by_cell[(lam, "TIRM")] < by_cell[(lam, "Myopic+")] * slack
    # Regret rises with λ for the seed-hungry baselines (they pay the
    # penalty on every one of their thousands of seeds).
    assert by_cell[(1.0, "Myopic")] > by_cell[(0.0, "Myopic")]
    assert by_cell[(1.0, "Myopic+")] > by_cell[(0.0, "Myopic+")]
    # TIRM still wins at λ = 1 (the paper's "conservative assumption"
    # observation).  Against IRIE the win is a tie at this scale — at
    # λ = 1 both stop after the same handful of seeds (Epinions: 27.63
    # for IRIE and for five of TIRM seeds 0–7, at most 29.17 for the
    # rest) — so that one comparison carries 5 % of slack.
    assert by_cell[(1.0, "TIRM")] <= 1.05 * min(
        by_cell[(1.0, a)] for a in ("IRIE", "Myopic", "Myopic+")
    )
