"""Shared benchmark configuration.

The benchmarks regenerate every table and figure of the paper's §6 at
laptop scale (see DESIGN.md §3–4).  Each module prints its results in
the paper's layout; EXPERIMENTS.md records the paper-vs-measured
comparison.  Scale knobs live here so a beefier machine can turn them up
towards paper scale.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms.irie import GreedyIRIEAllocator
from repro.algorithms.myopic import MyopicAllocator, MyopicPlusAllocator
from repro.algorithms.tirm import TIRMAllocator
from repro.evaluation.statistics import bootstrap_mean

#: Scale of the quality datasets (fraction of the paper's node counts).
FLIXSTER_SCALE = 0.01
EPINIONS_SCALE = 0.012
#: Scale of the scalability datasets.
DBLP_SCALE = 0.003
LIVEJOURNAL_SCALE = 0.0005
#: Monte-Carlo referee runs (paper: 10 000).
EVAL_RUNS = 150
#: RR-set cap per advertiser for TIRM benches.
MAX_RR_SETS = 8_000
#: Allocator seeds TIRM runs over in the quality benches.  TIRM is the
#: one randomized algorithm of the four, and at bench scale a single
#: seed is a lottery — on the λ = 0 cells its total regret spreads
#: 20–30 % around the median — so the assertions read the per-cell median.
TIRM_SEEDS = (0, 1, 2, 3, 4)
#: Slack on the λ = 0 TIRM-vs-Myopic+ comparisons.  With no seed penalty
#: to pay Myopic+ is a strong baseline, and at 1/100 scale the paper's
#: gap shrinks to a few percent on Flixster: over seeds 0–7 TIRM's
#: median is 7.21 / 6.51 / 6.91 against Myopic+'s 7.39 / 7.83 / 7.91
#: (κ = 1, 3, 5) while single seeds range 4.7–8.8, so a five-seed median
#: can land a few percent either side.  Every other comparison is strict.
MYOPIC_PLUS_SLACK = 1.10


def quality_allocators() -> dict:
    """The four §6 algorithms with their quality-experiment settings.

    TIRM appears once per seed in :data:`TIRM_SEEDS`, as ``"TIRM@<seed>"``;
    :func:`median_over_seeds` folds those rows back into one ``"TIRM"``
    value per sweep cell.
    """
    allocators = {
        "Myopic": MyopicAllocator(),
        "Myopic+": MyopicPlusAllocator(),
        "IRIE": GreedyIRIEAllocator(alpha=0.8),
    }
    for seed in TIRM_SEEDS:
        allocators[f"TIRM@{seed}"] = TIRMAllocator(
            seed=seed, epsilon=0.1, max_rr_sets_per_ad=MAX_RR_SETS
        )
    return allocators


def median_over_seeds(records, parameter: str, value: str = "total_regret") -> dict:
    """``{(parameter value, algorithm): value}`` over sweep records, each
    cell's per-seed TIRM rows folded into their median under ``"TIRM"``.

    Prints every cell's seed spread (bootstrap CI of the mean) so the
    margin behind each assertion can be read off the bench output.
    """
    by_cell: dict = {}
    per_seed: dict = {}
    for record in records:
        cell = record.parameters[parameter]
        if record.algorithm.startswith("TIRM@"):
            per_seed.setdefault(cell, []).append(getattr(record, value))
        else:
            by_cell[(cell, record.algorithm)] = getattr(record, value)
    for cell, values in per_seed.items():
        by_cell[(cell, "TIRM")] = float(np.median(values))
        print(
            f"TIRM {value} at {parameter}={cell}: median "
            f"{by_cell[(cell, 'TIRM')]:.2f}, mean {bootstrap_mean(values, seed=0)}"
        )
    return by_cell


@pytest.fixture
def run_once(benchmark):
    """Run an experiment exactly once under pytest-benchmark timing."""

    def runner(func, *args, **kwargs):
        return benchmark.pedantic(func, args=args, kwargs=kwargs, rounds=1, iterations=1)

    return runner
