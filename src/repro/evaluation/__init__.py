"""Evaluation harness: the neutral Monte-Carlo referee and the
experiment sweeps that regenerate the paper's figures and tables (§6).
"""

from repro.evaluation.evaluator import EvaluationReport, RegretEvaluator
from repro.evaluation.experiments import (
    ExperimentRecord,
    run_allocator,
    sweep_attention_bounds,
    sweep_penalties,
)
from repro.evaluation.metrics import relative_regret, targeted_node_counts
from repro.evaluation.reporting import format_records, format_series, format_table
from repro.evaluation.statistics import (
    BootstrapInterval,
    PairedComparison,
    bootstrap_mean,
    paired_regret_comparison,
)

__all__ = [
    "RegretEvaluator",
    "EvaluationReport",
    "ExperimentRecord",
    "run_allocator",
    "sweep_attention_bounds",
    "sweep_penalties",
    "relative_regret",
    "targeted_node_counts",
    "format_table",
    "format_series",
    "format_records",
    "BootstrapInterval",
    "bootstrap_mean",
    "PairedComparison",
    "paired_regret_comparison",
]
