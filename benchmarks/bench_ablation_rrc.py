"""AB1 — ablation: RRC-sets vs CTP-weighted RR-sets (§5.2's key choice).

The paper argues sampling RRC-sets directly would need ~two orders of
magnitude more samples at 1–3% CTPs, because the number of samples is
inversely proportional to OPT and OPT shrinks by the CTP factor; TIRM
therefore samples plain RR-sets and multiplies marginals by δ (Theorem
5).  We measure exactly that: at an equal sample count, the RRC
estimate of a seed set's spread is far noisier than the RR+δ estimate.
Both sides come out of the engine: the RR-sets of a serial
``ShardedSamplingEngine`` and the RRC-sets of ``sample_rrc_sets`` (the
same engine's RR-sets, thinned by one CTP coin per member).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets.synthetic import flixster_like
from repro.evaluation.reporting import format_table
from repro.rrset.estimator import estimate_spread_from_sets
from repro.rrset.rrc import sample_rrc_sets
from repro.rrset.sharded import ShardedSamplingEngine

SAMPLES = 3_000
TRIALS = 12


def test_rrc_vs_weighted_rr_variance(run_once):
    problem = flixster_like(scale=0.005, num_ads=1, seed=7)
    graph = problem.graph
    probs = problem.ad_edge_probabilities(0)
    delta = problem.ad_ctps(0)
    rng = np.random.default_rng(5)
    seeds = rng.choice(graph.num_nodes, size=10, replace=False)
    # log(1 - δ) per node, zero off the seed set: a set's miss probability
    # is exp of the sum over its members.
    log_miss = np.zeros(graph.num_nodes)
    log_miss[seeds] = np.log1p(-delta[seeds])

    def weighted_rr_estimate(trial):
        """Theorem-5 estimator: each RR-set credits 1 - Π(1 - δ) over the
        seeds it holds (≈ Σδ at small δ)."""
        with ShardedSamplingEngine(graph, [probs], seeds=1000 + trial) as engine:
            engine.ensure({0: SAMPLES})
            view = engine.shard(0).prefix_view()
        owners = np.repeat(np.arange(SAMPLES), np.diff(view.indptr))
        miss = np.exp(np.bincount(owners, log_miss[view.members], minlength=SAMPLES))
        return graph.num_nodes * float((1.0 - miss).sum()) / SAMPLES

    def experiment():
        rr_estimates, rrc_estimates = [], []
        for trial in range(TRIALS):
            rr_estimates.append(weighted_rr_estimate(trial))
            rrc = sample_rrc_sets(graph, probs, delta, SAMPLES, seed=2000 + trial)
            rrc_estimates.append(
                estimate_spread_from_sets(rrc, graph.num_nodes, seeds)
            )
        return np.asarray(rr_estimates), np.asarray(rrc_estimates)

    rr_est, rrc_est = run_once(experiment)
    rows = [
        ["RR + delta-weighting", rr_est.mean(), rr_est.std()],
        ["RRC direct", rrc_est.mean(), rrc_est.std()],
    ]
    print()
    print(format_table(
        ["estimator", "mean spread", "std over trials"],
        rows,
        title=f"AB1: {SAMPLES} samples, {TRIALS} trials, 10 seeds, CTP 1-3%",
    ))
    # Both estimate the same quantity...
    assert rr_est.mean() == pytest.approx(rrc_est.mean(), rel=0.6, abs=1.0)
    # ...but the RRC estimator's variance is dramatically larger.
    assert rrc_est.std() > 2.0 * rr_est.std()
