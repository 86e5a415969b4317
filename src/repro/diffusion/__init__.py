"""Diffusion engines for the IC / TIC-CTP propagation model (§3).

Three evaluation regimes, all agreeing on semantics:

* :mod:`repro.diffusion.ic` — single-run vectorised simulation and
  Monte-Carlo spread estimation (the paper's 10K-run referee, §6);
* :mod:`repro.diffusion.exact` — exact expected spread by possible-world
  enumeration, feasible on toy graphs (Fig. 1 / Lemma 1 checks);
* :mod:`repro.diffusion.spread` — caching spread oracles that plug into
  the Greedy allocator (Algorithm 1).

Model semantics (TIC-CTP): a user targeted as a seed clicks with its CTP
``δ(u, i)``; any user — including a seed whose coin failed — can later be
activated through an in-neighbor's successful influence attempt.  Each
live edge attempt happens once, with probability ``p^i_{u,v}`` from
Eq. (1).
"""

from repro.diffusion.exact import exact_click_probabilities, exact_spread
from repro.diffusion.ic import estimate_spread, simulate_clicks, simulate_rounds
from repro.diffusion.montecarlo import SpreadEstimate
from repro.diffusion.possible_worlds import reachable_from, sample_live_edges
from repro.diffusion.spread import (
    CachingSpreadOracle,
    ExactSpreadOracle,
    MonteCarloSpreadOracle,
    SpreadOracle,
)
from repro.diffusion.ticctp import tic_ctp_estimate_spread

__all__ = [
    "simulate_clicks",
    "simulate_rounds",
    "estimate_spread",
    "SpreadEstimate",
    "sample_live_edges",
    "reachable_from",
    "exact_spread",
    "exact_click_probabilities",
    "SpreadOracle",
    "CachingSpreadOracle",
    "MonteCarloSpreadOracle",
    "ExactSpreadOracle",
    "tic_ctp_estimate_spread",
]
