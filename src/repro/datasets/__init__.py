"""Datasets: the Fig.-1 toy gadget and simulated stand-ins for the four
real networks of Table 1.

All dataset factories are deterministic functions of their ``seed`` and
return ready-to-solve :class:`~repro.advertising.AdAllocationProblem`
instances.
"""

from repro.datasets.registry import DATASETS, load_dataset
from repro.datasets.synthetic import (
    dblp_like,
    epinions_like,
    flixster_like,
    livejournal_like,
)
from repro.datasets.toy import (
    figure1_allocation_a,
    figure1_allocation_b,
    figure1_gadget,
    figure1_problem,
)

__all__ = [
    "figure1_gadget",
    "figure1_problem",
    "figure1_allocation_a",
    "figure1_allocation_b",
    "flixster_like",
    "epinions_like",
    "dblp_like",
    "livejournal_like",
    "DATASETS",
    "load_dataset",
]
