"""R101 — RNG discipline.

Every RR set must be a pure function of ``(seed, ad, set_index)``
(docs/architecture.md, contract clause 1).  That only holds while *all*
generator construction and global-stream consumption goes through the
sanctioned seams: ``repro.utils.rng`` and the sampler module
(:class:`~repro.rrset.sampler.StreamPlan`).  A stray
``np.random.default_rng()`` — or a draw from the *global* numpy/stdlib
streams, whose state depends on everything that ran before — anywhere
else silently breaks serial/process byte-identity.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.findings import Finding
from repro.analysis.rules.base import LintContext, Rule

#: Stateful entry points of ``numpy.random``: generator construction and
#: every legacy global-stream function.  Deterministic *data* classes
#: (``SeedSequence`` with entropy, ``Philox``, ``Generator``) are not
#: listed — constructing them from an explicit seed is exactly what the
#: seams themselves do, and doing so elsewhere cannot draw from hidden
#: state.
NUMPY_RNG_CALLS = frozenset(
    {
        "default_rng",
        "RandomState",
        "seed",
        "get_state",
        "set_state",
        "random",
        "random_sample",
        "ranf",
        "sample",
        "rand",
        "randn",
        "randint",
        "random_integers",
        "choice",
        "shuffle",
        "permutation",
        "bytes",
        "uniform",
        "normal",
        "standard_normal",
        "binomial",
        "poisson",
        "exponential",
        "beta",
        "gamma",
        "geometric",
    }
)

#: Stdlib ``random``: the ``Random`` class plus the module-level
#: functions that draw from (or reseed) the hidden global instance.
STDLIB_RNG_CALLS = frozenset(
    {
        "Random",
        "SystemRandom",
        "seed",
        "getstate",
        "setstate",
        "random",
        "randrange",
        "randint",
        "getrandbits",
        "randbytes",
        "choice",
        "choices",
        "shuffle",
        "sample",
        "uniform",
        "triangular",
        "gauss",
        "normalvariate",
        "expovariate",
        "betavariate",
        "gammavariate",
    }
)


class RngDisciplineRule(Rule):
    code = "R101"
    description = (
        "np.random.default_rng / global np.random.* / stdlib random calls "
        "only inside the sanctioned RNG seams (utils/rng.py, "
        "rrset/sampler.py)"
    )

    def check(self, context: LintContext) -> Iterator[Finding]:
        if context.config.is_rng_seam(context.module):
            return
        for node in ast.walk(context.tree):
            if not isinstance(node, ast.Call):
                continue
            target = context.call_target(node)
            if target is None:
                continue
            module, name = target
            flagged = (
                name in NUMPY_RNG_CALLS
                if module == "numpy.random"
                else name in STDLIB_RNG_CALLS
            )
            if flagged:
                yield context.finding(
                    node,
                    self.code,
                    f"RNG discipline: {module}.{name} outside the sanctioned "
                    f"seams — route through repro.utils.rng (or StreamPlan) "
                    f"so the draw is addressable by (seed, ad, set_index)",
                )
