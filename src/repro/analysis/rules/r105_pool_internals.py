"""R105 — no raw pool-array access outside ``pool.py``.

``RRSetPool``'s flat CSR buffers (``_members``, ``_indptr``) reallocate
on growth; a view captured elsewhere silently aliases a *retired* buffer
after the next append — the PR-2 bug class, fixed then by the
self-healing ``CSRSetView``.  Its inverted-index arrays (``_idx_indptr``,
``_idx_sets``) are built at the first index read after growth, so
between an append and that read they lag the sets, and a rewound pool
keeps them, so they list sets not visible yet — a raw read elsewhere
is a silent stale-index bug of the same shape.  Every external consumer
must go through the pool's stable API (``prefix_view``,
``resident_rows``, ``add_flat`` — generation-checked;
``remove_covered``, ``coverage_of_set`` — synced).  This rule fences
the arrays off syntactically: any such attribute access outside
``pool.py`` is flagged, whatever object it syntactically hangs on — a
private name that specific appearing outside its owner is wrong even
when it is not literally a pool.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.findings import Finding
from repro.analysis.rules.base import LintContext, Rule


#: ``(kind, reason)``: why each kind of private array is fenced, and
#: what to call instead.
_BUFFER = (
    "buffer",
    "buffers reallocate on growth (aliasing bug class); use "
    "prefix_view()/resident_rows()/add_flat*() instead",
)
_INDEX = (
    "index",
    "the index is built at the first index read and may lag the sets "
    "(stale-index bug class); use remove_covered()/coverage_of_set() "
    "instead",
)


class PoolInternalsRule(Rule):
    code = "R105"
    description = (
        "no raw RRSetPool buffer (._members / ._indptr) or index (._idx_*) "
        "access outside rrset/pool.py — use prefix_view()/add_flat*() and "
        "the coverage queries"
    )

    def check(self, context: LintContext) -> Iterator[Finding]:
        if context.config.is_pool_module(context.module):
            return
        private = context.config.pool_private_attrs
        for node in ast.walk(context.tree):
            if isinstance(node, ast.Attribute) and node.attr in private:
                kind, reason = (
                    _INDEX if node.attr.startswith("_idx_") else _BUFFER
                )
                yield context.finding(
                    node,
                    self.code,
                    f"raw pool {kind} access .{node.attr} outside pool.py — {reason}",
                )
