"""Linter configuration: the sanctioned seams and hot-path modules.

The rules in :mod:`repro.analysis.rules` are grounded in this repo's
determinism contract (``docs/architecture.md``), and the contract names
*where* stochastic machinery is allowed to live.  This module declares
those locations once, as data, so the rules stay mechanical:

* **RNG seams** — the only modules allowed to construct or consume
  global RNG state (``np.random.default_rng``, stdlib ``random``):
  ``utils/rng.py`` (the seed-conversion seam), ``rrset/sampler.py``
  (:class:`~repro.rrset.sampler.StreamPlan`'s Philox construction),
  and ``rrset/backends/base.py`` (the RNG-owning blocked-BFS driver).
* **Seed-source seam** — only ``utils/rng.py`` may touch nondeterministic
  entropy (entropy-less ``SeedSequence()``, ``os.urandom``, wall-clock).
  ``store/catalog.py`` is additionally sanctioned: the experiment
  catalog timestamps rows (``created_at``/``last_used_at``) — pure
  metadata that never feeds sampling, and the store's one wall-clock
  seam by declaration.
* **Hot-path modules** — where iteration order feeds selection or
  splicing (``rrset/``, ``algorithms/tirm.py``, ``algorithms/session.py``
  — the SELECT/GROW loop), so unordered-container
  iteration is a determinism bug, not a style nit.
* **Pool module** — the only module allowed to touch ``RRSetPool``'s
  private flat buffers (the PR-2 aliasing bug class).
* **Resource-hygiene modules** — where R104 additionally enforces
  file-handle hygiene (``store/``): the shard cache holds block files
  open across error paths if handles escape ``with`` blocks, so a bare
  ``open()`` there is a leak bug, not a style nit.

Module identity is the path suffix starting at the ``repro/`` package
root (posix separators), so the config is independent of where the
repo is checked out and works on fixture trees that mimic the layout.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import PurePosixPath


def module_key(path) -> str:
    """Canonical module identity for ``path``.

    The suffix starting at the last ``repro/`` component (posix form);
    for files outside a ``repro`` package, the bare filename.  Examples:
    ``src/repro/utils/rng.py`` → ``repro/utils/rng.py``;
    ``/tmp/fixture/bad_rng.py`` → ``bad_rng.py``.
    """
    parts = PurePosixPath(str(path).replace("\\", "/")).parts
    for index in range(len(parts) - 1, -1, -1):
        if parts[index] == "repro":
            return "/".join(parts[index:])
    return parts[-1] if parts else str(path)


@dataclass(frozen=True)
class AnalysisConfig:
    """Where the determinism contract sanctions stochastic machinery.

    All entries are :func:`module_key` values; ``hot_path_modules``
    entries ending in ``/`` match as directory prefixes.
    """

    #: Modules allowed to call ``np.random.default_rng`` / global
    #: ``np.random.*`` / stdlib ``random`` (rule R101).
    rng_seam_modules: frozenset[str] = frozenset(
        {
            "repro/utils/rng.py",
            "repro/rrset/sampler.py",
            "repro/rrset/backends/base.py",
        }
    )
    #: Modules allowed to touch nondeterministic seed sources (rule
    #: R102).  The experiment catalog is the store's declared wall-clock
    #: seam: row timestamps are provenance metadata, never sampling
    #: inputs.  The service job manager is sanctioned on the same
    #: argument: job ``created_at``/``finished_at`` timestamps describe
    #: the service, never feed a sampler.
    seed_source_modules: frozenset[str] = frozenset(
        {
            "repro/utils/rng.py",
            "repro/store/catalog.py",
            "repro/service/jobs.py",
        }
    )
    #: Modules where iteration order feeds selection/splicing (rule R103).
    hot_path_modules: tuple[str, ...] = (
        "repro/rrset/",
        "repro/algorithms/tirm.py",
        "repro/algorithms/session.py",
    )
    #: Modules where R104 also enforces file-handle hygiene (bare
    #: ``open()`` outside a ``with``); entries ending in ``/`` match as
    #: directory prefixes, like ``hot_path_modules``.
    resource_hygiene_modules: tuple[str, ...] = ("repro/store/",)
    #: Modules where R104 additionally enforces network-resource
    #: hygiene: a scope that creates an asyncio server
    #: (``asyncio.start_server``) or a raw socket (``socket.socket`` /
    #: ``socket.create_server`` / ``socket.create_connection`` /
    #: ``socket.socketpair``) must
    #: reach a ``close()`` / ``wait_closed()`` on its success *and*
    #: error flows, unless the object is managed by a ``with`` block.
    #: The resident service and the distributed tier hold these
    #: resources across client/worker lifetimes, so an unclosed server
    #: or socket there is a leak bug, not a style nit.
    service_modules: tuple[str, ...] = ("repro/service/", "repro/dist/")
    #: The one module allowed to touch the pool's private buffers (R105).
    pool_module: str = "repro/rrset/pool.py"
    #: The private pool attributes R105 guards: the storage buffers
    #: (reallocated on growth) and the inverted-index arrays (built at the
    #: first index read, so they may lag the sets).
    pool_private_attrs: frozenset[str] = frozenset(
        {"_members", "_indptr", "_idx_indptr", "_idx_sets", "_pend_nodes", "_pend_sets"}
    )
    #: Extra per-rule sanctioned modules, e.g. ``{"R104": {...}}`` —
    #: lets a caller widen a seam without subclassing the config.
    extra_allowed: dict = field(default_factory=dict)

    # ------------------------------------------------------------------
    def _allowed(self, code: str, key: str, base: frozenset[str]) -> bool:
        extra = self.extra_allowed.get(code, ())
        return key in base or key in extra

    def is_rng_seam(self, key: str) -> bool:
        return self._allowed("R101", key, self.rng_seam_modules)

    def is_seed_source_seam(self, key: str) -> bool:
        return self._allowed("R102", key, self.seed_source_modules)

    def is_hot_path(self, key: str) -> bool:
        return any(
            key.startswith(prefix) if prefix.endswith("/") else key == prefix
            for prefix in self.hot_path_modules
        )

    def is_resource_hygiene(self, key: str) -> bool:
        return any(
            key.startswith(prefix) if prefix.endswith("/") else key == prefix
            for prefix in self.resource_hygiene_modules
        )

    def is_service(self, key: str) -> bool:
        return any(
            key.startswith(prefix) if prefix.endswith("/") else key == prefix
            for prefix in self.service_modules
        )

    def is_pool_module(self, key: str) -> bool:
        return key == self.pool_module


#: The repo's own contract, as shipped.
DEFAULT_CONFIG = AnalysisConfig()
