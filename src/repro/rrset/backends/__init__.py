"""Pluggable sampling backends for the blocked RR-set sampler.

The blocked level-synchronous BFS (``docs/rrset_engine.md``) is split
into a shared *driver* that owns every RNG draw and a per-backend
*level op* that does the hot-loop work — so every backend produces
**byte-identical** samples for the same generator state, and switching
backend changes throughput only, never results:

* :class:`NumpyBackend` (``"numpy"``) — the vectorized reference
  implementation; always available;
* :class:`NumbaBackend` (``"numba"``) — the same level op as one fused
  JIT-compiled loop; requires the optional ``numba`` extra;
* ``"auto"`` — numba when importable, else NumPy with a one-time
  :class:`RuntimeWarning`.

:func:`resolve_backend` maps those names (or a ready
:class:`SamplingBackend` instance, which passes through) to a backend
object; it is the single resolution point used by
:class:`~repro.rrset.sampler.RRSetSampler`,
:class:`~repro.rrset.sharded.ShardedSamplingEngine`,
``TIRMAllocator(backend=...)`` and the CLI's ``--backend``.  This seam
is where the ROADMAP's future accelerator/distributed samplers plug in:
implement :meth:`SamplingBackend.level_op`, and the determinism
contract, the sharded engine, checkpoint/resume, and the benchmarks all
come along for free.
"""

from __future__ import annotations

import warnings

from repro.errors import ConfigurationError
from repro.rrset.backends.base import (
    BLOCK_BATCH,
    SamplingBackend,
    drive_blocked,
    node_bounds,
)
from repro.rrset.backends.numba_backend import NumbaBackend, numba_available
from repro.rrset.backends.numpy_backend import NumpyBackend

#: The names ``resolve_backend`` accepts (``"auto"`` resolves to one of
#: the other two; a resolved backend's ``.name`` is never ``"auto"``).
BACKEND_MODES = ("numpy", "numba", "auto")

#: One-time ``auto`` fallback warning flag (process-wide: the fallback
#: is an environment property, not a per-call event).
_WARNED_AUTO_FALLBACK = False


def available_backends() -> tuple[str, ...]:
    """Names of the backends importable in this environment."""
    return ("numpy", "numba") if numba_available() else ("numpy",)


def resolve_backend(backend="numpy") -> SamplingBackend:
    """Resolve a backend name (or pass a backend instance through).

    ``"numpy"`` and ``"numba"`` resolve strictly — requesting numba
    without the optional extra installed raises
    :class:`~repro.errors.ConfigurationError`.  ``"auto"`` prefers numba
    and degrades gracefully to NumPy, warning once per process (results
    are identical either way; only throughput differs).
    """
    if isinstance(backend, SamplingBackend):
        return backend
    if backend == "numpy":
        return NumpyBackend()
    if backend == "numba":
        return NumbaBackend()
    if backend == "auto":
        if numba_available():
            return NumbaBackend()
        global _WARNED_AUTO_FALLBACK
        if not _WARNED_AUTO_FALLBACK:
            _WARNED_AUTO_FALLBACK = True
            warnings.warn(
                "backend='auto': numba is not installed, falling back to "
                "the numpy sampling backend (identical results, lower "
                "throughput); pip install numba to enable the JIT kernel",
                RuntimeWarning,
                stacklevel=3,
            )
        return NumpyBackend()
    raise ConfigurationError(
        f"backend must be one of {BACKEND_MODES} or a SamplingBackend "
        f"instance, got {backend!r}"
    )


__all__ = [
    "BACKEND_MODES",
    "BLOCK_BATCH",
    "NumbaBackend",
    "NumpyBackend",
    "SamplingBackend",
    "available_backends",
    "drive_blocked",
    "node_bounds",
    "numba_available",
    "resolve_backend",
]
