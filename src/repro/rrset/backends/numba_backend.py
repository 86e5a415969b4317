"""The Numba JIT backend: the level op as one fused compiled loop.

The NumPy reference level op materializes ``O(total-edges)``
temporaries per BFS level (the repeated per-node bound, the candidate
mask — or, where the bounds prune little, every slot and owner) and
scatters the visited keys into a fresh array to merge.  The kernel
below fuses all of that into a single pass over the frontier's in-edge
slots — no temporaries beyond the candidate/fresh buffers, and no use
for the per-node bound, since each probability is read exactly once —
followed by one sort of only the *live* candidates and a linear
two-pointer merge into the visited-key array (both sides already
sorted).

**Byte-identity.**  The kernel consumes the coin block the shared driver
pre-drew (:func:`repro.rrset.backends.base.drive_blocked` owns every RNG
call), and its dedup produces exactly the reference semantics: the fresh
pairs in ascending ``owner * n + node`` key order, merged into the
sorted visited keys.  Output is therefore byte-identical to
:class:`~repro.rrset.backends.numpy_backend.NumpyBackend` for the same
``(seed, ad, chunk)`` — pinned by ``tests/rrset/test_backends.py``,
which runs the *same function uncompiled* when numba is not installed.

``numba`` is an optional extra (``pip install -e '.[numba]'``); this
module imports it lazily, on first kernel use, so merely importing the
package never requires it.  The first compiled call pays a one-time JIT
cost (a few seconds); :meth:`NumbaBackend.warmup` fronts it explicitly.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.rrset.backends.base import SamplingBackend


def _level_kernel(owners, starts, degrees, in_sources, in_probs, coins,
                  visited_keys, n):
    """One BFS level as a nopython-compatible loop.

    Written in the numba subset of Python/NumPy but runnable uncompiled:
    the byte-identity suite executes this exact function in pure Python
    when numba is absent, so the kernel's *logic* is always under test
    even where the JIT is not installed.
    """
    # Pass 1: fused slot walk + coin test → live candidate keys, in
    # edge order (frontier order, then CSR slot order — the coin order).
    cand = np.empty(coins.size, np.int64)
    c = 0
    pos = 0
    for i in range(owners.size):
        base = owners[i] * n
        start = starts[i]
        for off in range(degrees[i]):
            if coins[pos] < in_probs[start + off]:
                cand[c] = base + in_sources[start + off]
                c += 1
            pos += 1
    empty = np.empty(0, np.int64)
    if c == 0:
        return empty, empty, visited_keys
    live = np.sort(cand[:c])
    # Pass 2: dedup + freshness in one linear sweep.  `live` is sorted,
    # `visited_keys` is sorted — the visited pointer only ever advances.
    fresh = np.empty(c, np.int64)
    f = 0
    v = 0
    nv = visited_keys.size
    prev = np.int64(-1)
    for i in range(c):
        key = live[i]
        if key == prev:
            continue
        prev = key
        while v < nv and visited_keys[v] < key:
            v += 1
        if v < nv and visited_keys[v] == key:
            continue
        fresh[f] = key
        f += 1
    if f == 0:
        return empty, empty, visited_keys
    # Pass 3: two-pointer merge of the (disjoint, sorted) fresh keys
    # into the visited keys, and the key → (owner, node) split.
    merged = np.empty(nv + f, np.int64)
    i = 0
    j = 0
    m = 0
    while i < nv and j < f:
        if visited_keys[i] < fresh[j]:
            merged[m] = visited_keys[i]
            i += 1
        else:
            merged[m] = fresh[j]
            j += 1
        m += 1
    while i < nv:
        merged[m] = visited_keys[i]
        i += 1
        m += 1
    while j < f:
        merged[m] = fresh[j]
        j += 1
        m += 1
    own = np.empty(f, np.int64)
    src = np.empty(f, np.int64)
    for i in range(f):
        own[i] = fresh[i] // n
        src[i] = fresh[i] - own[i] * n
    return own, src, merged


#: Process-wide compiled-kernel cache: numba caches per-signature
#: machine code on the dispatcher, so one dispatcher is shared by every
#: NumbaBackend instance (samplers, shards, forked workers alike).
_COMPILED = None


def numba_available() -> bool:
    """Whether the optional ``numba`` package is importable."""
    if _COMPILED is not None:
        return True
    try:
        import numba  # noqa: F401
    except ImportError:
        return False
    return True


def _compiled_kernel():
    global _COMPILED
    if _COMPILED is None:
        import numba

        _COMPILED = numba.njit(cache=True, nogil=True)(_level_kernel)
    return _COMPILED


class NumbaBackend(SamplingBackend):
    """JIT-compiled level op (optional ``numba`` extra).

    Parameters
    ----------
    jit:
        ``True`` (default) compiles :func:`_level_kernel` with
        ``numba.njit`` — constructing the backend raises
        :class:`~repro.errors.ConfigurationError` when numba is not
        installed (``backend="auto"`` degrades to NumPy instead of
        raising).  ``False`` runs the identical kernel uncompiled: a
        test-only escape hatch that lets the byte-identity suite verify
        the kernel's logic on machines without numba.  Both settings
        produce identical output.
    """

    name = "numba"

    def __init__(self, *, jit: bool = True) -> None:
        if jit and not numba_available():
            raise ConfigurationError(
                "backend 'numba' requires the optional numba package "
                "(pip install numba); use backend='numpy', or "
                "backend='auto' to fall back automatically"
            )
        self._jit = jit
        self._kernel = None

    def _resolve_kernel(self):
        if self._kernel is None:
            self._kernel = _compiled_kernel() if self._jit else _level_kernel
        return self._kernel

    def warmup(self, graph) -> None:
        """Compile the kernel now (one tiny level on real dtypes).

        The first JIT call costs seconds; benchmarks and latency-
        sensitive callers invoke this outside their timed regions.
        Compilation is cached process-wide (and on disk via
        ``njit(cache=True)``), so warmup is a no-op after the first
        backend to run in a process.
        """
        kernel = self._resolve_kernel()
        owners = np.zeros(1, dtype=np.int64)
        starts = np.asarray(graph.in_indptr[:1], dtype=graph.in_indptr.dtype)
        degrees = np.zeros(1, dtype=np.int64)
        kernel(
            owners, starts, degrees, graph.in_sources,
            np.zeros(1, dtype=np.float64), np.empty(0, dtype=np.float64),
            owners.copy(), max(graph.num_nodes, 1),
        )

    def level_op(self, owners, starts, degrees, bounds, in_sources, in_probs,
                 coins, visited_keys, n):
        # `bounds` is unused: the fused loop already reads each edge's
        # probability exactly once, so there is no gather to prune.
        return self._resolve_kernel()(
            owners, starts, degrees, in_sources, in_probs, coins,
            visited_keys, n,
        )
