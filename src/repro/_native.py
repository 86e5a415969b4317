"""The package's compiled kernels: every C source it ships, one library.

Three sources make up the library:

* ``rrset/_bfs.c`` — the batch BFS of the RR-set sampler and the
  Monte-Carlo cascades, run as a table of batches that several threads
  join (:mod:`repro.graph._traversal`);
* ``rrset/_pool.c`` — the pool's coverage bump, inverted-index build
  and ``remove_covered`` (:mod:`repro.rrset.pool`);
* ``algorithms/_select.c`` — Algorithm 3's per-ad candidate search
  (:mod:`repro.algorithms.session`).

:func:`library` compiles them on first use (never at import) with the
compiler Python was built with, ``-O2 -fPIC -shared -ffp-contract=off``,
into a per-user cache directory (``$XDG_CACHE_HOME/repro``, else
``~/.cache/repro``) under a name keyed by a hash of every source and the
command; a build lands there through an atomic rename, so processes
building at once never see a partial library.  Within a process the
library is built and loaded once, under a lock, whichever thread asks
first (a forked child gets a fresh lock).  A failed build raises
:class:`~repro.errors.ConfigurationError` naming the compiler.
``-ffp-contract=off`` keeps every double the selector computes the one
Python computes: no multiply-add is fused.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shlex
import subprocess
import sysconfig
import tempfile
import threading
from pathlib import Path

from repro.errors import ConfigurationError

_PACKAGE = Path(__file__).parent

#: Every C source the package ships, in link order.
SOURCES = (
    _PACKAGE / "rrset" / "_bfs.c",
    _PACKAGE / "rrset" / "_pool.c",
    _PACKAGE / "algorithms" / "_select.c",
)

_FLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")

_I64 = ctypes.c_int64
_F64 = ctypes.c_double
_PTR = ctypes.c_void_p

#: ``name: (restype, argtypes)`` of every exported function; pointers
#: travel as plain addresses.
_SIGNATURES = {
    "repro_bfs_batch": (
        _I64, [_I64, _I64, _PTR, _PTR, _PTR, _PTR, _PTR, _PTR, _PTR, _PTR,
               ctypes.POINTER(ctypes.POINTER(ctypes.c_int32)),
               ctypes.POINTER(ctypes.POINTER(ctypes.c_int32))],
    ),
    "repro_bfs_done": (_I64, [_PTR, _I64]),
    "repro_bfs_free": (None, [_PTR]),
    "repro_bfs_run": (_I64, [_PTR, _I64, _PTR, _I64]),
    "repro_bfs_stop": (None, [_PTR, _I64]),
    "repro_bump_counts": (None, [_I64, _PTR, _PTR]),
    "repro_index_build": (None, [_I64, _I64, _I64, _PTR, _PTR, _PTR, _PTR]),
    "repro_remove_covered": (
        _I64, [_I64, _I64, _I64, _PTR, _PTR, _PTR, _PTR, _PTR, _PTR, _PTR, _PTR],
    ),
    "repro_select": (_I64, [_PTR, _F64, _I64, _I64, _I64]),
}


def build() -> Path:
    """Compile :data:`SOURCES` into the cache unless the library is
    already there; returns its path."""
    compiler = sysconfig.get_config_var("CC") or "cc"
    command = [*shlex.split(compiler), *_FLAGS]
    digest = hashlib.sha256(
        repr((command, sysconfig.get_platform())).encode()
    )
    for source in SOURCES:
        digest.update(source.name.encode() + b"\0" + source.read_bytes())
    cache = os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache"
    target = Path(cache) / "repro" / f"_native-{digest.hexdigest()[:16]}.so"
    if target.exists():
        return target
    failure = None
    try:
        target.parent.mkdir(parents=True, exist_ok=True)
        fd, partial = tempfile.mkstemp(dir=target.parent, suffix=".so.part")
        os.close(fd)
        try:
            done = subprocess.run(
                [*command, "-o", partial, *map(str, SOURCES)],
                capture_output=True, text=True,
            )
            if done.returncode == 0:
                os.replace(partial, target)
            else:
                failure = done.stderr.strip() or f"exit status {done.returncode}"
        finally:
            if os.path.exists(partial):
                os.unlink(partial)
    except OSError as exc:
        failure = str(exc)
    if failure is not None:
        raise ConfigurationError(
            f"cannot build the compiled kernels with compiler {compiler!r}: "
            f"{failure}"
        )
    return target


_loaded: ctypes.CDLL | None = None
_lock = threading.Lock()
if hasattr(os, "register_at_fork"):  # a child never inherits it held
    os.register_at_fork(
        after_in_child=lambda: globals().update(_lock=threading.Lock())
    )


def library() -> ctypes.CDLL:
    """The loaded library (built on first use), every export typed."""
    global _loaded
    if _loaded is None:
        with _lock:
            if _loaded is None:
                loaded = ctypes.CDLL(str(build()))
                for name, (restype, argtypes) in _SIGNATURES.items():
                    function = getattr(loaded, name)
                    function.restype = restype
                    function.argtypes = argtypes
                _loaded = loaded
    return _loaded
