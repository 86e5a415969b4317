"""Small argument-validation helpers used across the library.

These raise :class:`ValueError` (or :class:`repro.errors.ConfigurationError`
where a whole configuration is at fault) with messages that name the
offending argument, so failures surface at the API boundary instead of deep
inside numpy kernels.
"""

from __future__ import annotations

import math
import numbers
import warnings

import numpy as np

from repro.errors import ConfigurationError

#: Bind addresses that stay on the local machine.  Everything else —
#: including the ``0.0.0.0`` / ``::`` wildcards — exposes the service
#: to the network and needs an explicit opt-in.
LOOPBACK_HOSTS = frozenset({"127.0.0.1", "localhost", "::1"})


def check_bind_host(host: str, *, allow_remote: bool = False,
                    what: str = "server") -> str:
    """Validate a listening address against the loopback-by-default
    policy shared by ``repro serve`` and the distributed coordinator.

    A loopback ``host`` always passes.  A non-loopback host (wildcards
    like ``0.0.0.0`` included) raises
    :class:`~repro.errors.ConfigurationError` unless ``allow_remote``
    is set — and even then emits a one-line warning, because the wire
    protocols carry no authentication."""
    host = str(host)
    if host in LOOPBACK_HOSTS:
        return host
    if not allow_remote:
        raise ConfigurationError(
            f"refusing to bind {what} to non-loopback host {host!r}: the "
            f"protocol is unauthenticated; pass --allow-remote to expose "
            f"it anyway"
        )
    warnings.warn(
        f"binding {what} to non-loopback host {host!r}: the protocol is "
        f"unauthenticated — anyone who can reach this port can drive it",
        RuntimeWarning,
        stacklevel=2,
    )
    return host


def is_integer(value) -> bool:
    """Whether ``value`` is a Python or numpy integer (a bool is not)."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def check_positive(name: str, value: float, *, strict: bool = True) -> float:
    """Validate that ``value`` is a finite real number ``> 0`` (``>= 0``
    if not strict).  A bool is not a number here."""
    bound = "> 0" if strict else ">= 0"
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number {bound}, got {value!r}")
    if not (value > 0 if strict else value >= 0) or not math.isfinite(value):
        raise ValueError(f"{name} must be a finite number {bound}, got {value!r}")
    return value


def check_probability(name: str, value: float) -> float:
    """Validate a scalar probability in the closed interval [0, 1]."""
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be a probability in [0, 1], got {value!r}")
    return float(value)


def check_probability_array(name: str, values) -> np.ndarray:
    """Validate an array of probabilities (NaN refused); returns a
    float64 ndarray."""
    array = np.asarray(values, dtype=np.float64)
    if array.size and not (array.min() >= 0.0 and array.max() <= 1.0):
        # min/max propagate NaN, and every comparison with NaN is false.
        found = (
            "it holds NaN" if np.isnan(array).any()
            else f"range was [{array.min()}, {array.max()}]"
        )
        raise ValueError(f"{name} must contain probabilities in [0, 1]; {found}")
    return array


def check_in_range(name: str, value: float, low: float, high: float) -> float:
    """Validate ``low <= value <= high``."""
    if not low <= value <= high:
        raise ValueError(f"{name} must be in [{low}, {high}], got {value!r}")
    return value
