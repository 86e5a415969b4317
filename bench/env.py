"""Environment fingerprint and noise-floor probe for benchmark reports."""

from __future__ import annotations

import importlib.util
import os
import platform
import subprocess
import time

import numpy as np

#: A workload whose calibration kernel drifts by more than this between
#: its start and its end ran on a machine that changed under it.
NOISY_DRIFT = 0.05

#: A round is quiet when it took at most this share longer than the
#: fastest round of the run.
QUIET_MARGIN = 0.10


def _git(root: str, *args: str) -> str | None:
    try:
        done = subprocess.run(
            ["git", "-C", root, *args],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def fingerprint(root: str, *, preset: str, seed: int) -> dict:
    """What a reader needs to re-derive (or distrust) a report.  Outside
    a git work tree — the driver's checkouts — commit and dirty flag are
    ``None``."""
    status = _git(root, "status", "--porcelain")
    return {
        "commit": _git(root, "rev-parse", "HEAD"),
        "dirty": bool(status) if status is not None else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "cpu_count": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
        "preset": preset,
        "seed": seed,
    }


def calibrate() -> float:
    """Milliseconds for a fixed numpy + interpreter kernel (best of
    three): the machine's speed at this moment, independent of the
    repo."""
    values = np.random.default_rng(0).random(400_000)
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        np.sort(values)
        np.cumsum(values)
        total = 0
        for i in range(200_000):
            total += i * i
        best = min(best, time.perf_counter() - start)
    return best * 1000.0


def quiet_rounds(walls: list[float]) -> list[bool]:
    """Which rounds the machine left alone.  Every round of a run does
    the same work and interference only ever slows it down, so the
    fastest round is the reference.  (A probe between rounds does not
    tell: a neighbour's bursts are shorter than a round.)"""
    if not walls:
        return []
    limit = min(walls) * (1.0 + QUIET_MARGIN)
    return [wall <= limit for wall in walls]


def noise(before_ms: float, after_ms: float) -> dict:
    drift = after_ms / before_ms
    return {
        "calib_ms": before_ms,
        "drift_ratio": drift,
        "noisy": abs(drift - 1.0) > NOISY_DRIFT,
    }
