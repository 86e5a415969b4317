"""Kill-and-resume smoke: a real process restart around a checkpoint.

This is the CI leg for the checkpoint subsystem
(:mod:`repro.rrset.checkpoint`): phase 1 runs a TIRM allocation in a
**child process** that stops after ``KILL_AFTER`` iterations (writing a
checkpoint at every boundary, exactly as a preempted production run
would have), the child exits, and the parent — a fresh process with no
shared state — resumes from the artifact and must land on an allocation
byte-identical to an uninterrupted reference run.

The timing section reports the resume cost (re-deriving every RR set
from the counter-based streams); like the sharded smokes, wall-clock is
*reported*, never asserted.

Run standalone with
``PYTHONPATH=src python benchmarks/bench_checkpoint_resume.py``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import time

import numpy as np

from repro.algorithms.tirm import TIRMAllocator
from repro.datasets.synthetic import dblp_like
from repro.evaluation.reporting import format_table

SCALE = 0.0015
SEED = 11
KILL_AFTER = 3
MAX_RR_SETS = 4_000
INITIAL_PILOT = 500

#: Phase-1 child: allocate, checkpoint every boundary, die after
#: KILL_AFTER iterations.  Runs via ``python -c`` so the resume below
#: genuinely crosses a process boundary.
_CHILD_SCRIPT = """
import sys
from repro.algorithms.tirm import TIRMAllocator
from repro.datasets.synthetic import dblp_like

scale, seed, kill_after, path = (
    float(sys.argv[1]), int(sys.argv[2]), int(sys.argv[3]), sys.argv[4],
)
problem = dblp_like(scale=scale, seed=0)
result = TIRMAllocator(
    seed=seed, initial_pilot=%d, max_rr_sets_per_ad=%d,
    checkpoint_path=path, max_iterations=kill_after,
).allocate(problem)
assert result.stats["truncated"] is True
assert result.stats["iterations"] == kill_after
""" % (INITIAL_PILOT, MAX_RR_SETS)


def _fingerprint(result) -> dict:
    return {
        "seeds": [sorted(result.allocation.seeds(ad))
                  for ad in range(result.allocation.num_ads)],
        "revenues": np.asarray(result.estimated_revenues).tobytes().hex(),
        "theta": result.stats["theta_per_ad"],
        "iterations": result.stats["iterations"],
    }


def run_kill_and_resume(workdir: str) -> tuple[list, dict, dict]:
    """Reference run, child kill, in-parent resume; returns timing rows
    plus the two fingerprints (asserted equal by the caller)."""
    problem = dblp_like(scale=SCALE, seed=0)
    kwargs = dict(
        seed=SEED, initial_pilot=INITIAL_PILOT, max_rr_sets_per_ad=MAX_RR_SETS
    )
    t0 = time.perf_counter()
    reference = TIRMAllocator(**kwargs).allocate(problem)
    t_reference = time.perf_counter() - t0
    assert reference.stats["iterations"] > KILL_AFTER, (
        "smoke fixture must run past the kill point"
    )

    path = os.path.join(workdir, "smoke.ckpt.npz")
    env = dict(os.environ)
    src = os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
    )
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src if not existing else src + os.pathsep + existing
    t0 = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", _CHILD_SCRIPT, str(SCALE), str(SEED),
         str(KILL_AFTER), path],
        check=True, env=env,
    )
    t_child = time.perf_counter() - t0
    assert os.path.exists(path), "child did not leave a checkpoint behind"

    t0 = time.perf_counter()
    resumed = TIRMAllocator(resume_from=path, **kwargs).allocate(problem)
    t_resume = time.perf_counter() - t0
    assert resumed.stats["resumed_at_iteration"] == KILL_AFTER

    artifact_kb = os.path.getsize(path) / 1024
    assert os.listdir(workdir) == [os.path.basename(path)], (
        "the artifact must be the only file a checkpointed run leaves behind"
    )
    rows = [
        ["reference (uninterrupted)", reference.stats["iterations"],
         t_reference, artifact_kb],
        [f"killed child (restart at k={KILL_AFTER})",
         KILL_AFTER, t_child, artifact_kb],
        ["resume to completion", resumed.stats["iterations"],
         t_resume, artifact_kb],
    ]
    return rows, _fingerprint(reference), _fingerprint(resumed)


def _smoke_rows(workdir: str) -> list:
    rows, reference, resumed = run_kill_and_resume(workdir)
    assert resumed == reference, (
        f"resumed allocation diverged from the uninterrupted run:\n"
        f"{json.dumps(resumed, indent=2)[:2000]}"
    )
    return rows


def test_kill_and_resume_smoke(run_once, tmp_path):
    """A TIRM run killed in a child process and resumed in this one must
    reproduce the uninterrupted allocation byte-for-byte (asserted in
    ``_smoke_rows``)."""
    rows = run_once(_smoke_rows, str(tmp_path))
    print()
    print(
        format_table(
            ["phase", "iterations", "wall (s)", "artifact (KB)"],
            rows,
            title=f"Checkpoint kill-and-resume smoke (kill at k={KILL_AFTER})",
        )
    )


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as workdir:
        print(
            format_table(
                ["phase", "iterations", "wall (s)", "artifact (KB)"],
                _smoke_rows(workdir),
                title=f"Checkpoint kill-and-resume smoke (kill at k={KILL_AFTER})",
            )
        )
