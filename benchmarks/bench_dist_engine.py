"""Distributed sampling benchmark: socket workers vs the serial engine.

Times one sharded ``ensure`` (the TIRM growth workload) on the serial
:class:`~repro.rrset.sharded.ShardedSamplingEngine` against the same
targets scattered over an ``engine="dist"`` fleet of
1/2/4 in-process socket workers, and one TIRM allocation end-to-end
under chaos (a worker crashing mid-run).  Byte-equality is asserted
inside every section while it runs — shard fingerprints and dsan roots
for the sampling rows, the full allocation record for the chaos row —
so a written report certifies that every variant it times was also
bit-identical to the serial reference.  Speedups are *recorded*, never
asserted: in-process worker threads on a single-core bench box measure
framing overhead, not scatter wins.

Run standalone with ``PYTHONPATH=src python benchmarks/bench_dist_engine.py``;
``--json`` writes ``benchmarks/BENCH_PR10.json`` and ``--cache DIR``
additionally records the rows in DIR's experiment catalog
(``repro ls --benchmarks``).
"""

from __future__ import annotations

import argparse
import json
import os
import threading
import time

from repro.algorithms.tirm import TIRMAllocator
from repro.datasets.synthetic import dblp_like
from repro.dist import Coordinator, WorkerHost
from repro.dist.worker import WorkerExit
from repro.evaluation.reporting import format_table
from repro.rrset.sharded import ShardedSamplingEngine

#: Sampling section: h advertisers, θ sets each, dblp-like graph scale.
DIST_ADS = 4
DIST_THETA = 4_000
DIST_SCALE = 0.003
CHUNK = 512
FLEETS = (1, 2, 4)
#: Chaos section: TIRM RR-set cap for the crash-mid-run allocation.
CHAOS_RR_CAP = 6_000
#: Default artifact path for ``--json`` (see ``write_json_report``).
JSON_REPORT = os.path.join(os.path.dirname(__file__), "BENCH_PR10.json")

_SECTION_COLUMNS = ("phase", "n", "variant", "ads", "theta", "wall_s", "speedup")


def _as_records(rows):
    return [dict(zip(_SECTION_COLUMNS, row)) for row in rows]


class _CrashingWorker(WorkerHost):
    """Crashes (drops the connection) just before sending chunk N."""

    def __init__(self, host, port, *, fail_on: int):
        super().__init__(host, port, name="bench-chaos")
        self._fail_on = fail_on

    def _before_result(self, ad, chunk_index):
        if self.chunks_served == self._fail_on:
            raise WorkerExit("bench chaos crash")


def _spawn_fleet(coordinator, workers):
    threads = [
        threading.Thread(target=worker.run, daemon=True) for worker in workers
    ]
    for thread in threads:
        thread.start()
    coordinator.wait_for_workers(len(workers), timeout=30.0)
    return threads


def _fingerprint(engine):
    out = []
    for ad in range(engine.num_ads):
        shard = engine.shard(ad)
        view = shard.prefix_view()
        out.append(
            (shard.num_total, view.members.tobytes(), view.indptr.tobytes())
        )
    return out


def _dist_rows(theta: int = DIST_THETA, scale: float = DIST_SCALE):
    """Serial ensure vs 1/2/4-worker scatter; byte-equality asserted."""
    problem = dblp_like(scale=scale, num_ads=DIST_ADS, seed=13)
    probs = [problem.ad_edge_probabilities(ad) for ad in range(DIST_ADS)]
    targets = {ad: theta for ad in range(DIST_ADS)}
    n = problem.num_nodes

    t0 = time.perf_counter()
    with ShardedSamplingEngine(
        problem.graph, probs, seeds=7, chunk_size=CHUNK, dsan=True
    ) as engine:
        engine.ensure(targets)
        reference = _fingerprint(engine)
        reference_root = engine.dsan_root()
    serial_wall = time.perf_counter() - t0

    rows = [["dist-sampling", n, "serial", DIST_ADS, theta, serial_wall, 1.0]]
    for count in FLEETS:
        with Coordinator() as coordinator:
            workers = [
                WorkerHost("127.0.0.1", coordinator.port, name=f"w{i}")
                for i in range(count)
            ]
            threads = _spawn_fleet(coordinator, workers)
            t0 = time.perf_counter()
            with ShardedSamplingEngine(
                problem.graph, probs, engine="dist", coordinator=coordinator,
                seeds=7,
                chunk_size=CHUNK, dsan=True,
            ) as engine:
                engine.ensure(targets)
                wall = time.perf_counter() - t0
                assert _fingerprint(engine) == reference, count
                assert engine.dsan_root() == reference_root, count
                assert engine.dist_stats()["local_fallbacks"] == 0
        for thread in threads:
            thread.join(timeout=30.0)
        rows.append([
            "dist-sampling", n, f"{count}-worker", DIST_ADS, theta, wall,
            serial_wall / wall if wall else 0.0,
        ])
    return rows


def _chaos_rows(max_rr_sets: int = CHAOS_RR_CAP, scale: float = DIST_SCALE):
    """TIRM with a worker crashing mid-run vs serial; equality asserted."""
    problem = dblp_like(scale=scale, num_ads=DIST_ADS, seed=13)
    kwargs = dict(seed=0, max_rr_sets_per_ad=max_rr_sets, chunk_size=CHUNK,
                  dsan=True)
    n = problem.num_nodes

    t0 = time.perf_counter()
    reference = TIRMAllocator(**kwargs).allocate(problem)
    serial_wall = time.perf_counter() - t0

    with Coordinator(task_timeout=30.0) as coordinator:
        chaos = _CrashingWorker("127.0.0.1", coordinator.port, fail_on=2)
        good = WorkerHost("127.0.0.1", coordinator.port, name="bench-good")
        threads = _spawn_fleet(coordinator, [chaos, good])
        t0 = time.perf_counter()
        result = TIRMAllocator(
            engine="dist", coordinator=coordinator, **kwargs
        ).allocate(problem)
        wall = time.perf_counter() - t0
    for thread in threads:
        thread.join(timeout=30.0)

    assert result.allocation == reference.allocation
    assert result.stats["dsan_root"] == reference.stats["dsan_root"]
    dist = result.stats["dist"]
    assert dist["retries"] >= 1 and dist["disconnects"] >= 1
    rows = [
        ["dist-chaos", n, "serial", DIST_ADS, max_rr_sets, serial_wall, 1.0],
        ["dist-chaos", n, "crash-1of2", DIST_ADS, max_rr_sets, wall,
         serial_wall / wall if wall else 0.0],
    ]
    return rows, dist


def write_json_report(
    path: str = JSON_REPORT,
    *,
    dist_theta: int = DIST_THETA,
    chaos_rr_cap: int = CHAOS_RR_CAP,
) -> dict:
    """Run every section and write a machine-readable report."""
    chaos, dist_stats = _chaos_rows(max_rr_sets=chaos_rr_cap)
    report = {
        "benchmark": "dist_engine",
        "cpu_count": os.cpu_count() or 1,
        "thetas": {"dist_theta": dist_theta, "chaos_rr_cap": chaos_rr_cap},
        "chaos_counters": {
            key: dist_stats[key]
            for key in ("retries", "timeouts", "disconnects",
                        "corrupt_blocks", "tasks_completed")
        },
        "sections": {
            "dist_sampling": _as_records(_dist_rows(theta=dist_theta)),
            "dist_chaos": _as_records(chaos),
        },
    }
    with open(path, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return report


def record_report_to_catalog(report: dict, cache_dir: str, report_name: str) -> None:
    """Append the section rows to ``cache_dir``'s experiment catalog."""
    from repro.store.catalog import ExperimentCatalog

    rows = [row for section in report["sections"].values() for row in section]
    with ExperimentCatalog(cache_dir) as catalog:
        catalog.record_benchmarks(rows, report=report_name)


# ---------------------------------------------------------------------------
# Smoke entry points (pytest-benchmark): reduced θ, equality still asserted
# ---------------------------------------------------------------------------
def test_dist_sampling_smoke(run_once):
    """Serial vs fleet scatter must be byte-identical (asserted inside
    ``_dist_rows``); the speedup is reported, never asserted — thread
    workers on a one-core runner measure framing overhead."""
    rows = run_once(_dist_rows, theta=600)
    print()
    print(
        format_table(
            ["phase", "n", "fleet", "ads", "theta", "wall (s)", "speedup"],
            rows,
            title=f"Distributed sampling: serial vs socket-worker fleets "
                  f"({os.cpu_count() or 1} cores visible)",
        )
    )


def test_dist_chaos_smoke(run_once):
    """A worker crash mid-allocation must not change a byte (asserted
    inside ``_chaos_rows``); the retry counters are printed as the
    failure's only trace."""
    rows, dist = run_once(_chaos_rows, max_rr_sets=1_500)
    print()
    print(
        format_table(
            ["phase", "n", "run", "ads", "rr cap", "wall (s)", "speedup"],
            rows,
            title=f"TIRM under chaos: {dist['retries']} retries, "
                  f"{dist['disconnects']} disconnects — zero byte drift",
        )
    )


def test_json_report_smoke(tmp_path):
    """``--json`` artifact: both sections present, rows well-formed."""
    path = str(tmp_path / "BENCH_PR10.json")
    report = write_json_report(path, dist_theta=400, chaos_rr_cap=1_000)
    with open(path) as handle:
        on_disk = json.load(handle)
    assert on_disk == report
    sections = on_disk["sections"]
    assert set(sections) == {"dist_sampling", "dist_chaos"}
    assert {row["variant"] for row in sections["dist_sampling"]} == {
        "serial", "1-worker", "2-worker", "4-worker",
    }
    assert {row["variant"] for row in sections["dist_chaos"]} == {
        "serial", "crash-1of2",
    }
    assert all(row["wall_s"] >= 0 for section in sections.values()
               for row in section)
    assert on_disk["chaos_counters"]["retries"] >= 1


def test_report_recorded_to_catalog(tmp_path):
    from repro.store.catalog import ExperimentCatalog

    report = {
        "sections": {
            "dist_sampling": _as_records(
                [["dist-sampling", 100, "2-worker", 4, 500, 0.1, 1.5]]
            ),
        },
    }
    record_report_to_catalog(report, str(tmp_path), "BENCH_PR10.json")
    with ExperimentCatalog(str(tmp_path)) as catalog:
        (row,) = catalog.list_benchmarks()
    assert row["phase"] == "dist-sampling"
    assert row["report"] == "BENCH_PR10.json"


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--json", nargs="?", const=JSON_REPORT, default=None, metavar="PATH",
        help=f"write a machine-readable report (default: {JSON_REPORT})",
    )
    parser.add_argument(
        "--cache", default=os.environ.get("REPRO_CACHE") or None, metavar="DIR",
        help="record the report's rows in this cache directory's "
             "experiment catalog (default: $REPRO_CACHE when set)",
    )
    cli_args = parser.parse_args()
    if cli_args.json:
        report = write_json_report(cli_args.json)
        if cli_args.cache:
            record_report_to_catalog(
                report, cli_args.cache, os.path.basename(cli_args.json)
            )
            print(f"benchmark rows recorded in catalog at {cli_args.cache}")
        for name, rows in report["sections"].items():
            for row in rows:
                print(
                    f"{row['phase']:14s} n={row['n']:7d} "
                    f"{row['variant']:10s} wall={row['wall_s']:7.3f}s "
                    f"speedup={row['speedup']:5.2f}x"
                )
    else:
        for row in _dist_rows():
            print(row)
