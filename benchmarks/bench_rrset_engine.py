"""RR-set engine micro-benchmark: sample → append → cover → index → remove.

Times the phases that dominate TIRM's runtime (§5, Fig. 6) on the
flat-CSR :class:`~repro.rrset.pool.RRSetPool`, at several graph scales,
through the engine's sampler path: the vectorized blocked BFS
(``sample_chunk_block``, RNG drawn in blocks).

The loop mirrors one TIRM growth cycle: draw θ sets and append them
(``sample+append`` — an append is a copy, it indexes nothing),
greedy-cover s seeds over a pilot CSR window, then remove the sets the
chosen seeds cover (``index+remove`` — the first ``remove_covered``
builds the inverted index, once).  Before/after numbers vs the seed
implementation are recorded in CHANGES.md; run standalone with
``PYTHONPATH=src python benchmarks/bench_rrset_engine.py``.

Additional sections: the sharded pilot phase and single-ad growth
top-up (serial vs process, byte-equality asserted), the sampling
*backend* comparison (numpy reference vs numba JIT kernel on the same
stream — byte-equality asserted, speedup reported; see
``docs/rrset_engine.md`` §backends), the shard-cache section (TIRM
cold populate vs warm zero-sampling rerun — identical allocation and
zero backend invocations asserted, speedup reported), and the service
section (cold submit vs warm resubmit vs incremental re-allocation
through one :class:`~repro.service.jobs.JobManager` — warm resubmit
must invoke the sampling backend zero times and every variant must
stay byte-identical to its cold batch reference, all asserted).  With
``--cache DIR`` (or ``$REPRO_CACHE``), ``--json`` runs also append
their section rows to that cache's experiment catalog
(``repro ls --benchmarks``).
"""

from __future__ import annotations

import argparse
import json
import os
import time

import numpy as np

from repro.algorithms.tirm import TIRMAllocator
from repro.datasets.synthetic import dblp_like
from repro.evaluation.reporting import format_table
from repro.rrset.backends import NumbaBackend, NumpyBackend, numba_available
from repro.rrset.pool import RRSetPool
from repro.rrset.sampler import RRSetSampler, StreamPlan
from repro.rrset.sharded import ShardedSamplingEngine
from repro.rrset.tim import greedy_max_coverage

#: (label, dblp-like scale) — bench-box sizes; raise on a beefier machine.
SCALES = (("dblp-1x", 0.003), ("dblp-3x", 0.01))
THETA = 20_000
SEEDS_TO_PICK = 50
PILOT = 2_000
#: Sharded-engine pilot phase: h advertisers, θ sets each.
SHARDED_ADS = 6
SHARDED_THETA = 4_000
SHARDED_SCALE = 0.003
#: Growth-phase section: one ad's θ top-up (Algorithm 4), the request
#: shape that was strictly serial before counter-based streams.
GROWTH_THETA = 12_000
GROWTH_CHUNK = 512
#: Backend-comparison section: blocked sampling, numpy vs numba.
BACKEND_THETA = 20_000
BACKEND_SCALE = 0.003
#: Shard-cache section: TIRM cold (populating) vs warm (zero sampling).
SHARD_CACHE_RR_CAP = 6_000
#: Service section: cold submit vs warm resubmit vs incremental realloc.
SERVICE_RR_CAP = 6_000
#: Default artifact path for ``--json`` (see ``write_json_report``).
JSON_REPORT = os.path.join(os.path.dirname(__file__), "BENCH_PR9.json")


def run_engine_cycle(graph, probs, *, seed: int = 0, theta: int = THETA) -> dict:
    """One sample→append→cover→index→remove cycle; returns phase timings."""
    n = graph.num_nodes
    sampler = RRSetSampler(graph, probs)
    pool = RRSetPool(n)

    t0 = time.perf_counter()
    # θ sets as one chunk: a single blocked-BFS pass, one bulk append
    # (a pure copy — the pool indexes at its first index read).
    pool.add_flat(*sampler.sample_chunk_block(StreamPlan(seed, 0, theta), 0))
    t1 = time.perf_counter()

    pilot = pool.prefix_view(PILOT)
    seeds, covered = greedy_max_coverage(pilot, n, SEEDS_TO_PICK)
    t2 = time.perf_counter()

    # The first remove_covered builds the inverted index, once.
    removed = 0
    for node in seeds:
        removed += pool.remove_covered(node)
    fr = pool.coverage_of_set(seeds)
    t3 = time.perf_counter()

    return {
        "sample+append": t1 - t0,
        "cover": t2 - t1,
        "index+remove": t3 - t2,
        "total": t3 - t0,
        "covered": covered,
        "removed": removed,
        "memory_mb": pool.memory_bytes() / 1e6,
        "avg_size": pool.average_set_size(),
        "residual_coverage": fr,
    }


def _rows(theta: int = THETA):
    rows = []
    for label, scale in SCALES:
        problem = dblp_like(scale=scale, num_ads=1, seed=13)
        probs = problem.ad_edge_probabilities(0)
        r = run_engine_cycle(problem.graph, probs, theta=theta)
        rows.append(
            [
                label,
                problem.num_nodes,
                "blocked",
                r["sample+append"],
                r["cover"],
                r["index+remove"],
                r["total"],
                r["memory_mb"],
            ]
        )
    return rows


def run_sharded_pilot(
    problem, *, engine: str, theta: int = SHARDED_THETA,
    seed: int = 0,
) -> tuple[float, list[tuple[int, np.ndarray, np.ndarray]]]:
    """One TIRM-style pilot phase (θ sets for every ad) through the
    sharded engine; returns the wall-clock and per-shard fingerprints."""
    h = problem.num_ads
    probs = [problem.ad_edge_probabilities(ad) for ad in range(h)]
    with ShardedSamplingEngine(
        problem.graph, probs, seeds=seed, engine=engine,
    ) as eng:
        # Warm the worker pool so fork/startup cost is not charged to the
        # timed pilot (the executor is created lazily on first sample).
        eng.sample({ad: 1 for ad in range(h)})
        t0 = time.perf_counter()
        eng.sample({ad: theta for ad in range(h)})
        elapsed = time.perf_counter() - t0
        shards = []
        for ad in range(h):
            view = eng.shard(ad).prefix_view()
            shards.append(
                (eng.shard(ad).num_total, view.members.copy(), view.indptr.copy())
            )
    return elapsed, shards


def _sharded_rows(theta: int = SHARDED_THETA, scale: float = SHARDED_SCALE):
    """Serial vs process pilot phase for h advertisers; the two engines
    must agree set-for-set (the CI smoke asserts exactly this)."""
    problem = dblp_like(scale=scale, num_ads=SHARDED_ADS, seed=13)
    t_serial, shards_serial = run_sharded_pilot(problem, engine="serial", theta=theta)
    t_process, shards_process = run_sharded_pilot(problem, engine="process", theta=theta)
    for (ns, ms, ps), (np_, mp_, pp_) in zip(shards_serial, shards_process):
        assert ns == np_
        assert np.array_equal(ms, mp_)
        assert np.array_equal(ps, pp_)
    speedup = t_serial / t_process if t_process > 0 else float("inf")
    return [
        ["sharded-pilot", problem.num_nodes, "serial", SHARDED_ADS, theta, t_serial, 1.0],
        ["sharded-pilot", problem.num_nodes, "process", SHARDED_ADS, theta, t_process,
         speedup],
    ]


def run_growth_topup(
    problem, *, engine: str, theta: int, chunk_size: int = GROWTH_CHUNK,
    seed: int = 0,
) -> tuple[float, tuple[int, np.ndarray, np.ndarray]]:
    """One Algorithm-4-style growth event: a *single ad's* θ top-up.

    The counter-based streams split it into ``(ad, chunk)`` tasks, so
    process mode fans one ad's top-up across the worker pool.  Returns
    the wall-clock and the shard fingerprint.
    """
    probs = [problem.ad_edge_probabilities(0)]
    with ShardedSamplingEngine(
        problem.graph, probs, seeds=seed, engine=engine, chunk_size=chunk_size,
    ) as eng:
        # Warm the pool (and the pilot prefix) outside the timed region:
        # both engines advance through the same set indices, so the timed
        # request covers the same index range either way.
        eng.sample({0: 2 * chunk_size})
        t0 = time.perf_counter()
        eng.sample({0: theta})
        elapsed = time.perf_counter() - t0
        view = eng.shard(0).prefix_view()
        fingerprint = (
            eng.shard(0).num_total, view.members.copy(), view.indptr.copy(),
        )
    return elapsed, fingerprint


def _growth_rows(theta: int = GROWTH_THETA, scale: float = SHARDED_SCALE):
    """Serial vs chunked-process single-ad growth top-up; byte-identical
    shards are asserted (the CI smoke runs this at reduced θ)."""
    problem = dblp_like(scale=scale, num_ads=1, seed=13)
    t_serial, fp_serial = run_growth_topup(problem, engine="serial", theta=theta)
    t_process, fp_process = run_growth_topup(problem, engine="process", theta=theta)
    assert fp_serial[0] == fp_process[0]
    assert np.array_equal(fp_serial[1], fp_process[1])
    assert np.array_equal(fp_serial[2], fp_process[2])
    speedup = t_serial / t_process if t_process > 0 else float("inf")
    return [
        ["growth-topup", problem.num_nodes, "serial", 1, theta, t_serial, 1.0],
        ["growth-topup", problem.num_nodes, "process", 1, theta, t_process, speedup],
    ]


def run_backend_blocked(problem, backend, *, theta: int, seed: int = 0):
    """Time one blocked-sampling pass (θ sets, single ad) on ``backend``.

    JIT warmup runs *outside* the timed region — first-call compilation
    is a one-time cost the steady-state throughput figure must not
    carry.  Returns the wall-clock and the packed block fingerprint.
    """
    probs = problem.ad_edge_probabilities(0)
    sampler = RRSetSampler(problem.graph, probs, backend=backend)
    sampler.backend.warmup(problem.graph)
    t0 = time.perf_counter()
    members, lengths = sampler.sample_chunk_block(StreamPlan(seed, 0, theta), 0)
    elapsed = time.perf_counter() - t0
    return elapsed, (members, lengths)


def _backend_rows(theta: int = BACKEND_THETA, scale: float = BACKEND_SCALE):
    """NumPy reference vs numba JIT kernel on the same chunk stream: the
    packed blocks must be byte-identical (asserted; the determinism
    contract is backend-invariant), the speedup is reported.

    Without numba installed the comparison falls back to the uncompiled
    kernel (labelled ``numba(py)``) so the byte-equality assertion still
    runs everywhere; the throughput column is then meaningless and the
    ≥2× JIT figure belongs to a bench box with the extra installed.
    """
    problem = dblp_like(scale=scale, num_ads=1, seed=13)
    t_ref, block_ref = run_backend_blocked(problem, NumpyBackend(), theta=theta)
    if numba_available():
        label, alternative = "numba", NumbaBackend()
    else:
        label, alternative = "numba(py)", NumbaBackend(jit=False)
    t_alt, block_alt = run_backend_blocked(problem, alternative, theta=theta)
    assert block_ref[0].tobytes() == block_alt[0].tobytes()
    assert block_ref[1].tobytes() == block_alt[1].tobytes()
    speedup = t_ref / t_alt if t_alt > 0 else float("inf")
    return [
        ["backend-blocked", problem.num_nodes, "numpy", 1, theta, t_ref, 1.0],
        ["backend-blocked", problem.num_nodes, label, 1, theta, t_alt, speedup],
    ]


def _shard_cache_rows(
    max_rr_sets: int = SHARD_CACHE_RR_CAP, scale: float = SHARDED_SCALE
):
    """TIRM cold (populating an empty shard cache) vs warm (every block
    served from it): the warm run must perform **zero** sampling-backend
    invocations and allocate byte-identically (both asserted).  The
    speedup is the whole point of the store, but it is *reported*, never
    asserted — on a loaded runner the cold wall-clock is noise."""
    import tempfile

    problem = dblp_like(scale=scale, num_ads=3, seed=13)

    with tempfile.TemporaryDirectory(prefix="repro-bench-cache-") as cache_dir:

        def run() -> tuple[float, object]:
            allocator = TIRMAllocator(
                seed=0, epsilon=0.3, max_rr_sets_per_ad=max_rr_sets,
                chunk_size=512, cache=cache_dir, dataset="bench-dblp",
            )
            t0 = time.perf_counter()
            result = allocator.allocate(problem)
            return time.perf_counter() - t0, result

        t_cold, cold = run()
        t_warm, warm = run()
    assert cold.stats["backend_invocations"] > 0
    assert warm.stats["backend_invocations"] == 0
    assert warm.stats["cache"]["hits"] > 0
    assert warm.allocation == cold.allocation
    assert np.array_equal(warm.estimated_revenues, cold.estimated_revenues)
    assert warm.stats["theta_per_ad"] == cold.stats["theta_per_ad"]
    speedup = t_cold / t_warm if t_warm > 0 else float("inf")
    return [
        ["shard-cache", problem.num_nodes, "cold", 3, max_rr_sets, t_cold, 1.0],
        ["shard-cache", problem.num_nodes, "warm", 3, max_rr_sets, t_warm, speedup],
    ]


def _service_rows(
    max_rr_sets: int = SERVICE_RR_CAP, scale: float = SHARDED_SCALE
):
    """Allocation-as-a-service: cold submit vs warm resubmit vs
    incremental re-allocation through one job manager's engine pool.

    The warm resubmit must perform **zero** sampling-backend invocations
    yet allocate byte-identically to the cold job; the re-allocation
    (one ad's budget bumped 1.5×) must re-lease the warm engine and
    match a cold batch run of the modified instance.  All equality is
    asserted; the speedups are reported, never asserted."""
    import tempfile

    from repro.service.jobs import JobManager, modified_problem

    problem = dblp_like(scale=scale, num_ads=3, seed=13)
    params = {
        "seed": 0, "epsilon": 0.3, "max_rr_sets_per_ad": max_rr_sets,
        "chunk_size": 512,
    }
    new_budget = float(problem.catalog[0].budget * 1.5)

    with tempfile.TemporaryDirectory(prefix="repro-bench-svc-") as cache_dir:
        with JobManager(cache=cache_dir) as manager:

            def run(submit) -> tuple[float, object, object]:
                t0 = time.perf_counter()
                job = submit()
                result = manager.result(job.job_id)
                return time.perf_counter() - t0, job, result

            t_cold, cold_job, cold = run(
                lambda: manager.submit(problem=problem, params=params)
            )
            t_warm, warm_job, warm = run(
                lambda: manager.submit(problem=problem, params=params)
            )
            t_realloc, realloc_job, realloc = run(
                lambda: manager.reallocate(
                    cold_job.job_id, update_budgets={0: new_budget}
                )
            )
        # Cold batch reference for the modified instance (same cache so
        # the comparison stays hermetic under $REPRO_CACHE).
        reference = TIRMAllocator(cache=cache_dir, **params).allocate(
            modified_problem(problem, update_budgets={0: new_budget})
        )
    assert cold_job.engine_warm is False
    assert warm_job.engine_warm is True
    assert realloc_job.engine_warm is True
    assert warm.stats["backend_invocations"] == 0
    assert warm.allocation == cold.allocation
    assert np.array_equal(warm.estimated_revenues, cold.estimated_revenues)
    assert realloc.allocation == reference.allocation
    assert np.array_equal(
        realloc.estimated_revenues, reference.estimated_revenues
    )
    assert realloc.stats["theta_per_ad"] == reference.stats["theta_per_ad"]
    return [
        ["service", problem.num_nodes, "cold", 3, max_rr_sets, t_cold, 1.0],
        ["service", problem.num_nodes, "warm", 3, max_rr_sets, t_warm,
         t_cold / t_warm if t_warm > 0 else float("inf")],
        ["service", problem.num_nodes, "realloc", 3, max_rr_sets, t_realloc,
         t_cold / t_realloc if t_realloc > 0 else float("inf")],
    ]


_SECTION_COLUMNS = ("phase", "n", "variant", "ads", "theta", "wall_s", "speedup")


def _as_records(rows):
    return [dict(zip(_SECTION_COLUMNS, row)) for row in rows]


def write_json_report(
    path: str = JSON_REPORT,
    *,
    cycle_theta: int = THETA,
    sharded_theta: int = SHARDED_THETA,
    growth_theta: int = GROWTH_THETA,
    shard_cache_rr_cap: int = SHARD_CACHE_RR_CAP,
    service_rr_cap: int = SERVICE_RR_CAP,
) -> dict:
    """Run every section and write a machine-readable report.

    Byte-equality is asserted inside each section builder while it runs,
    so a written report certifies that every variant pair it times was
    also bit-identical.  Speedups are *recorded*, never asserted — on a
    single-core runner they measure scheduler noise, not the engine.
    """
    cycle = []
    for label, scale in SCALES:
        problem = dblp_like(scale=scale, num_ads=1, seed=13)
        probs = problem.ad_edge_probabilities(0)
        r = run_engine_cycle(problem.graph, probs, theta=cycle_theta)
        cycle.append(
            {"graph": label, "n": problem.num_nodes, "mode": "blocked", **r}
        )
    report = {
        "benchmark": "rrset_engine",
        "cpu_count": os.cpu_count() or 1,
        "numba": numba_available(),
        "thetas": {
            "engine_cycle": cycle_theta,
            "sharded_pilot": sharded_theta,
            "growth_topup": growth_theta,
            "shard_cache_rr_cap": shard_cache_rr_cap,
            "service_rr_cap": service_rr_cap,
        },
        "sections": {
            "engine_cycle": cycle,
            "sharded_pilot": _as_records(_sharded_rows(theta=sharded_theta)),
            "growth_topup": _as_records(_growth_rows(theta=growth_theta)),
            "shard_cache": _as_records(
                _shard_cache_rows(max_rr_sets=shard_cache_rr_cap)
            ),
            "service": _as_records(_service_rows(max_rr_sets=service_rr_cap)),
        },
    }
    with open(path, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return report


def test_rrset_engine_cycle(run_once):
    rows = run_once(_rows)
    print()
    print(
        format_table(
            ["graph", "n", "sampler", "sample+append (s)", "cover (s)",
             "index+remove (s)", "total (s)", "RR mem (MB)"],
            rows,
            title=f"RR-set engine: θ={THETA}, {SEEDS_TO_PICK} seeds per cycle",
        )
    )
    # sanity: every phase completed with data flowing through the pool
    assert all(r[7] > 0 for r in rows)


def test_sharded_engine_smoke(run_once):
    """Serial vs process sharded pilot must agree set-for-set.

    This is the CI smoke: a sub-30-second pilot phase at reduced θ whose
    per-shard members/indptr blocks are asserted identical inside
    ``_sharded_rows``.  Speedup is *reported*, never asserted, here: at
    smoke scale the workload is tens of milliseconds, so wall-clock
    ratios measure scheduler noise, not the engine (and a single-core
    runner cannot express a speedup at all).  The ≥2× multi-core figure
    belongs to the full-θ standalone run on a quiet bench box.
    """
    rows = run_once(_sharded_rows, theta=1_000)
    print()
    print(
        format_table(
            ["phase", "n", "engine", "ads", "theta/ad", "wall (s)", "speedup"],
            rows,
            title=f"Sharded pilot phase: h={SHARDED_ADS} advertisers "
                  f"({os.cpu_count() or 1} cores visible)",
        )
    )


def test_growth_topup_smoke(run_once):
    """Single-ad chunked growth: serial vs process must agree byte-for-
    byte (asserted inside ``_growth_rows``).

    Like the sharded smoke, the speedup is *reported*, never asserted:
    at smoke θ the workload is milliseconds and a single-core runner
    cannot express one.  The multi-core figure belongs to the full-θ
    standalone run — the point of the section is that the growth phase,
    which bypassed the pool entirely before counter-based streams, now
    scales with workers at all.
    """
    rows = run_once(_growth_rows, theta=2_000)
    print()
    print(
        format_table(
            ["phase", "n", "engine", "ads", "theta", "wall (s)", "speedup"],
            rows,
            title=f"Single-ad growth top-up, chunk={GROWTH_CHUNK} "
                  f"({os.cpu_count() or 1} cores visible)",
        )
    )


def test_backend_comparison_smoke(run_once):
    """NumPy vs numba backend on the same stream: byte-equality is
    asserted inside ``_backend_rows`` at reduced θ.

    The speedup is *reported*, never asserted, here: the smoke runs at
    tiny θ (and falls back to the uncompiled kernel without numba, where
    the column measures interpreter overhead, not the JIT).  The ≥2×
    figure belongs to the full-θ standalone run with the numba extra
    installed.
    """
    theta = 2_000 if numba_available() else 400
    rows = run_once(_backend_rows, theta=theta)
    print()
    print(
        format_table(
            ["phase", "n", "backend", "ads", "theta", "wall (s)", "speedup"],
            rows,
            title="Blocked-sampling backends (byte-equality asserted; "
                  f"numba installed: {numba_available()})",
        )
    )


def test_shard_cache_smoke(run_once):
    """Cold vs warm TIRM through the shard cache: the warm run must
    perform zero backend invocations and allocate identically (both
    asserted inside ``_shard_cache_rows``); the speedup is reported,
    never asserted."""
    rows = run_once(_shard_cache_rows, max_rr_sets=1_500)
    print()
    print(
        format_table(
            ["phase", "n", "run", "ads", "rr cap", "wall (s)", "speedup"],
            rows,
            title="Shard cache: cold populate vs warm zero-sampling rerun",
        )
    )


def test_service_smoke(run_once):
    """Cold submit vs warm resubmit vs incremental re-allocation through
    the service's engine pool: zero warm backend invocations and byte-
    equality vs the cold batch references (all asserted inside
    ``_service_rows``); the speedups are reported, never asserted."""
    rows = run_once(_service_rows, max_rr_sets=1_500)
    print()
    print(
        format_table(
            ["phase", "n", "job", "ads", "rr cap", "wall (s)", "speedup"],
            rows,
            title="Allocation service: cold vs warm vs incremental realloc",
        )
    )


def test_json_report_smoke(tmp_path):
    """``--json`` artifact: every section present, rows well-formed."""
    path = str(tmp_path / "BENCH_PR9.json")
    report = write_json_report(
        path,
        cycle_theta=500,
        sharded_theta=300,
        growth_theta=1_000,
        shard_cache_rr_cap=1_000,
        service_rr_cap=1_000,
    )
    with open(path) as handle:
        on_disk = json.load(handle)
    assert on_disk == report
    sections = on_disk["sections"]
    assert set(sections) == {
        "engine_cycle", "sharded_pilot", "growth_topup", "shard_cache",
        "service",
    }
    assert {row["variant"] for row in sections["service"]} == {
        "cold", "warm", "realloc",
    }
    assert {row["variant"] for row in sections["shard_cache"]} == {"cold", "warm"}
    assert all(row["wall_s"] >= 0 for row in sections["growth_topup"])
    assert all(r["total"] > 0 for r in sections["engine_cycle"])


def test_report_recorded_to_catalog(tmp_path):
    """With a cache configured, the section rows land in the catalog's
    benchmark history (``repro ls --benchmarks`` reads them back)."""
    from repro.store.catalog import ExperimentCatalog

    report = {
        "sections": {
            "engine_cycle": [{"total": 1.0}],
            "shard_cache": _as_records(
                [["shard-cache", 100, "warm", 3, 500, 0.1, 4.0]]
            ),
        },
    }
    record_report_to_catalog(report, str(tmp_path), "BENCH_PR9.json")
    with ExperimentCatalog(str(tmp_path)) as catalog:
        (row,) = catalog.list_benchmarks()
    assert row["phase"] == "shard-cache"
    assert row["report"] == "BENCH_PR9.json"


def record_report_to_catalog(report: dict, cache_dir: str, report_name: str) -> None:
    """Append every timed section row to ``cache_dir``'s experiment
    catalog (``benchmarks`` table) so ``repro ls --benchmarks`` tracks
    bench history next to the allocations that share the cache."""
    from repro.store.catalog import ExperimentCatalog

    rows = [
        row
        for name, section in report["sections"].items()
        if name != "engine_cycle"
        for row in section
    ]
    with ExperimentCatalog(cache_dir) as catalog:
        catalog.record_benchmarks(rows, report=report_name)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--json", nargs="?", const=JSON_REPORT, default=None, metavar="PATH",
        help=f"write a machine-readable report (default: {JSON_REPORT})",
    )
    parser.add_argument(
        "--cache", default=os.environ.get("REPRO_CACHE") or None, metavar="DIR",
        help="record the report's section rows in this cache directory's "
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
            if name == "engine_cycle":
                continue
            for row in rows:
                print(
                    f"{row['phase']:15s} n={row['n']:7d} "
                    f"{row['variant']:8s} wall={row['wall_s']:7.3f}s "
                    f"speedup={row['speedup']:5.2f}x"
                )
        print(f"report written to {cli_args.json}")
        raise SystemExit(0)
    for row in _rows():
        label, n, mode, si, cov, rem, tot, mem = row
        print(
            f"{label:10s} n={n:7d} {mode:8s} sample+append={si:7.3f}s "
            f"cover={cov:6.3f}s index+remove={rem:6.3f}s total={tot:7.3f}s "
            f"mem={mem:7.2f}MB"
        )
    for row in _sharded_rows():
        label, n, engine, ads, theta, wall, speedup = row
        print(
            f"{label:13s} n={n:7d} {engine:8s} h={ads} theta={theta} "
            f"wall={wall:7.3f}s speedup={speedup:5.2f}x"
        )
    for row in _growth_rows():
        label, n, engine, ads, theta, wall, speedup = row
        print(
            f"{label:13s} n={n:7d} {engine:8s} h={ads} theta={theta} "
            f"wall={wall:7.3f}s speedup={speedup:5.2f}x"
        )
    if numba_available():
        for row in _backend_rows():
            label, n, backend, ads, theta, wall, speedup = row
            print(
                f"{label:15s} n={n:7d} {backend:9s} theta={theta} "
                f"wall={wall:7.3f}s speedup={speedup:5.2f}x"
            )
    else:
        print(
            "backend-blocked: numba not installed — JIT comparison skipped "
            "(pip install numba; byte-equality of the kernel is still "
            "covered by the smoke test and tests/rrset/test_backends.py)"
        )
    for row in _shard_cache_rows():
        label, n, variant, ads, cap, wall, speedup = row
        print(
            f"{label:13s} n={n:7d} {variant:8s} h={ads} rr_cap={cap} "
            f"wall={wall:7.3f}s speedup={speedup:5.2f}x"
        )
    for row in _service_rows():
        label, n, variant, ads, cap, wall, speedup = row
        print(
            f"{label:13s} n={n:7d} {variant:8s} h={ads} rr_cap={cap} "
            f"wall={wall:7.3f}s speedup={speedup:5.2f}x"
        )
