"""Which public callables the traced pass wraps, and how spans become
the per-layer metrics of ``BENCHMARK.json``.

Layer names follow the repo's modules.  Everything here is observed in
the harness process: time spent inside pool workers, socket workers or
the ``repro serve`` process shows up only as the parent waiting
(``engine.wait_s``, ``service.*``).
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time

import numpy as np

from spans import Tracer

#: Blocks kept from a traced round for the frame-codec replay.
CODEC_BLOCKS = 32


def install(tracer: Tracer, blocks: list | None = None) -> None:
    """Wrap the layers' public entry points.  ``blocks`` collects copies
    of the first :data:`CODEC_BLOCKS` spliced chunk blocks."""
    from repro.algorithms.session import AllocationSession
    from repro.dist.engine import DistributedEngine
    from repro.rrset.backends import resolve_backend
    from repro.rrset.dsan import DsanRecorder
    from repro.rrset.pool import RRSetPool
    from repro.rrset.sampler import RRSetSampler
    from repro.rrset.sharded import ShardedSamplingEngine
    from repro.store.cache import ShardCache
    from repro.store.catalog import ExperimentCatalog

    def block_bytes(members, lengths) -> int:
        return int(np.asarray(members).nbytes + np.asarray(lengths).nbytes)

    def recorded(args, kwargs, result):
        _, ad, chunk, members, lengths = args
        if blocks is not None and len(blocks) < CODEC_BLOCKS:
            blocks.append((ad, chunk, np.array(members), np.array(lengths)))
        return (ad, chunk)

    tracer.install(
        RRSetSampler, "sample_chunk_block", "sampler.sample_chunk_block",
        amount=lambda a, k, r: (len(r[1]), len(r[0])),  # sets, members
    )
    tracer.install(
        type(resolve_backend("numpy")), "level_op", "backend.level_op"
    )
    tracer.install(
        RRSetPool, "add_flat", "pool.add_flat",
        amount=lambda a, k, r: (int(np.asarray(a[1]).size), 0),
    )
    tracer.install(
        RRSetPool, "add_flat_from_buffer", "pool.add_flat",
        # members, bytes that came through an external buffer
        amount=lambda a, k, r: (
            k["num_members"], k["num_members"] * 4 + k["num_sets"] * 8
        ),
    )
    tracer.install(RRSetPool, "remove_covered", "pool.remove_covered")
    tracer.install(ShardedSamplingEngine, "ensure", "engine.ensure")
    for engine in (ShardedSamplingEngine, DistributedEngine):
        tracer.install(
            engine, "prefetch", "engine.prefetch", amount=lambda a, k, r: r
        )
    tracer.install(DsanRecorder, "record", "dsan.record", amount=recorded)
    tracer.install(
        ShardCache, "load", "cache.load",
        amount=lambda a, k, r: (
            0 if r is None else r.num_members * 4 + r.num_sets * 8
        ),
    )
    tracer.install(
        ShardCache, "store", "cache.store",
        amount=lambda a, k, r: block_bytes(a[3], a[4]),
    )
    for method in ("record_allocation", "record_shards"):
        tracer.install(ExperimentCatalog, method, "catalog.record")
    tracer.install(AllocationSession, "progress", "session.progress")


def _rate(amount: float, seconds: float) -> float:
    return amount / seconds if seconds > 0 else 0.0


def round_metrics(tracer: Tracer, round_id, ops: list[dict]) -> dict:
    """Per-layer numbers of one traced round (``round_id`` as recorded
    on its spans; ``ops`` the outcomes the round returned)."""
    busy = lambda name: tracer.busy(name, round_id)  # noqa: E731
    calls = lambda name: tracer.calls(name, round_id)  # noqa: E731

    sampled = tracer.amounts("sampler.sample_chunk_block", round_id)
    spliced = tracer.amounts("pool.add_flat", round_id)
    loaded = tracer.amounts("cache.load", round_id)
    chunks = set(tracer.amounts("dsan.record", round_id))
    invocations = sum(op["invocations"] for op in ops)
    iterations = sum(op["iterations"] for op in ops)
    cache = [op["cache"] for op in ops if op.get("cache")]
    hits = sum(c["hits"] for c in cache)
    misses = sum(c["misses"] for c in cache)
    dist = [op["dist"] for op in ops if op.get("dist")]
    select = busy("session.select")
    pooled = any(op["engine"] == "process" for op in ops)
    return {
        "sampler.chunk_calls": calls("sampler.sample_chunk_block"),
        "sampler.busy_s": busy("sampler.sample_chunk_block"),
        "sampler.sets_per_s": _rate(
            sum(a[0] for a in sampled), busy("sampler.sample_chunk_block")
        ),
        "sampler.members_per_s": _rate(
            sum(a[1] for a in sampled), busy("sampler.sample_chunk_block")
        ),
        "backend.level_op_calls": calls("backend.level_op"),
        "backend.level_op_busy_s": busy("backend.level_op"),
        "pool.add_flat_busy_s": busy("pool.add_flat"),
        "pool.add_flat_calls": calls("pool.add_flat"),
        "pool.members_spliced": sum(a[0] for a in spliced),
        "pool.remove_covered_busy_s": busy("pool.remove_covered"),
        "pool.remove_covered_calls": calls("pool.remove_covered"),
        "pool.memory_mb": sum(op["rr_bytes"] for op in ops) / 1e6,
        "engine.ensure_busy_s": busy("engine.ensure"),
        "engine.ensure_calls": calls("engine.ensure"),
        "engine.prefetch_busy_s": busy("engine.prefetch"),
        "engine.prefetch_chunks": sum(tracer.amounts("engine.prefetch", round_id)),
        # ensure minus the parent-side sampler, splice, digest and cache
        # time inside it: waiting for workers, plus dispatch.
        "engine.wait_s": tracer.self_time("engine.ensure", round_id),
        "engine.backend_invocations": invocations,
        "engine.useful_chunk_ratio": _rate(len(chunks), invocations),
        "engine.total_rr_sets": sum(op["rr_sets"] for op in ops),
        # Bytes the parent spliced out of worker-published segments.
        "engine.shm_mb": sum(a[1] for a in spliced) / 1e6 if pooled else 0.0,
        "dsan.digest_busy_s": busy("dsan.record"),
        "dsan.digest_calls": calls("dsan.record"),
        "cache.load_busy_s": busy("cache.load"),
        "cache.load_calls": calls("cache.load"),
        "cache.hits": hits,
        "cache.misses": misses,
        "cache.hit_ratio": _rate(hits, hits + misses),
        "cache.read_mb_per_s": _rate(sum(loaded) / 1e6, busy("cache.load")),
        "session.pilot_s": busy("session.pilot"),
        "session.estimate_theta_s": busy("session.estimate-theta"),
        "session.select_s": select,
        "session.grow_s": busy("session.grow"),
        "session.iterations": iterations,
        "session.growth_events": calls("session.grow"),
        "session.select_per_iter_ms": _rate(select * 1e3, iterations),
        # select minus remove_covered and the progress snapshot: heap
        # maintenance, coverage look-ups and candidate scoring.
        "session.select_self_s": tracer.self_time("session.select", round_id),
        "session.progress_busy_s": busy("session.progress"),
        "service.warm_resubmit_s": busy("service.warm_resubmit"),
        "service.realloc_s": busy("service.realloc"),
        "service.warm_backend_invocations": sum(
            op["invocations"] for op in ops if op["warm"] and op["engine_warm"]
        ),
        "service.realloc_backend_invocations": sum(
            op["invocations"] for op in ops
            if op["engine_warm"] is not None and not op["warm"]
        ),
        "service.engine_warm_share": _rate(
            sum(bool(op["engine_warm"]) for op in ops),
            sum(op["engine_warm"] is not None for op in ops),
        ),
        "dist.tasks_completed": sum(d["tasks_completed"] for d in dist),
        "dist.retries": sum(d["retries"] for d in dist),
        "dist.local_fallbacks": sum(op["local_fallbacks"] for op in ops),
    }


def setup_metrics(tracer: Tracer) -> dict:
    """Per-layer numbers of the traced set-up (spans with no round)."""
    stored = tracer.amounts("cache.store", None)
    store_busy = tracer.busy("cache.store", None)
    return {
        "datasets.build_s": tracer.busy("datasets.build", None),
        "advertising.edge_probs_s": tracer.busy("advertising.edge_probs", None),
        "cache.store_busy_s": store_busy,
        "cache.store_calls": tracer.calls("cache.store", None),
        "cache.bytes_written": sum(stored),
        "cache.write_mb_per_s": _rate(sum(stored) / 1e6, store_busy),
        "catalog.record_busy_s": tracer.busy("catalog.record", None),
        "service.cold_submit_s": tracer.busy("service.cold_submit", None),
    }


def codec_mb_per_s(blocks: list) -> float:
    """Replay ``pack_result`` → ``unpack_result`` over captured blocks."""
    from repro.dist.frames import pack_result, unpack_result

    if not blocks:
        return 0.0
    nbytes = 0
    start = time.perf_counter()
    for ad, chunk, members, lengths in blocks:
        payload = pack_result(ad, chunk, members, lengths)
        unpack_result(payload)
        nbytes += len(payload)
    return _rate(nbytes / 1e6, time.perf_counter() - start)


def cli_metrics(ctx, expected_root: str) -> dict:
    """What the command line adds on top of the library call: start-up
    of ``python -m repro``, and the ``batch_sample_bound`` allocation
    through ``repro allocate``.  Raises if the CLI's dsan root differs."""
    from workloads import REGISTRY_NAMES

    preset = ctx.preset["LJ"]

    def run(*args: str) -> tuple[float, str]:
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-m", "repro", *args], env=ctx.child_env(),
            capture_output=True, text=True, check=True, timeout=300,
        )
        return time.perf_counter() - start, done.stdout

    import_s, _ = run("datasets")
    allocate_s, output = run(
        "allocate", REGISTRY_NAMES["LJ"],
        "--scale", str(preset["dataset"]["scale"]),
        "--num-ads", str(preset["dataset"]["num_ads"]),
        "--epsilon", str(preset["alloc"]["epsilon"]),
        "--max-rr-sets", str(preset["alloc"]["max_rr_sets_per_ad"]),
        "--seed", str(ctx.seed), "--eval-runs", "1", "--dsan",
    )
    if expected_root not in output:
        raise RuntimeError(
            f"`repro allocate` did not report dsan root {expected_root}"
        )
    return {"cli.import_s": import_s, "cli.allocate_wall_s": allocate_s}


def median_of_rounds(per_round: list[dict]) -> dict:
    return {
        key: statistics.median(metrics[key] for metrics in per_round)
        for key in per_round[0]
    }
