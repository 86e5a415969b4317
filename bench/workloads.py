"""The six benchmark workloads, their instances, and the output checks.

Every workload is closed loop with one client and one operation in
flight: ``setup()`` builds the instance and starts whatever substrate
the workload needs, ``round()`` performs the timed operation(s) and
returns one outcome per allocation, ``teardown()`` stops the substrate.
``round(tracer)`` performs the same operations with the session loop
driven by the harness, so each state lands in its own span.

Two instances, sized so that a round takes one to two seconds and the
driver's 136 runs fit its time cap (README, "Sizing"):

``LJ``    livejournal stand-in, n = 2 400, 5 ads, ε = 0.1.  The per-ad
          cap of 16 000 RR sets binds for every seed (θ(s=1) is several
          times larger) and each ad's budget is met by its first seed,
          so every seed samples exactly 80 000 sets in 80 chunks and
          runs exactly 5 iterations: the work does not depend on
          ``--seed`` (3 % spread of wall time over seeds 0–15).
``FLIX``  flixster stand-in, 4 ads, ε = 0.1, cap 30 000 per ad.  The
          greedy end-game re-scans finished ads' heaps, and how long it
          does so is chaotic in the allocator seed (0.5–1.9 s over seeds
          0–15 at equal iteration counts), so this workload's allocator
          seed is part of its definition and ``--seed`` does not reach it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time

from repro.algorithms.session import TERMINAL_STATES, AllocationSession
from repro.algorithms.tirm import TIRMAllocator
from repro.datasets import flixster_like, livejournal_like

from spans import span

#: Allocator seed of ``batch_select_bound`` (see the module docstring).
FLIX_SEED = 1

#: dsan roots of the full preset: ``LJ`` at ``--seed 0`` on every
#: substrate, ``FLIX`` at ``FLIX_SEED``.
PINNED_ROOTS = {
    "LJ": "6c79b3e1e02b95ed10ab7596c206f5fe",
    "FLIX": "b2a720227624d535c7e9e483c21f6134",
}

#: A round that runs longer than this counts as failed.
ROUND_TIMEOUT = 120.0

PRESETS = {
    "full": {
        "LJ": {
            "dataset": {"scale": 0.0005, "num_ads": 5},
            "alloc": {"epsilon": 0.1, "max_rr_sets_per_ad": 16_000},
        },
        "FLIX": {
            "dataset": {"scale": 0.1, "num_ads": 4},
            "alloc": {"epsilon": 0.1, "max_rr_sets_per_ad": 30_000},
        },
        # Ad 0's budget on LJ is 40; re-allocation raises it by a quarter.
        "realloc_budget": 50.0,
        "setup_repeats": 3,
        "min_rounds": 3,
        "referee_runs": 1000,
        "pings": 200,
        "polls": 50,
    },
    "smoke": {
        "LJ": {
            "dataset": {"scale": 0.0001, "num_ads": 2},
            "alloc": {"epsilon": 0.3, "max_rr_sets_per_ad": 3_000},
        },
        "FLIX": {
            "dataset": {"scale": 0.01, "num_ads": 3},
            "alloc": {"epsilon": 0.3, "max_rr_sets_per_ad": 2_000},
        },
        "realloc_budget": 12.5,
        "setup_repeats": 1,
        "min_rounds": 2,
        "referee_runs": 50,
        "pings": 20,
        "polls": 5,
    },
}

_FACTORIES = {"LJ": livejournal_like, "FLIX": flixster_like}
#: The instances' names in ``repro.datasets.DATASETS`` (CLI, service).
REGISTRY_NAMES = {"LJ": "livejournal"}
_COMMON = {"rng": "philox", "backend": "numpy", "dsan": True}


class Context:
    """What one benchmark process owns: the preset, the seed, and every
    child process and scratch directory it created — all inside the
    checkout, all gone after :meth:`close`."""

    def __init__(self, root: str, preset: str, seed: int) -> None:
        self.root = root
        self.preset_name = preset
        self.preset = PRESETS[preset]
        self.seed = int(seed)
        self.workers = min(2, os.cpu_count() or 1)
        self._children: list[subprocess.Popen] = []
        self._dirs: list[str] = []

    def mkdtemp(self) -> str:
        base = os.path.join(self.root, "bench", ".work")
        os.makedirs(base, exist_ok=True)
        path = tempfile.mkdtemp(dir=base)
        self._dirs.append(path)
        return path

    def child_env(self) -> dict:
        env = dict(os.environ)
        src = os.path.join(self.root, "src")
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        return env

    def spawn(self, *args: str) -> subprocess.Popen:
        """Start ``python <args>`` with ``src`` importable, output muted."""
        proc = subprocess.Popen(
            [sys.executable, *args], env=self.child_env(),
            stdout=subprocess.DEVNULL,
        )
        self._children.append(proc)
        return proc

    def reap(self, proc: subprocess.Popen, timeout: float = 10.0) -> None:
        try:
            proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()

    def live_children_peak_rss_mb(self) -> float:
        """Largest ``VmHWM`` among the children still running, MiB."""
        peak = 0.0
        for proc in self._children:
            if proc.poll() is None:
                with open(f"/proc/{proc.pid}/status") as handle:
                    for line in handle:
                        if line.startswith("VmHWM:"):
                            peak = max(peak, int(line.split()[1]) / 1024.0)
        return peak

    def close(self) -> None:
        for proc in self._children:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        self._children.clear()
        for path in self._dirs:
            shutil.rmtree(path, ignore_errors=True)
        self._dirs.clear()
        try:
            os.rmdir(os.path.join(self.root, "bench", ".work"))
        except OSError:
            pass  # never made, or another run is using it


def build_instance(ctx: Context, key: str, tracer=None):
    with span(tracer, "datasets.build"):
        problem = _FACTORIES[key](**ctx.preset[key]["dataset"])
    with span(tracer, "advertising.edge_probs"):
        for ad in range(problem.num_ads):
            problem.ad_edge_probabilities(ad)
    return problem


def outcome(stats: dict, seeds, *, warm: bool = False, engine_warm=None) -> dict:
    """What the checks and metrics need from one finished allocation."""
    return {
        "root": stats["dsan_root"],
        "rr_sets": stats["total_rr_sets"],
        "rr_bytes": stats["rr_memory_bytes"],
        "invocations": stats["backend_invocations"],
        "iterations": stats["iterations"],
        "engine": stats["engine"],
        "cache": stats.get("cache"),
        "local_fallbacks": (stats.get("dist") or {}).get("local_fallbacks", 0),
        "seeds": [sorted(int(v) for v in ad_seeds) for ad_seeds in seeds],
        # A warm operation must not invoke the sampling backend at all.
        "warm": warm,
        "engine_warm": engine_warm,
    }


def _stepped_allocate(allocator: TIRMAllocator, problem, tracer):
    """``TIRMAllocator.allocate`` with the session loop in our hands:
    the same engine and cache lifecycle as the facade, one span per
    state transition."""
    from repro.store.cache import resolve_cache

    # Resolves backend and transport labels exactly as the facade does.
    allocator._checkpoint_config(problem)
    cache, owned = resolve_cache(allocator.cache)
    try:
        with allocator._build_engine(problem, cache) as engine:
            session = AllocationSession(
                problem, allocator, engine=engine, cache=cache
            )
            while session.state not in TERMINAL_STATES:
                with tracer.span("session." + session.state):
                    session.step()
            return session.result()
    finally:
        if owned and cache is not None:
            cache.close()


def allocate(problem, kwargs: dict, tracer=None, *, warm: bool = False) -> dict:
    allocator = TIRMAllocator(**_COMMON, **kwargs)
    if tracer is None:
        result = allocator.allocate(problem)
    else:
        result = _stepped_allocate(allocator, problem, tracer)
    seeds = [result.allocation.seed_array(ad) for ad in range(problem.num_ads)]
    return outcome(result.stats, seeds, warm=warm)


class Workload:
    """One serial in-process allocation per round; subclasses change the
    instance, the substrate, or both."""

    name = ""
    why = ""
    instance = "LJ"
    #: Compare root and seed sets with an in-process serial allocation.
    needs_reference = False
    #: Parallel substrate: labelled overhead, not speed-up, on one core.
    fanout = False
    #: Chunk blocks travel as ``repro.dist`` RESULT frames.
    socket_frames = False
    #: Traced runs also push this allocation through ``repro allocate``.
    cli_twin = False

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        self.problem = None

    def allocator_kwargs(self) -> dict:
        return {"seed": self.ctx.seed, **self.ctx.preset[self.instance]["alloc"]}

    def setup(self, tracer=None) -> None:
        self.problem = build_instance(self.ctx, self.instance, tracer)

    def round(self, tracer=None) -> list[dict]:
        return [allocate(self.problem, self.allocator_kwargs(), tracer)]

    def live_metrics(self) -> dict:
        """Per-layer metrics that need the substrate still running."""
        return {}

    def teardown(self) -> None:
        pass


class BatchSampleBound(Workload):
    name = "batch_sample_bound"
    why = (
        "serial TIRM on LJ: sampler BFS plus pool splice and index build do "
        "nearly all the work, selection almost none; the pool is used write-side"
    )
    cli_twin = True


class BatchSelectBound(Workload):
    name = "batch_select_bound"
    why = (
        "serial TIRM on FLIX: the greedy SELECT loop (lazy heap, coverage, "
        "remove_covered) dominates; the same pool used read/remove-side"
    )
    instance = "FLIX"

    def allocator_kwargs(self) -> dict:
        return {**super().allocator_kwargs(), "seed": FLIX_SEED}


class ProcessFanout(Workload):
    name = "process_fanout"
    why = (
        "LJ on the process pool with shared-memory transport: worker fan-out, "
        "with the parent-side splice as the serial fraction"
    )
    needs_reference = True
    fanout = True

    def allocator_kwargs(self) -> dict:
        return {
            **super().allocator_kwargs(),
            "engine": "process",
            "max_workers": self.ctx.workers,
            "transport": "auto",
        }


class DistFanout(Workload):
    name = "dist_fanout"
    why = (
        "LJ on a coordinator and socket workers: the other substrate of the "
        "same fan-out seam, so the two can be compared before one is deleted"
    )
    needs_reference = True
    fanout = True
    socket_frames = True

    def __init__(self, ctx: Context) -> None:
        super().__init__(ctx)
        self.coordinator = None
        self.workers: list[subprocess.Popen] = []

    def setup(self, tracer=None) -> None:
        from repro.dist import Coordinator

        super().setup(tracer)
        with span(tracer, "dist.start"):
            self.coordinator = Coordinator().start()
            host, port = self.coordinator.address
            self.workers = [
                self.ctx.spawn("-m", "repro", "worker", "--connect", f"{host}:{port}")
                for _ in range(self.ctx.workers)
            ]
            self.coordinator.wait_for_workers(len(self.workers), timeout=30.0)

    def allocator_kwargs(self) -> dict:
        return {
            **super().allocator_kwargs(),
            "engine": "dist",
            "coordinator": self.coordinator,
        }

    def round(self, tracer=None) -> list[dict]:
        before = self.coordinator.stats()
        result = allocate(self.problem, self.allocator_kwargs(), tracer)
        after = self.coordinator.stats()
        # Coordinator counters are cumulative; a round owns the difference.
        result["dist"] = {
            key: after[key] - before[key]
            for key in ("tasks_completed", "retries")
        }
        return [result]

    def teardown(self) -> None:
        if self.coordinator is not None:
            self.coordinator.close()  # workers get SHUTDOWN and exit
            self.coordinator = None
        for worker in self.workers:
            self.ctx.reap(worker)
        self.workers = []


class CacheWarmReplay(Workload):
    name = "cache_warm_replay"
    why = (
        "LJ served entirely from a shard cache that set-up filled: store reads "
        "and splice with no sampling, so a BFS speed-up must not move it"
    )
    needs_reference = True

    def __init__(self, ctx: Context) -> None:
        super().__init__(ctx)
        self.cache_dir = None

    def allocator_kwargs(self) -> dict:
        return {**super().allocator_kwargs(), "cache": self.cache_dir}

    def setup(self, tracer=None) -> None:
        super().setup(tracer)
        self.cache_dir = self.ctx.mkdtemp()
        # Cache writes belong to set-up: one cold write-through run.
        with span(tracer, "cache.fill"):
            allocate(self.problem, self.allocator_kwargs(), tracer)

    def round(self, tracer=None) -> list[dict]:
        return [allocate(self.problem, self.allocator_kwargs(), tracer, warm=True)]

    def teardown(self) -> None:
        if self.cache_dir is not None:
            shutil.rmtree(self.cache_dir, ignore_errors=True)
            self.cache_dir = None


class ServedWarmRealloc(Workload):
    name = "served_warm_realloc"
    why = (
        "a real `repro serve` process driven by one client: warm resubmit, then "
        "a budget re-allocation; RPC, job manager and engine-pool memo path"
    )
    needs_reference = True

    def __init__(self, ctx: Context) -> None:
        super().__init__(ctx)
        self.server = None
        self.client = None
        self.cold = None
        self.last_job = None

    def _submit(self, *, warm: bool) -> dict:
        preset = self.ctx.preset[self.instance]
        self.last_job = self.client.submit(
            REGISTRY_NAMES[self.instance],
            params={"seed": self.ctx.seed, **_COMMON, **preset["alloc"]},
            dataset_kwargs=preset["dataset"],
        )
        return self._wait(self.last_job, warm=warm)

    def _wait(self, job_id: str, *, warm: bool) -> dict:
        reply = self.client.wait(job_id, timeout=ROUND_TIMEOUT)
        return outcome(
            reply["stats"], reply["seeds_per_ad"],
            warm=warm, engine_warm=reply["engine_warm"],
        )

    def setup(self, tracer=None) -> None:
        from repro.service.client import ServiceClient

        port_file = os.path.join(self.ctx.mkdtemp(), "port")
        with span(tracer, "service.start"):
            self.server = self.ctx.spawn(
                "-m", "repro", "serve", "--port-file", port_file
            )
            deadline = time.monotonic() + 30.0
            while not os.path.exists(port_file):
                if self.server.poll() is not None or time.monotonic() > deadline:
                    raise RuntimeError("repro serve did not publish its port")
                time.sleep(0.005)
        self.client = ServiceClient(port_file=port_file, timeout=ROUND_TIMEOUT)
        with span(tracer, "service.cold_submit"):
            self.cold = self._submit(warm=False)

    def round(self, tracer=None) -> list[dict]:
        with span(tracer, "service.warm_resubmit"):
            resubmit = self._submit(warm=True)
        with span(tracer, "service.realloc"):
            job = self.client.reallocate(
                self.last_job,
                update_budgets={"0": self.ctx.preset["realloc_budget"]},
            )
            realloc = self._wait(job, warm=False)
        return [resubmit, realloc]

    def live_metrics(self) -> dict:
        """Median RPC round trips: an empty ``ping`` and a progress poll
        of a finished job."""
        import statistics

        def median_of(count, call):
            samples = []
            for _ in range(count):
                start = time.perf_counter()
                call()
                samples.append(time.perf_counter() - start)
            return statistics.median(samples)

        preset = self.ctx.preset
        return {
            "service.ping_rtt_us": 1e6 * median_of(preset["pings"], self.client.ping),
            "service.progress_rtt_ms": 1e3 * median_of(
                preset["polls"], lambda: self.client.progress(self.last_job)
            ),
        }

    def teardown(self) -> None:
        from repro.errors import ServiceError

        if self.server is None:
            return
        if self.server.poll() is None and self.client is not None:
            try:
                self.client.shutdown()
            except ServiceError:
                pass  # already going down; reap() kills it if not
        self.ctx.reap(self.server)
        self.server = None


WORKLOADS = {
    cls.name: cls
    for cls in (
        BatchSampleBound, BatchSelectBound, ProcessFanout, DistFanout,
        CacheWarmReplay, ServedWarmRealloc,
    )
}


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------
def failed_rounds(rounds: list[list[dict]]) -> list[str]:
    """One message per round whose outcome breaks the run's contract:
    every round must reproduce the first round's dsan roots, and a warm
    operation must not have sampled."""
    first = [op["root"] for op in rounds[0]]
    problems = []
    for index, ops in enumerate(rounds):
        if [op["root"] for op in ops] != first:
            problems.append(f"round {index}: dsan root differs from round 0")
        elif any(op["warm"] and op["invocations"] != 0 for op in ops):
            problems.append(f"round {index}: warm operation invoked the backend")
    return problems


def verify(workload: Workload, problem, first: dict, referee) -> list[str]:
    """Checks on the first round's first allocation; returns what is
    wrong (empty = correct).  ``problem`` is the workload's instance,
    ``referee`` the evaluation of that allocation on it."""
    from repro.advertising.allocation import Allocation
    from repro.errors import AllocationError

    ctx = workload.ctx
    problems = []
    try:
        Allocation.from_seed_sets(
            first["seeds"], problem.num_nodes, bounds=problem.attention
        )
    except AllocationError as exc:
        problems.append(str(exc))
    if not any(first["seeds"]):
        problems.append("allocation has no seeds")
    if referee["regret_over_budget"] > 0.5:
        problems.append(
            f"regret is {referee['regret_over_budget']:.3f} of the budget"
        )
    if workload.needs_reference:
        kwargs = {"seed": ctx.seed, **ctx.preset[workload.instance]["alloc"]}
        reference = allocate(problem, kwargs)
        if reference["root"] != first["root"]:
            problems.append(
                f"dsan root {first['root']} differs from the serial "
                f"reference {reference['root']}"
            )
        if reference["seeds"] != first["seeds"]:
            problems.append("seed sets differ from the serial reference")
    pinned = PINNED_ROOTS[workload.instance]
    seed_is_pinned = workload.instance == "FLIX" or ctx.seed == 0
    if ctx.preset_name == "full" and seed_is_pinned and first["root"] != pinned:
        problems.append(f"dsan root {first['root']} differs from pinned {pinned}")
    return problems


def evaluate(ctx: Context, problem, seeds) -> dict:
    """The referee: Monte-Carlo regret of an allocation, untimed."""
    from repro.advertising.allocation import Allocation
    from repro.evaluation.evaluator import RegretEvaluator

    allocation = Allocation.from_seed_sets(seeds, problem.num_nodes)
    start = time.perf_counter()
    report = RegretEvaluator(
        problem, num_runs=ctx.preset["referee_runs"], seed=1
    ).evaluate(allocation)
    budget = float(sum(problem.catalog.budgets()))
    return {
        "regret_over_budget": report.total_regret / budget,
        "referee_s": time.perf_counter() - start,
    }
