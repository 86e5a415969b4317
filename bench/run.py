"""The repo benchmark: six TIRM workloads, measured end to end and, in a
separate traced pass, layer by layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

runs one workload and prints, as the last line of standard output, the
JSON object ``BENCHMARK.json`` promises.  The workload runs in a child
process, and the command returns only when every process that child
started has ended and been waited for (``run_contained``).  Without
``--workload`` every workload runs that way in turn (so peak RSS and
module caches are per workload) and one report is written:

    python3 bench/run.py [--seed N] [--trace 1] [--preset full|smoke] [--out FILE]

End-to-end metrics always come from untraced rounds that call
``TIRMAllocator.allocate`` (or the service client) exactly as a user
would.  See ``bench/README.md`` for the metrics and how to read them.
"""

from __future__ import annotations

import time

CHILD_START = time.perf_counter()  # set-up time counts from here

import argparse  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import multiprocessing  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from contextlib import contextmanager  # noqa: E402

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
REPORTS = os.path.join(BENCH, "reports")
SCHEMA = "repro-bench/1"


def declared() -> dict:
    """``BENCHMARK.json``: the metric names, units and run length."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


class RoundTimeout(Exception):
    pass


@contextmanager
def time_limit(seconds: float):
    def expire(signum, frame):
        raise RoundTimeout(f"round exceeded {seconds:.0f} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def shm_segments() -> int:
    return len(glob.glob("/dev/shm/psm_*"))


def peak_rss_mb(ctx) -> tuple[float, float]:
    """(this process, its largest child — running or reaped), MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    return own, max(reaped, ctx.live_children_peak_rss_mb())


# ----------------------------------------------------------------------
# One workload, in this process
# ----------------------------------------------------------------------
def set_up(ctx, name: str, tracer):
    """Build the workload ``setup_repeats`` times (once when traced) and
    keep the last one; returns it with the time each set-up took.  A
    set-up ends with one untimed round, so lazy imports, first calls and
    first-touch page faults are its cost and not the first timed
    round's.  Building an instance or spawning a process costs up to
    2.5 times as much in one process as in the next (page faults, on
    this VM), hence the median — and the round, which does not vary so,
    keeps that a small share of the whole."""
    import layers
    import workloads

    workload, times = None, []
    try:
        for _ in range(1 if tracer else ctx.preset["setup_repeats"]):
            if workload is not None:
                workload.teardown()
            workload = workloads.WORKLOADS[name](ctx)
            if tracer:
                layers.install(tracer)
            start = time.perf_counter()
            try:
                workload.setup(tracer)
            finally:
                if tracer:
                    tracer.remove()
            with time_limit(workloads.ROUND_TIMEOUT):
                workload.round()
            times.append(time.perf_counter() - start)
    except BaseException:
        if workload is not None:
            workload.teardown()
        raise
    return workload, times


def run_rounds(ctx, workload, seconds: float, tracer, blocks: list) -> dict:
    """Timed rounds — an untraced one, then (with a tracer) a traced one,
    alternating — started for ``seconds``; on a busy machine for at most
    half as long again, until ``min_rounds`` untraced rounds were quiet."""
    import layers
    import workloads

    min_rounds = ctx.preset["min_rounds"]
    rounds = []     # (trace id or None, wall, ops) of every sound round
    failures = []
    attempted = pairs = 0
    rss = None
    deadline = time.perf_counter() + seconds

    def wanted() -> bool:
        late = time.perf_counter() - deadline
        if pairs < min_rounds or late < 0:
            return True
        calm = len(quiet_of(rounds, traced=False))
        return calm < min_rounds and late < 0.5 * seconds

    while wanted():
        for with_trace in (False, True) if tracer else (False,):
            attempted += 1
            segments = shm_segments()
            if with_trace:
                tracer.round = pairs
                layers.install(tracer, blocks)
            start = time.perf_counter()
            try:
                with time_limit(workloads.ROUND_TIMEOUT):
                    ops = workload.round(tracer if with_trace else None)
                wall = time.perf_counter() - start
            except Exception as exc:  # a failed round is a result
                failures.append(f"round {attempted - 1}: {type(exc).__name__}: {exc}")
                continue
            finally:
                if with_trace:
                    tracer.remove()
            if shm_segments() != segments:
                failures.append(f"round {attempted - 1}: leaked /dev/shm segment")
            elif multiprocessing.active_children():
                failures.append(f"round {attempted - 1}: leaked worker process")
            else:
                rounds.append((pairs if with_trace else None, wall, ops))
        pairs += 1
        if pairs == min_rounds:
            # Always after the same round: a resident server grows with
            # every job it has run, and how many rounds fit into
            # --seconds depends on the machine.
            rss = peak_rss_mb(ctx)
    return {
        "rounds": rounds, "failures": failures, "attempted": attempted, "rss": rss,
    }


def quiet_of(rounds: list, traced: bool) -> list:
    """The quiet ones among the traced or the untraced ``rounds``."""
    import env

    mine = [r for r in rounds if (r[0] is not None) == traced]
    flags = env.quiet_rounds([wall for _, wall, _ in mine])
    return [r for r, calm in zip(mine, flags) if calm]


def per_layer_values(workload, tracer, blocks, timed, walls, names) -> dict:
    """Every per-layer metric of ``BENCHMARK.json``; a layer the
    workload never enters reports 0."""
    import layers

    calm = quiet_of(timed["rounds"], traced=True)
    values = dict.fromkeys(names, 0.0)
    values.update(layers.setup_metrics(tracer))
    if calm:
        values.update(layers.median_of_rounds([
            layers.round_metrics(tracer, trace_id, ops) for trace_id, _, ops in calm
        ]))
        # The traced rounds' own wall: the base for per-layer shares.
        values["trace.round_wall_s"] = statistics.median(w for _, w, _ in calm)
        values["trace.overhead_ratio"] = (
            values["trace.round_wall_s"] / statistics.median(walls)
        )
    if workload.fanout:
        values["dist.worker_peak_rss_mb"] = timed["rss"][1]
    if workload.socket_frames:
        values["frames.codec_mb_per_s"] = layers.codec_mb_per_s(blocks)
    return values


def measure(ctx, name: str, seconds: float, traced: bool, import_s: float) -> dict:
    import env
    import layers
    import workloads
    from spans import Tracer

    units = {
        m["name"]: m["unit"]
        for m in declared()["per_layer" if traced else "end_to_end"]
    }
    tracer = Tracer() if traced else None
    blocks: list = []   # chunk blocks kept for the frame-codec replay
    calib_before = env.calibrate()
    workload, setup_times = set_up(ctx, name, tracer)
    try:
        timed = run_rounds(ctx, workload, seconds, tracer, blocks)
        live = workload.live_metrics() if traced else {}
    finally:
        workload.teardown()
    calib_after = env.calibrate()

    rounds = timed["rounds"]
    # Time only the rounds the machine left alone.
    plain = [(wall, ops) for _, wall, ops in quiet_of(rounds, traced=False)]
    if not plain:
        sys.exit(f"{name}: no untraced round succeeded: {timed['failures']}")
    first = plain[0][1][0]
    mismatches = workloads.failed_rounds([ops for _, _, ops in rounds])
    problem = workload.problem or workloads.build_instance(ctx, workload.instance)
    referee = workloads.evaluate(ctx, problem, first["seeds"])
    problems = workloads.verify(workload, problem, first, referee)

    walls = [wall for wall, _ in plain]
    rates = [sum(op["rr_sets"] for op in ops) / wall for wall, ops in plain]
    setups = [import_s + t for t in setup_times]
    noise = env.noise(calib_before, calib_after)
    noise["quiet_rounds"] = len(plain)
    if traced:
        values = per_layer_values(workload, tracer, blocks, timed, walls, units)
        values.update(live)
        if workload.cli_twin:
            values.update(layers.cli_metrics(ctx, first["root"]))
        values["evaluation.referee_s"] = referee["referee_s"]
        values["evaluation.regret_over_budget"] = referee["regret_over_budget"]
        values["noise.calib_ms"] = noise["calib_ms"]
        values["noise.drift_ratio"] = noise["drift_ratio"]
        os.makedirs(REPORTS, exist_ok=True)
        tracer.dump(
            os.path.join(REPORTS, f"trace-{name}.json"),
            workload=name, seed=ctx.seed, preset=ctx.preset_name,
        )
    else:
        values = {
            "setup_s": statistics.median(setups),
            "alloc_wall_s": statistics.median(walls),
            "rr_sets_per_s": statistics.median(rates),
            "peak_rss_mb": sum(timed["rss"]),
            "rr_memory_mb": sum(op["rr_bytes"] for op in plain[0][1]) / 1e6,
            "budget_met_share": 1.0 - referee["regret_over_budget"],
        }

    return {
        "workload": name,
        "why": workload.why,
        # On one core a parallel substrate can only show its overhead.
        "label": (
            None if not workload.fanout
            else "speedup" if (os.cpu_count() or 1) > 1 else "overhead"
        ),
        "traced": traced,
        "correct": not problems and not mismatches,
        "attempted": timed["attempted"],
        "failed": len(timed["failures"]) + len(mismatches),
        "problems": timed["failures"] + mismatches + problems,
        "dsan_root": first["root"],
        "noise": noise,
        "samples": {"setup_s": setups, "alloc_wall_s": walls, "rr_sets_per_s": rates},
        "metrics": {
            key: {"value": values[key], "unit": unit} for key, unit in units.items()
        },
    }


def run_one(args) -> int:
    import workloads  # numpy + repro: imports are part of set-up

    import_s = time.perf_counter() - CHILD_START
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"unknown workload {args.workload!r}; known: {sorted(workloads.WORKLOADS)}")
    ctx = workloads.Context(ROOT, args.preset, args.seed)
    try:
        detail = measure(ctx, args.workload, args.seconds, bool(args.trace), import_s)
    finally:
        ctx.close()
    if args.detail:
        with open(args.detail, "w") as handle:
            json.dump(detail, handle)
    for key, metric in detail["metrics"].items():
        print(f"{key:38s} {metric['value']:.6g} {metric['unit']}")
    for problem in detail["problems"]:
        print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps({
        key: detail[key] for key in ("correct", "attempted", "failed", "metrics")
    }))
    return 0


# ----------------------------------------------------------------------
# One workload, contained: nothing it started outlives the command
# ----------------------------------------------------------------------
#: How long processes of a finished run get to end by themselves.
STRAGGLER_GRACE = 10.0
PR_SET_CHILD_SUBREAPER = 36  # <linux/prctl.h>


def adopt_orphans() -> None:
    """Make this process the one that orphaned descendants are
    re-parented to (Linux's child subreaper), so it can wait for them."""
    import ctypes

    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER) failed")


def own_children() -> list[int]:
    """This process's direct children, read from ``/proc``."""
    me, found = os.getpid(), []
    for entry in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{entry}/stat") as handle:
                # "pid (comm) state ppid ..."; comm may itself hold ")".
                ppid = int(handle.read().rpartition(")")[2].split()[1])
        except OSError:
            continue  # ended while we were looking
        if ppid == me:
            found.append(int(entry))
    return found


def reap_all(grace: float) -> list[int]:
    """Wait for every child, adopted ones included; after ``grace``
    seconds kill what is left.  Returns the processes that were killed."""
    deadline = time.monotonic() + grace
    killed: list[int] = []
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return killed
        if pid:
            continue
        if time.monotonic() > deadline:
            for straggler in set(own_children()) - set(killed):
                try:
                    os.kill(straggler, signal.SIGKILL)
                except ProcessLookupError:
                    continue
                killed.append(straggler)
        time.sleep(0.01)


def run_contained(argv: list[str]) -> int:
    """Run ``--workload`` in a child and return after the last process
    the run started has ended and been waited for, on every way out.
    That includes helpers a run leaves to end on their own:
    ``multiprocessing``'s resource tracker exits only once the process
    that started it is gone, and would otherwise outlive the command."""
    adopt_orphans()
    child = subprocess.Popen(
        [sys.executable, os.path.abspath(__file__), *argv, "--contained"]
    )
    grace = STRAGGLER_GRACE
    try:
        code = child.wait()
    except BaseException:  # SIGINT or SIGTERM: the child tears down, briefly
        child.terminate()
        grace = 5.0
        raise
    finally:
        killed = reap_all(grace)
    if killed:
        print(f"left running and killed: pids {killed}", file=sys.stderr)
    return code or (1 if killed else 0)


# ----------------------------------------------------------------------
# Every workload in turn, one report
# ----------------------------------------------------------------------
def summary(samples: list[float], unit: str) -> dict:
    """Median, quartiles and range of one metric's samples.  With ten
    samples or fewer nothing beyond the quartiles is claimed, and the
    quartiles are interpolated inside the observed range."""
    q1, _, q3 = (
        statistics.quantiles(samples, n=4, method="inclusive")
        if len(samples) > 1 else (samples[0],) * 3
    )
    return {
        "unit": unit,
        "median": statistics.median(samples),
        "q1": q1, "q3": q3,
        "min": min(samples), "max": max(samples),
        "n": len(samples),
    }


def run_all(args) -> int:
    import env
    import workloads

    report = {
        "schema": SCHEMA,
        "fingerprint": env.fingerprint(ROOT, preset=args.preset, seed=args.seed),
        "seconds": args.seconds,
        "workloads": {},
    }
    os.makedirs(REPORTS, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=REPORTS) as scratch:
        for name in workloads.WORKLOADS:
            entry: dict = {}
            for traced in (0, 1) if args.trace else (0,):
                path = os.path.join(scratch, f"{name}-{traced}.json")
                subprocess.run(
                    [
                        sys.executable, os.path.abspath(__file__),
                        "--workload", name, "--seed", str(args.seed),
                        "--seconds", str(args.seconds), "--trace", str(traced),
                        "--preset", args.preset, "--detail", path,
                    ],
                    check=True, stdout=subprocess.DEVNULL,
                )
                with open(path) as handle:
                    detail = json.load(handle)
                if not traced:
                    entry = {
                        key: detail[key] for key in (
                            "why", "label", "correct", "attempted", "failed",
                            "problems", "dsan_root", "noise",
                        )
                    }
                    entry["failed_share"] = detail["failed"] / detail["attempted"]
                    entry["end_to_end"] = {
                        key: summary(
                            detail["samples"].get(key, [metric["value"]]),
                            metric["unit"],
                        )
                        for key, metric in detail["metrics"].items()
                    }
                else:
                    entry["per_layer"] = detail["metrics"]
                    entry["traced_dsan_root"] = detail["dsan_root"]
                    entry["correct"] = entry["correct"] and detail["correct"]
                    entry["problems"] += detail["problems"]
            report["workloads"][name] = entry
            noisy = " (noisy)" if entry["noise"]["noisy"] else ""
            print(f"{name}{noisy}: correct={entry['correct']} "
                  f"failed={entry['failed']}/{entry['attempted']}")
            for section in ("end_to_end", "per_layer"):
                for key, metric in entry.get(section, {}).items():
                    value = metric.get("median", metric.get("value"))
                    print(f"  {key:36s} {value:.6g} {metric['unit']}")
    roots = {
        entry["dsan_root"]
        for name, entry in report["workloads"].items()
        if workloads.WORKLOADS[name].instance == "LJ"
    }
    report["lj_roots_equal"] = len(roots) == 1
    report["fingerprint"]["loadavg_after"] = list(os.getloadavg())
    with open(args.out, "w") as handle:
        json.dump(report, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"report: {args.out}")
    healthy = report["lj_roots_equal"] and all(
        entry["correct"] and not entry["failed"]
        for entry in report["workloads"].values()
    )
    return 0 if healthy else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run this one workload in-process")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=declared()["run_seconds"],
                        help="how long to keep starting timed rounds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced pass, per-layer metrics")
    parser.add_argument("--preset", choices=("full", "smoke"), default="full")
    parser.add_argument("--out", default=os.path.join(REPORTS, "report.json"),
                        help="report file (all-workload mode)")
    parser.add_argument("--detail", help=argparse.SUPPRESS)
    parser.add_argument("--contained", action="store_true", help=argparse.SUPPRESS)
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        sys.exit(f"{src}/repro not found: there is no program here to measure")
    sys.path[:0] = [src] if BENCH in sys.path else [BENCH, src]
    # The harness decides where caching and sanitizing happen.
    for variable in ("REPRO_CACHE", "REPRO_DSAN"):
        os.environ.pop(variable, None)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not args.workload:
        return run_all(args)
    return run_one(args) if args.contained else run_contained(argv)


if __name__ == "__main__":
    sys.exit(main())
