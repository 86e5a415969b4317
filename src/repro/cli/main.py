"""Argument parsing and command dispatch for the ``repro`` CLI.

Each command is a small function taking parsed args and returning an
exit code; all output goes through ``print`` so commands are trivially
testable with ``capsys``.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Callable

from repro.algorithms.bounds import compute_bounds
from repro.algorithms.greedy import GreedyAllocator
from repro.algorithms.irie import GreedyIRIEAllocator
from repro.algorithms.myopic import MyopicAllocator, MyopicPlusAllocator
from repro.algorithms.tirm import TIRMAllocator
from repro.datasets.registry import DATASETS, load_dataset
from repro.errors import ConfigurationError, ReproError
from repro.evaluation.evaluator import RegretEvaluator
from repro.evaluation.reporting import format_table
from repro.graph.stats import graph_stats
from repro.rrset.sampler import DEFAULT_CHUNK_SIZE

#: Allocator builders, called with the parsed args and the coordinator
#: of an ``--engine dist`` run (``None`` otherwise).
_ALLOCATORS: dict[str, Callable[..., object]] = {
    "tirm": lambda args, coordinator: TIRMAllocator(
        seed=args.seed, epsilon=args.epsilon, max_rr_sets_per_ad=args.max_rr_sets,
        engine=args.engine, coordinator=coordinator, chunk_size=args.chunk_size,
        max_workers=args.workers, checkpoint_path=args.checkpoint,
        checkpoint_every=args.checkpoint_every, resume_from=_resume_path(args),
        dsan=True if args.dsan else None, cache=args.cache, dataset=args.dataset,
    ),
    "greedy": lambda args, _: GreedyAllocator(num_runs=args.mc_runs, seed=args.seed),
    "myopic": lambda args, _: MyopicAllocator(),
    "myopic+": lambda args, _: MyopicPlusAllocator(),
    "irie": lambda args, _: GreedyIRIEAllocator(alpha=args.alpha),
}

_DATASET_KWARG_NAMES = ("scale", "num_ads", "attention_bound", "penalty")

#: ``allocate`` options that only some algorithms read, with the
#: algorithm that reads each: another ``--algorithm`` refuses a value
#: other than the default rather than run without it.
_READ_BY = {
    **dict.fromkeys((
        "epsilon", "max_rr_sets", "chunk_size", "dsan", "engine", "workers",
        "checkpoint", "checkpoint_every", "resume", "cache", "dist_port",
        "dist_host", "wait_workers", "allow_remote",
    ), "tirm"),
    "mc_runs": "greedy",
    "alpha": "irie",
}

#: How the refusal names the algorithm that reads an option.
_ALGORITHM_NAMES = {"tirm": "TIRM", "greedy": "Greedy", "irie": "Greedy-IRIE"}


def _resume_path(args) -> str | None:
    """``--resume`` resolves to the ``--checkpoint`` path when an
    artifact already exists there — a fresh launch of an always-on job
    (no artifact yet) starts from scratch instead of erroring."""
    if not args.resume:
        return None
    if args.checkpoint is None:
        raise ConfigurationError("--resume requires --checkpoint PATH")
    return args.checkpoint if os.path.exists(args.checkpoint) else None


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser (exposed for testing and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Ad Allocation with Minimum Regret' (VLDB 2015)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("datasets", help="list built-in datasets")

    def _add_run_args(command) -> None:
        """The dataset and TIRM options ``allocate`` and ``submit`` share."""
        command.add_argument("--scale", type=float, default=None,
                             help="dataset scale (synthetic datasets only)")
        command.add_argument("--num-ads", type=int, default=None)
        command.add_argument("--attention-bound", type=int, default=None)
        command.add_argument("--penalty", type=float, default=None,
                             help="seed penalty lambda")
        command.add_argument("--seed", type=int, default=0)
        command.add_argument("--epsilon", type=float, default=0.1)
        command.add_argument("--max-rr-sets", type=int, default=20_000)
        command.add_argument("--chunk-size", type=int, default=DEFAULT_CHUNK_SIZE,
                             help="set-index chunk width of the RR-set streams "
                                  "(TIRM only): every set is addressed by "
                                  "(seed, ad, set index), and chunks run in "
                                  "parallel on every engine; part of the "
                                  "determinism contract (same seed + same "
                                  "chunk size = same allocation)")
        command.add_argument("--dsan", action="store_true",
                             help="enable the runtime determinism sanitizer "
                                  "(TIRM only): record a blake2 digest per "
                                  "(ad, chunk) RR block and a whole-run "
                                  "dsan_root fingerprint in the stats; "
                                  "REPRO_DSAN=1 does the same without the flag")

    allocate = commands.add_parser("allocate", help="run an allocator on a dataset")
    allocate.add_argument("dataset", choices=sorted(DATASETS))
    allocate.add_argument("--algorithm", choices=sorted(_ALLOCATORS), default="tirm")
    _add_run_args(allocate)
    allocate.add_argument("--eval-runs", type=int, default=500)
    allocate.add_argument("--engine", choices=("serial", "process", "dist"),
                          default="serial",
                          help="RR-set sampling engine: in-process (the "
                               "caller and one helper thread per further "
                               "CPU), a fleet of forked worker processes, or the "
                               "distributed coordinator over socket workers "
                               "(TIRM only; all give identical allocations "
                               "for a seed)")
    allocate.add_argument("--workers", type=int, default=None,
                          help="forked workers for --engine process "
                               "(default: cpu count)")
    allocate.add_argument("--checkpoint", default=None, metavar="PATH",
                          help="snapshot the TIRM allocation to PATH "
                               "(e.g. run.ckpt.json) at iteration boundaries: "
                               "the JSON progress report, atomically "
                               "overwritten; RR sets are re-derived on resume")
    allocate.add_argument("--checkpoint-every", type=int, default=None,
                          dest="checkpoint_every", metavar="N",
                          help="snapshot every N iteration boundaries "
                               "(default 1 when --checkpoint is given)")
    allocate.add_argument("--resume", action="store_true",
                          help="resume from the --checkpoint artifact if it "
                               "exists; the resumed run is byte-identical to "
                               "an uninterrupted one for the same seed/"
                               "chunk size")
    allocate.add_argument("--cache", default=None, metavar="DIR",
                          help="content-addressed RR-set shard cache (TIRM "
                               "only): sampled chunk blocks are stored under "
                               "DIR and a warm rerun of the same allocation "
                               "performs zero sampling-backend invocations "
                               "while staying byte-identical; also records "
                               "the run in DIR's experiment catalog (see "
                               "`repro ls`).  REPRO_CACHE=DIR does the same "
                               "without the flag")
    allocate.add_argument("--dist-port", type=int, default=0, dest="dist_port",
                          metavar="PORT",
                          help="coordinator TCP port for --engine dist "
                               "(default 0: ephemeral; the bound port is "
                               "printed so workers can dial in)")
    allocate.add_argument("--dist-host", default="127.0.0.1", dest="dist_host",
                          help="coordinator bind host for --engine dist "
                               "(non-loopback hosts need --allow-remote)")
    allocate.add_argument("--wait-workers", type=int, default=0,
                          dest="wait_workers", metavar="N",
                          help="block until N workers have dialed in before "
                               "allocating (--engine dist; without it the "
                               "coordinator's grace period applies and "
                               "chunks fall back to local compute)")
    allocate.add_argument("--allow-remote", action="store_true",
                          dest="allow_remote",
                          help="allow binding the --engine dist coordinator "
                               "to a non-loopback --dist-host (the protocol "
                               "is unauthenticated; loopback is the default)")
    allocate.add_argument("--mc-runs", type=int, default=200, dest="mc_runs")
    allocate.add_argument("--alpha", type=float, default=0.8)

    commands.add_parser("figure1", help="reproduce the Fig.-1 numbers exactly")

    bounds = commands.add_parser("bounds", help="Theorem 2/3/4 bound estimates")
    bounds.add_argument("dataset", choices=sorted(DATASETS))
    bounds.add_argument("--scale", type=float, default=None)
    bounds.add_argument("--rr-sets", type=int, default=4_000, dest="rr_sets")
    bounds.add_argument("--seed", type=int, default=0)

    im = commands.add_parser("im", help="influence maximization with TIM")
    im.add_argument("--nodes", type=int, default=1_000)
    im.add_argument("--k", type=int, default=10)
    im.add_argument("--epsilon", type=float, default=0.2)
    im.add_argument("--seed", type=int, default=0)

    lint = commands.add_parser(
        "lint",
        help="determinism-contract linter (REPRO1xx rules; exit 1 on findings)",
    )
    lint.add_argument("paths", nargs="*", default=["src"],
                      help="files or directories to lint (default: src)")
    lint.add_argument("--select", default=None, metavar="CODES",
                      help="comma-separated rule codes to run, e.g. R101,R105")
    lint.add_argument("--list-rules", action="store_true", dest="list_rules",
                      help="print the rule catalog and exit")

    cache_help = ("shard cache / experiment catalog directory "
                  "(default: the REPRO_CACHE environment variable)")
    ls = commands.add_parser(
        "ls", help="list the experiment catalog (allocations by default)"
    )
    ls.add_argument("--cache", default=None, metavar="DIR", help=cache_help)
    ls_what = ls.add_mutually_exclusive_group()
    ls_what.add_argument("--shards", action="store_true",
                         help="list cached shard blocks (LRU-oldest first)")
    ls_what.add_argument("--checkpoints", action="store_true",
                         help="list registered checkpoint artifacts")

    show = commands.add_parser("show", help="one catalog allocation in full")
    show.add_argument("id", type=int, help="allocation id (see `repro ls`)")
    show.add_argument("--cache", default=None, metavar="DIR", help=cache_help)

    diff = commands.add_parser(
        "diff",
        help="compare two catalog allocations; exit 1 when a "
             "determinism-contract field differs (substrate fields — "
             "engine/backend/transport — are shown but never compared)",
    )
    diff.add_argument("left", type=int, help="allocation id")
    diff.add_argument("right", type=int, help="allocation id")
    diff.add_argument("--cache", default=None, metavar="DIR", help=cache_help)

    gc = commands.add_parser(
        "gc", help="evict LRU cache entries down to a byte budget "
                   "(checkpoint-referenced shards are never dropped)"
    )
    gc.add_argument("--cache", default=None, metavar="DIR", help=cache_help)
    gc.add_argument("--max-bytes", type=int, required=True, dest="max_bytes",
                    metavar="N", help="target total size of cached block files")
    gc.add_argument("--dry-run", action="store_true", dest="dry_run",
                    help="report what would be evicted without deleting")

    serve = commands.add_parser(
        "serve",
        help="run the resident allocation service (warm engine pools; "
             "line-delimited JSON over TCP)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=0,
                       help="TCP port (default 0: pick an ephemeral port "
                            "and publish it via --port-file)")
    serve.add_argument("--port-file", default=None, dest="port_file",
                       metavar="PATH",
                       help="write the bound port to PATH (atomic; removed "
                            "on shutdown) so clients find an ephemeral port")
    serve.add_argument("--cache", default=None, metavar="DIR", help=cache_help)
    serve.add_argument("--allow-remote", action="store_true",
                       dest="allow_remote",
                       help="allow binding to a non-loopback --host (the "
                            "protocol is unauthenticated; loopback is the "
                            "default and never needs this)")
    serve.add_argument("--dist-port", type=int, default=None, dest="dist_port",
                       metavar="PORT",
                       help="also run a distributed-sampling coordinator on "
                            "PORT (0: ephemeral) so engine='dist' jobs "
                            "scatter chunks to `repro worker` fleets")
    serve.add_argument("--dist-host", default="127.0.0.1", dest="dist_host",
                       help="coordinator bind host (non-loopback needs "
                            "--allow-remote)")

    worker = commands.add_parser(
        "worker",
        help="run one stateless sampling worker against a coordinator "
             "(re-derives chunks from (seed, ad, chunk); any number may "
             "dial in and the allocation bytes never change)",
    )
    worker.add_argument("--connect", required=True, metavar="HOST:PORT",
                        help="the coordinator's address, e.g. 127.0.0.1:7070")
    worker.add_argument("--cache", default=None, metavar="DIR",
                        help="local content-addressed shard store consulted "
                             "before sampling and fed after (default: the "
                             "REPRO_CACHE environment variable)")
    worker.add_argument("--name", default=None,
                        help="name reported to the coordinator's worker "
                             "table (default: pid-<pid>)")

    def _add_conn_args(command) -> None:
        command.add_argument("--host", default="127.0.0.1")
        command.add_argument("--port", type=int, default=None,
                             help="service port (or use --port-file)")
        command.add_argument("--port-file", default=None, dest="port_file",
                             metavar="PATH",
                             help="read the service port from PATH "
                                  "(written by `repro serve --port-file`)")

    submit = commands.add_parser(
        "submit", help="submit an allocation job to a running service"
    )
    submit.add_argument("dataset", choices=sorted(DATASETS))
    _add_conn_args(submit)
    _add_run_args(submit)
    submit.add_argument("--engine", choices=("serial", "process", "dist"),
                        default="serial",
                        help="'dist' needs the service started with "
                             "--dist-port (the job runs on the server's "
                             "worker fleet)")
    submit.add_argument("--wait", action="store_true",
                        help="block until the job finishes and print its "
                             "result summary")

    progress = commands.add_parser(
        "progress", help="query one service job's progress"
    )
    progress.add_argument("job_id")
    _add_conn_args(progress)

    cancel = commands.add_parser(
        "cancel", help="stop a service job at its next iteration boundary"
    )
    cancel.add_argument("job_id")
    _add_conn_args(cancel)
    cancel.add_argument("--wait", action="store_true",
                        help="block until the truncated result lands")

    jobs = commands.add_parser("jobs", help="list a running service's jobs")
    _add_conn_args(jobs)
    return parser


def _dataset_kwargs(args) -> dict:
    # The Figure-1 gadget only takes a penalty.
    names = ("penalty",) if args.dataset == "figure1" else _DATASET_KWARG_NAMES
    return {name: getattr(args, name) for name in names if getattr(args, name) is not None}


def _cmd_datasets(args) -> int:
    rows = []
    for name in sorted(DATASETS):
        if name == "figure1":
            problem = load_dataset(name)
        else:
            problem = load_dataset(name, scale=0.002 if name != "livejournal" else 0.0002)
        stats = graph_stats(problem.graph)
        rows.append([name, stats.num_nodes, stats.num_edges, problem.num_ads,
                     problem.catalog.total_budget()])
    print(format_table(
        ["dataset", "nodes*", "edges*", "ads", "total budget*"],
        rows,
        title="Built-in datasets (*at a small preview scale; use --scale)",
    ))
    return 0


def _start_coordinator(args):
    """The ``--dist-port`` coordinator, started, with its address
    printed for ``repro worker --connect``.  The command that starts it
    owns it: workers can keep dialling that port for the whole run, and
    the command closes it."""
    from repro.dist import Coordinator

    coordinator = Coordinator(
        host=args.dist_host, port=args.dist_port,
        allow_remote=args.allow_remote,
    ).start()
    host, port = coordinator.address
    print(f"coordinator listening on {host}:{port} — connect workers with "
          f"`repro worker --connect {host}:{port}`", flush=True)
    return coordinator


def _cmd_allocate(args) -> int:
    defaults = build_parser().parse_args(["allocate", args.dataset])
    for name, reader in _READ_BY.items():
        if reader != args.algorithm and getattr(args, name) != getattr(defaults, name):
            raise ConfigurationError(
                f"--{name.replace('_', '-')} is a {_ALGORITHM_NAMES[reader]} "
                f"option; --algorithm {args.algorithm} does not read it"
            )
    problem = load_dataset(args.dataset, **_dataset_kwargs(args))
    coordinator = None
    if args.engine == "dist":
        coordinator = _start_coordinator(args)
    try:
        if coordinator is not None and args.wait_workers > 0:
            coordinator.wait_for_workers(args.wait_workers)
        allocator = _ALLOCATORS[args.algorithm](args, coordinator)
        result = allocator.allocate(problem)
    finally:
        if coordinator is not None:
            coordinator.close()
    report = RegretEvaluator(problem, num_runs=args.eval_runs, seed=args.seed + 1).evaluate(
        result.allocation, algorithm=allocator.name
    )
    print(f"{allocator.name} on {args.dataset}: "
          f"{problem.num_nodes} users, {problem.num_ads} ads, "
          f"B = {problem.catalog.total_budget():.2f}")
    lineage = (result.allocation.provenance or {}).get("checkpoint")
    if lineage is not None:
        origin = (
            f"resumed from iteration {lineage['resumed_at_iteration']}"
            if lineage["resumed_from"] is not None
            else "fresh run"
        )
        print(f"checkpoint: {lineage['path']} "
              f"({lineage['written']} written, {origin})")
    dsan_root = (result.allocation.provenance or {}).get("dsan_root")
    if dsan_root is not None:
        print(f"dsan: {len(result.stats.get('dsan_digests', {}))} chunk "
              f"digests recorded, root {dsan_root}")
    cache_stats = result.stats.get("cache")
    if cache_stats is not None:
        print(f"cache: {cache_stats['path']} — {cache_stats['hits']} hits, "
              f"{cache_stats['misses']} misses, {cache_stats['stores']} blocks "
              f"stored, {result.stats['backend_invocations']} backend "
              f"invocations")
    dist_stats = result.stats.get("dist")
    if dist_stats is not None:
        print(f"dist: {dist_stats['tasks_completed']} chunks over "
              f"{dist_stats['workers_connected']} workers — "
              f"{dist_stats['retries']} retries, "
              f"{dist_stats['timeouts']} timeouts, "
              f"{dist_stats['disconnects']} disconnects, "
              f"{dist_stats['corrupt_blocks']} corrupt blocks, "
              f"{dist_stats['local_fallbacks']} local fallbacks")
    rows = [
        ["total regret (MC)", report.total_regret],
        ["relative to budget", report.regret.relative_to_budget()],
        ["seeds", report.total_seeds],
        ["targeted users", report.num_targeted_users],
        ["allocation time (s)", result.runtime_seconds],
    ]
    print(format_table(["metric", "value"], rows))
    gap_rows = [
        [problem.catalog[ad].name, report.regret.revenues[ad],
         report.regret.budgets[ad], report.regret.signed_budget_gaps()[ad]]
        for ad in range(problem.num_ads)
    ]
    print(format_table(["ad", "revenue", "budget", "gap"], gap_rows))
    return 0


def _cmd_figure1(args) -> int:
    from repro.advertising.regret import allocation_regret
    from repro.datasets.toy import (
        figure1_allocation_a,
        figure1_allocation_b,
        figure1_problem,
    )
    from repro.diffusion.exact import exact_spread

    problem = figure1_problem()
    rows = []
    for name, allocation in (("A", figure1_allocation_a()), ("B", figure1_allocation_b())):
        revenues = [
            exact_spread(
                problem.graph,
                problem.ad_edge_probabilities(ad),
                allocation.seed_array(ad),
                ctps=problem.ad_ctps(ad),
            )
            for ad in range(4)
        ]
        for lam in (0.0, 0.1):
            regret = allocation_regret(
                revenues, problem.catalog.budgets(), allocation.seed_counts(), lam
            ).total
            rows.append([name, lam, sum(revenues), regret])
    print(format_table(
        ["allocation", "lambda", "E[clicks]", "regret"],
        rows,
        title="Figure 1 / Examples 1-2 (exact enumeration)",
    ))
    return 0


def _cmd_bounds(args) -> int:
    kwargs = {"scale": args.scale} if args.scale is not None else {}
    if args.dataset == "figure1":
        kwargs = {}
    problem = load_dataset(args.dataset, **kwargs)
    bounds = compute_bounds(problem, rr_sets_per_ad=args.rr_sets, seed=args.seed)
    rows = [
        ["p_max", bounds.p_max],
        ["theorem 2 (lambda=0)", bounds.theorem2],
        ["theorem 3 (B/3)", bounds.theorem3],
        ["theorem 4", bounds.theorem4 if bounds.theorem4_applicable else "n/a (p_max >= 1)"],
        ["total budget", bounds.total_budget],
    ]
    print(format_table(["bound", "value"], rows, title=f"Regret bounds: {args.dataset}"))
    return 0


def _cmd_im(args) -> int:
    from repro.graph.generators import power_law_graph
    from repro.graph.probabilities import weighted_cascade_probabilities
    from repro.rrset.tim import TIMInfluenceMaximizer

    graph = power_law_graph(args.nodes, avg_out_degree=8.0, seed=args.seed)
    probs = weighted_cascade_probabilities(graph)
    tim = TIMInfluenceMaximizer(
        graph, probs, epsilon=args.epsilon, max_rr_sets=200_000, seed=args.seed
    )
    result = tim.select(args.k)
    print(f"TIM selected {len(result.seeds)} seeds from {args.nodes} nodes "
          f"({result.num_rr_sets} RR-sets)")
    print(f"estimated spread: {result.estimated_spread:.2f}")
    print(f"seeds: {result.seeds}")
    return 0


def _cmd_lint(args) -> int:
    # Lazy import: the analysis package is stdlib-ast machinery the
    # allocation paths never need.
    from repro.analysis import linter

    argv = list(args.paths)
    if args.select is not None:
        argv += ["--select", args.select]
    if args.list_rules:
        argv += ["--list-rules"]
    return linter.run(argv)


def _cmd_store(args) -> int:
    """``ls`` / ``show`` / ``diff`` / ``gc``: ``repro.store.commands``'s
    ``cmd_<command>``.  Lazy import, like lint: the store package
    (sqlite + block format) is machinery the allocation paths only need
    when caching."""
    from repro.store import commands as store_commands

    return getattr(store_commands, f"cmd_{args.command}")(args)


def _cmd_serve(args) -> int:
    # Lazy import: the service tier (asyncio server, engine pool) is
    # machinery the batch commands never need.
    from repro.service import AllocationServer, JobManager

    coordinator = None if args.dist_port is None else _start_coordinator(args)
    try:
        manager = JobManager(cache=args.cache, coordinator=coordinator)
        try:
            server = AllocationServer(
                manager, host=args.host, port=args.port,
                allow_remote=args.allow_remote,
            )
        except BaseException:
            # Bind rejection (non-loopback host without --allow-remote)
            # must not leak the manager's pool or cache.
            manager.close()
            raise
        server.serve(port_file=args.port_file)  # closes the manager
    finally:
        # After the manager: its jobs are done with the fleet.
        if coordinator is not None:
            coordinator.close()
    return 0


def _cmd_worker(args) -> int:
    # Lazy import: the distributed tier never loads for batch commands.
    from repro.dist import WorkerHost

    host, _, port = args.connect.rpartition(":")
    if not host or not port.isdigit():
        raise ConfigurationError(
            f"--connect wants HOST:PORT, got {args.connect!r}"
        )
    worker = WorkerHost(host, int(port), cache=args.cache, name=args.name)
    print(f"worker {worker.name} connecting to {host}:{port}", flush=True)
    try:
        worker.run()
    except KeyboardInterrupt:
        pass
    print(f"worker {worker.name} served {worker.chunks_served} chunks "
          f"({worker.cache_hits} from the local cache)")
    return 0


def _service_client(args):
    from repro.service import ServiceClient

    return ServiceClient(args.port, host=args.host, port_file=args.port_file)


def _cmd_submit(args) -> int:
    import json

    client = _service_client(args)
    params = {
        "seed": args.seed,
        "epsilon": args.epsilon,
        "max_rr_sets_per_ad": args.max_rr_sets,
        "engine": args.engine,
        "chunk_size": args.chunk_size,
    }
    if args.dsan:
        params["dsan"] = True
    job_id = client.submit(
        args.dataset, params=params, dataset_kwargs=_dataset_kwargs(args)
    )
    print(job_id)
    if args.wait:
        result = client.wait(job_id)
        print(json.dumps(
            {key: result[key] for key in
             ("state", "iterations", "total_seeds", "engine_warm")}
            | {"backend_invocations": result["stats"]["backend_invocations"],
               "dsan_root": result["stats"].get("dsan_root")},
            indent=2,
        ))
    return 0


def _cmd_progress(args) -> int:
    import json

    record = _service_client(args).progress(args.job_id)
    # The per-ad snapshot payload is bulky; the summary is the headline.
    record.pop("snapshot", None)
    print(json.dumps(record, indent=2))
    return 0


def _cmd_cancel(args) -> int:
    record = _service_client(args).cancel(args.job_id, wait=args.wait)
    print(f"{record['job_id']}: {record['state']}")
    return 0


def _cmd_jobs(args) -> int:
    rows = [
        [job["job_id"], job["dataset"], job["state"], job["iterations"],
         job["total_seeds"],
         {True: "warm", False: "cold", None: "-"}[job["engine_warm"]],
         job["source_job_id"] or "-"]
        for job in _service_client(args).list_jobs()
    ]
    print(format_table(
        ["job", "dataset", "state", "iters", "seeds", "engine", "source"],
        rows,
    ))
    return 0


_COMMANDS = {
    "datasets": _cmd_datasets,
    "allocate": _cmd_allocate,
    "figure1": _cmd_figure1,
    "bounds": _cmd_bounds,
    "im": _cmd_im,
    "lint": _cmd_lint,
    "ls": _cmd_store,
    "show": _cmd_store,
    "diff": _cmd_store,
    "gc": _cmd_store,
    "serve": _cmd_serve,
    "worker": _cmd_worker,
    "submit": _cmd_submit,
    "progress": _cmd_progress,
    "cancel": _cmd_cancel,
    "jobs": _cmd_jobs,
}


def main(argv=None) -> int:
    """CLI entry point; returns a process exit code.

    Library errors (bad knob values, incompatible checkpoints, pool
    capacity, ...) surface as a one-line ``error:`` message and exit
    code 2 — never as a traceback.
    """
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Downstream closed the pipe (``repro submit --wait | head -1``);
        # point stdout at devnull so the interpreter's shutdown flush
        # does not traceback, and exit like a well-behaved filter.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
