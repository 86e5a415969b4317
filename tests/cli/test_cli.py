"""CLI commands (exercised in-process via main(argv))."""

import os

import pytest

from repro.cli.main import build_parser, main
from repro.rrset.sampler import DEFAULT_CHUNK_SIZE


def test_requires_command(capsys):
    with pytest.raises(SystemExit):
        main([])


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_datasets_lists_all(capsys):
    assert main(["datasets"]) == 0
    out = capsys.readouterr().out
    for name in ("figure1", "flixster", "epinions", "dblp", "livejournal"):
        assert name in out


def test_figure1_prints_paper_numbers(capsys):
    assert main(["figure1"]) == 0
    out = capsys.readouterr().out
    assert "5.54" in out  # exact E[clicks] of allocation A
    assert "6.30" in out
    assert "2.70" in out  # regret B at lambda=0


def test_allocate_tirm_on_figure1(capsys):
    code = main([
        "allocate", "figure1", "--algorithm", "tirm",
        "--eval-runs", "200", "--max-rr-sets", "2000",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "TIRM on figure1" in out
    assert "total regret" in out
    assert "targeted users" in out


def test_allocate_myopic_on_flixster(capsys):
    code = main([
        "allocate", "flixster", "--algorithm", "myopic",
        "--scale", "0.005", "--eval-runs", "50",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "Myopic on flixster" in out


@pytest.mark.parametrize("algorithm", ["myopic", "myopic+", "greedy", "irie"])
@pytest.mark.parametrize(
    "flag, value",
    [
        ("--engine", "process"), ("--workers", "2"), ("--dsan", None),
        ("--checkpoint", "run.ckpt.json"), ("--checkpoint-every", "3"),
        ("--resume", None), ("--cache", "store"), ("--dist-port", "7070"),
        ("--dist-host", "localhost"), ("--wait-workers", "1"),
        ("--allow-remote", None), ("--epsilon", "0.5"), ("--max-rr-sets", "10"),
        ("--chunk-size", "64"),
    ],
)
def test_allocate_refuses_tirm_options_under_another_algorithm(
    tmp_path, capsys, monkeypatch, algorithm, flag, value
):
    """Another algorithm does not read a TIRM option, so naming one is
    refused with one ``error:`` line naming it — and nothing runs."""
    _assert_refused(tmp_path, capsys, monkeypatch, algorithm, flag, value, "TIRM")


@pytest.mark.parametrize(
    "flag, value, reader, algorithm",
    [
        (flag, value, reader, algorithm)
        for flag, value, reads, reader in (
            ("--mc-runs", "3", "greedy", "Greedy"),
            ("--alpha", "0.1", "irie", "Greedy-IRIE"),
        )
        for algorithm in ("tirm", "greedy", "myopic", "myopic+", "irie")
        if algorithm != reads
    ],
)
def test_allocate_refuses_another_algorithms_option(
    tmp_path, capsys, monkeypatch, flag, value, reader, algorithm
):
    """``--mc-runs`` is read by Greedy alone and ``--alpha`` by
    Greedy-IRIE alone: every other algorithm refuses them the same way."""
    _assert_refused(tmp_path, capsys, monkeypatch, algorithm, flag, value, reader)


def _assert_refused(tmp_path, capsys, monkeypatch, algorithm, flag, value, reader):
    monkeypatch.chdir(tmp_path)
    argv = ["allocate", "figure1", "--algorithm", algorithm, flag]
    code = main(argv if value is None else argv + [value])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: {flag} is a {reader} option; --algorithm {algorithm} does "
        "not read it\n"
    )
    assert os.listdir(tmp_path) == []


def test_allocate_tirm_options_at_their_defaults_pass_another_algorithm(
    tmp_path, capsys
):
    """The refusal compares with the parser's defaults: spelling a
    default out is not a TIRM option in use, nor another algorithm's."""
    code = main([
        "allocate", "figure1", "--algorithm", "myopic", "--eval-runs", "20",
        "--engine", "serial", "--dist-port", "0", "--dist-host", "127.0.0.1",
        "--wait-workers", "0", "--epsilon", "0.1", "--max-rr-sets", "20000",
        "--chunk-size", str(DEFAULT_CHUNK_SIZE), "--mc-runs", "200",
        "--alpha", "0.8",
    ])
    assert code == 0
    assert "Myopic on figure1" in capsys.readouterr().out


def test_allocate_rejects_unknown_algorithm():
    with pytest.raises(SystemExit):
        main(["allocate", "figure1", "--algorithm", "quantum"])


def test_allocate_chunk_size_flag(capsys):
    code = main([
        "allocate", "figure1", "--algorithm", "tirm",
        "--eval-runs", "50", "--max-rr-sets", "1000",
        "--chunk-size", "64",
    ])
    assert code == 0
    assert "TIRM on figure1" in capsys.readouterr().out


def test_allocate_rejects_unknown_rng(capsys):
    """The stream contract is not a command-line choice: ``--rng`` is
    an argparse usage error on both commands that build an allocator."""
    for argv in (
        ["allocate", "figure1", "--rng", "legacy"],
        ["allocate", "figure1", "--rng", "philox"],
        ["submit", "figure1", "--rng", "legacy"],
    ):
        with pytest.raises(SystemExit) as usage:
            main(argv)
        assert usage.value.code == 2
        assert "unrecognized arguments: --rng" in capsys.readouterr().err


def test_parser_defaults_to_philox_streams():
    args = build_parser().parse_args(["allocate", "figure1"])
    assert not hasattr(args, "rng")
    assert args.chunk_size >= 1
    args = build_parser().parse_args(
        ["allocate", "figure1", "--chunk-size", "128"]
    )
    assert args.chunk_size == 128


def test_allocate_backend_flag(capsys):
    """The one level op has no flag: ``--backend numpy`` is a usage
    error, and the same run without it allocates."""
    argv = [
        "allocate", "figure1", "--algorithm", "tirm",
        "--eval-runs", "50", "--max-rr-sets", "1000",
    ]
    with pytest.raises(SystemExit) as exit_info:
        main(argv + ["--backend", "numpy"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --backend" in capsys.readouterr().err
    assert main(argv) == 0
    assert "TIRM on figure1" in capsys.readouterr().out


def test_parser_defaults_to_numpy_backend():
    """The parser carries no backend; the allocator it builds runs the
    numpy level op."""
    from repro.cli.main import _ALLOCATORS

    args = build_parser().parse_args(["allocate", "figure1"])
    assert not hasattr(args, "backend")
    assert _ALLOCATORS["tirm"](args, None).backend == "numpy"


def test_allocate_rejects_unknown_backend(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["allocate", "figure1", "--backend", "cuda"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_allocate_process_engine_flags(capsys):
    """The process engine from the command line: how workers start and
    how blocks travel is observed from the platform, so ``--engine`` and
    ``--workers`` are all there is to pass."""
    code = main([
        "allocate", "figure1", "--algorithm", "tirm",
        "--eval-runs", "50", "--max-rr-sets", "1000",
        "--engine", "process", "--workers", "2",
    ])
    assert code == 0
    assert "TIRM on figure1" in capsys.readouterr().out


def test_parser_has_no_substrate_knobs():
    """The parser carries no substrate knobs at all; the allocator's
    defaults (transport ``"auto"``) are what every CLI run gets."""
    args = build_parser().parse_args(["allocate", "figure1"])
    for knob in ("transport", "start_method", "no_prefetch", "backend"):
        assert not hasattr(args, knob)


def test_allocate_rejects_unknown_transport(capsys):
    for flag in (
        ["--transport", "shm"],
        ["--transport", "carrier-pigeon"],
        ["--start-method", "spawn"],
        ["--no-prefetch"],
    ):
        with pytest.raises(SystemExit) as exit_info:
            main(["allocate", "figure1", *flag])
        assert exit_info.value.code == 2  # argparse usage error
        assert "unrecognized arguments" in capsys.readouterr().err


def test_bounds_on_figure1(capsys):
    assert main(["bounds", "figure1", "--rr-sets", "1500"]) == 0
    out = capsys.readouterr().out
    assert "p_max" in out
    assert "theorem 3" in out
    # the gadget violates p_i < 1, so theorem 4 must be n/a
    assert "n/a" in out


def test_im_runs(capsys):
    assert main(["im", "--nodes", "150", "--k", "3", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "TIM selected 3 seeds" in out
    assert "estimated spread" in out


def test_parser_help_mentions_commands():
    parser = build_parser()
    help_text = parser.format_help()
    for command in ("datasets", "allocate", "figure1", "bounds", "im"):
        assert command in help_text


def test_allocate_rejects_zero_chunk_size_cleanly(capsys):
    """Knob validation at the CLI boundary: a clean one-line error and
    exit code 2, not a deep numpy traceback."""
    code = main(["allocate", "figure1", "--chunk-size", "0"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "chunk_size" in err


def test_allocate_rejects_negative_workers_cleanly(capsys):
    code = main(["allocate", "figure1", "--workers", "-3"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "max_workers" in err


def test_resume_without_checkpoint_rejected_cleanly(capsys):
    code = main(["allocate", "figure1", "--resume"])
    assert code == 2
    assert "--resume requires --checkpoint" in capsys.readouterr().err


def test_checkpoint_flag_writes_artifact_and_resume_reuses_it(tmp_path, capsys):
    path = tmp_path / "figure1.ckpt.json"
    code = main([
        "allocate", "figure1", "--algorithm", "tirm",
        "--eval-runs", "50", "--max-rr-sets", "1000",
        "--checkpoint", str(path),
    ])
    assert code == 0
    assert path.exists()
    first = capsys.readouterr().out
    assert "checkpoint:" in first and "fresh run" in first
    code = main([
        "allocate", "figure1", "--algorithm", "tirm",
        "--eval-runs", "50", "--max-rr-sets", "1000",
        "--checkpoint", str(path), "--resume",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "resumed from iteration" in out


def test_resume_with_absent_artifact_starts_fresh(tmp_path, capsys):
    """First launch of an always-on job: --resume with no artifact yet
    must start from scratch, not error out."""
    path = tmp_path / "never-written.json"
    code = main([
        "allocate", "figure1", "--algorithm", "tirm",
        "--eval-runs", "50", "--max-rr-sets", "1000",
        "--checkpoint", str(path), "--resume",
    ])
    assert code == 0
    assert "fresh run" in capsys.readouterr().out


def test_incompatible_resume_surfaces_clean_error(tmp_path, capsys):
    path = tmp_path / "ck.json"
    assert main([
        "allocate", "figure1", "--eval-runs", "50", "--max-rr-sets", "1000",
        "--checkpoint", str(path),
    ]) == 0
    capsys.readouterr()
    code = main([
        "allocate", "figure1", "--eval-runs", "50", "--max-rr-sets", "1000",
        "--seed", "9", "--checkpoint", str(path), "--resume",
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "incompatible" in err


# ----------------------------------------------------------------------
# repro lint
# ----------------------------------------------------------------------
def test_lint_subcommand_clean_on_shipped_src(capsys):
    import repro
    from pathlib import Path

    src = str(Path(repro.__file__).resolve().parent)
    assert main(["lint", src]) == 0
    assert "repro lint: clean" in capsys.readouterr().out


def test_lint_subcommand_reports_violations(tmp_path, capsys):
    bad = tmp_path / "stray.py"
    bad.write_text(
        "import numpy as np\nrng = np.random.default_rng(1)\n",
        encoding="utf-8",
    )
    assert main(["lint", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "R101" in out and "repro lint: 1 finding" in out


def test_lint_select_and_list_rules(tmp_path, capsys):
    bad = tmp_path / "stray.py"
    bad.write_text(
        "import numpy as np\nrng = np.random.default_rng(1)\n",
        encoding="utf-8",
    )
    assert main(["lint", str(tmp_path), "--select", "R105"]) == 0
    capsys.readouterr()
    assert main(["lint", "--list-rules"]) == 0
    out = capsys.readouterr().out
    for code in ("R101", "R102", "R103", "R104", "R105"):
        assert code in out


def test_lint_bad_select_exits_2(capsys):
    assert main(["lint", "--select", "R999"]) == 2
    assert "unknown rule code" in capsys.readouterr().err


def test_allocate_dsan_flag(capsys):
    code = main([
        "allocate", "figure1", "--algorithm", "tirm", "--dsan",
        "--eval-runs", "50", "--max-rr-sets", "1000",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "dsan:" in out and "root" in out


# ----------------------------------------------------------------------
# Shard cache + experiment catalog commands (--cache / ls / show / diff / gc)
# ----------------------------------------------------------------------
def _allocate_cached(cache_dir, *extra):
    return main([
        "allocate", "figure1", "--algorithm", "tirm",
        "--eval-runs", "50", "--max-rr-sets", "1000",
        "--cache", str(cache_dir), *extra,
    ])


def test_allocate_cache_warm_start(tmp_path, capsys):
    assert _allocate_cached(tmp_path) == 0
    cold = capsys.readouterr().out
    assert "cache:" in cold and "blocks stored" in cold

    assert _allocate_cached(tmp_path) == 0
    warm = capsys.readouterr().out
    assert "0 backend invocations" in warm
    # Warm-start is a substrate optimisation: the report is unchanged.
    def regret_line(out):
        line = next(line for line in out.splitlines() if "total regret" in line)
        return " ".join(line.split())  # column widths vary with the table

    assert regret_line(warm) == regret_line(cold)


def test_catalog_ls_show_diff_roundtrip(tmp_path, capsys):
    assert _allocate_cached(tmp_path) == 0
    assert _allocate_cached(tmp_path) == 0
    capsys.readouterr()

    assert main(["ls", "--cache", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "Recorded allocations" in out and "figure1" in out

    assert main(["ls", "--cache", str(tmp_path), "--shards"]) == 0
    out = capsys.readouterr().out
    assert "Cached shards" in out and "philox" in out

    assert main(["show", "1", "--cache", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "Allocation #1" in out and "provenance:" in out

    # Cold vs warm differ only in substrate fields — contract holds.
    assert main(["diff", "1", "2", "--cache", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "contract fields identical" in out


def test_catalog_gc_smoke(tmp_path, capsys):
    checkpoint = tmp_path / "figure1.ckpt.json"
    assert _allocate_cached(tmp_path, "--checkpoint", str(checkpoint)) == 0
    capsys.readouterr()
    assert main([
        "gc", "--cache", str(tmp_path), "--max-bytes", "0", "--dry-run",
    ]) == 0
    out = capsys.readouterr().out
    # The checkpoint pins every shard it references; budget 0 cannot
    # evict them, and gc says so instead of breaking the warm resume.
    assert "checkpoint-protected entries kept" in out
    assert "still over budget" in out

    assert main(["ls", "--cache", str(tmp_path), "--checkpoints"]) == 0
    assert "figure1.ckpt.json" in capsys.readouterr().out


def test_catalog_commands_require_cache_dir(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("REPRO_CACHE", raising=False)
    assert main(["ls"]) == 2
    assert "no cache directory" in capsys.readouterr().err

    missing = tmp_path / "absent"
    assert main(["ls", "--cache", str(missing)]) == 2
    assert "no cache directory" in capsys.readouterr().err


def test_allocate_cache_env_var(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE", str(tmp_path))
    code = main([
        "allocate", "figure1", "--algorithm", "tirm",
        "--eval-runs", "50", "--max-rr-sets", "1000",
    ])
    assert code == 0
    assert "cache:" in capsys.readouterr().out
    assert main(["ls"]) == 0
    assert "Recorded allocations" in capsys.readouterr().out


# ----------------------------------------------------------------------
# Service commands (parser-level; the live protocol is covered by
# tests/service/test_server_smoke.py)
# ----------------------------------------------------------------------
def test_parser_serve_defaults():
    args = build_parser().parse_args(["serve"])
    assert args.command == "serve"
    assert args.host == "127.0.0.1"
    assert args.port == 0
    assert args.port_file is None
    assert args.cache is None


def test_parser_serve_flags(tmp_path):
    args = build_parser().parse_args([
        "serve", "--host", "0.0.0.0", "--port", "4242",
        "--port-file", str(tmp_path / "port"), "--cache", str(tmp_path),
    ])
    assert args.port == 4242
    assert args.host == "0.0.0.0"


def test_parser_submit_flags():
    args = build_parser().parse_args([
        "submit", "flixster", "--port", "4242", "--scale", "0.002",
        "--seed", "7", "--max-rr-sets", "1000", "--dsan", "--wait",
    ])
    assert args.command == "submit"
    assert args.dataset == "flixster"
    assert args.seed == 7
    assert args.dsan is True
    assert args.wait is True


def test_parser_submit_rejects_unknown_dataset():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["submit", "nonsense", "--port", "1"])


def test_parser_progress_cancel_jobs():
    args = build_parser().parse_args(["progress", "job-0001", "--port", "9"])
    assert args.command == "progress"
    assert args.job_id == "job-0001"
    args = build_parser().parse_args(
        ["cancel", "job-0002", "--port", "9", "--wait"]
    )
    assert args.command == "cancel"
    assert args.wait is True
    args = build_parser().parse_args(["jobs", "--port", "9"])
    assert args.command == "jobs"


def test_submit_without_server_fails_cleanly(tmp_path, capsys):
    code = main([
        "submit", "figure1", "--port-file", str(tmp_path / "absent"),
    ])
    assert code == 2
    assert "cannot read service port" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Distributed tier: `repro worker`, --engine dist, and the bind guards
# ---------------------------------------------------------------------------
def test_parser_worker_flags():
    args = build_parser().parse_args([
        "worker", "--connect", "127.0.0.1:9410", "--name", "w1",
    ])
    assert args.command == "worker"
    assert args.connect == "127.0.0.1:9410"
    assert not hasattr(args, "backend")
    assert args.name == "w1"
    assert args.cache is None


def test_worker_requires_connect():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["worker"])


def test_worker_rejects_malformed_connect(capsys):
    code = main(["worker", "--connect", "nonsense"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "HOST:PORT" in err


def test_worker_connection_refused_fails_cleanly(capsys):
    # Port 1 is privileged and unbound: the dial fails immediately and
    # must surface as a one-line error, not a traceback.
    code = main(["worker", "--connect", "127.0.0.1:1"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "cannot connect" in err


def test_parser_allocate_dist_flags_default_to_loopback():
    args = build_parser().parse_args(
        ["allocate", "figure1", "--engine", "dist"]
    )
    assert args.engine == "dist"
    assert args.dist_host == "127.0.0.1"
    assert args.dist_port == 0
    assert args.wait_workers == 0
    assert args.allow_remote is False


def test_parser_serve_dist_flags_default_off():
    args = build_parser().parse_args(["serve"])
    assert args.dist_port is None  # no coordinator unless asked
    assert args.dist_host == "127.0.0.1"
    assert args.allow_remote is False


def test_allocate_dist_coordinator_rejects_non_loopback(capsys):
    code = main([
        "allocate", "figure1", "--engine", "dist",
        "--dist-host", "0.0.0.0",
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "non-loopback" in err
    assert "--allow-remote" in err


def test_serve_rejects_non_loopback_without_allow_remote(capsys):
    # Must fail eagerly (before ever serving) with a clean exit 2.
    code = main(["serve", "--host", "0.0.0.0"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "non-loopback" in err


def test_serve_bind_refusal_closes_the_dist_coordinator(capsys):
    """The coordinator `repro serve --dist-port` started is closed when
    the server then refuses to bind: its port stops accepting."""
    import re
    import socket

    code = main(["serve", "--host", "0.0.0.0", "--dist-port", "0"])
    assert code == 2
    out, err = capsys.readouterr()
    assert "non-loopback" in err
    port = int(re.search(r"coordinator listening on 127\.0\.0\.1:(\d+)", out)[1])
    with pytest.raises(OSError):
        socket.create_connection(("127.0.0.1", port), timeout=2.0).close()


def test_allocate_dist_end_to_end_matches_serial(capsys):
    """`repro allocate --engine dist` against one in-process worker is
    byte-identical to the plain serial CLI run and prints the dist
    summary line."""
    import socket
    import threading
    import time

    from repro.dist import WorkerHost
    from repro.errors import ConfigurationError

    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]

    def dial():
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            try:
                WorkerHost("127.0.0.1", port).run()
                return
            except ConfigurationError:
                time.sleep(0.05)

    thread = threading.Thread(target=dial, daemon=True)
    thread.start()
    argv = ["allocate", "figure1", "--max-rr-sets", "2000", "--dsan"]
    assert main(argv) == 0
    serial_out = capsys.readouterr().out
    code = main(argv + [
        "--engine", "dist", "--dist-port", str(port), "--wait-workers", "1",
    ])
    thread.join(timeout=10.0)
    assert code == 0
    dist_out = capsys.readouterr().out
    assert "coordinator listening on 127.0.0.1:%d" % port in dist_out
    assert "dist:" in dist_out
    serial_root = [l for l in serial_out.splitlines() if "dsan" in l]
    dist_root = [l for l in dist_out.splitlines() if "dsan" in l]
    assert serial_root and serial_root == dist_root
