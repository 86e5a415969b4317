"""Checks on the benchmark harness itself (not on the program's speed).

    PYTHONPATH=src python -m pytest bench/tests -q

Runs every workload once at the ``smoke`` preset (tiny instances), so
the whole file stays under a minute.
"""

from __future__ import annotations

import copy
import json
import os
import re
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import compare  # noqa: E402
import layers  # noqa: E402
from spans import Tracer  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.fixture(scope="module")
def declared() -> dict:
    return compare.load(os.path.join(ROOT, "BENCHMARK.json"))


@pytest.fixture(scope="module")
def report(tmp_path_factory) -> dict:
    out = tmp_path_factory.mktemp("bench") / "report.json"
    subprocess.run(
        [
            sys.executable, os.path.join(BENCH, "run.py"), "--preset", "smoke",
            "--seconds", "0.2", "--trace", "1", "--out", str(out),
        ],
        check=True, stdout=subprocess.DEVNULL, timeout=300,
    )
    with open(out) as handle:
        return json.load(handle)


def test_report_matches_declared_schema(report, declared):
    assert report["schema"] == "repro-bench/1"
    for key in ("commit", "dirty", "python", "numpy", "numba", "cpu_count",
                "loadavg", "loadavg_after", "preset", "seed"):
        assert key in report["fingerprint"]
    assert set(report["workloads"]) == {w["name"] for w in declared["workloads"]}
    for name, entry in report["workloads"].items():
        assert NAME.fullmatch(name)
        assert entry["correct"], entry["problems"]
        assert entry["failed"] == 0 and entry["failed_share"] == 0.0
        assert entry["attempted"] >= 2
        assert set(entry["noise"]) == {"calib_ms", "drift_ratio", "noisy", "quiet_rounds"}
        for section in ("end_to_end", "per_layer"):
            units = {m["name"]: m["unit"] for m in declared[section]}
            assert set(entry[section]) == set(units)
            for key, metric in entry[section].items():
                assert NAME.fullmatch(key)
                assert metric["unit"] == units[key]
        for summary in entry["end_to_end"].values():
            assert summary["min"] <= summary["q1"] <= summary["median"]
            assert summary["median"] <= summary["q3"] <= summary["max"]
            assert summary["median"] > 0 and summary["n"] >= 1


def test_tracing_changes_no_byte(report):
    for entry in report["workloads"].values():
        assert entry["traced_dsan_root"] == entry["dsan_root"]
    assert report["lj_roots_equal"]


def test_layers_separate_as_designed(report):
    layer = {
        name: {k: m["value"] for k, m in entry["per_layer"].items()}
        for name, entry in report["workloads"].items()
    }
    warm = layer["cache_warm_replay"]
    assert warm["engine.backend_invocations"] == 0
    assert warm["cache.hit_ratio"] == 1.0 and warm["cache.store_calls"] > 0
    assert layer["batch_sample_bound"]["sampler.chunk_calls"] > 0
    assert layer["batch_sample_bound"]["cli.allocate_wall_s"] > 0
    assert layer["dist_fanout"]["dist.tasks_completed"] > 0
    assert layer["dist_fanout"]["frames.codec_mb_per_s"] > 0
    served = layer["served_warm_realloc"]
    assert served["service.warm_backend_invocations"] == 0
    assert served["service.engine_warm_share"] == 1.0
    assert served["service.ping_rtt_us"] > 0


def test_wrappers_are_removed():
    from repro.rrset.pool import RRSetPool
    from repro.rrset.sharded import ShardedSamplingEngine

    before = (RRSetPool.__dict__["add_flat"], ShardedSamplingEngine.__dict__["ensure"])
    tracer = Tracer()
    layers.install(tracer)
    assert RRSetPool.__dict__["add_flat"] is not before[0]
    tracer.remove()
    after = (RRSetPool.__dict__["add_flat"], ShardedSamplingEngine.__dict__["ensure"])
    assert after == before


def test_span_self_time_arithmetic():
    tracer = Tracer()
    # outer [0, 10] holds inner [1, 4] and inner [5, 7]; the second
    # inner holds a leaf [5.5, 6.5].  A second round has one outer [20, 21].
    tracer.spans = [
        ["outer", 0.0, 10.0, None, 0, None],
        ["inner", 1.0, 4.0, 0, 0, 3],
        ["inner", 5.0, 7.0, 0, 0, 2],
        ["leaf", 5.5, 6.5, 2, 0, None],
        ["outer", 20.0, 21.0, None, 1, None],
    ]
    assert tracer.busy("outer", 0) == 10.0
    assert tracer.self_time("outer", 0) == 5.0   # 10 - (3 + 2)
    assert tracer.self_time("inner", 0) == 4.0   # (3 - 0) + (2 - 1)
    assert tracer.calls("inner", 0) == 2 and tracer.amounts("inner", 0) == [3, 2]
    assert tracer.busy("outer", 1) == 1.0 and tracer.calls("inner", 1) == 0
    # A span nested under its own name is not counted twice.
    tracer.spans.append(["outer", 2.0, 3.0, 0, 0, None])
    assert tracer.busy("outer", 0) == 10.0


def test_recorded_spans_nest():
    tracer = Tracer()
    with tracer.span("a") as a:
        with tracer.span("b") as b:
            pass
    assert tracer.spans[b][3] == a and tracer.spans[a][3] is None
    assert tracer.self_time("a", None) <= tracer.busy("a", None)


def test_compare_flags_an_injected_slowdown(report, declared):
    rows, acceptable = compare.compare(report, report, declared)
    assert acceptable and all(r["verdict"] != "regressed" for r in rows)

    # 20 % past the bound, whatever the bound is.
    bound = next(
        m["bound"] for m in declared["end_to_end"] if m["name"] == "alloc_wall_s"
    )
    slower = copy.deepcopy(report)
    wall = slower["workloads"]["batch_select_bound"]["end_to_end"]["alloc_wall_s"]
    for key in ("median", "q1", "q3", "min", "max"):
        wall[key] *= 1.0 + 1.2 * bound
    rows, acceptable = compare.compare(report, slower, declared)
    assert not acceptable
    assert [(r["workload"], r["metric"]) for r in rows if r["verdict"] == "regressed"] \
        == [("batch_select_bound", "alloc_wall_s")]

    failing = copy.deepcopy(report)
    failing["workloads"]["dist_fanout"]["failed_share"] = 0.5
    assert not compare.compare(report, failing, declared)[1]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        BENCH, tmp_path / "bench",
        ignore=shutil.ignore_patterns("__pycache__", ".work", "tests"),
    )
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "batch_sample_bound",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0 and done.stdout == ""


def test_a_run_waits_for_what_it_leaves_behind():
    # A child that exits while its own child sleeps on: the harness
    # adopts the orphan, kills it after the grace period and reaps it.
    script = (
        "import subprocess, sys, run\n"
        "run.adopt_orphans()\n"
        "subprocess.run([sys.executable, '-c',"
        " 'import subprocess; subprocess.Popen([\"sleep\", \"60\"])'])\n"
        "orphans = run.own_children()\n"
        "assert run.reap_all(0.2) == orphans and len(orphans) == 1\n"
        "assert run.own_children() == []\n"
    )
    subprocess.run([sys.executable, "-c", script], cwd=BENCH, check=True, timeout=60)
