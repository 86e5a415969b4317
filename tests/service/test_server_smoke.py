"""End-to-end smoke: a real ``repro serve`` subprocess over TCP.

Everything here crosses a process boundary on purpose — the in-process
semantics live in test_service.py; this file is about the wire: the
port-file handshake, the line-delimited JSON protocol, byte-equality of
served allocations against in-process batch runs, crash-restart over a
shared cache directory, and clean shutdown.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time

import pytest

from repro.algorithms.tirm import TIRMAllocator
from repro.datasets.registry import load_dataset
from repro.errors import ServiceError
from repro.service.client import ServiceClient
from repro.service.jobs import modified_problem

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SRC = os.path.join(ROOT, "src")

DATASET = "flixster"
DATASET_KWARGS = {"scale": 0.002}
PARAMS = {"seed": 0, "max_rr_sets_per_ad": 1_000, "dsan": True}


def _spawn_server(port_file, cache_dir) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("REPRO_CACHE", None)
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--port-file", str(port_file), "--cache", str(cache_dir),
        ],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )


def _await_port_file(proc: subprocess.Popen, port_file, timeout=60.0) -> None:
    deadline = time.monotonic() + timeout
    while not os.path.exists(port_file):
        assert proc.poll() is None, (
            f"server died before publishing its port:\n{proc.stdout.read()}"
        )
        assert time.monotonic() < deadline, "server never published its port"
        time.sleep(0.05)


def _stop(proc: subprocess.Popen, client: ServiceClient | None = None) -> None:
    if proc.poll() is None:
        try:
            if client is not None:
                client.shutdown()
        except ServiceError:
            proc.terminate()
        try:
            proc.wait(30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(30)


def _batch(problem):
    return TIRMAllocator(**PARAMS).allocate(problem)


def _assert_payload_matches(payload: dict, batch) -> None:
    assert payload["stats"]["dsan_root"] == batch.stats["dsan_root"]
    assert payload["seeds_per_ad"] == [
        [int(v) for v in batch.allocation.seed_array(ad)]
        for ad in range(len(payload["seeds_per_ad"]))
    ]


class TestServerRoundTrip:
    def test_full_protocol_round_trip(self, tmp_path):
        problem = load_dataset(DATASET, **DATASET_KWARGS)
        batch = _batch(problem)
        port_file = tmp_path / "port"
        proc = _spawn_server(port_file, tmp_path / "cache")
        client = ServiceClient(port_file=port_file, timeout=120.0)
        try:
            _await_port_file(proc, port_file)
            assert client.ping()["pong"] is True

            # Cold allocation, byte-identical to the in-process batch run.
            cold = client.submit(
                DATASET, params=PARAMS, dataset_kwargs=DATASET_KWARGS
            )
            payload = client.wait(cold, timeout=300)
            assert payload["state"] == "done"
            assert payload["engine_warm"] is False
            assert payload["stats"]["backend_invocations"] > 0
            _assert_payload_matches(payload, batch)

            # Warm resubmit: zero backend invocations, same bytes.
            warm = client.submit(
                DATASET, params=PARAMS, dataset_kwargs=DATASET_KWARGS
            )
            rerun = client.wait(warm, timeout=300)
            assert rerun["engine_warm"] is True
            assert rerun["stats"]["backend_invocations"] == 0
            _assert_payload_matches(rerun, batch)

            # Finished jobs expose checkpoint-shaped progress snapshots.
            progress = client.progress(cold)
            assert progress["state"] == "done"
            assert progress["snapshot"]["iterations"] == payload["iterations"]

            # Incremental re-allocation re-leases the warm engine and
            # matches a cold batch run of the modified instance.
            new_budget = float(problem.catalog[0].budget * 1.5)
            retry = client.reallocate(cold, update_budgets={"0": new_budget})
            bumped = client.wait(retry, timeout=300)
            assert bumped["source_job_id"] == cold
            assert bumped["engine_warm"] is True
            modified = modified_problem(problem, update_budgets={0: new_budget})
            modified_batch = _batch(modified)
            _assert_payload_matches(bumped, modified_batch)
            assert bumped["stats"]["backend_invocations"] <= (
                modified_batch.stats["backend_invocations"]
            )

            # Cancellation lands in a valid terminal state.
            doomed = client.submit(
                DATASET, params=PARAMS, dataset_kwargs=DATASET_KWARGS
            )
            cancelled = client.cancel(doomed, wait=True, timeout=300)
            assert cancelled["state"] in ("cancelled", "done")

            # Spread estimation rides the same warm pool.
            seeds = payload["seeds_per_ad"][0]
            estimate = client.estimate_spread(
                DATASET, ad=0, seeds=seeds, num_sets=512,
                params=PARAMS, dataset_kwargs=DATASET_KWARGS,
            )
            assert estimate["engine_warm"] is True
            assert estimate["spread"] >= 0.0

            # Every finished job landed in the experiment catalog.
            jobs = client.list_jobs()
            assert [j["job_id"] for j in jobs] == [cold, warm, retry, doomed]
            assert all(
                j["catalog_id"] is not None
                for j in jobs if j["state"] == "done"
            )

            # Malformed requests error without killing the server.
            with pytest.raises(ServiceError, match="unknown op"):
                client.request("frobnicate")
            assert client.ping()["pong"] is True

            client.shutdown()
            assert proc.wait(30) == 0
        finally:
            _stop(proc, client)
        assert not os.path.exists(port_file)  # removed on clean exit

    def test_killed_server_restarts_warm_over_cache_dir(self, tmp_path):
        """SIGKILL the server mid-life; a fresh server over the same
        ``--cache`` directory serves the rerun from the shard store with
        zero backend invocations and identical bytes."""
        problem = load_dataset(DATASET, **DATASET_KWARGS)
        batch = _batch(problem)
        port_file = tmp_path / "port"
        cache_dir = tmp_path / "cache"

        first = _spawn_server(port_file, cache_dir)
        client = ServiceClient(port_file=port_file, timeout=120.0)
        try:
            _await_port_file(first, port_file)
            job = client.submit(
                DATASET, params=PARAMS, dataset_kwargs=DATASET_KWARGS
            )
            payload = client.wait(job, timeout=300)
            assert payload["stats"]["backend_invocations"] > 0
        finally:
            first.send_signal(signal.SIGKILL)
            first.wait(30)
        os.unlink(port_file)  # a SIGKILL'd server cannot clean up

        second = _spawn_server(port_file, cache_dir)
        try:
            _await_port_file(second, port_file)
            job = client.submit(
                DATASET, params=PARAMS, dataset_kwargs=DATASET_KWARGS
            )
            rerun = client.wait(job, timeout=300)
            # Fresh process → cold engine, but the shard store replays
            # every block: the sampling backend is never invoked.
            assert rerun["engine_warm"] is False
            assert rerun["stats"]["backend_invocations"] == 0
            _assert_payload_matches(rerun, batch)
            client.shutdown()
            assert second.wait(30) == 0
        finally:
            _stop(second, client)
