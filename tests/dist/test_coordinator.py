"""Coordinator lifecycle, bind guard, grace, and hostile clients.

Everything protocol-level that does *not* need a real sampling payload:
binding policy (loopback unless ``allow_remote``), worker waits, the
zero-worker grace that fails queued futures, close semantics, and the
promise that a malformed or hostile client connection is dropped and
counted — never a traceback in a serving thread, never a wedged
coordinator.
"""

from __future__ import annotations

import socket
import time

import pytest

from repro.dist import Coordinator, WorkersUnavailableError, frames
from repro.errors import ConfigurationError


class TestBindGuard:
    def test_loopback_hosts_accepted_silently(self):
        for host in ("127.0.0.1", "localhost"):
            Coordinator(host=host)  # never started; validation is eager

    def test_non_loopback_host_refused(self):
        with pytest.raises(ConfigurationError, match="non-loopback"):
            Coordinator(host="0.0.0.0")

    def test_allow_remote_opts_in_with_a_warning(self):
        with pytest.warns(RuntimeWarning, match="non-loopback"):
            coordinator = Coordinator(host="0.0.0.0", allow_remote=True)
        assert coordinator.host == "0.0.0.0"  # validated, never bound here


class TestLifecycle:
    def test_start_binds_ephemeral_port_and_is_idempotent(self):
        with Coordinator() as coordinator:
            assert coordinator.started
            port = coordinator.port
            assert port > 0
            assert coordinator.start() is coordinator
            assert coordinator.port == port

    def test_close_is_idempotent_and_start_after_close_refused(self):
        coordinator = Coordinator().start()
        coordinator.close()
        coordinator.close()
        with pytest.raises(ConfigurationError, match="closed"):
            coordinator.start()

    def test_close_stops_every_thread_promptly(self):
        """close() shuts the listener down, which wakes a blocked
        accept() at once: no repro-dist-* thread outlives it (the join
        bound is generous — a listener that is only closed would leave
        the accept thread blocked past it)."""
        coordinator = Coordinator().start()
        threads = list(coordinator._threads)
        assert sorted(t.name for t in threads) == [
            "repro-dist-accept", "repro-dist-monitor",
        ]
        coordinator.close()
        assert not [t.name for t in threads if t.is_alive()]

    def test_wait_for_workers_times_out_cleanly(self):
        with Coordinator() as coordinator:
            with pytest.raises(ConfigurationError, match="timed out"):
                coordinator.wait_for_workers(1, timeout=0.3)

    def test_submit_requires_registered_session(self):
        with Coordinator() as coordinator:
            with pytest.raises(ConfigurationError, match="session"):
                coordinator.submit(999, 0, 0)

    def test_submit_after_close_refused(self):
        coordinator = Coordinator().start()
        session = coordinator.register_session({"k": 1}, b"payload")
        coordinator.close()
        with pytest.raises(ConfigurationError, match="closed"):
            coordinator.submit(session, 0, 0)

    def test_stats_shape(self):
        with Coordinator() as coordinator:
            stats = coordinator.stats()
            for key in ("tasks_completed", "retries", "timeouts",
                        "disconnects", "corrupt_blocks",
                        "workers_connected", "workers", "queued", "events"):
                assert key in stats


class TestGrace:
    def test_empty_fleet_fails_queued_futures_after_grace(self):
        with Coordinator(worker_grace=0.3) as coordinator:
            session = coordinator.register_session({"k": 1}, b"")
            future = coordinator.submit(session, 0, 0)
            with pytest.raises(WorkersUnavailableError, match="no workers"):
                future.result(timeout=10.0)

    def test_close_fails_queued_futures_immediately(self):
        coordinator = Coordinator().start()
        session = coordinator.register_session({"k": 1}, b"")
        future = coordinator.submit(session, 0, 0)
        coordinator.close()
        with pytest.raises(WorkersUnavailableError, match="closed"):
            future.result(timeout=5.0)

    def test_released_session_fails_late_submitted_future(self):
        # A task queued against a session that is released before any
        # worker picks it up must fail, not hang.
        with Coordinator(worker_grace=0.3) as coordinator:
            session = coordinator.register_session({"k": 1}, b"")
            future = coordinator.submit(session, 0, 0)
            coordinator.release_session(session)
            with pytest.raises(WorkersUnavailableError):
                future.result(timeout=10.0)


def _await_stat(coordinator, key, minimum, timeout=5.0) -> dict:
    deadline = time.monotonic() + timeout
    while True:
        stats = coordinator.stats()
        if stats[key] >= minimum:
            return stats
        if time.monotonic() > deadline:
            raise AssertionError(f"{key} never reached {minimum}: {stats}")
        time.sleep(0.02)


class TestAdoption:
    def test_adopted_pair_serves_an_announced_session_without_a_listener(self):
        """``engine="process"``'s shape: a coordinator that never binds
        serves a worker on one end of a socketpair.  The worker already
        holds the session, so no SETUP/PAYLOAD crosses — an empty
        registered payload would fail the worker if one did."""
        import threading

        from repro.dist.worker import WorkerHost, _Session
        from repro.graph.generators import erdos_renyi
        from repro.graph.probabilities import constant_probabilities
        from repro.rrset.backends import resolve_backend
        from repro.rrset.sharded import ChunkSource

        graph = erdos_renyi(30, 0.1, seed=1)
        source = ChunkSource(
            graph, [constant_probabilities(graph, 0.2)], [7], 8,
            resolve_backend("numpy"),
        )
        coordinator = Coordinator()
        session = coordinator.register_session({}, b"")
        parent_end, child_end = socket.socketpair()
        worker = WorkerHost("", 0)
        worker._sessions[session] = _Session(source)
        thread = threading.Thread(target=worker.serve, args=(child_end,), daemon=True)
        thread.start()
        try:
            coordinator.adopt(parent_end, announced=(session,))
            block = coordinator.submit(session, 0, 2).result(timeout=10)
        finally:
            coordinator.close()  # SHUTDOWN ends the worker's serve()
            thread.join(timeout=10)
            child_end.close()
        expected = source.block(0, 2)
        assert block.members.tobytes() == expected.members.tobytes()
        assert block.lengths.tolist() == expected.lengths.tolist()
        assert not coordinator.started and not thread.is_alive()
        assert worker.chunks_served == 1


class TestHostileClients:
    def test_garbage_bytes_drop_the_connection_and_count(self):
        with Coordinator() as coordinator:
            with socket.create_connection(
                ("127.0.0.1", coordinator.port), timeout=5.0
            ) as conn:
                conn.sendall(b"\x00" * 64)  # not a frame at all
                # The coordinator closes on us; drain until EOF.
                conn.settimeout(5.0)
                while conn.recv(4096):
                    pass
            stats = _await_stat(coordinator, "disconnects", 1)
            assert stats["workers_connected"] == 0  # never handshaken

    def test_wrong_protocol_version_is_refused(self):
        # 2: the last version whose RESULT frames had their own header.
        assert frames.PROTOCOL_VERSION == 3
        with Coordinator() as coordinator:
            for count, version in enumerate((999, 2), start=1):
                with socket.create_connection(
                    ("127.0.0.1", coordinator.port), timeout=5.0
                ) as conn:
                    frames.send_json(conn, frames.HELLO, {"protocol": version})
                    conn.settimeout(5.0)
                    while conn.recv(4096):
                        pass
                stats = _await_stat(coordinator, "disconnects", count)
                assert stats["workers_connected"] == 0

    def test_hostile_client_does_not_wedge_real_traffic(self):
        """A garbage connection before *and during* real work must not
        affect the fleet: tasks still complete on the honest worker."""
        import threading

        from repro.dist import WorkerHost

        with Coordinator() as coordinator:
            with socket.create_connection(
                ("127.0.0.1", coordinator.port), timeout=5.0
            ) as conn:
                conn.sendall(b"EVIL" * 8)
            _await_stat(coordinator, "disconnects", 1)

            worker = WorkerHost("127.0.0.1", coordinator.port)
            thread = threading.Thread(target=worker.run, daemon=True)
            thread.start()
            coordinator.wait_for_workers(1, timeout=10.0)
            assert len(coordinator.stats()["workers"]) == 1
        thread.join(timeout=10.0)
        assert not thread.is_alive()
