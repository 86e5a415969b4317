"""Protocol fuzz: hostile request lines get one error line or a clean close.

The line-JSON protocol is the service's trust boundary — anything that
can reach the port can write to it.  These tests feed a live
:class:`~repro.service.server.AllocationServer` an oversize line, a line
cut short by EOF, JSON that is not an object, bytes that are not UTF-8,
an unknown op and requests missing or mangling ``job_id``, and demand
the same three things every time: the peer reads exactly one
``{"ok": false, "error": ...}`` line (or a clean EOF), no exception
reaches the event loop's handler, and a new connection still answers
``ping``.  (Slow-loris — a peer that never finishes its line — is the
part of this surface still open on the ROADMAP.)
"""

from __future__ import annotations

import asyncio
import json
import socket
import threading

import pytest

from repro.service.jobs import JobManager
from repro.service.server import MAX_REQUEST_BYTES, AllocationServer

TIMEOUT = 30.0


@pytest.fixture
def served(monkeypatch):
    """``(port, loop_errors)`` of a server running on its own loop in a
    thread; on the way out it must shut down through the protocol with
    ``loop_errors`` — what the loop's exception handler saw — empty."""
    monkeypatch.delenv("REPRO_CACHE", raising=False)
    manager = JobManager(cache=None)
    server = AllocationServer(manager)
    loop_errors: list[dict] = []
    listening = threading.Event()

    async def main() -> None:
        asyncio.get_running_loop().set_exception_handler(
            lambda loop, context: loop_errors.append(context)
        )
        ready = asyncio.Event()
        serving = asyncio.ensure_future(server.serve_async(ready=ready))
        await ready.wait()
        listening.set()
        await serving

    thread = threading.Thread(target=asyncio.run, args=(main(),), daemon=True)
    thread.start()
    assert listening.wait(TIMEOUT)
    try:
        yield server.bound_port, loop_errors
    finally:
        _exchange(server.bound_port, b'{"op": "shutdown"}\n')
        thread.join(TIMEOUT)
        manager.close()
    assert not thread.is_alive()
    assert loop_errors == []


def _exchange(port: int, payload: bytes, *, eof: bool = False) -> list[bytes]:
    """Send ``payload`` (then half-close, with ``eof``) and return the
    next two lines the server sends: a reply, then ``b""`` if it hung
    up after it."""
    with socket.create_connection(("127.0.0.1", port), timeout=TIMEOUT) as sock:
        sock.sendall(payload)
        if eof:
            sock.shutdown(socket.SHUT_WR)
        with sock.makefile("rb") as stream:
            first = stream.readline()
            if not eof and first and b"exceeds" not in first:
                return [first]  # the server keeps this connection open
            return [first, stream.readline()]


def _error_of(line: bytes) -> str:
    reply = json.loads(line)
    assert reply["ok"] is False
    assert set(reply) == {"ok", "error"}
    return reply["error"]


def _assert_still_serving(port: int) -> None:
    (line,) = _exchange(port, b'{"op": "ping"}\n')
    assert json.loads(line)["pong"] is True


def test_oversize_line_is_answered_once_then_closed(served):
    port, _ = served
    reply, after = _exchange(port, b"x" * (MAX_REQUEST_BYTES + 10) + b"\n")
    assert _error_of(reply) == f"request exceeds {MAX_REQUEST_BYTES} bytes"
    assert after == b""
    _assert_still_serving(port)


def test_oversize_line_that_never_ends_is_answered_too(served):
    port, _ = served
    reply, after = _exchange(port, b"[" * (MAX_REQUEST_BYTES + 10), eof=True)
    assert "exceeds" in _error_of(reply)
    assert after == b""
    _assert_still_serving(port)


def test_line_truncated_by_eof_gets_one_error_line(served):
    port, _ = served
    reply, after = _exchange(port, b'{"op": "pi', eof=True)
    _error_of(reply)
    assert after == b""
    _assert_still_serving(port)


def test_eof_before_any_byte_is_a_clean_close(served):
    port, _ = served
    assert _exchange(port, b"", eof=True) == [b"", b""]
    _assert_still_serving(port)


@pytest.mark.parametrize(
    "line, message",
    [
        (b"[1, 2, 3]\n", "must be a JSON object"),
        (b'"ping"\n', "must be a JSON object"),
        (b"{not json}\n", "Expecting"),
        (b'{"op": "\xc3\x28"}\n', "'utf-8' codec can't decode"),
        (b'{"op": "frobnicate"}\n', "unknown op 'frobnicate'"),
        (b"{}\n", "unknown op None"),
        (b'{"op": "wait"}\n', "job_id"),
        (b'{"op": "query-progress"}\n', "job_id"),
        (b'{"op": "cancel", "job_id": "job-0001"}\n', "unknown job id"),
        (b'{"op": "query-progress", "job_id": ["job-0001"]}\n', "unhashable"),
        (b'{"op": "reallocate", "job_id": 7, "remove_ads": [0]}\n', "unknown job id 7"),
        (
            b'{"op": "estimate-spread", "dataset": "figure1", "seeds": [99], '
            b'"num_sets": 16}\n',
            "seed ids [99] out of range",
        ),
        (
            b'{"op": "estimate-spread", "dataset": "figure1", "seeds": [-1], '
            b'"num_sets": 16}\n',
            "seed ids [-1] out of range",
        ),
    ],
)
def test_malformed_request_gets_one_error_line(served, line, message):
    port, _ = served
    (reply,) = _exchange(port, line)
    assert message in _error_of(reply)
    _assert_still_serving(port)


def test_non_finite_param_is_refused_before_a_job_exists(served):
    """``json.loads`` reads ``NaN``: the submit must be refused with one
    error line, not accepted and left to fail in the background."""
    port, _ = served
    (reply,) = _exchange(
        port,
        b'{"op": "submit-allocation", "dataset": "figure1", '
        b'"params": {"ell": NaN}}\n',
    )
    assert "ell must be finite" in _error_of(reply)
    (line,) = _exchange(port, b'{"op": "ping"}\n')
    assert json.loads(line)["jobs"] == 0


def test_connection_survives_a_bad_line(served):
    """An error reply does not cost the connection: the next line on
    the same socket is served."""
    port, _ = served
    with socket.create_connection(("127.0.0.1", port), timeout=TIMEOUT) as sock:
        with sock.makefile("rwb") as stream:
            stream.write(b'{"op": 1}\n{"op": "ping"}\n')
            stream.flush()
            assert "unknown op" in _error_of(stream.readline())
            assert json.loads(stream.readline())["pong"] is True
