"""Fault-injection harness for the distributed tier.

:class:`ChaosWorker` is a :class:`~repro.dist.WorkerHost` that
misbehaves at an exact chunk boundary, through the worker's two chaos
seams (``_before_result`` / ``_send_result``) — the protocol and
sampling code under test is never touched:

``crash``
    Close the connection abruptly after computing the Nth chunk, before
    sending it (the coordinator sees EOF awaiting RESULT).
``stall``
    Sleep past the coordinator's ``task_timeout`` instead of answering
    (the coordinator's read times out and drops the worker).
``corrupt``
    Bit-flip one byte of the Nth RESULT payload's member data (the
    frame parses; the blake2 digest check refutes it).
``truncate``
    Send only half of the Nth RESULT frame, then close mid-frame (the
    decoder refuses the torn frame).
``negative``
    Re-stamp the Nth RESULT with one set length negative and the sum
    preserved (the digest is valid; the entry parse refutes the sign).

Every mode must end the same way: the chunk is requeued to a surviving
worker (or computed locally), and the allocation is byte-identical to a
serial run — with the failure visible only in the retry provenance.

Workers here run in daemon threads over real sockets; the CI smoke leg
exercises the same protocol across process boundaries.
"""

from __future__ import annotations

import threading
import time

import numpy as np

from repro.dist import WorkerHost, frames
from repro.dist.worker import WorkerExit
from repro.rrset.block import HEADER_SIZE

FAILURE_MODES = ("crash", "stall", "corrupt", "truncate", "negative")


class ChaosWorker(WorkerHost):
    """A worker that fails in ``failure`` fashion on its Nth chunk.

    ``fail_on`` is 1-based: ``fail_on=1`` hits the very first chunk this
    worker is handed.  ``stall_seconds`` only matters for ``stall`` and
    should comfortably exceed the coordinator's ``task_timeout``.
    """

    def __init__(self, host, port, *, failure: str, fail_on: int = 1,
                 stall_seconds: float = 5.0, **kwargs) -> None:
        if failure not in FAILURE_MODES:
            raise ValueError(f"unknown failure mode {failure!r}")
        super().__init__(host, port, **kwargs)
        self.failure = failure
        self.fail_on = int(fail_on)
        self.stall_seconds = float(stall_seconds)
        self.failures_injected = 0

    def _armed(self) -> bool:
        # chunks_served is incremented before the seams fire, so the
        # Nth chunk sees chunks_served == N exactly once.
        return self.chunks_served == self.fail_on

    def _before_result(self, ad: int, chunk_index: int) -> None:
        if not self._armed():
            return
        if self.failure == "crash":
            self.failures_injected += 1
            raise WorkerExit  # run() closes the socket: EOF mid-task
        if self.failure == "stall":
            self.failures_injected += 1
            time.sleep(self.stall_seconds)
            raise WorkerExit  # never answer; the coordinator moved on

    def _send_result(self, sock, ad: int, chunk_index: int,
                     payload: bytes) -> None:
        if self._armed() and self.failure == "corrupt":
            self.failures_injected += 1
            _, _, block = frames.unpack_result(payload)
            corrupted = bytearray(payload)
            # Flip a bit of the member data (falling back to the digest
            # stamp for an empty block): the frame still parses
            # structurally, so only the digest check can catch it.
            entry = frames.ADDRESS_SIZE
            if block.num_members > 0:
                corrupted[entry + HEADER_SIZE + 8 * block.num_sets] ^= 0x40
            else:
                corrupted[entry + 32] ^= 0x01
            frames.send_frame(sock, frames.RESULT, bytes(corrupted))
            return
        if self._armed() and self.failure == "negative":
            self.failures_injected += 1
            _, _, block = frames.unpack_result(payload)
            lengths = np.array(block.lengths)
            lengths[:2] = [lengths[0] + lengths[1] + 1, -1]  # sum preserved
            frames.send_frame(sock, frames.RESULT, frames.pack_result(
                ad, chunk_index, block.members, lengths
            ))
            return
        if self._armed() and self.failure == "truncate":
            self.failures_injected += 1
            wire = frames.pack_frame(frames.RESULT, payload)
            sock.sendall(wire[: len(wire) // 2])
            raise WorkerExit  # run() closes the socket mid-frame
        super()._send_result(sock, ad, chunk_index, payload)


def start_workers(coordinator, workers) -> list[threading.Thread]:
    """Run each worker's :meth:`run` in a daemon thread; any uncaught
    error is published on ``worker.error`` for the test to assert on."""
    threads = []
    for worker in workers:
        worker.error = None

        def _run(worker=worker):
            try:
                worker.run()
            except BaseException as exc:  # published for the test
                worker.error = exc

        thread = threading.Thread(target=_run, daemon=True)
        thread.start()
        threads.append(thread)
    coordinator.wait_for_workers(len(workers), timeout=10.0)
    return threads


def join_workers(threads, timeout: float = 10.0) -> None:
    for thread in threads:
        thread.join(timeout)
