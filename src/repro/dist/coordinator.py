"""The stateful half of the distributed tier: task queue + worker fleet.

One :class:`Coordinator` owns a deque of chunk tasks and one serving
thread per worker — dialled in (:meth:`Coordinator.start`) or adopted
(:meth:`Coordinator.adopt`: a forked child's socketpair end).  Engines
register *sessions* (the payload a worker needs to re-derive any chunk:
graph CSR + probability rows + entropies) and submit ``(session, ad,
chunk)`` tasks; workers receive each session's payload once per
connection, unless they hold it already, and stream RESULT blocks back.

Fault model — the coordinator owns retry/timeout/backoff, the workers
own nothing:

* **crash** — the connection drops (EOF, reset, or mid-frame): the
  worker is deregistered and its in-flight chunk is requeued.
* **stall** — no RESULT within ``task_timeout``: the socket read times
  out, the worker is dropped (a late result from a zombie must never
  race a requeued one), and the chunk is requeued.
* **corrupt** — a RESULT whose block fails the entry parse (sizes,
  lengths, blake2 digest) or addresses the wrong chunk: the worker is
  dropped and the chunk requeued.  The digest is the same one dsan
  records, so a corrupt block can never reach a shard.

Requeues carry a deterministic exponential backoff (no jitter — random
delays are banned by the determinism lint, and delay only schedules
*when* a chunk is retried, never *what* it contains).  A task that
exhausts ``max_retries`` fails its future with
:class:`TaskFailedError`; a queue with no workers for ``worker_grace``
seconds fails all queued futures with :class:`WorkersUnavailableError`
— the distributed engine answers both by computing the chunk locally,
so an allocation always completes, byte-identically.

Binding is loopback-only by default: a non-loopback host raises
:class:`~repro.errors.ConfigurationError` unless ``allow_remote=True``
(which still warns) — the protocol is unauthenticated.
"""

from __future__ import annotations

import itertools
import socket
import threading
import time
from collections import deque
from concurrent.futures import Future, InvalidStateError

from repro.dist import frames
from repro.dist.frames import FrameIntegrityError
from repro.errors import ConfigurationError, ProtocolError, ReproError
from repro.utils.validation import check_bind_host

#: Seconds a worker has to produce one RESULT before it counts as
#: stalled and loses the chunk.
DEFAULT_TASK_TIMEOUT = 30.0

#: Attempts per chunk before its future fails with TaskFailedError.
DEFAULT_MAX_RETRIES = 5

#: First requeue delay; doubles per attempt, capped at BACKOFF_CAP.
#: Deterministic by design — no jitter (R101/R102: scheduling noise is
#: acceptable only because it cannot change bytes, but the repo's rule
#: is simpler: no entropy outside the RNG seam, period).
BACKOFF_BASE = 0.05
BACKOFF_CAP = 2.0

#: Seconds the handshake (HELLO) may take before the connection is
#: dropped — keeps a port-scanner from pinning a serving thread.
HANDSHAKE_TIMEOUT = 10.0


class WorkersUnavailableError(ReproError):
    """No connected workers for longer than the coordinator's grace
    period (or the coordinator closed) while tasks were queued.  The
    distributed engine catches this and computes the chunk locally."""


class TaskFailedError(ReproError):
    """One chunk task exhausted its retry budget across workers.  The
    distributed engine catches this and computes the chunk locally."""


class _Task:
    __slots__ = ("session_id", "ad", "chunk", "future", "attempts", "ready_at")

    def __init__(self, session_id: int, ad: int, chunk: int) -> None:
        self.session_id = session_id
        self.ad = ad
        self.chunk = chunk
        self.future: Future = Future()
        self.attempts = 0
        self.ready_at = 0.0

    def resolve(self, result) -> None:
        if not self.future.cancelled():
            try:
                self.future.set_result(result)
            except InvalidStateError:  # pragma: no cover - cancel race
                pass

    def fail(self, exc: BaseException) -> None:
        if not self.future.cancelled():
            try:
                self.future.set_exception(exc)
            except InvalidStateError:  # pragma: no cover - cancel race
                pass


class Coordinator:
    """Accepts workers, scatters chunk tasks, reassigns on failure.

    Thread layout: one accept loop (only once :meth:`start` bound a
    listener), one monitor (zero-worker grace), and one serving thread
    per worker connection.  All shared state —
    the task deque, the session registry, the worker table, the stats —
    lives under one condition variable.
    """

    def __init__(self, *, host: str = "127.0.0.1", port: int = 0,
                 allow_remote: bool = False,
                 task_timeout: float = DEFAULT_TASK_TIMEOUT,
                 max_retries: int = DEFAULT_MAX_RETRIES,
                 worker_grace: float | None = None,
                 max_frame_bytes: int = frames.MAX_FRAME_BYTES) -> None:
        self.host = check_bind_host(
            host, allow_remote=allow_remote, what="coordinator"
        )
        self.port = int(port)
        self.task_timeout = float(task_timeout)
        self.max_retries = int(max_retries)
        self.worker_grace = (
            float(worker_grace) if worker_grace is not None
            else max(self.task_timeout, 1.0)
        )
        self.max_frame_bytes = int(max_frame_bytes)
        self._cond = threading.Condition()
        self._queue: deque[_Task] = deque()
        self._sessions: dict[int, tuple[dict, bytes]] = {}
        self._released: set[int] = set()
        self._workers: dict[str, dict] = {}
        self._session_ids = itertools.count()
        self._worker_ids = itertools.count()
        self._listener: socket.socket | None = None
        self._monitoring = False
        self._threads: list[threading.Thread] = []
        self._stop = threading.Event()
        self._stats = {
            "tasks_completed": 0,
            "retries": 0,
            "timeouts": 0,
            "disconnects": 0,
            "corrupt_blocks": 0,
            "workers_connected": 0,
        }
        self._events: deque[dict] = deque(maxlen=100)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def started(self) -> bool:
        return self._listener is not None

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` — valid after :meth:`start`."""
        return self.host, self.port

    def start(self) -> "Coordinator":
        """Bind, start the accept and monitor threads, return self."""
        if self._stop.is_set():
            raise ConfigurationError("coordinator is closed")
        if self._listener is not None:
            return self
        listener = socket.create_server((self.host, self.port))  # reprolint: disable=R104 -- ownership transfers: close() owns the single close after the accept loop exits; the error path below closes locally
        try:
            self.port = listener.getsockname()[1]
            self._listener = listener
            self._thread("accept", self._accept_loop)
            self._ensure_monitor()
        except BaseException:
            self._listener = None
            listener.close()
            raise
        return self

    def adopt(self, conn: socket.socket, *, announced=()) -> None:
        """Serve (and own) an already connected worker socket like an
        accepted one.  ``announced`` names sessions the worker already
        holds, whose SETUP and PAYLOAD never cross this connection."""
        with self._cond:
            if self._stop.is_set():
                raise ConfigurationError("coordinator is closed")
        self._ensure_monitor()
        self._thread("worker", self._serve_worker, conn, "adopted", set(announced))

    def _ensure_monitor(self) -> None:
        if not self._monitoring:
            self._monitoring = True
            self._thread("monitor", self._monitor_loop)

    def _thread(self, name: str, target, *args) -> None:
        thread = threading.Thread(
            target=target, args=args, name=f"repro-dist-{name}", daemon=True
        )
        thread.start()
        self._threads.append(thread)

    def close(self) -> None:
        """Stop accepting, fail every queued future, disconnect every
        worker (best-effort SHUTDOWN frame), join the threads.
        Idempotent."""
        with self._cond:
            if self._stop.is_set():
                return
            self._stop.set()
            tasks = list(self._queue)
            self._queue.clear()
            self._cond.notify_all()
        for task in tasks:
            task.fail(WorkersUnavailableError(
                f"coordinator closed with (ad={task.ad}, chunk={task.chunk}) "
                f"still queued"
            ))
        listener, self._listener = self._listener, None
        if listener is not None:
            # Wakes the accept loop at once (a bare close() does not
            # interrupt a blocked accept()).
            try:
                listener.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            listener.close()
        current = threading.current_thread()  # a GC-driven close may run on one
        for thread in self._threads:
            if thread is not current:
                thread.join(timeout=5.0)
        self._threads.clear()

    def __enter__(self) -> "Coordinator":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Engine-facing API
    # ------------------------------------------------------------------
    def register_session(self, meta: dict, payload) -> int:
        """Register one engine's worker payload (any bytes-like object,
        held as is); returns the session id every subsequent
        :meth:`submit` must carry."""
        with self._cond:
            if self._stop.is_set():
                raise ConfigurationError("coordinator is closed")
            session_id = next(self._session_ids)
            self._sessions[session_id] = (dict(meta), payload)
        return session_id

    def release_session(self, session_id: int) -> None:
        """Drop a session's payload; connected workers are told to drop
        theirs before their next task."""
        with self._cond:
            if self._sessions.pop(session_id, None) is not None:
                self._released.add(session_id)

    def submit(self, session_id: int, ad: int, chunk_index: int) -> Future:
        """Queue one chunk task; the future resolves to the verified
        :class:`~repro.rrset.block.Block` (or fails with
        :class:`TaskFailedError` / :class:`WorkersUnavailableError`)."""
        task = _Task(int(session_id), int(ad), int(chunk_index))
        with self._cond:
            if self._stop.is_set():
                raise ConfigurationError("coordinator is closed")
            if session_id not in self._sessions:
                raise ConfigurationError(f"unknown session {session_id}")
            self._queue.append(task)
            self._cond.notify()
        return task.future

    def wait_for_workers(self, count: int, timeout: float = 30.0) -> None:
        """Block until ``count`` workers are connected (handshaken)."""
        deadline = time.monotonic() + float(timeout)
        with self._cond:
            while len(self._workers) < count:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise ConfigurationError(
                        f"timed out waiting for {count} workers "
                        f"({len(self._workers)} connected)"
                    )
                self._cond.wait(min(remaining, 0.2))

    def stats(self) -> dict:
        """Provenance snapshot: retry/timeout/disconnect/corrupt
        counters, the worker table, and the last failure events."""
        with self._cond:
            snapshot = dict(self._stats)
            snapshot["workers"] = {
                name: dict(info) for name, info in self._workers.items()
            }
            snapshot["queued"] = len(self._queue)
            snapshot["events"] = [dict(event) for event in self._events]
        return snapshot

    # ------------------------------------------------------------------
    # Accept / monitor loops
    # ------------------------------------------------------------------
    def _accept_loop(self) -> None:
        while not self._stop.is_set():
            listener = self._listener
            if listener is None:
                return
            try:
                conn, addr = listener.accept()
            except OSError:
                return  # close() shut the listener down under us
            # Header and payload go out as two writes: without this a
            # small payload waits on the peer's delayed ACK (Nagle).
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._thread(
                "worker", self._serve_worker, conn, f"{addr[0]}:{addr[1]}", set()
            )

    def _monitor_loop(self) -> None:
        """Fail queued tasks once the fleet has been empty too long —
        the engine's signal to fall back to local compute instead of
        blocking forever on futures nobody will serve."""
        idle_since: float | None = None
        while not self._stop.wait(0.1):
            expired: list[_Task] = []
            with self._cond:
                if self._workers or not self._queue:
                    idle_since = None
                    continue
                now = time.monotonic()
                if idle_since is None:
                    idle_since = now
                    continue
                if now - idle_since < self.worker_grace:
                    continue
                expired = list(self._queue)
                self._queue.clear()
                idle_since = None
            for task in expired:
                task.fail(WorkersUnavailableError(
                    f"no workers connected for {self.worker_grace:.1f}s with "
                    f"(ad={task.ad}, chunk={task.chunk}) queued"
                ))

    # ------------------------------------------------------------------
    # Worker serving
    # ------------------------------------------------------------------
    def _next_task(self, worker: str) -> _Task | None:
        """Pop the next ready task for this worker's thread; ``None``
        when the coordinator stops or the worker was deregistered.
        Tasks under backoff rotate to the back of the deque."""
        with self._cond:
            while True:
                if self._stop.is_set() or worker not in self._workers:
                    return None
                now = time.monotonic()
                delay: float | None = None
                for _ in range(len(self._queue)):
                    task = self._queue.popleft()
                    if task.future.cancelled():
                        continue
                    if task.ready_at <= now:
                        return task
                    self._queue.append(task)
                    remaining = task.ready_at - now
                    delay = remaining if delay is None else min(delay, remaining)
                self._cond.wait(0.2 if delay is None else min(delay, 0.2))

    def _requeue_locked(self, task: _Task, worker: str, kind: str) -> None:
        """Under the lock: count a failed attempt and either requeue the
        task with deterministic backoff or fail its future."""
        task.attempts += 1
        self._stats["retries"] += 1
        self._events.append({
            "kind": kind, "worker": worker,
            "ad": task.ad, "chunk": task.chunk, "attempt": task.attempts,
        })
        if task.attempts > self.max_retries:
            # fail() outside the lock would be nicer, but future
            # callbacks are not used here and set_exception is cheap.
            task.fail(TaskFailedError(
                f"(ad={task.ad}, chunk={task.chunk}) failed on {task.attempts} "
                f"workers (last: {kind} on {worker})"
            ))
            return
        task.ready_at = time.monotonic() + min(
            BACKOFF_BASE * (2 ** (task.attempts - 1)), BACKOFF_CAP
        )
        self._queue.append(task)
        self._cond.notify()

    def _serve_worker(self, conn: socket.socket, addr: str,
                      announced: set[int]) -> None:
        worker = f"worker-{next(self._worker_ids)}"
        decoder = frames.FrameDecoder(self.max_frame_bytes)
        registered = False
        task: _Task | None = None
        failure: str | None = None
        try:
            conn.settimeout(HANDSHAKE_TIMEOUT)
            frame = frames.recv_frame(conn, decoder)
            if frame is None or frame[0] != frames.HELLO:
                raise ProtocolError(
                    f"{worker}: expected HELLO, got "
                    f"{'EOF' if frame is None else f'kind {frame[0]}'}"
                )
            hello = frames.parse_json(frame[1])
            if hello.get("protocol") != frames.PROTOCOL_VERSION:
                raise ProtocolError(
                    f"{worker}: protocol {hello.get('protocol')!r} != "
                    f"{frames.PROTOCOL_VERSION}"
                )
            name = hello.get("name")
            if name:
                worker = f"{name}#{worker.split('-')[-1]}"
            with self._cond:
                self._workers[worker] = {"addr": addr, "tasks": 0}
                self._stats["workers_connected"] += 1
                registered = True
                self._cond.notify_all()
            while True:
                task = self._next_task(worker)
                if task is None:
                    break
                self._run_task(conn, decoder, worker, announced, task)
                task = None
        except TimeoutError:
            failure = "timeout"
        except FrameIntegrityError:
            failure = "corrupt"
        except (ProtocolError, ConnectionError, OSError):
            failure = "disconnect"
        finally:
            with self._cond:
                if registered:
                    self._workers.pop(worker, None)
                if failure is not None:
                    counter = {
                        "timeout": "timeouts",
                        "corrupt": "corrupt_blocks",
                        "disconnect": "disconnects",
                    }[failure]
                    self._stats[counter] += 1
                if task is not None:
                    self._requeue_locked(task, worker, failure or "disconnect")
                self._cond.notify_all()
            try:
                # Best-effort: tells a cleanly-finishing worker (fleet
                # drain, coordinator close) to exit instead of waiting
                # on a dead socket.
                frames.send_frame(conn, frames.SHUTDOWN)
            except OSError:
                pass
            conn.close()

    def _run_task(self, conn: socket.socket, decoder: frames.FrameDecoder,
                  worker: str, announced: set[int], task: _Task) -> None:
        """One task round-trip on one connection.  Any raise propagates
        to :meth:`_serve_worker`, which classifies it, requeues the
        task, and drops the worker."""
        self._flush_released(conn, announced)
        if task.session_id not in announced:
            with self._cond:
                session = self._sessions.get(task.session_id)
            if session is None:
                # Released while queued: nothing to compute against.
                task.fail(WorkersUnavailableError(
                    f"session {task.session_id} was released with "
                    f"(ad={task.ad}, chunk={task.chunk}) queued"
                ))
                return
            meta, payload = session
            frames.send_json(
                conn, frames.SETUP, {"session": task.session_id, **meta}
            )
            frames.send_frame(conn, frames.PAYLOAD, payload)
            announced.add(task.session_id)
        frames.send_json(conn, frames.TASK, {
            "session": task.session_id, "ad": task.ad, "chunk": task.chunk,
        })
        conn.settimeout(self.task_timeout)
        frame = frames.recv_frame(conn, decoder)
        if frame is None:
            raise ProtocolError(f"{worker}: connection closed awaiting RESULT")
        kind, payload = frame
        if kind == frames.ERROR:
            info = frames.parse_json(payload)
            raise ProtocolError(f"{worker}: {info.get('error', 'worker error')}")
        if kind != frames.RESULT:
            raise ProtocolError(
                f"{worker}: expected RESULT, got kind {kind}"
            )
        ad, chunk, block = frames.unpack_result(payload)
        if (ad, chunk) != (task.ad, task.chunk):
            raise FrameIntegrityError(
                f"{worker}: RESULT addresses (ad={ad}, chunk={chunk}), "
                f"task was (ad={task.ad}, chunk={task.chunk})"
            )
        with self._cond:
            self._stats["tasks_completed"] += 1
            info = self._workers.get(worker)
            if info is not None:
                info["tasks"] += 1
        task.resolve(block)

    def _flush_released(self, conn: socket.socket,
                        announced: set[int]) -> None:
        """Tell this connection's worker to drop any session it holds
        that has since been released (lazy — sent before the next task,
        which is the first time the socket is writable by this thread)."""
        with self._cond:
            stale = [sid for sid in announced if sid in self._released]
        for sid in stale:
            frames.send_json(conn, frames.RELEASE, {"session": sid})
            announced.discard(sid)
