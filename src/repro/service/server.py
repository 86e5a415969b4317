"""The resident allocation server: stdlib asyncio, line-delimited JSON.

``repro serve`` runs one :class:`AllocationServer` over one
:class:`~repro.service.jobs.JobManager`.  The protocol is deliberately
primitive — one JSON object per line, one JSON object back — so any
language (or ``nc``) can drive it; the blocking ops (``submit`` loads a
dataset, ``wait`` joins a job) run in the default thread-pool executor
so the event loop keeps answering ``query-progress`` while allocations
run in the manager's worker threads.

Operations (request ``{"op": ..., ...}`` → response ``{"ok": true,
...}`` or ``{"ok": false, "error": ...}``):

``ping``                  liveness + job/pool counters
``submit-allocation``     ``dataset`` [+ ``dataset_kwargs``/``params``] → ``job_id``
``query-progress``        ``job_id`` → summary + latest boundary snapshot
``wait``                  ``job_id`` [+ ``timeout``] → full result payload
``cancel``                ``job_id`` [+ ``wait``] → stop at next boundary
``reallocate``            ``job_id`` + ``update_budgets``/``add_ads``/``remove_ads``
``estimate-spread``       ``dataset`` + ``ad`` + ``seeds`` [+ ``num_sets``]
``list-jobs``             job summaries + catalog row ids
``shutdown``              close the server after answering

Binding defaults to loopback on an ephemeral port; ``--port-file``
publishes the bound port for clients started before the server.  A
non-loopback ``--host`` is refused unless ``--allow-remote`` is given
(the protocol is unauthenticated).
"""

from __future__ import annotations

import asyncio
import json
import os

from repro.errors import ReproError, ServiceError
from repro.service.jobs import JobManager
from repro.utils.validation import check_bind_host

#: Hard cap on one request line (a seeds list at most).
MAX_REQUEST_BYTES = 8 * 1024 * 1024


def result_payload(job) -> dict:
    """The wire shape of one finished job's AllocationResult: summary,
    per-ad seed lists, revenues, and the full stats minus the bulky
    per-chunk dsan digest map (the root fingerprint suffices)."""
    record = job.summary()
    result = job.result
    if result is None:
        return record
    allocation = result.allocation
    record["algorithm"] = result.algorithm
    record["seeds_per_ad"] = [
        [int(node) for node in allocation.seed_array(ad)]
        for ad in range(len(result.estimated_revenues))
    ]
    record["estimated_revenues"] = [
        float(revenue) for revenue in result.estimated_revenues
    ]
    record["stats"] = {
        key: value for key, value in result.stats.items()
        if key != "dsan_digests"
    }
    record["provenance"] = allocation.provenance or {}
    return record


class AllocationServer:
    """One asyncio TCP server over one job manager (injected, owned by
    the caller — ``serve()`` closes it on the way out).

    The protocol is unauthenticated, so binding beyond loopback needs
    the explicit ``allow_remote=True`` opt-in (``--allow-remote``)."""

    def __init__(self, manager: JobManager, *, host: str = "127.0.0.1",
                 port: int = 0, allow_remote: bool = False) -> None:
        self.manager = manager
        self.host = check_bind_host(
            host, allow_remote=allow_remote, what="repro serve"
        )
        self.port = port
        self.bound_port: int | None = None
        self._stop: asyncio.Event | None = None

    # ------------------------------------------------------------------
    # Dispatch (runs in the executor — may block)
    # ------------------------------------------------------------------
    def dispatch(self, request: dict) -> dict:
        op = request.get("op")
        if op == "ping":
            return {
                "pong": True,
                "jobs": self.manager.job_count(),
                "pool": self.manager.pool.stats(),
            }
        if op == "submit-allocation":
            job = self.manager.submit(
                request.get("dataset"),
                params=request.get("params"),
                dataset_kwargs=request.get("dataset_kwargs"),
            )
            return {"job_id": job.job_id}
        if op == "query-progress":
            return self.manager.progress(request["job_id"])
        if op == "wait":
            job = self.manager.wait(
                request["job_id"], request.get("timeout")
            )
            if job.error is not None:
                raise ServiceError(
                    f"job {job.job_id} failed: {job.error}"
                )
            return result_payload(job)
        if op == "cancel":
            job = self.manager.cancel(
                request["job_id"],
                wait=bool(request.get("wait", False)),
                timeout=request.get("timeout"),
            )
            return job.summary()
        if op == "reallocate":
            job = self.manager.reallocate(
                request["job_id"],
                update_budgets=request.get("update_budgets"),
                add_ads=request.get("add_ads"),
                remove_ads=request.get("remove_ads"),
                timeout=request.get("timeout"),
            )
            return {"job_id": job.job_id, "source_job_id": job.source_job_id}
        if op == "estimate-spread":
            return self.manager.estimate_spread(
                request.get("dataset"),
                ad=int(request.get("ad", 0)),
                seeds=request.get("seeds", ()),
                num_sets=int(request.get("num_sets", 10_000)),
                params=request.get("params"),
                dataset_kwargs=request.get("dataset_kwargs"),
            )
        if op == "list-jobs":
            return {"jobs": self.manager.list_jobs()}
        if op == "shutdown":
            return {"stopping": True}
        raise ServiceError(f"unknown op {op!r}")

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        loop = asyncio.get_running_loop()

        async def send(response: dict) -> None:
            writer.write(json.dumps(response).encode() + b"\n")
            await writer.drain()

        try:
            while True:
                try:
                    line = await reader.readline()
                except ValueError:
                    # readline() re-raises a line past the stream limit
                    # as ValueError; the rest of the line is still on
                    # the wire, so answer once and hang up.
                    await send({
                        "ok": False,
                        "error": f"request exceeds {MAX_REQUEST_BYTES} bytes",
                    })
                    break
                if not line.strip():
                    break
                request = {}
                try:
                    parsed = json.loads(line)
                    if not isinstance(parsed, dict):
                        raise ServiceError("request must be a JSON object")
                    request = parsed
                    payload = await loop.run_in_executor(
                        None, self.dispatch, request
                    )
                    response = {"ok": True, **payload}
                except (ReproError, ValueError, KeyError, TypeError) as exc:
                    response = {"ok": False, "error": str(exc) or repr(exc)}
                await send(response)
                if request.get("op") == "shutdown" and response.get("ok"):
                    self._stop.set()
                    break
        except ConnectionError:
            pass  # the peer went away mid-exchange
        finally:
            writer.close()
            # wait_closed() pairs every accepted connection's transport
            # with a reachable close on all paths (R104, service tier).
            try:
                await writer.wait_closed()
            except ConnectionError:
                pass

    async def serve_async(self, *, port_file: str | None = None,
                          ready: "asyncio.Event | None" = None) -> None:
        """Bind, publish the port, and serve until a ``shutdown`` op."""
        self._stop = asyncio.Event()
        server = await asyncio.start_server(
            self._handle, self.host, self.port, limit=MAX_REQUEST_BYTES
        )
        try:
            self.bound_port = server.sockets[0].getsockname()[1]
            if port_file is not None:
                tmp = f"{port_file}.tmp"
                with open(tmp, "w") as handle:
                    handle.write(str(self.bound_port))
                os.replace(tmp, port_file)
            print(f"repro service listening on {self.host}:{self.bound_port}",
                  flush=True)
            if ready is not None:
                ready.set()
            await self._stop.wait()
        finally:
            server.close()
            await server.wait_closed()

    def serve(self, *, port_file: str | None = None) -> None:
        """Blocking entry point (``repro serve``): run the loop, then
        tear the manager down — pooled engines close here, so a clean
        shutdown leaves no worker processes behind."""
        try:
            asyncio.run(self.serve_async(port_file=port_file))
        except KeyboardInterrupt:
            pass
        finally:
            self.manager.close()
            if port_file is not None and os.path.exists(port_file):
                os.remove(port_file)
