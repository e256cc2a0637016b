"""The detection server: asyncio sockets in, pooled detections out.

One process, one :class:`~repro.serve.registry.GraphRegistry`, one
:class:`~repro.serve.jobs.JobQueue`, many concurrent client connections.
Listens on a unix socket (default, single-host tooling) or localhost TCP;
each connection speaks the newline-delimited JSON protocol of
:mod:`repro.serve.protocol` and may pipeline requests.

Shutdown is leak-free by construction: ``stop()`` closes the listening
socket, drains the queue, releases every registry-owned shared-memory
segment, and shuts the process pool down — after it, ``/dev/shm`` holds
nothing of ours (the CI ``serve-smoke`` job asserts exactly this).
"""

from __future__ import annotations

import asyncio
import os
import threading
import time
from typing import Any, Callable

from repro.community.backends import kernel_backends
from repro.community.factory import ALGORITHM_NAMES, DEFAULT_PARAMS
from repro.parallel.backend import resolve_backend, shm_degradation, shutdown_all
from repro.serve.jobs import JobQueue, JobTimeout, QueueFull
from repro.serve.protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    dumps_line,
    error_response,
    loads_line,
    ok_response,
)
from repro.serve.registry import GraphRegistry

__all__ = ["DetectionServer", "serve_in_thread", "ServerHandle"]

#: The typed request fields: accepted JSON types, and their name in errors.
_FIELDS: dict[str, tuple[tuple[type, ...], str]] = {
    "graph": ((str,), "a string"),
    "path": ((str,), "a string"),
    "algorithm": ((str,), "a string"),
    "params": ((dict,), "an object"),
    "seed": ((int,), "an integer"),
    "timeout": ((int, float), "a number"),
    # The detector params (``DEFAULT_PARAMS``); their ranges are checked
    # by the detector constructors.
    "threads": ((int,), "an integer"),
    "gamma": ((int, float), "a number"),
    "ensemble_size": ((int,), "an integer"),
    "workers": ((int,), "an integer"),
    "shards": ((int,), "an integer"),
    "kernel_backend": ((str,), "a string"),
    "partitioner": ((str,), "a string"),
}

#: ``_field`` default marking a field without a default.
_REQUIRED = object()


class DetectionServer:
    """Long-lived detection service over a pinned-graph registry."""

    def __init__(
        self,
        registry: GraphRegistry | None = None,
        socket_path: str | None = None,
        host: str | None = None,
        port: int = 0,
        workers: int | None = None,
        capacity: int = 4,
        cache_dir: str | None = None,
        max_pending: int = 64,
        cache_size: int = 256,
        default_timeout: float = 300.0,
        log: Callable[[str], None] | None = None,
    ) -> None:
        if socket_path is None and host is None:
            host = "127.0.0.1"
        self.socket_path = socket_path
        self.host = host
        self.port = port  # 0 = ephemeral; .address carries the bound port
        self.workers = workers
        self.registry = registry or GraphRegistry(capacity, cache_dir)
        self.queue = JobQueue(
            self.registry,
            workers=workers,
            max_pending=max_pending,
            cache_size=cache_size,
            default_timeout=default_timeout,
        )
        self._log = log or (lambda msg: None)
        self._server: asyncio.AbstractServer | None = None
        self._stopping: asyncio.Event | None = None
        self._stopped = False
        self._stop_task: asyncio.Task | None = None
        self._started_at: float | None = None
        self._conn_tasks: set[asyncio.Task] = set()
        self.stats: dict[str, int] = {"connections": 0, "requests": 0, "errors": 0}

    # -- lifecycle ------------------------------------------------------
    @property
    def address(self) -> str:
        """The endpoint clients should dial (socket path or host:port)."""
        if self.socket_path is not None:
            return self.socket_path
        return f"{self.host}:{self.port}"

    async def start(self) -> None:
        """Bind the socket and start accepting connections."""
        self._stopping = asyncio.Event()
        await self.queue.start()
        if self.socket_path is not None:
            if os.path.exists(self.socket_path):
                os.unlink(self.socket_path)  # stale socket from a crash
            self._server = await asyncio.start_unix_server(
                self._handle_connection, path=self.socket_path
            )
        else:
            self._server = await asyncio.start_server(
                self._handle_connection, host=self.host, port=self.port
            )
            self.port = self._server.sockets[0].getsockname()[1]
        self._started_at = time.monotonic()
        backend = resolve_backend(self.workers)
        self._log(
            f"serving on {self.address} "
            f"(backend={backend.kind}, workers={backend.workers}, "
            f"capacity={self.registry.capacity})"
        )
        degraded = shm_degradation()
        if degraded is not None:
            self._log(f"WARNING: running degraded serial — {degraded}")

    async def serve_forever(self) -> None:
        """Block until :meth:`stop` (a ``shutdown`` request counts)."""
        assert self._stopping is not None, "start() first"
        await self._stopping.wait()

    def request_stop(self) -> None:
        """Start :meth:`stop` as a task on the running loop (once)."""
        if not self._stopped and self._stop_task is None:
            self._stop_task = asyncio.get_running_loop().create_task(self.stop())

    async def stop(self) -> None:
        """Graceful shutdown: close socket, queue, registry, pool."""
        if self._stopped:
            return
        self._stopped = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)
        await self.queue.close()
        self.registry.close()
        if self.socket_path is not None and os.path.exists(self.socket_path):
            os.unlink(self.socket_path)
        # The pool (and any backend-owned segments) goes down with the
        # server; a later request cycle would lazily rebuild it.
        shutdown_all()
        if self._stopping is not None:
            self._stopping.set()
        self._log("server stopped; all shared-memory segments released")

    # -- connection handling --------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.stats["connections"] += 1
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        try:
            while True:
                try:
                    line = await reader.readline()
                except (ConnectionResetError, BrokenPipeError):
                    break
                except ValueError as exc:
                    # The line overran the stream limit: the rest of it
                    # cannot be told from the next request, so answer this
                    # one and close (closing flushes the answer).
                    self.stats["errors"] += 1
                    writer.write(dumps_line(error_response(
                        "bad_request", f"request line too long: {exc}"
                    )))
                    break
                if not line:
                    break
                response = await self._respond(line)
                writer.write(dumps_line(response))
                try:
                    await writer.drain()
                except (ConnectionResetError, BrokenPipeError):
                    break
        except asyncio.CancelledError:
            # stop() cancels lingering connections; end the task cleanly
            # so asyncio's stream bookkeeping sees a normal completion.
            pass
        finally:
            if task is not None:
                self._conn_tasks.discard(task)
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:
                pass

    async def _respond(self, line: bytes) -> dict:
        request_id = None
        op = None
        try:
            message = loads_line(line)
            request_id = message.get("id")
            op = message.get("op")
            result = await self._dispatch(message)
            self.stats["requests"] += 1
            if op == "shutdown":
                # Answer first, then tear down (the reply is already
                # queued on the transport when stop() closes it).
                self.request_stop()
            return ok_response(op, result, request_id)
        except ProtocolError as exc:
            self.stats["errors"] += 1
            return error_response("bad_request", str(exc), op, request_id)
        except (KeyError, FileNotFoundError) as exc:
            self.stats["errors"] += 1
            return error_response("not_found", str(exc), op, request_id)
        except ValueError as exc:
            self.stats["errors"] += 1
            return error_response("bad_request", str(exc), op, request_id)
        except QueueFull as exc:
            self.stats["errors"] += 1
            return error_response("busy", str(exc), op, request_id)
        except JobTimeout as exc:
            self.stats["errors"] += 1
            return error_response("timeout", str(exc), op, request_id)
        except Exception as exc:
            self.stats["errors"] += 1
            self._log(f"internal error on {op!r}: {type(exc).__name__}: {exc}")
            return error_response(
                "internal", f"{type(exc).__name__}: {exc}", op, request_id
            )

    # -- request dispatch ------------------------------------------------
    async def _dispatch(self, message: dict) -> dict[str, Any]:
        op = message.get("op")
        if op == "ping":
            return {"pong": True, "protocol": PROTOCOL_VERSION}
        if op == "load":
            graph_id = self._field(message, "graph")
            path = self._field(message, "path")
            return await self._in_executor(self.registry.add, graph_id, path)
        if op == "pin":
            graph_id = self._field(message, "graph")
            await self._in_executor(self.registry.pin, graph_id)
            return self.registry.describe(graph_id)
        if op == "evict":
            graph_id = self._field(message, "graph")
            await self._in_executor(self.registry.evict, graph_id)
            return self.registry.describe(graph_id)
        if op == "list":
            return {"graphs": self.registry.list()}
        if op == "info":
            graph_id = self._field(message, "graph")
            return await self._in_executor(self.registry.describe, graph_id, True)
        if op == "detect":
            return await self.queue.submit(
                self._field(message, "graph"),
                self._field(message, "algorithm", "plm"),
                self._params(message),
                self._field(message, "seed", 0),
                timeout=self._field(message, "timeout", None),
            )
        if op == "compare":
            return await self._compare(message)
        if op == "stats":
            return self._stats()
        if op == "shutdown":
            return {"stopping": True}
        raise ProtocolError(f"unknown op {op!r}")

    async def _compare(self, message: dict) -> dict[str, Any]:
        """Run several algorithms on one graph; return the summary table.

        The detect jobs are submitted concurrently, so they run side by
        side on free pool workers; labels are omitted from the rows (a
        compare is a table, not a partition download).
        """
        graph_id = self._field(message, "graph")
        algorithms = message.get("algorithms") or ["plp", "plm"]
        if not isinstance(algorithms, list) or not all(
            isinstance(name, str) for name in algorithms
        ):
            raise ProtocolError(
                "compare needs a non-empty 'algorithms' list of strings"
            )
        params = self._params(message)
        seed = self._field(message, "seed", 0)
        timeout = self._field(message, "timeout", None)
        payloads = await asyncio.gather(
            *(
                self.queue.submit(graph_id, algorithm, params, seed, timeout=timeout)
                for algorithm in algorithms
            )
        )
        rows = []
        for payload in payloads:
            row = {k: v for k, v in payload.items() if k != "labels"}
            rows.append(row)
        return {"graph_id": graph_id, "rows": rows}

    def _stats(self) -> dict[str, Any]:
        backend = resolve_backend(self.workers)
        uptime = (
            time.monotonic() - self._started_at if self._started_at is not None else 0.0
        )
        return {
            "server": {**self.stats, "uptime_s": round(uptime, 3)},
            "queue": dict(self.queue.stats),
            "registry": {
                **self.registry.stats,
                "graphs": len(self.registry.ids()),
                "hot": sum(1 for row in self.registry.list() if row["state"] == "hot"),
                "capacity": self.registry.capacity,
                "shm": self.registry.shm_stats(),
            },
            "backend": {
                "kind": backend.kind,
                "workers": backend.workers,
                "restarts": getattr(backend, "restarts", 0),
                "degraded": shm_degradation(),
            },
            "kernel_backends": kernel_backends(),
            # Enumerated from the factory registry, never hard-coded: a
            # detector registered in _BUILDERS is served automatically.
            "algorithms": list(ALGORITHM_NAMES),
        }

    @staticmethod
    def _field(message: dict, key: str, default: Any = _REQUIRED) -> Any:
        """``message[key]``, checked against its JSON type in :data:`_FIELDS`.

        A missing or null field takes ``default``; a missing required
        field or a value of the wrong type is a ``bad_request``.
        """
        value = message.get(key)
        if value is None:
            if default is _REQUIRED:
                raise ProtocolError(f"missing required field {key!r}")
            return default
        types, kind = _FIELDS[key]
        if isinstance(value, bool) or not isinstance(value, types):
            raise ProtocolError(
                f"field {key!r} must be {kind}, not {type(value).__name__}"
            )
        return value

    def _params(self, message: dict) -> dict[str, Any]:
        """The request's ``params`` object. Every known param follows the
        rule of the top-level fields: its JSON type is checked, and null
        means absent. Unknown params are left for the factory to reject."""
        params = dict(self._field(message, "params", {}))
        for key in [key for key in params if key in DEFAULT_PARAMS]:
            if self._field(params, key, None) is None:
                del params[key]
        return params

    @staticmethod
    async def _in_executor(fn, *args):
        """Run blocking registry work off the event loop (file IO, shm
        copies) so slow cold loads never stall other connections."""
        return await asyncio.get_running_loop().run_in_executor(None, fn, *args)


class ServerHandle:
    """A server running in a daemon thread (tests, benchmarks, notebooks)."""

    def __init__(self, server: DetectionServer, loop, thread):
        self.server = server
        self._loop = loop
        self._thread = thread

    @property
    def address(self) -> str:
        return self.server.address

    def stop(self, timeout: float = 30.0) -> None:
        """Stop the server and join its thread (idempotent).

        The thread ends only once :meth:`DetectionServer.stop` has
        finished its cleanup, so joining it is the wait. A server that a
        client's ``shutdown`` request already stopped, or is stopping, is
        just joined: its loop may be closed, or close before a second
        stop could run.
        """
        if self._thread is None:
            return
        try:
            self._loop.call_soon_threadsafe(self.server.request_stop)
        except RuntimeError:  # the loop is closed: the server stopped
            pass
        self._thread.join(timeout)
        self._thread = None

    def __enter__(self) -> "ServerHandle":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


def serve_in_thread(**kwargs: Any) -> ServerHandle:
    """Start a :class:`DetectionServer` on a background event loop.

    Blocks until the socket is bound, then returns a handle whose
    ``address`` a client can dial immediately. The loop runs in a daemon
    thread; ``handle.stop()`` tears everything down.
    """
    server = DetectionServer(**kwargs)
    loop = asyncio.new_event_loop()
    ready = threading.Event()
    error: list[BaseException] = []

    def runner() -> None:
        asyncio.set_event_loop(loop)

        async def boot():
            try:
                await server.start()
            except BaseException as exc:  # surface bind errors to caller
                error.append(exc)
                raise
            finally:
                ready.set()
            await server.serve_forever()

        try:
            loop.run_until_complete(boot())
        except BaseException:
            ready.set()
        finally:
            loop.close()

    thread = threading.Thread(target=runner, name="repro-serve", daemon=True)
    thread.start()
    ready.wait(timeout=60.0)
    if error:
        thread.join(timeout=5.0)
        raise error[0]
    return ServerHandle(server, loop, thread)
