"""Async job queue: many clients in, one persistent process pool out.

The queue is the routing layer between the asyncio protocol handlers and
the blocking :class:`~repro.parallel.backend.ProcessPoolBackend`:

* **Bounded backpressure** — at most ``max_pending`` jobs queue; past
  that, :meth:`submit` raises :class:`QueueFull` immediately instead of
  letting latency grow without bound (the server answers ``busy``).
* **Coalescing** — identical in-flight requests (same cache key) share
  one job and one future; the work runs once.
* **Result cache** — completed payloads are kept in a bounded LRU keyed
  on ``(graph_id, algorithm, canonical params, seed)``; repeats are
  answered without touching the pool. Detection is deterministic in that
  key, so a cached answer is byte-identical to a fresh one.
* **Pipelined dispatch** — up to one job per pool worker runs at once
  (``resolve_backend(workers).workers`` slots, one when serial). The
  dispatcher takes a free slot *before* it dequeues, so a job waits in
  the queue until a worker can start it, and each job answers as soon as
  its own detection returns.
* **Timeout & cancellation** — :meth:`submit` enforces a per-request
  timeout; when the last waiter gives up on a job that has not started,
  the job is cancelled in place and never runs.

Each dispatch runs its detection in an executor thread
(``run_in_executor``), so the event loop keeps serving pings and stats
while the pool crunches. It leases its graph from the registry for the
length of the pool call, so a concurrent dispatch's eviction cannot
unlink the segments before the worker attaches them.
"""

from __future__ import annotations

import asyncio
from collections import OrderedDict
from typing import Any

from repro.community.factory import canonical_params, make_detector
from repro.parallel.backend import materialize, resolve_backend
from repro.serve.protocol import cache_key, encode_labels
from repro.serve.registry import GraphRegistry

__all__ = ["JobQueue", "JobTimeout", "QueueFull", "detect_payload"]


class QueueFull(RuntimeError):
    """The bounded job queue rejected a request (backpressure)."""


class JobTimeout(TimeoutError):
    """A request's per-request timeout elapsed before its job finished."""


def detect_payload(handle, algorithm: str, params: dict, seed: int) -> dict:
    """Run one detection and build its wire payload (pool task function).

    Module-level and pure in ``(graph bytes, algorithm, params, seed)``:
    it runs identically inline (serial backend, executor thread) and in a
    pool worker (``handle`` arrives as a zero-copy ``SharedGraph``), so
    where it executes cannot change the labels.
    """
    from repro.partition.quality import coverage, modularity

    graph = materialize(handle)
    detector = make_detector(algorithm, **params)
    result = detector.run(graph)
    partition = result.partition
    return {
        "labels": encode_labels(partition.labels),
        "algorithm": detector.name,
        "seed": int(seed),
        "k": int(partition.k),
        "modularity": float(modularity(graph, partition)),
        "coverage": float(coverage(graph, partition)),
        "sim_time": float(result.timing.total),
        "graph": {"name": graph.name, "n": int(graph.n), "m": int(graph.m)},
    }


class _Job:
    __slots__ = ("key", "graph_id", "algorithm", "params", "seed", "future",
                 "waiters", "started", "cancelled")

    def __init__(self, key, graph_id, algorithm, params, seed, future):
        self.key = key
        self.graph_id = graph_id
        self.algorithm = algorithm
        self.params = params
        self.seed = seed
        self.future = future
        self.waiters = 0
        self.started = False
        self.cancelled = False


class JobQueue:
    """Pipelined, cached, backpressured front end over the process pool."""

    def __init__(
        self,
        registry: GraphRegistry,
        workers: int | None = None,
        max_pending: int = 64,
        cache_size: int = 256,
        default_timeout: float = 300.0,
    ) -> None:
        self.registry = registry
        self.workers = workers
        self.max_pending = int(max_pending)
        self.cache_size = int(cache_size)
        self.default_timeout = float(default_timeout)
        self._queue: asyncio.Queue[_Job] | None = None
        self._slots: asyncio.Semaphore | None = None
        self._inflight: dict[str, _Job] = {}
        self._cache: OrderedDict[str, dict] = OrderedDict()
        self._dispatcher: asyncio.Task | None = None
        self._running: set[asyncio.Task] = set()
        self.stats: dict[str, int] = {
            "jobs": 0,
            "batches": 0,  # dispatches: one job each
            "running": 0,
            "peak_running": 0,
            "cache_hits": 0,
            "cache_misses": 0,
            "coalesced": 0,
            "rejected": 0,
            "timeouts": 0,
            "cancelled": 0,
            "errors": 0,
        }

    # -- lifecycle ------------------------------------------------------
    async def start(self) -> None:
        """Create the bounded queue and start the dispatcher task."""
        if self._dispatcher is not None:
            return
        self._queue = asyncio.Queue(maxsize=self.max_pending)
        self._slots = asyncio.Semaphore(resolve_backend(self.workers).workers)
        self._dispatcher = asyncio.create_task(self._drain(), name="jobqueue-drain")

    async def close(self) -> None:
        """Stop dispatching; fail every job that has not completed, then
        wait for the dispatches in flight to hand back their graph leases."""
        if self._dispatcher is not None:
            self._dispatcher.cancel()
            try:
                await self._dispatcher
            except asyncio.CancelledError:
                pass
            self._dispatcher = None
        for job in list(self._inflight.values()):
            if not job.future.done():
                job.future.set_exception(RuntimeError("job queue closed"))
        self._inflight.clear()
        await asyncio.gather(*self._running, return_exceptions=True)

    # -- submission -----------------------------------------------------
    async def submit(
        self,
        graph_id: str,
        algorithm: str,
        params: dict[str, Any] | None = None,
        seed: int = 0,
        timeout: float | None = None,
    ) -> dict[str, Any]:
        """Queue one detect request; return its payload (maybe cached).

        Raises :class:`QueueFull` under backpressure, :class:`JobTimeout`
        when the per-request deadline passes, ``KeyError`` for unknown
        graphs and ``ValueError`` for bad algorithm/params — all before
        any pool work happens where possible.
        """
        if self._queue is None:
            raise RuntimeError("JobQueue.start() was never awaited")
        if graph_id not in self.registry:
            raise KeyError(f"unknown graph {graph_id!r}")
        # The request-level seed folds into the canonical params (an
        # explicit params["seed"] wins), so the detector, the cache key
        # and the coalescing key all see exactly one seed.
        merged = dict(params or {})
        merged.setdefault("seed", int(seed))
        params = canonical_params(merged)  # ValueError on unknown knobs
        seed = int(params["seed"])
        # Build from the request's own params, before canonicalization
        # drops host-only knobs and collapses ``shards``: the constructors
        # reject an unknown algorithm and out-of-range values here.
        make_detector(algorithm, **merged)
        key = cache_key(graph_id, algorithm, params, seed)

        cached = self._cache.get(key)
        if cached is not None:
            self._cache.move_to_end(key)
            self.stats["cache_hits"] += 1
            return {**cached, "cached": True}
        self.stats["cache_misses"] += 1

        job = self._inflight.get(key)
        if job is not None and not job.cancelled:
            self.stats["coalesced"] += 1
        else:
            future = asyncio.get_running_loop().create_future()
            # Someone always observes the outcome (the cache writer runs
            # first); this silences "exception never retrieved" should
            # every waiter abandon a started job.
            future.add_done_callback(
                lambda f: f.exception() if not f.cancelled() else None
            )
            job = _Job(key, graph_id, algorithm, params, seed, future)
            try:
                self._queue.put_nowait(job)
            except asyncio.QueueFull:
                self.stats["rejected"] += 1
                raise QueueFull(
                    f"job queue full ({self.max_pending} pending); retry later"
                ) from None
            self._inflight[key] = job
            self.stats["jobs"] += 1

        job.waiters += 1
        try:
            payload = await asyncio.wait_for(
                asyncio.shield(job.future), timeout or self.default_timeout
            )
        except (asyncio.TimeoutError, asyncio.CancelledError) as exc:
            job.waiters -= 1
            if job.waiters <= 0 and not job.started:
                # Nobody wants it and it never ran: cancel in place. The
                # dispatcher skips cancelled jobs when it dequeues them.
                job.cancelled = True
                if self._inflight.get(key) is job:
                    del self._inflight[key]
                self.stats["cancelled"] += 1
            if isinstance(exc, asyncio.CancelledError):
                raise
            self.stats["timeouts"] += 1
            raise JobTimeout(
                f"request timed out after {timeout or self.default_timeout:g}s"
            ) from None
        job.waiters -= 1
        return {**payload, "cached": False}

    # -- dispatching ----------------------------------------------------
    async def _drain(self) -> None:
        assert self._queue is not None and self._slots is not None
        while True:
            await self._slots.acquire()
            job = await self._queue.get()
            while job.cancelled:
                job = await self._queue.get()
            job.started = True
            task = asyncio.create_task(self._dispatch(job))
            self._running.add(task)
            task.add_done_callback(self._running.discard)

    async def _dispatch(self, job: _Job) -> None:
        """Run one job on the slot it holds and resolve its future."""
        stats = self.stats
        stats["batches"] += 1
        stats["running"] += 1
        stats["peak_running"] = max(stats["peak_running"], stats["running"])
        loop = asyncio.get_running_loop()
        try:
            payload = await loop.run_in_executor(None, self._run, job)
            error = None
        except Exception as exc:  # the job fails alone
            payload, error = None, exc
        finally:
            stats["running"] -= 1
            self._slots.release()
            if self._inflight.get(job.key) is job:
                del self._inflight[job.key]
        if job.future.done():  # close() failed it meanwhile
            return
        if error is None:
            self._cache_put(job.key, payload)
            job.future.set_result(payload)
        else:
            stats["errors"] += 1
            job.future.set_exception(
                RuntimeError(f"{type(error).__name__}: {error}")
            )

    def _run(self, job: _Job) -> dict:
        """Blocking half of a dispatch (runs in an executor thread): lease
        the graph, detect on the pool, hand the lease back."""
        handle = self.registry.share(job.graph_id)
        try:
            [payload] = resolve_backend(self.workers).map(
                detect_payload, [(handle, job.algorithm, job.params, job.seed)]
            )
        finally:
            self.registry.release(handle)
        return payload

    def _cache_put(self, key: str, payload: dict) -> None:
        self._cache[key] = payload
        self._cache.move_to_end(key)
        while len(self._cache) > self.cache_size:
            self._cache.popitem(last=False)
