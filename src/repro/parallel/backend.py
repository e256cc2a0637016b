"""Real multi-core execution backend: process pool over shared memory.

Everything else in :mod:`repro.parallel` *simulates* the paper's machine —
deterministic simulated seconds on a modeled 2x8-core Xeon. This module is
the counterpart for the host: a thin execution layer that lets the
embarrassingly-parallel boundaries of the reproduction (EPP's base-detector
ensemble, the bench harness's (algorithm, graph, repeat) cells) actually
use more than one host core, GIL-free, via a persistent
:class:`concurrent.futures.ProcessPoolExecutor`.

Design constraints, in order:

1. **Byte-identical results.** The backend changes only host wall-clock,
   never the modeled machine: a task is a pure function of its arguments
   (seed-isolated detectors, immutable graphs, pre-split sub-runtimes), so
   ``workers=1`` and ``workers=N`` produce identical labels, identical
   simulated timings, and identical ``fig*``/``table*`` outputs.
2. **Zero-copy graph shipping.** A :class:`Graph`'s CSR arrays are copied
   into :mod:`multiprocessing.shared_memory` segments **once** per
   (backend, graph); the :class:`SharedGraph` handle pickles as segment
   names + dtypes/shapes (a few hundred bytes), and workers map the same
   physical pages read-only. Worker-side materialization is cached per
   process until the owner unlinks the segments, so repeated tasks on the
   same graph attach exactly once.
3. **No leaked segments.** Segment lifetime is refcounted on the owner
   side (:meth:`SharedGraph.acquire` / :meth:`SharedGraph.release`), every
   handle carries a ``weakref.finalize`` safety net, backends unlink all
   their segments in :meth:`ExecutionBackend.shutdown`, and a module
   ``atexit`` hook shuts down any pool the process still holds. Workers
   attach without resource-tracker registration (attaching is not owning),
   so worker exit never unlinks a segment the parent still serves.
4. **Graceful degradation.** ``workers <= 1``, unavailable shared memory,
   running *inside* a pool worker (no nested pools), or an unpicklable
   task (lambda factories are common in tests and benchmarks) all fall
   back to inline serial execution with the same code path the pool
   executes — so the fallback is exercised constantly and cannot drift.

Select the backend explicitly (``resolve_backend(workers)``, the CLI's
``--workers N``) or globally via the ``REPRO_WORKERS`` environment
variable (used by CI to force the process backend under the whole tier-1
suite).
"""

from __future__ import annotations

import atexit
import os
import pickle
import threading
import weakref
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Sequence

import numpy as np

from repro.graph.csr import Graph

__all__ = [
    "SharedGraph",
    "SharedArrays",
    "ExecutionBackend",
    "SerialBackend",
    "ProcessPoolBackend",
    "resolve_backend",
    "default_workers",
    "shared_memory_available",
    "shm_degradation",
    "materialize",
    "attach_graph_uncached",
    "shutdown_all",
    "reset_peak_rss",
    "peak_rss_mb",
]

#: Environment variable that sets the default worker count (CI uses it to
#: force the process backend under the full test suite).
WORKERS_ENV = "REPRO_WORKERS"

#: Set in pool workers so nested ``resolve_backend`` calls stay serial
#: (a worker spawning its own pool would oversubscribe and can deadlock).
_IN_WORKER_ENV = "_REPRO_POOL_WORKER"


# ----------------------------------------------------------------------
# Shared-memory graph handle
# ----------------------------------------------------------------------
def _attach_untracked(name: str):
    """Attach to an existing segment without resource-tracker ownership.

    Attaching is not owning: only the creator may unlink. Python < 3.13
    registers every ``SharedMemory`` — including pure attachments — with
    the resource tracker; under fork the workers share the parent's
    tracker process, so a worker-side registration (or a compensating
    ``unregister``) corrupts the parent's bookkeeping and the tracker
    either double-unlinks or logs spurious KeyErrors. 3.13+ exposes
    ``track=False`` for exactly this; on older versions registration is
    suppressed for the duration of the attach.
    """
    from multiprocessing import shared_memory

    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # Python < 3.13: no ``track`` parameter
        pass
    from multiprocessing import resource_tracker

    original = resource_tracker.register
    resource_tracker.register = lambda *args, **kwargs: None
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original


def _close_segments(shms, unlink: bool) -> None:
    for shm in shms:
        try:
            shm.close()
        except Exception:
            pass
        if unlink:
            try:
                shm.unlink()
            except Exception:
                pass


def _unlinked(shm) -> bool:
    """Whether the owner has unlinked an attached segment's name.

    POSIX keeps the mapping alive after ``unlink``; the open descriptor
    then counts no links. ``False`` where that cannot be told.
    """
    try:
        return os.fstat(shm._fd).st_nlink == 0
    except (AttributeError, OSError):
        return False


#: Worker-process cache: first segment name -> (materialized Graph, its
#: attached SharedMemory objects), kept while the owner keeps the segments.
_ATTACHED_GRAPHS: dict[str, tuple[Graph, list]] = {}


class SharedGraph:
    """Zero-copy handle for shipping a :class:`Graph` to pool workers.

    Created owner-side with :meth:`create` (copies the CSR arrays into
    shared memory once). Pickles as segment names + dtypes/shapes; in a
    worker, :meth:`graph` attaches the segments (once per process, cached)
    and wraps them in a read-only :class:`Graph` without copying the
    arrays. Owner-side lifetime is refcounted: the creator holds one
    reference; :meth:`release` at zero closes and unlinks the segments. A
    ``weakref.finalize`` guarantees cleanup even if release is never
    called.
    """

    __slots__ = ("_meta", "_shms", "_graph", "_owner", "_refs", "_finalizer", "__weakref__")

    def __init__(self, meta: dict, shms: list, graph: Graph | None, owner: bool) -> None:
        self._meta = meta
        self._shms = shms
        self._graph = graph
        self._owner = owner
        self._refs = 1 if owner else 0
        self._finalizer = (
            weakref.finalize(self, _close_segments, shms, True) if owner else None
        )

    # -- construction ---------------------------------------------------
    @classmethod
    def create(cls, graph: Graph) -> "SharedGraph":
        """Copy ``graph``'s CSR arrays into fresh shm segments (owner side)."""
        from multiprocessing import shared_memory

        shms: list = []
        arrays: list[tuple[str, str, tuple[int, ...]]] = []
        try:
            for arr in (graph.indptr, graph.indices, graph.weights):
                shm = shared_memory.SharedMemory(
                    create=True, size=max(1, arr.nbytes)
                )
                if arr.size:
                    np.ndarray(arr.shape, dtype=arr.dtype, buffer=shm.buf)[...] = arr
                shms.append(shm)
                arrays.append((shm.name, arr.dtype.str, tuple(arr.shape)))
        except Exception:
            _close_segments(shms, unlink=True)
            raise
        meta = {
            "name": graph.name,
            "arrays": arrays,
            "dtype_policy": graph.dtype_policy,
        }
        return cls(meta, shms, graph, owner=True)

    # -- pickling -------------------------------------------------------
    def __reduce__(self):
        return (_attach_shared_graph, (self._meta,))

    # -- access ---------------------------------------------------------
    @property
    def segment_names(self) -> tuple[str, ...]:
        """Names of the shared-memory segments backing the CSR arrays."""
        return tuple(name for name, _, _ in self._meta["arrays"])

    def graph(self) -> Graph:
        """The underlying graph (owner: the original; worker: attached)."""
        if self._graph is None:
            self._graph = _materialize_from_meta(self._meta)
        return self._graph

    # -- owner-side lifetime --------------------------------------------
    def acquire(self) -> "SharedGraph":
        """Take an extra owner-side reference to the segments."""
        if self._owner and self._refs > 0:
            self._refs += 1
        return self

    def release(self) -> None:
        """Drop one reference; at zero, close and unlink the segments."""
        if not self._owner or self._refs <= 0:
            return
        self._refs -= 1
        if self._refs == 0:
            if self._finalizer is not None:
                self._finalizer.detach()
            _close_segments(self._shms, unlink=True)
            self._shms = []

    @property
    def closed(self) -> bool:
        """Whether the owner has released every shared-memory segment."""
        return self._owner and self._refs == 0

    @property
    def nbytes(self) -> int:
        """Total bytes of the shared CSR payload (from the meta shapes)."""
        return _meta_nbytes(self._meta)

    @property
    def segment_count(self) -> int:
        """Number of shared-memory segments backing this graph."""
        return len(self._meta["arrays"])


def _meta_nbytes(meta: dict) -> int:
    total = 0
    for _, dtype, shape in meta["arrays"]:
        count = 1
        for dim in shape:
            count *= dim
        total += count * np.dtype(dtype).itemsize
    return total


def _materialize_from_meta(meta: dict) -> Graph:
    """Attach to the named segments and build the graph (cached per process).

    A new attachment first unmaps every cached graph whose segments the
    owner has since unlinked (an evicted serve graph): nothing can reach
    those names again, and their pages stay allocated while mapped.
    """
    key = meta["arrays"][0][0]
    cached = _ATTACHED_GRAPHS.get(key)
    if cached is not None:
        return cached[0]
    stale = [k for k, (_, shms) in _ATTACHED_GRAPHS.items() if _unlinked(shms[0])]
    for name in stale:
        shms = _ATTACHED_GRAPHS.pop(name)[1]  # the Graph's views die here
        _close_segments(shms, unlink=False)
    bufs: list[np.ndarray] = []
    attached: list = []
    try:
        for name, dtype, shape in meta["arrays"]:
            shm = _attach_untracked(name)
            attached.append(shm)
            bufs.append(np.ndarray(shape, dtype=np.dtype(dtype), buffer=shm.buf))
    except Exception:
        _close_segments(attached, unlink=False)
        raise
    # Graph() takes the shm-backed arrays as-is (right dtype, contiguous):
    # no copy, the worker reads the parent's physical pages. The policy is
    # forwarded so lean segments are wrapped as-is instead of widened.
    graph = Graph(
        bufs[0],
        bufs[1],
        bufs[2],
        name=meta["name"],
        dtype_policy=meta.get("dtype_policy", "wide"),
    )
    _ATTACHED_GRAPHS[key] = (graph, attached)
    return graph


def _attach_shared_graph(meta: dict) -> "SharedGraph":
    """Unpickle hook: rebuild a (non-owning) handle in the receiver."""
    return SharedGraph(meta, [], None, owner=False)


def materialize(graph_or_handle: "Graph | SharedGraph") -> Graph:
    """Accept either a plain graph or a shared handle; return the graph.

    Task functions call this on their first argument so the same function
    body serves both the inline/serial path (plain :class:`Graph`) and the
    pool path (:class:`SharedGraph`).
    """
    if isinstance(graph_or_handle, SharedGraph):
        return graph_or_handle.graph()
    return graph_or_handle


def attach_graph_uncached(handle: "SharedGraph") -> tuple[Graph, list]:
    """Attach a shared graph *without* the per-process forever-cache.

    :func:`materialize` caches attachments for the worker's lifetime —
    right for a pool serving many tasks on few graphs, wrong for sharded
    detection where a worker must hold at most one shard at a time.
    Returns ``(graph, shms)``; the caller owns the mapping and must drop
    every array view derived from ``graph`` **before** calling
    ``_close_segments(shms, unlink=False)``, or the munmap silently
    fails (``SharedMemory.close`` swallows ``BufferError``) and the
    pages stay resident.
    """
    meta = handle._meta
    bufs: list[np.ndarray] = []
    attached: list = []
    try:
        for name, dtype, shape in meta["arrays"]:
            shm = _attach_untracked(name)
            attached.append(shm)
            bufs.append(np.ndarray(shape, dtype=np.dtype(dtype), buffer=shm.buf))
    except Exception:
        _close_segments(attached, unlink=False)
        raise
    graph = Graph(
        bufs[0],
        bufs[1],
        bufs[2],
        name=meta["name"],
        dtype_policy=meta.get("dtype_policy", "wide"),
    )
    return graph, attached


# ----------------------------------------------------------------------
# Shared array bundles (sharded-detection state)
# ----------------------------------------------------------------------
class SharedArrays:
    """A named bundle of arrays in shared memory (one segment per array).

    The sharded detection driver ships per-shard state (global label and
    activity arrays, local->global id maps) to pool workers by name
    instead of by value. Same lifetime discipline as
    :class:`SharedGraph`: the creator owns and refcounts the segments;
    unpickled handles attach on first :meth:`arrays` call and give the
    pages back with :meth:`close` (attachments are per-handle and
    uncached — a shard worker must not accumulate segments it no longer
    serves).

    Owner-side views are writable (the driver updates labels between
    rounds); attached views are read-only — workers read state, the
    exchange barrier writes it.
    """

    __slots__ = ("_meta", "_shms", "_arrays", "_owner", "_refs", "_finalizer", "__weakref__")

    def __init__(self, meta: dict, shms: list, arrays, owner: bool) -> None:
        self._meta = meta
        self._shms = shms
        self._arrays = arrays
        self._owner = owner
        self._refs = 1 if owner else 0
        self._finalizer = (
            weakref.finalize(self, _close_segments, shms, True) if owner else None
        )

    @classmethod
    def create(cls, arrays: dict[str, np.ndarray]) -> "SharedArrays":
        """Copy ``arrays`` into fresh shm segments (owner side, writable)."""
        from multiprocessing import shared_memory

        shms: list = []
        metas: list[tuple[str, str, tuple[int, ...]]] = []
        keys: list[str] = []
        views: dict[str, np.ndarray] = {}
        try:
            for key, arr in arrays.items():
                arr = np.ascontiguousarray(arr)
                shm = shared_memory.SharedMemory(create=True, size=max(1, arr.nbytes))
                view = np.ndarray(arr.shape, dtype=arr.dtype, buffer=shm.buf)
                if arr.size:
                    view[...] = arr
                shms.append(shm)
                metas.append((shm.name, arr.dtype.str, tuple(arr.shape)))
                keys.append(key)
                views[key] = view
        except Exception:
            _close_segments(shms, unlink=True)
            raise
        return cls({"arrays": metas, "keys": keys}, shms, views, owner=True)

    def __reduce__(self):
        return (_attach_shared_arrays, (self._meta,))

    def arrays(self) -> dict[str, np.ndarray]:
        """The named views (owner: writable canon; attached: read-only)."""
        if self._arrays is None:
            views: dict[str, np.ndarray] = {}
            attached: list = []
            try:
                for (name, dtype, shape), key in zip(
                    self._meta["arrays"], self._meta["keys"]
                ):
                    shm = _attach_untracked(name)
                    attached.append(shm)
                    view = np.ndarray(shape, dtype=np.dtype(dtype), buffer=shm.buf)
                    view.setflags(write=False)
                    views[key] = view
            except Exception:
                _close_segments(attached, unlink=False)
                raise
            self._shms = attached
            self._arrays = views
        return self._arrays

    def close(self) -> None:
        """Drop an *attached* handle's views and unmap its segments.

        No-op on the owner (use :meth:`release`). Views must not be used
        after this call.
        """
        if self._owner:
            return
        self._arrays = None  # drop views first so close() can munmap
        shms, self._shms = self._shms, []
        _close_segments(shms, unlink=False)

    # -- owner-side lifetime (mirrors SharedGraph) ----------------------
    def acquire(self) -> "SharedArrays":
        """Take another owner-side reference (no-op on attached handles)."""
        if self._owner and self._refs > 0:
            self._refs += 1
        return self

    def release(self) -> None:
        """Drop an owner-side reference; the last one unlinks the segments."""
        if not self._owner or self._refs <= 0:
            return
        self._refs -= 1
        if self._refs == 0:
            if self._finalizer is not None:
                self._finalizer.detach()
            self._arrays = None
            _close_segments(self._shms, unlink=True)
            self._shms = []

    @property
    def closed(self) -> bool:
        """True once the owning side has released its last reference."""
        return self._owner and self._refs == 0

    @property
    def segment_names(self) -> tuple[str, ...]:
        """Names of the shm segments backing this bundle (one per array)."""
        return tuple(name for name, _, _ in self._meta["arrays"])

    @property
    def segment_count(self) -> int:
        """Number of shared-memory segments backing this bundle."""
        return len(self._meta["arrays"])

    @property
    def nbytes(self) -> int:
        """Total bytes pinned in shared memory across all segments."""
        return _meta_nbytes(self._meta)


def _attach_shared_arrays(meta: dict) -> "SharedArrays":
    """Unpickle hook: rebuild a (non-owning, unattached) handle."""
    return SharedArrays(meta, [], None, owner=False)


# ----------------------------------------------------------------------
# Backends
# ----------------------------------------------------------------------
class ExecutionBackend:
    """Maps task tuples over workers; results come back in submission order."""

    #: ``"serial"`` or ``"process"`` — recorded in BENCH_* host metadata.
    kind: str = "serial"
    #: Host worker processes this backend fans out to (1 = inline).
    workers: int = 1

    def map(self, fn: Callable, tasks: Sequence[tuple]) -> list:
        """Run ``fn(*task)`` for every task; list of results, in order."""
        raise NotImplementedError

    def share_graph(self, graph: Graph) -> "Graph | SharedGraph":
        """Prepare ``graph`` for shipping to workers (identity when serial)."""
        return graph

    def shutdown(self) -> None:
        """Release worker processes and every shared segment."""

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()


class SerialBackend(ExecutionBackend):
    """Inline execution in the calling process (the ``workers<=1`` path)."""

    kind = "serial"
    workers = 1

    def map(self, fn: Callable, tasks: Sequence[tuple]) -> list:
        return [fn(*task) for task in tasks]


class _InlineResult:
    """Future-alike for tasks executed inline (unpicklable fallback)."""

    __slots__ = ("_value", "_error")

    def __init__(self, fn: Callable, task: tuple) -> None:
        try:
            self._value, self._error = fn(*task), None
        except BaseException as exc:  # re-raised in submission order
            self._value, self._error = None, exc

    def result(self):
        if self._error is not None:
            raise self._error
        return self._value


def _init_worker() -> None:  # pragma: no cover - runs in the worker
    os.environ[_IN_WORKER_ENV] = "1"


def _repro_env() -> tuple[tuple[str, str], ...]:
    """The ``REPRO_*`` variables: the policies pool workers resolve."""
    return tuple(sorted(
        (key, value) for key, value in os.environ.items()
        if key.startswith("REPRO_")
    ))


def _picklable(obj: Any) -> bool:
    try:
        pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
        return True
    except Exception:
        return False


class ProcessPoolBackend(ExecutionBackend):
    """Persistent worker-process pool with shared-memory graph shipping.

    The pool is created lazily on first :meth:`map` and reused across
    calls (EPP rounds, harness cells, bench repeats), so fork/spawn cost
    is paid once per process, not once per task. Graphs registered via
    :meth:`share_graph` are cached by identity — one set of segments per
    graph for the backend's whole lifetime.

    Workers keep the environment they started with, and ``REPRO_*``
    policies (the kernel backend, its interpreted fallback) resolve
    inside them; so :meth:`map` retires a pool whose ``REPRO_*``
    environment is no longer the caller's and submits to a fresh one.
    """

    kind = "process"

    def __init__(self, workers: int) -> None:
        if workers < 2:
            raise ValueError("ProcessPoolBackend needs workers >= 2")
        self.workers = int(workers)
        self._pool: ProcessPoolExecutor | None = None
        #: The ``REPRO_*`` environment ``_pool`` was started under.
        self._pool_env: tuple[tuple[str, str], ...] = ()
        #: Guards ``_pool``: server executor threads map concurrently.
        self._lock = threading.Lock()
        self._shared: dict[int, SharedGraph] = {}
        self._keepalive: dict[int, Graph] = {}
        self._closed = False
        #: Times a broken pool was replaced mid-:meth:`map` (diagnostics;
        #: the detection server reports it under ``stats.backend``).
        self.restarts = 0

    @property
    def closed(self) -> bool:
        """Whether :meth:`shutdown` ran more recently than any use.

        A closed backend is *revivable* — the next :meth:`map` or
        :meth:`share_graph` lazily rebuilds the pool and segments — but
        :func:`resolve_backend` never hands out a closed backend: its
        shared handles were already released, so cached callers would get
        dead segments.
        """
        return self._closed

    # -- graph registry -------------------------------------------------
    def share_graph(self, graph: Graph) -> SharedGraph:
        self._closed = False
        handle = self._shared.get(id(graph))
        if handle is None or handle.closed:
            handle = SharedGraph.create(graph)
            self._shared[id(graph)] = handle
            # Keep the graph alive so id() stays unambiguous for the cache.
            self._keepalive[id(graph)] = graph
        return handle

    # -- execution ------------------------------------------------------
    def _submit(self, fn: Callable, task: tuple) -> tuple[Future, ProcessPoolExecutor]:
        """Submit to the current pool, starting one if needed; return the
        future and the pool it went to. A pool that broke under another
        call gives a failed future, handled like a breakage seen here."""
        self._closed = False
        with self._lock:
            if self._pool is None:
                self._pool = ProcessPoolExecutor(
                    max_workers=self.workers, initializer=_init_worker
                )
                self._pool_env = _repro_env()
            pool = self._pool
            try:
                return pool.submit(fn, *task), pool
            except BrokenProcessPool as exc:
                future: Future = Future()
                future.set_exception(exc)
                return future, pool

    def map(self, fn: Callable, tasks: Sequence[tuple]) -> list:
        """Fan tasks out to the pool; unpicklable tasks run inline.

        Results (and exceptions) are delivered in submission order. If the
        pool dies mid-flight (a worker was killed), it is restarted *once*
        and the surviving tasks are resubmitted to the fresh pool — a
        single dead worker must not degrade the rest of the batch to one
        core. Only if the fresh pool breaks too do the remaining tasks
        fall back to inline serial execution.
        """
        env = _repro_env()
        with self._lock:
            if self._pool is not None and self._pool_env != env:
                # Without cancelling: the old pool finishes the futures it
                # holds, so a concurrent map still collects its results.
                self._pool.shutdown(wait=False)
                self._pool = None
        slots: list[Future | _InlineResult] = []
        pools: dict[int, ProcessPoolExecutor] = {}
        pending: dict[int, tuple] = {}
        for i, task in enumerate(tasks):
            if _picklable((fn, task)):
                future, pools[i] = self._submit(fn, task)
                slots.append(future)
                pending[i] = task
            else:
                slots.append(_InlineResult(fn, task))
        results: list = []
        restarted = False
        for i, slot in enumerate(slots):
            try:
                results.append(slot.result())
                continue
            except BrokenProcessPool:
                self._retire(pools[i], restart=not restarted)
            if not restarted:
                # First breakage: resubmit every not-yet-collected pool
                # task (this one included) on a fresh pool.
                restarted = True
                for j in range(i, len(slots)):
                    if j in pending:
                        slots[j], pools[j] = self._submit(fn, pending[j])
                try:
                    results.append(slots[i].result())
                    continue
                except BrokenProcessPool:
                    self._retire(pools[i], restart=False)
            results.append(_InlineResult(fn, pending[i]).result())
        return results

    def _retire(self, pool: ProcessPoolExecutor, restart: bool) -> None:
        """Shut down a broken ``pool``; the next submit starts a fresh one.

        Only a call that finds ``pool`` still current replaces it, and
        counts a restart if ``restart``: a concurrent :meth:`map` that saw
        the same breakage must not discard the fresh pool this one
        resubmitted to (``cancel_futures`` would cancel its tasks).
        """
        with self._lock:
            if self._pool is pool:
                self._pool = None
                if restart:
                    self.restarts += 1
        pool.shutdown(wait=False, cancel_futures=True)

    # -- lifetime -------------------------------------------------------
    def shutdown(self) -> None:
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)
        for handle in self._shared.values():
            handle.release()
        self._shared.clear()
        self._keepalive.clear()
        self._closed = True
        # Evict from the resolver cache: a later resolve_backend(n) must
        # hand out a backend whose shared handles are alive, not this
        # one's released segments (the context-manager-then-resolve bug).
        if _POOLS.get(self.workers) is self:
            del _POOLS[self.workers]


# ----------------------------------------------------------------------
# Backend resolution
# ----------------------------------------------------------------------
_SERIAL = SerialBackend()
_POOLS: dict[int, ProcessPoolBackend] = {}
#: ``True`` once a probe succeeded (sticky); ``None`` when unprobed *or*
#: the last probe failed — failures are treated as transient (``/dev/shm``
#: momentarily full, a racing tmpfs cleaner) and re-probed on the next
#: resolve instead of pinning the process to serial forever.
_SHM_AVAILABLE: bool | None = None
_SHM_LAST_ERROR: str | None = None


def shared_memory_available() -> bool:
    """Whether POSIX/Windows shared memory actually works here.

    A successful probe is cached for the process lifetime; a *failed*
    probe is not — the next call probes again, so a transient failure
    degrades only the requests issued while it lasts. The failure reason
    is kept in :func:`shm_degradation` until shared memory recovers.
    """
    global _SHM_AVAILABLE, _SHM_LAST_ERROR
    if _SHM_AVAILABLE:
        return True
    try:
        from multiprocessing import shared_memory

        probe = shared_memory.SharedMemory(create=True, size=1)
        probe.close()
        probe.unlink()
        _SHM_AVAILABLE = True
        _SHM_LAST_ERROR = None
    except Exception as exc:
        _SHM_AVAILABLE = None  # transient: re-probe on the next call
        _SHM_LAST_ERROR = f"shared memory unavailable: {type(exc).__name__}: {exc}"
        return False
    return True


def shm_degradation() -> str | None:
    """Why the last shared-memory probe failed (``None`` when healthy).

    Consumers that silently fell back to serial surface this — EPP puts
    it in ``result.info["backend_degraded"]``, the detection server logs
    it and reports it under ``stats.backend``.
    """
    return _SHM_LAST_ERROR


def default_workers() -> int:
    """Worker count from ``REPRO_WORKERS`` (1 when unset or malformed)."""
    try:
        return max(1, int(os.environ.get(WORKERS_ENV, "1")))
    except ValueError:
        return 1


def resolve_backend(workers: int | None = None) -> ExecutionBackend:
    """Pick the execution backend for a requested worker count.

    ``workers=None`` consults ``REPRO_WORKERS``. Serial is returned when
    the effective count is <= 1, when shared memory is unavailable, or
    when already running inside a pool worker (no nested pools). Process
    backends are cached per worker count and shut down at interpreter
    exit; call :func:`shutdown_all` to release them earlier.
    """
    count = default_workers() if workers is None else int(workers)
    if (
        count <= 1
        or os.environ.get(_IN_WORKER_ENV)
        or not shared_memory_available()
    ):
        return _SERIAL
    backend = _POOLS.get(count)
    if backend is None or backend.closed:
        backend = ProcessPoolBackend(count)
        _POOLS[count] = backend
    return backend


def shutdown_all() -> None:
    """Shut down every cached process backend (idempotent; atexit-hooked)."""
    for backend in list(_POOLS.values()):
        backend.shutdown()
    _POOLS.clear()


atexit.register(shutdown_all)


def reset_peak_rss(pid: int | str = "self") -> None:
    """Reset a process's peak RSS (VmHWM) to its current RSS.

    Linux only, a no-op elsewhere. ``pid`` may name another process of
    the same user, such as a pool worker.
    """
    try:
        with open(f"/proc/{pid}/clear_refs", "w") as fh:
            fh.write("5")
    except OSError:
        pass


def peak_rss_mb(pid: int | str = "self") -> float | None:
    """A process's peak RSS (VmHWM) since its last reset, in MiB to 0.1.

    ``None`` where ``/proc`` is unavailable.
    """
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return round(int(line.split()[1]) / 1024.0, 1)
    except OSError:
        pass
    return None
