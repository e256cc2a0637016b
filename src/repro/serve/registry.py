"""Pinned-graph registry: hot graphs shm-resident, cold graphs on disk.

The per-request cost a server must not pay is *rebuilding the graph*: a
text ingest takes minutes at fig9 scale, and even pickling a CSR into a
pool worker copies gigabytes. The registry keeps the hottest ``capacity``
graphs resident as :class:`~repro.parallel.backend.SharedGraph` segments
(workers attach zero-copy, once per process) and spills the rest to the
binary ``.npz`` cache — a memory-map-speed reload, not a re-parse.

Lifetime contract:

* ``add()`` registers a source (path or in-memory graph); paths stay
  **cold** (nothing loaded) until first use.
* ``pin()`` / ``share()`` make an entry **hot**: load it if cold, copy
  its CSR arrays into shared memory once, and mark it most-recently-used.
  Pinning beyond ``capacity`` evicts the LRU hot entry.
* ``share()`` also *leases* the shm handle to its caller, who hands it
  back with ``release()`` once the pool task that reads it has returned.
  An eviction meanwhile cannot pull the segments out from under a worker
  that has yet to attach them.
* Evicting drops the registry's own reference to the entry's shm
  segments; they are unlinked as soon as no lease holds them. If the
  entry has no on-disk source to reload from (or only a slow text one),
  its CSR is first written to ``<cache_dir>/<graph_id>.npz`` so the next
  pin is a binary reload, bit-identical to the evicted graph.
* ``close()`` evicts everything. Once every lease is back, zero
  registry-owned shm segments remain — the server's shutdown leak-check
  relies on this.

All methods are thread-safe: the job queue touches the registry from
executor threads while protocol handlers read it from the event loop.
"""

from __future__ import annotations

import os
import re
import tempfile
import threading
from collections import OrderedDict
from typing import Any

from repro.graph import io as graph_io
from repro.graph.csr import Graph
from repro.parallel.backend import SharedGraph, shared_memory_available

__all__ = ["GraphRegistry"]


def _safe_filename(graph_id: str) -> str:
    return re.sub(r"[^A-Za-z0-9._-]", "_", graph_id) or "graph"


class _Entry:
    """One registered graph: where it lives now and how to get it back."""

    __slots__ = ("graph_id", "source", "npz_path", "graph", "shared", "n", "m", "name")

    def __init__(self, graph_id: str, source: str | None) -> None:
        self.graph_id = graph_id
        self.source = source  # original path (None for in-memory adds)
        self.npz_path: str | None = None  # spill file, once written
        self.graph: Graph | None = None  # resident CSR (hot only)
        self.shared: SharedGraph | None = None  # shm handle (hot only)
        self.n: int | None = None  # cached metadata, survives eviction
        self.m: int | None = None
        self.name: str | None = None

    @property
    def hot(self) -> bool:
        return self.graph is not None


class GraphRegistry:
    """LRU registry of graphs, pinned in shared memory while hot."""

    def __init__(self, capacity: int = 4, cache_dir: str | None = None) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = int(capacity)
        self._own_cache_dir: tempfile.TemporaryDirectory | None = None
        if cache_dir is None:
            self._own_cache_dir = tempfile.TemporaryDirectory(prefix="repro-serve-")
            cache_dir = self._own_cache_dir.name
        os.makedirs(cache_dir, exist_ok=True)
        self.cache_dir = cache_dir
        self._lock = threading.RLock()
        self._entries: OrderedDict[str, _Entry] = OrderedDict()  # LRU order
        self.stats: dict[str, int] = {
            "pins": 0,
            "cold_loads": 0,
            "evictions": 0,
            "spills": 0,
        }

    # -- registration ---------------------------------------------------
    def add(self, graph_id: str, source: "str | os.PathLike | Graph") -> dict:
        """Register ``source`` (a file path or a built graph) under an id.

        Paths are *not* loaded here — the first pin pays that cost — so a
        server can register a large catalog cheaply. Re-adding an existing
        id replaces it (the old entry is evicted first).
        """
        with self._lock:
            if graph_id in self._entries:
                self.evict(graph_id)
                del self._entries[graph_id]
            if isinstance(source, Graph):
                entry = _Entry(graph_id, None)
                self._set_resident(entry, source)
                self._entries[graph_id] = entry
                self._entries.move_to_end(graph_id)
                self._shrink_to_capacity(keep=graph_id)
            else:
                path = os.fspath(source)
                if not os.path.exists(path):
                    raise FileNotFoundError(path)
                entry = _Entry(graph_id, path)
                if path.endswith(".npz"):
                    entry.npz_path = path  # already the fast reload format
                self._entries[graph_id] = entry
            return self.describe(graph_id)

    def __contains__(self, graph_id: str) -> bool:
        with self._lock:
            return graph_id in self._entries

    def ids(self) -> list[str]:
        with self._lock:
            return list(self._entries)

    # -- pinning --------------------------------------------------------
    def pin(self, graph_id: str) -> Graph:
        """Make ``graph_id`` resident (loading it if cold) and touch LRU."""
        with self._lock:
            entry = self._get(graph_id)
            self.stats["pins"] += 1
            if not entry.hot:
                self._load(entry)
            self._entries.move_to_end(graph_id)
            self._shrink_to_capacity(keep=graph_id)
            return entry.graph

    def share(self, graph_id: str) -> "SharedGraph | Graph":
        """Pin ``graph_id`` and lease the handle a detection task receives.

        The shm-resident :class:`SharedGraph` when shared memory works
        (pool workers attach zero-copy), with a reference taken for the
        caller, who returns it with :meth:`release`; the plain graph
        otherwise (the serial fallback path executes inline and needs no
        shipping).
        """
        with self._lock:
            graph = self.pin(graph_id)
            shared = self._entries[graph_id].shared
            return shared.acquire() if shared is not None else graph

    def release(self, handle: "SharedGraph | Graph") -> None:
        """Return a lease taken by :meth:`share` (no-op for a plain graph)."""
        if isinstance(handle, SharedGraph):
            with self._lock:
                handle.release()

    def evict(self, graph_id: str) -> None:
        """Drop a hot entry's shm segments (kept until their leases are
        returned), spilling to ``.npz`` first if the entry has no fast
        on-disk copy to reload from."""
        with self._lock:
            entry = self._get(graph_id)
            if not entry.hot:
                return
            if entry.npz_path is None or not os.path.exists(entry.npz_path):
                spill = os.path.join(
                    self.cache_dir, _safe_filename(entry.graph_id) + ".npz"
                )
                graph_io.save_npz(entry.graph, spill)
                entry.npz_path = spill
                self.stats["spills"] += 1
            if entry.shared is not None:
                entry.shared.release()
                entry.shared = None
            entry.graph = None
            self.stats["evictions"] += 1

    # -- introspection --------------------------------------------------
    def describe(self, graph_id: str, load: bool = False) -> dict[str, Any]:
        """Metadata row for one entry (``load=True`` pins a cold entry
        whose size is not known yet, so ``n``/``m`` are always filled)."""
        with self._lock:
            entry = self._get(graph_id)
            if load and entry.n is None:
                self.pin(graph_id)
            return {
                "graph_id": entry.graph_id,
                "state": "hot" if entry.hot else "cold",
                "name": entry.name,
                "n": entry.n,
                "m": entry.m,
                "source": entry.source,
                "npz_cached": bool(entry.npz_path),
                "shm": entry.shared is not None,
                "shm_segments": (
                    entry.shared.segment_count if entry.shared is not None else 0
                ),
                "shm_bytes": (
                    entry.shared.nbytes if entry.shared is not None else 0
                ),
            }

    def list(self) -> list[dict[str, Any]]:
        """Metadata rows for every entry, LRU-oldest first."""
        with self._lock:
            return [self.describe(gid) for gid in self._entries]

    def shm_stats(self) -> dict[str, Any]:
        """Pinned shared-memory footprint: segment count and bytes.

        ``per_graph`` lists every hot shm-backed entry with its segment
        count and pinned bytes, so ``repro client stats`` can see exactly
        what the registry holds resident (sharded pins included).
        """
        with self._lock:
            per_graph = []
            segments = 0
            total = 0
            for entry in self._entries.values():
                if entry.shared is None:
                    continue
                per_graph.append(
                    {
                        "graph_id": entry.graph_id,
                        "segments": entry.shared.segment_count,
                        "bytes": entry.shared.nbytes,
                    }
                )
                segments += entry.shared.segment_count
                total += entry.shared.nbytes
            return {"segments": segments, "bytes": total, "per_graph": per_graph}

    def segment_names(self) -> set[str]:
        """Names of every shm segment the registry currently owns."""
        with self._lock:
            names: set[str] = set()
            for entry in self._entries.values():
                if entry.shared is not None:
                    names.update(entry.shared.segment_names)
            return names

    def close(self) -> None:
        """Evict everything and drop the registry's temp cache dir."""
        with self._lock:
            for graph_id in list(self._entries):
                entry = self._entries[graph_id]
                # Plain release on close: no point spilling graphs that
                # will never be reloaded by this registry again.
                if entry.shared is not None:
                    entry.shared.release()
                    entry.shared = None
                entry.graph = None
            self._entries.clear()
            if self._own_cache_dir is not None:
                self._own_cache_dir.cleanup()
                self._own_cache_dir = None

    def __enter__(self) -> "GraphRegistry":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- internals ------------------------------------------------------
    def _get(self, graph_id: str) -> _Entry:
        try:
            return self._entries[graph_id]
        except KeyError:
            raise KeyError(f"unknown graph {graph_id!r}") from None

    def _load(self, entry: _Entry) -> None:
        """Cold -> hot: reload from the fastest available source."""
        self.stats["cold_loads"] += 1
        if entry.npz_path is not None and os.path.exists(entry.npz_path):
            graph = graph_io.load_npz(entry.npz_path)
        elif entry.source is not None:
            graph = graph_io.load(entry.source)
        else:  # pragma: no cover - add() always leaves one of the two
            raise RuntimeError(f"graph {entry.graph_id!r} has no reload source")
        self._set_resident(entry, graph)

    def _set_resident(self, entry: _Entry, graph: Graph) -> None:
        entry.graph = graph
        entry.n = int(graph.n)
        entry.m = int(graph.m)
        entry.name = graph.name
        if shared_memory_available():
            entry.shared = SharedGraph.create(graph)

    def _shrink_to_capacity(self, keep: str) -> None:
        """Evict LRU hot entries until at most ``capacity`` are resident."""
        hot = [gid for gid, e in self._entries.items() if e.hot]
        while len(hot) > self.capacity:
            victim = hot.pop(0)
            if victim == keep:
                # Never evict the entry being pinned right now; it is by
                # definition the most recently used.
                continue
            self.evict(victim)
