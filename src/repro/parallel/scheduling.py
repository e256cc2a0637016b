"""OpenMP-style loop schedules: static, dynamic, guided.

A schedule cuts an iteration space of ``n`` items into contiguous chunks.
As in OpenMP, the chunk bounds depend only on the schedule kind, ``n``
and the thread count, never on per-item costs. ``static`` pre-assigns
contiguous blocks to threads; ``dynamic`` and ``guided`` produce a shared
queue that simulated threads drain, with ``guided`` shrinking chunk sizes
geometrically — the paper's choice (``schedule(guided)``) for
skew-tolerant load balancing on scale-free graphs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Schedule",
    "static_schedule",
    "dynamic_schedule",
    "guided_schedule",
    "make_schedule",
]


@dataclass(frozen=True)
class Schedule:
    """The chunks of one loop, plus their owner threads if static.

    Chunk ``c`` covers the half-open item range
    ``[bounds[c], bounds[c + 1])``; the chunks tile ``[0, n)`` in order.
    ``owners[c]`` is the thread a ``static`` schedule pre-assigns chunk
    ``c`` to; ``None`` means the chunks sit in a shared queue and each
    goes to whichever simulated thread is free first.
    """

    kind: str
    bounds: np.ndarray
    owners: np.ndarray | None = None

    @property
    def chunks(self) -> int:
        """Number of chunks."""
        return self.bounds.size - 1


def static_schedule(n: int, threads: int) -> Schedule:
    """Contiguous equal-count blocks, one per thread (OpenMP default).

    Load imbalance arises whenever per-item costs are skewed — the
    motivating failure mode for guided scheduling on power-law graphs.
    With more threads than items some threads get no block; the others
    keep their ids.
    """
    edges = np.linspace(0, n, max(1, threads) + 1).astype(np.int64)
    owners = np.flatnonzero(edges[1:] > edges[:-1])
    return Schedule("static", np.append(edges[owners], n), owners)


def dynamic_schedule(n: int, threads: int) -> Schedule:
    """Fixed-size chunks of ``max(1, n // (16 * threads))`` items in a
    shared queue (OpenMP ``schedule(dynamic, k)``)."""
    size = max(1, n // (max(1, threads) * 16))
    return Schedule("dynamic", np.append(np.arange(0, n, size), n))


def guided_schedule(n: int, threads: int) -> Schedule:
    """Geometrically shrinking chunks (OpenMP ``schedule(guided)``).

    Each chunk takes ``ceil(remaining / threads)`` items, so early chunks
    are large (low dispatch overhead) and late chunks are small (tail
    balancing) — the paper's preferred schedule for PLP and PLM node loops.
    """
    threads = max(1, threads)
    bounds = [0]
    while bounds[-1] < n:
        lo = bounds[-1]
        bounds.append(lo + -(-(n - lo) // threads))
    return Schedule("guided", np.array(bounds, dtype=np.int64))


def make_schedule(kind: str, n: int, threads: int) -> Schedule:
    """Dispatch on schedule name (``static`` / ``dynamic`` / ``guided``)."""
    if kind == "static":
        return static_schedule(n, threads)
    if kind == "dynamic":
        return dynamic_schedule(n, threads)
    if kind == "guided":
        return guided_schedule(n, threads)
    raise ValueError(f"unknown schedule kind: {kind!r}")
