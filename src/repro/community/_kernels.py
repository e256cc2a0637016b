"""Neighborhood gathers and the segmented argmax under the local moves.

PLP's dominant-label vote and PLM's best move both reduce a block of
nodes' neighborhoods grouped by the neighbors' labels
(:mod:`repro.community._moves`). The helpers here supply the rows — the
loop-free flat neighborhoods of a block — and the per-node argmax over
grouped rows, so the Python-level cost per block is O(1) calls rather
than a per-node loop.

Wall-clock engineering (the simulated cost model is untouched):

* :class:`NeighborhoodCache` precomputes the loop-free adjacency of a
  graph once; every later gather is index arithmetic over those arrays
  instead of re-filtering self-loops per chunk.
* :meth:`NeighborhoodCache.plan` pre-gathers the neighborhoods of a whole
  sweep order in one vectorized pass; the executor's grain blocks then
  *slice* the flat arrays (O(1) NumPy calls per block) rather than
  rebuilding repeat/cumsum index arithmetic per chunk — the
  avoidable-recomputation trap the BigClam engineering study calls out.
"""

from __future__ import annotations

import numpy as np

from repro.graph.csr import Graph

__all__ = [
    "NeighborhoodCache",
    "SweepPlan",
    "neighborhood_cache",
    "gather_neighborhoods",
    "segmented_argmax",
    "kernel_module",
]

_EMPTY_I = np.empty(0, np.int64)
_EMPTY_F = np.empty(0, np.float64)


class NeighborhoodCache:
    """Loop-free CSR adjacency of a graph, computed once.

    A node is not its own neighbor for label/move purposes, so the hot
    kernels previously masked self-loop entries out of every gathered
    chunk. The cache applies that filter a single time; ``gather`` then
    only does the variable-length slice arithmetic.

    Obtain via :func:`neighborhood_cache`, which memoizes one instance per
    (immutable) graph.
    """

    __slots__ = ("indptr", "counts", "indices", "weights")

    def __init__(self, graph: Graph) -> None:
        owner = graph.node_of_entry()
        not_loop = graph.indices != owner
        self.indices = graph.indices[not_loop]
        self.weights = graph.weights[not_loop]
        counts = np.bincount(owner[not_loop], minlength=graph.n).astype(np.int64)
        indptr = np.zeros(graph.n + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        self.indptr = indptr
        self.counts = counts
        for arr in (self.indices, self.weights, self.indptr, self.counts):
            arr.setflags(write=False)

    def gather(
        self, nodes: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Flatten the (loop-free) neighborhoods of ``nodes``.

        Returns ``(seg, nbrs, ws)`` where ``seg[i]`` is the position within
        ``nodes`` whose adjacency entry ``(nbrs[i], ws[i])`` is.
        """
        nodes = np.asarray(nodes, dtype=np.int64)
        counts = self.counts[nodes]
        total = int(counts.sum())
        if total == 0:
            return _EMPTY_I, _EMPTY_I, _EMPTY_F
        seg = np.repeat(np.arange(nodes.size, dtype=np.int64), counts)
        # Entry j of node i sits at starts[i] + (j - exclusive_cumsum[i]);
        # one fused repeat builds the whole offset vector.
        cum = np.cumsum(counts)
        offsets = np.repeat(self.indptr[nodes] - cum + counts, counts)
        pos = np.arange(total, dtype=np.int64) + offsets
        return seg, self.indices[pos], self.weights[pos]

    def plan(self, order: np.ndarray) -> "SweepPlan":
        """Pre-gather a whole sweep order for per-block slicing."""
        return SweepPlan(self, order)


class SweepPlan:
    """Flat neighborhoods of one sweep order, sliceable per grain block.

    The simulated executor hands kernels contiguous slices of the order
    array, so a block ``chunk`` starts at position ``lo = inv[chunk[0]]``
    (order entries are unique) and its rows are ``bounds[lo]`` to
    ``bounds[lo + chunk.size]`` of ``seg``/``nbrs``/``ws`` — views, zero
    per-block index rebuilding. ``seg`` holds positions in the order.
    Only the *structure* is precomputed; labels are always read at kernel
    time, preserving the stale-read commit semantics of the simulation.
    """

    __slots__ = ("seg", "nbrs", "ws", "bounds", "inv")

    def __init__(self, cache: NeighborhoodCache, order: np.ndarray) -> None:
        order = np.asarray(order, dtype=np.int64)
        self.seg, self.nbrs, self.ws = cache.gather(order)
        bounds = np.zeros(order.size + 1, dtype=np.int64)
        np.cumsum(cache.counts[order], out=bounds[1:])
        self.bounds = bounds
        inv = np.zeros(cache.indptr.size - 1, dtype=np.int64)
        inv[order] = np.arange(order.size, dtype=np.int64)
        self.inv = inv


def neighborhood_cache(graph: Graph) -> NeighborhoodCache:
    """The graph's memoized :class:`NeighborhoodCache` (built on first use)."""
    cache = getattr(graph, "_nbr_cache", None)
    if cache is None:
        cache = NeighborhoodCache(graph)
        try:
            graph._nbr_cache = cache
        except AttributeError:  # foreign Graph-likes without the slot
            pass
    return cache


def gather_neighborhoods(
    graph: Graph, nodes: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flatten the neighborhoods of ``nodes``.

    Returns ``(seg, nbrs, ws)`` where ``seg[i]`` is the position within
    ``nodes`` whose adjacency entry ``(nbrs[i], ws[i])`` is. Self-loop
    entries are excluded (a node is not its own neighbor for label/move
    purposes).
    """
    return neighborhood_cache(graph).gather(nodes)


def segmented_argmax(seg: np.ndarray, score: np.ndarray, last: bool) -> np.ndarray:
    """Row index of each segment's maximal ``score``, segments ascending.

    ``seg`` is non-empty and non-decreasing, so every segment is one
    contiguous run of rows. Among rows tied at a run's maximum the
    *last* one wins (``last``) or else the first; callers keep rows
    label-ascending within a run, which makes this the larger- or
    smaller-label tie-break. A segmented max (``np.maximum.reduceat``)
    plus "rows equal to their run's max" replaces a sort, and
    ``np.maximum`` returns one of its operands bit-for-bit, so the
    equality probe is exact.
    """
    run_start = np.empty(seg.size, dtype=bool)
    run_start[0] = True
    np.not_equal(seg[1:], seg[:-1], out=run_start[1:])
    run_max = np.maximum.reduceat(score, run_start.nonzero()[0])
    at_max = (score == run_max[np.cumsum(run_start) - 1]).nonzero()[0]
    seg_at = seg[at_max]
    pick = np.empty(seg_at.size, dtype=bool)
    if last:
        pick[-1] = True
        np.not_equal(seg_at[1:], seg_at[:-1], out=pick[:-1])
    else:
        pick[0] = True
        np.not_equal(seg_at[1:], seg_at[:-1], out=pick[1:])
    return at_max[pick]


def kernel_module(backend: str):
    """The kernel implementation module for a resolved backend name.

    ``"numpy"`` returns ``None`` (callers use the vectorized kernels of
    :mod:`repro.community._moves`); ``"numba"`` returns :mod:`repro.community._kernels_numba`.
    Callers pass a backend already resolved by
    :func:`repro.community.backends.resolve_kernel_backend`.
    """
    if backend == "numba":
        from repro.community import _kernels_numba

        return _kernels_numba
    return None

