"""Vectorized per-chunk kernels shared by the local-move algorithms.

PLP's dominant-label selection and PLM's best-move selection both reduce a
chunk of nodes' neighborhoods grouped by the neighbors' community labels.
These helpers implement that as sort + segmented reduction over the CSR
arrays, the NumPy idiom for a group-by, so the Python-level cost per chunk
is O(1) calls rather than a per-node loop.

Wall-clock engineering (the simulated cost model is untouched):

* :class:`NeighborhoodCache` precomputes the loop-free adjacency of a
  graph once; every later gather is index arithmetic over those arrays
  instead of re-filtering self-loops per chunk.
* :meth:`NeighborhoodCache.plan` pre-gathers the neighborhoods of a whole
  sweep order in one vectorized pass; the executor's grain blocks then
  *slice* the flat arrays (O(1) NumPy calls per block) rather than
  rebuilding repeat/cumsum index arithmetic per chunk — the
  avoidable-recomputation trap the BigClam engineering study calls out.
* The (segment, label) group-by sorts one fused int64 key with a single
  stable ``np.argsort`` instead of a two-key ``np.lexsort``, with an
  explicit overflow check that falls back to ``np.lexsort``. The fused
  sort is order-identical to the lexsort (both stable on the same key
  pair), so aggregation results are bit-for-bit unchanged.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.graph.csr import Graph

__all__ = [
    "NeighborhoodCache",
    "SweepPlan",
    "neighborhood_cache",
    "gather_neighborhoods",
    "LabelGroups",
    "group_label_weights",
    "group_from_gather",
    "segmented_argmax",
    "seg_bounds",
    "kernel_module",
]

_EMPTY_I = np.empty(0, np.int64)
_EMPTY_F = np.empty(0, np.float64)

#: Largest fused (segment * width + label) key allowed before the group-by
#: falls back to ``np.lexsort`` (int64 overflow guard).
_MAX_FUSED_KEY = np.iinfo(np.int64).max


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
    array; :meth:`offset` recognizes such a slice and :meth:`block`
    returns views of the pre-gathered flat arrays — zero per-block index
    rebuilding. Only the *structure* is precomputed; labels are always
    read at kernel time, preserving the stale-read commit semantics of
    the simulation.
    """

    __slots__ = ("order", "seg", "nbrs", "ws", "bounds", "inv", "_cache")

    def __init__(self, cache: NeighborhoodCache, order: np.ndarray) -> None:
        order = np.asarray(order, dtype=np.int64)
        self.order = order
        self._cache = cache
        seg, nbrs, ws = cache.gather(order)
        self.seg, self.nbrs, self.ws = seg, nbrs, ws
        bounds = np.zeros(order.size + 1, dtype=np.int64)
        np.cumsum(cache.counts[order], out=bounds[1:])
        self.bounds = bounds
        # node id -> position in ``order`` (nodes are unique in a sweep
        # order, so a contiguous slice is identified by its first value).
        inv = np.zeros(cache.indptr.size - 1, dtype=np.int64)
        inv[order] = np.arange(order.size, dtype=np.int64)
        self.inv = inv

    def offset(self, chunk: np.ndarray) -> int:
        """Start position of ``chunk`` within the order, or -1.

        A grain block is a basic slice of the order array (``.base`` is
        the order, same strides); its start index is recovered from the
        first node id — order entries are unique, so the match is exact.
        """
        if (
            chunk.base is self.order
            and chunk.strides == self.order.strides
            and chunk.size
        ):
            return self.inv[chunk[0]]
        return -1

    def block_at(
        self, lo: int, size: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Neighborhood views for ``order[lo:lo+size]``, ``seg`` local."""
        sl = slice(self.bounds[lo], self.bounds[lo + size])
        return self.seg[sl] - lo, self.nbrs[sl], self.ws[sl]

    def block(
        self, chunk: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Neighborhoods of ``chunk`` with ``seg`` local to the chunk.

        ``chunk`` is expected to be a contiguous slice of the planned
        order (the executor's grain block); anything else falls back to a
        fresh gather, so the result is always correct.
        """
        if chunk.size == 0:
            return _EMPTY_I, _EMPTY_I, _EMPTY_F
        lo = self.offset(chunk)
        if lo >= 0:
            return self.block_at(lo, chunk.size)
        return self._cache.gather(chunk)


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


class LabelGroups(NamedTuple):
    """Segmented (node, label) -> weight aggregation for a chunk.

    ``gseg``/``glab``/``gw`` are aligned arrays: within chunk position
    ``gseg[i]``, the total edge weight to neighbors labelled ``glab[i]`` is
    ``gw[i]``. Rows are sorted by ``(gseg, glab)``.

    ``keys``/``width`` carry the fused sort key (``gseg * width + glab``)
    when the fused group-by path produced the rows, letting
    :meth:`weight_to_label` reuse the sorted keys instead of rebuilding
    them; they are ``None`` on the lexsort fallback path.
    """

    gseg: np.ndarray
    glab: np.ndarray
    gw: np.ndarray
    keys: np.ndarray | None = None
    width: int = 0

    def weight_to_label(self, chunk_size: int, current: np.ndarray) -> np.ndarray:
        """Per chunk position, the weight to ``current[pos]`` (0 if none).

        Used for the PLP keep-current tie-break and PLM's ``omega(u, C\\u)``.
        Rows are unique per (segment, label), so at most one row per
        segment matches its ``current`` label — a single boolean mask
        replaces the searchsorted probe.
        """
        out = np.zeros(chunk_size, dtype=np.float64)
        if self.gseg.size == 0:
            return out
        rows = self.glab == current[self.gseg]
        out[self.gseg[rows]] = self.gw[rows]
        return out

    def argmax_per_segment(
        self, chunk_size: int, score: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per chunk position: (has_group, best_label, best_score).

        ``score`` defaults to the group weights ``gw``. Ties break toward
        the larger label (deterministic).
        """
        has = np.zeros(chunk_size, dtype=bool)
        best_lab = np.zeros(chunk_size, dtype=np.int64)
        best_score = np.full(chunk_size, -np.inf, dtype=np.float64)
        if self.gseg.size == 0:
            return has, best_lab, best_score
        s = self.gw if score is None else np.asarray(score, dtype=np.float64)
        # Rows are label-ascending within a segment, so the last row tied
        # at the maximum is the largest label.
        rows = segmented_argmax(self.gseg, s, last=True)
        segs = self.gseg[rows]
        has[segs] = True
        best_lab[segs] = self.glab[rows]
        best_score[segs] = s[rows]
        return has, best_lab, best_score


def group_from_gather(
    seg: np.ndarray, labs: np.ndarray, ws: np.ndarray, width: int | None = None
) -> LabelGroups:
    """Group pre-gathered (seg, neighbor-label, weight) rows by (seg, label).

    One stable argsort of the fused int64 key ``seg * width + label``
    replaces the two-key lexsort; both are stable on the same ordering, so
    the summation order inside :func:`np.add.reduceat` — and therefore the
    float results — are identical. Falls back to ``np.lexsort`` when the
    fused key would overflow int64 (or labels are negative).

    Pass ``width`` when the caller guarantees ``0 <= labs < width`` (e.g.
    community labels are always node ids, so ``width = n``): it skips the
    min/max scans over the label array.
    """
    if seg.size == 0:
        return LabelGroups(_EMPTY_I, _EMPTY_I, _EMPTY_F)
    if width is None:
        trusted = labs.dtype.kind == "i" and int(labs.min()) >= 0
        width = int(labs.max()) + 1 if trusted else 0
    else:
        trusted = True
    max_seg = int(seg[-1])  # seg is block-ordered: last entry is the max
    if trusted and 0 < width and (
        max_seg <= (_MAX_FUSED_KEY - width + 1) // width
    ):
        keys = seg * np.int64(width) + labs
        order = np.argsort(keys, kind="stable")
        keys_s = keys[order]
        boundary = np.empty(keys_s.size, dtype=bool)
        boundary[0] = True
        np.not_equal(keys_s[1:], keys_s[:-1], out=boundary[1:])
        starts = np.flatnonzero(boundary)
        gw = np.add.reduceat(ws[order], starts)
        group_keys = keys_s[starts]
        return LabelGroups(
            group_keys // width, group_keys % width, gw, group_keys, width
        )
    # Fallback: arbitrary (huge / negative) labels.
    order = np.lexsort((labs, seg))
    seg_s = seg[order]
    labs_s = labs[order]
    boundary = np.empty(seg_s.size, dtype=bool)
    boundary[0] = True
    np.logical_or(
        seg_s[1:] != seg_s[:-1], labs_s[1:] != labs_s[:-1], out=boundary[1:]
    )
    starts = np.flatnonzero(boundary)
    gw = np.add.reduceat(ws[order], starts)
    return LabelGroups(seg_s[starts], labs_s[starts], gw)


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


def seg_bounds(seg: np.ndarray, size: int) -> np.ndarray:
    """CSR-style bounds of a gathered segment array (``size + 1`` entries).

    ``seg`` is block-ordered (non-decreasing positions within the chunk),
    so per-position counts plus a cumulative sum recover the slice
    boundaries the compiled kernels consume. Used only on the fallback
    path for chunks that are not slices of a pre-gathered plan.
    """
    bounds = np.zeros(size + 1, dtype=np.int64)
    np.cumsum(np.bincount(seg, minlength=size), out=bounds[1:])
    return bounds


def kernel_module(backend: str):
    """The kernel implementation module for a resolved backend name.

    ``"numpy"`` returns ``None`` (callers use the vectorized helpers in
    this module); ``"numba"`` returns :mod:`repro.community._kernels_numba`.
    Callers pass a backend already resolved by
    :func:`repro.community.backends.resolve_kernel_backend`.
    """
    if backend == "numba":
        from repro.community import _kernels_numba

        return _kernels_numba
    return None


def group_label_weights(
    graph: Graph, nodes: np.ndarray, labels: np.ndarray
) -> LabelGroups:
    """Aggregate each chunk node's neighbor weights by neighbor label."""
    seg, nbrs, ws = gather_neighborhoods(graph, nodes)
    if seg.size == 0:
        return LabelGroups(_EMPTY_I, _EMPTY_I, _EMPTY_F)
    return group_from_gather(seg, labels[nbrs], ws)
