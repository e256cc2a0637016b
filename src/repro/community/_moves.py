"""The local-move kernels: best community by gain, dominant label by vote.

Both detector families answer one question per evaluated node over its
neighbor rows grouped by (node, neighbor label) — one fused-key group-by
(:func:`_group`) serves both.

**Louvain family.** Which neighboring community maximizes the paper's
closed-form gain (§III-B)::

    delta = (w(u,D) - w(u,C\\u)) / w(E)
          + gamma * vol(u) * (vol(C\\u) - vol(D)) / (2 w(E)^2)

— and :func:`best_moves` is the only place that answers it (the compiled
twin ``plm_decide_block`` in :mod:`repro.community._kernels_numba` and
the per-node reference ``Louvain._scalar_move`` aside). Detectors differ
in exactly two inputs:

* **which community state a move reads** — the neighbor labels,
  current labels and community volumes passed in. PLM/DPLM pass the live
  shared arrays while other blocks are still in simulated flight (stale
  reads, §III-B); Grappolo (Lu & Halappanavar, arXiv:1410.1237) passes
  live labels but volumes frozen at the color-class start; SyncLouvain
  (Chiêm et al., arXiv:1702.04645) passes a sweep-start snapshot;
  sequential Louvain passes the state at its block start;
* **the tie rule** — gain ties go to the larger label for PLM/DPLM, and
  to the smaller label (Lu/Halappanavar's convergence heuristic) for
  Grappolo, SyncLouvain and sequential Louvain.

The own-community row never wins: its weight term is exactly ``0.0``
(``w(u,C\\u)`` minus itself) and its volume term is ``<= 0.0``
bit-for-bit (``fl(a - b) <= a`` for ``b >= 0``), so it never clears
:data:`GAIN_EPS` and needs no explicit exclusion.

**Label-propagation family.** Which label dominates the neighborhood
(§III-A, Alg. 1), keeping the current one unless another strictly beats
it — :func:`best_labels` (the compiled twin ``plp_block`` aside).
Detectors differ only in the ids fed to the jitter hash, the labels read
and an optional ``stay`` weight on the current label: PLP/DPLP pass node
ids and live labels, ShardedPLP's shard sweeps global ids and the
round-start snapshot, and its merge sweep coarse ids, coarse labels and
the coarse self-loops as ``stay``.
"""

from __future__ import annotations

import numpy as np

from repro.community._kernels import segmented_argmax

__all__ = ["GAIN_EPS", "best_moves", "best_labels", "apply_transfers"]

#: Strict-improvement threshold: gains at or below it are float noise.
GAIN_EPS = 1e-15

#: Largest ``width`` whose fused keys ``seg * width + label`` (both
#: factors ``< width``) fit in int64.
_MAX_WIDTH = 3_037_000_499


def _hash_jitter(
    node_ids: np.ndarray, labs: np.ndarray, salt: np.uint64
) -> np.ndarray:
    """Deterministic per-(node, label, salt) tie-break noise in [0, 1).

    The original algorithm breaks ties among equally heavy labels
    arbitrarily; a *consistent* tie-break (e.g. largest label) lets one
    label win every tie and flood the graph. Hashing (node, label, salt)
    reproduces arbitrary-but-deterministic tie-breaking, vectorized.

    Wrapping uint64 arithmetic is intentional; NumPy array ops wrap
    silently, so no ``errstate`` guard is needed (or wanted — entering
    one per kernel block dominated small-graph sweeps).
    """
    h = (
        node_ids.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15)
        + labs.astype(np.uint64) * np.uint64(2654435761)
        + salt
    )
    h ^= h >> np.uint64(33)
    h *= np.uint64(0xFF51AFD7ED558CCD)
    h ^= h >> np.uint64(33)
    return (h >> np.uint64(11)).astype(np.float64) / float(2**53)


def _group(
    seg_key: np.ndarray,
    nbr_lab: np.ndarray,
    ws: np.ndarray,
    cur: np.ndarray,
    width: int,
    base: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Neighbor rows grouped by (node, label), plus each node's own row.

    Returns ``(gseg, glab, gw, w_cur)``: group ``i`` holds the weight
    ``gw[i]`` (storage dtype) from node ``gseg[i]`` (``base`` removed) to
    label ``glab[i]``, groups ascending by (node, label); ``w_cur[p]`` is
    node ``p``'s weight to its label ``cur[p]`` in float64 (``0.0`` when
    no row has it). One stable sort of the fused key, so each group's
    weights sum in gather order.
    """
    if width > _MAX_WIDTH:
        raise OverflowError(f"fused move keys overflow int64 at width {width}")
    keys = seg_key + nbr_lab
    order = keys.argsort(kind="stable")
    keys_s = keys[order]
    boundary = np.empty(keys_s.size, dtype=bool)
    boundary[0] = True
    np.not_equal(keys_s[1:], keys_s[:-1], out=boundary[1:])
    starts = boundary.nonzero()[0]
    gseg, glab = np.divmod(keys_s[starts], width)
    if base:
        gseg -= base
    gw = np.add.reduceat(ws[order], starts)
    own = glab == cur[gseg]
    w_cur = np.zeros(cur.size, dtype=np.float64)
    w_cur[gseg[own]] = gw[own]
    return gseg, glab, gw, w_cur


def best_moves(
    seg_key: np.ndarray,
    nbr_lab: np.ndarray,
    ws: np.ndarray,
    cur: np.ndarray,
    vol_u: np.ndarray,
    comm_vol: np.ndarray,
    omega: float,
    gamma: float,
    width: int,
    base: int = 0,
    larger_label: bool = False,
) -> tuple[np.ndarray, np.ndarray] | None:
    """Best positive-gain move per node, or ``None`` if no node gains.

    Neighbor rows are grouped by node: row ``r`` joins node ``seg[r]``
    (non-decreasing, ``base``-offset) to a neighbor in community
    ``nbr_lab[r]`` by an edge of weight ``ws[r]``, and ``seg_key`` is
    ``seg * width`` (callers slice it from a whole sweep's key). Per node,
    ``cur``/``vol_u`` are its community and volume; ``comm_vol`` holds
    community volumes consistent with the labels read. ``width`` bounds
    both labels and ``seg`` (callers pass ``n``). Gain ties go to the
    smaller label, or the larger with ``larger_label``.

    Returns ``(pos, dst)``: ascending positions ``0 <= pos < cur.size`` of
    the nodes whose best gain exceeds :data:`GAIN_EPS`, and their target
    communities.
    """
    if seg_key.size == 0:
        return None
    gseg, glab, gw, w_cur = _group(seg_key, nbr_lab, ws, cur, width, base)
    vol_c_wo_u = comm_vol[cur] - vol_u
    delta = (gw - w_cur[gseg]) / omega + (
        gamma
        * vol_u[gseg]
        * (vol_c_wo_u[gseg] - comm_vol[glab])
        / (2.0 * omega * omega)
    )
    # A node's maximum is positive iff one of its rows is, and every row
    # tied at a positive maximum is positive, so the argmax over the
    # positive rows alone picks the same winner.
    rows_p = (delta > GAIN_EPS).nonzero()[0]
    if rows_p.size == 0:
        return None
    win = rows_p[segmented_argmax(gseg[rows_p], delta[rows_p], last=larger_label)]
    return gseg[win], glab[win]


def best_labels(
    seg_key: np.ndarray,
    nbr_lab: np.ndarray,
    ws: np.ndarray,
    ids: np.ndarray,
    cur: np.ndarray,
    salt: np.uint64,
    width: int,
    base: int = 0,
    stay: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """PLP's jittered dominant-label vote, one decision per node.

    Rows and ``seg_key``/``width``/``base`` are as for
    :func:`best_moves`; ``ids[p]`` is the id of node ``p`` fed to the
    jitter hash (with the label and ``salt``) and ``cur[p]`` its current
    label. Each label scores its summed weight ``w`` plus
    ``1e-9 * (1 + w)`` times the hash in ``[0, 1)``; the current label
    scores its weight plus ``stay[p]`` (if given) the same way. The
    highest-scoring label wins, ties to the larger label, and a node
    adopts it only if it strictly beats the current label's score.

    Returns ``(moved, new)``: a mask over the nodes that adopt a new
    label, and those labels in node order.
    """
    moved = np.zeros(cur.size, dtype=bool)
    if seg_key.size == 0:
        return moved, nbr_lab[:0]
    gseg, glab, gw, w_cur = _group(seg_key, nbr_lab, ws, cur, width, base)
    if stay is not None:
        w_cur += stay
    # One hash call scores the groups and the current labels; the hash is
    # elementwise, so the halves equal two separate calls bit for bit.
    split = gseg.size
    j = _hash_jitter(
        np.concatenate([ids[gseg], ids]), np.concatenate([glab, cur]), salt
    )
    score = gw + 1e-9 * (1.0 + gw) * j[:split]
    cur_score = w_cur + 1e-9 * (1.0 + w_cur) * j[split:]
    win = segmented_argmax(gseg, score, last=True)
    pos = gseg[win]
    lab = glab[win]
    better = (score[win] > cur_score[pos]) & (lab != cur[pos])
    moved[pos[better]] = True
    return moved, lab[better]


def apply_transfers(
    comm_vol: np.ndarray, pending: list[tuple[np.ndarray, ...]]
) -> int:
    """Apply deferred volume transfers at a barrier, in node-id order.

    ``pending`` holds ``(nodes, src, dst, vol)`` commit batches in arrival
    order, which depends on the schedule; sorting by node id fixes the
    float accumulation order. Empties ``pending`` and returns the number
    of nodes that moved.
    """
    if not pending:
        return 0
    nodes, src, dst, vol = (np.concatenate(col) for col in zip(*pending))
    order = np.argsort(nodes)
    np.subtract.at(comm_vol, src[order], vol[order])
    np.add.at(comm_vol, dst[order], vol[order])
    pending.clear()
    return int(nodes.size)
