"""Numba-jitted single-pass kernels for the PLP/PLM hot loops.

The vectorized NumPy kernels of :mod:`repro.community._moves` still pay
~30 array dispatches plus several intermediate allocations per sweep.
These kernels collapse each block's whole decision — neighborhood
gather, per-label weight grouping, gain/score evaluation, segmented
argmax with symmetry breaking — into one cache-friendly pass over the
CSR slice, following Lu & Halappanavar's single-traversal per-vertex
scan structure (arXiv:1410.1237): a per-node scan over the adjacency
accumulates label weights into a stamped scratch table (no global sorts,
no per-block index rebuilding), then a second tiny scan over the touched
labels picks the winner.

**Byte-identity contract.** Results must be bit-for-bit identical to the
NumPy backend — labels, simulated timings, and info counters. That holds
by construction:

* per-(node, label) weight sums accumulate in **adjacency order**, the
  same order ``np.add.reduceat`` sums rows of the stable (segment,
  label) sort (stable sorts preserve within-group gather order, and
  ``reduceat`` reduces sequentially left-to-right);
* sums accumulate in the **storage weight dtype** (float32 under the
  ``lean`` policy, float64 under ``wide``) exactly as ``reduceat`` does
  — no hidden upcast — and are promoted to float64 at exactly the
  expressions where NumPy's broadcasting promotes them;
* every scalar expression mirrors the NumPy operation tree term by term
  (same literals, same association), so each float is the identical bit
  pattern;
* winners are picked by exact float comparison with the same tie-break
  (largest label among bit-equal maxima), which is iteration-order
  independent, so a scan can replace the segmented argmax.

The kernels operate directly on CSR slices of either dtype policy
(int32/int64 indices, float32/float64 weights) without copying or
upcasting; numba specializes per signature.

**Without numba** the module still imports: ``njit`` degrades to a
wrapper that runs the same source interpreted (inside
``np.errstate(all="ignore")`` — the jitter hash relies on wrapping
uint64 arithmetic, which NumPy scalars warn about). The interpreted mode
is *not* selectable as a backend unless ``REPRO_KERNEL_NUMBA_FALLBACK=1``
is set: it exists so the byte-identity equivalence suite can exercise
the exact compiled code paths on hosts without the optional dependency —
it is orders of magnitude slower and never a production configuration.
"""

from __future__ import annotations

import functools
import os

import numpy as np

__all__ = [
    "HAVE_NUMBA",
    "FALLBACK_ENV",
    "fallback_enabled",
    "numba_version",
    "KernelScratch",
    "plp_block",
    "plm_decide_block",
]

#: Environment variable enabling the interpreted testing fallback.
FALLBACK_ENV = "REPRO_KERNEL_NUMBA_FALLBACK"

try:  # pragma: no cover - exercised only when numba is installed
    from numba import njit

    HAVE_NUMBA = True
except ImportError:
    HAVE_NUMBA = False

    def njit(*args, **kwargs):
        """Interpreted stand-in for ``numba.njit`` (numba not installed).

        Returns the function unchanged apart from an
        ``np.errstate(all="ignore")`` guard: the kernels use wrapping
        uint64 arithmetic (intentional, see ``_jitter1``) which NumPy
        scalar ops would otherwise warn about on every call.
        """

        def wrap(fn):
            @functools.wraps(fn)
            def interpreted(*a, **k):
                with np.errstate(all="ignore"):
                    return fn(*a, **k)

            interpreted.py_func = fn
            return interpreted

        if args and callable(args[0]):
            return wrap(args[0])
        return wrap


def fallback_enabled() -> bool:
    """Whether ``REPRO_KERNEL_NUMBA_FALLBACK=1`` enables interpreted mode."""
    return os.environ.get(FALLBACK_ENV, "") not in ("", "0")


def numba_version() -> str | None:
    """The installed numba version, or ``None`` when not installed."""
    if not HAVE_NUMBA:
        return None
    import numba

    return numba.__version__


class KernelScratch:
    """Reusable per-run scratch for the stamped label-weight table.

    One instance per detector run (or move-phase level): ``weight`` holds
    per-label partial sums **in the graph's storage weight dtype** (the
    byte-identity contract requires float32 accumulation under the lean
    policy), ``mark``/``stamp`` implement O(1) logical clearing between
    nodes, and ``touched`` lists the labels seen in the current
    neighborhood so only they are rescanned.
    """

    __slots__ = ("weight", "mark", "touched", "stamp")

    def __init__(self, n: int, weight_dtype: np.dtype) -> None:
        self.weight = np.zeros(n, dtype=weight_dtype)
        self.mark = np.zeros(n, dtype=np.int64)
        self.touched = np.empty(n, dtype=np.int64)
        # Box (length-1 array) so jitted kernels can advance the stamp.
        self.stamp = np.zeros(1, dtype=np.int64)


@njit(cache=True)
def _jitter1(node, lab, salt):
    """Scalar twin of :func:`repro.community._moves._hash_jitter`.

    The hash is elementwise, so the scalar evaluation is bit-identical
    to the vectorized one (``best_labels``' fused concatenated call is
    itself documented as elementwise-splittable). Wrapping uint64
    arithmetic is intentional.
    """
    h = (
        np.uint64(node) * np.uint64(0x9E3779B97F4A7C15)
        + np.uint64(lab) * np.uint64(2654435761)
        + salt
    )
    h ^= h >> np.uint64(33)
    h *= np.uint64(0xFF51AFD7ED558CCD)
    h ^= h >> np.uint64(33)
    return np.float64(h >> np.uint64(11)) / 9007199254740992.0


@njit(cache=True)
def plp_block(
    chunk,
    labels,
    bounds,
    lo,
    nbrs,
    ws,
    salt,
    w_acc,
    mark,
    touched,
    stamp_box,
    w_one,
    w_eps,
    out_move,
    out_label,
):
    """PLP dominant-label vote for one block, one pass per node.

    ``chunk`` holds the block's node ids; node ``i``'s (loop-free)
    neighborhood is ``nbrs[bounds[lo+i]:bounds[lo+i+1]]`` with weights
    ``ws[...]`` — views of the sweep plan's flat arrays, any index/weight
    dtype. ``labels`` is the live shared label array. ``w_one``/``w_eps``
    are ``1.0``/``1e-9`` in the storage weight dtype: NumPy's weak-scalar
    promotion evaluates ``1e-9 * (1.0 + gw)`` in that dtype, and the
    score must match it bit-for-bit.

    Writes per position: ``out_move[i]`` (adopt a new label?) and
    ``out_label[i]`` (the label, valid only when moving). Returns the
    move count.
    """
    size = chunk.shape[0]
    stamp = stamp_box[0]
    nmoved = 0
    for i in range(size):
        out_move[i] = False
        s = bounds[lo + i]
        e = bounds[lo + i + 1]
        if e == s:
            continue  # no non-loop neighbors: dominant by default, stable
        node = chunk[i]
        cur = labels[node]
        stamp += 1
        ntouch = 0
        for p in range(s, e):
            lab = labels[nbrs[p]]
            if mark[lab] == stamp:
                w_acc[lab] += ws[p]
            else:
                mark[lab] = stamp
                w_acc[lab] = ws[p]
                touched[ntouch] = lab
                ntouch += 1
        if mark[cur] == stamp:
            w_cur = np.float64(w_acc[cur])
        else:
            w_cur = 0.0
        cur_score = w_cur + 1e-9 * (1.0 + w_cur) * _jitter1(node, cur, salt)
        # Jittered argmax over the neighborhood's labels. Exact float
        # comparisons with a largest-label tie-break are iteration-order
        # independent, so this scan equals the NumPy segmented argmax
        # (which takes the last bit-equal maximum of label-ascending rows).
        best_score = -np.inf
        best_lab = np.int64(-1)
        for t in range(ntouch):
            lab = touched[t]
            gw = w_acc[lab]
            scale = w_eps * (w_one + gw)  # storage-dtype math, as NumPy does
            score = np.float64(gw) + np.float64(scale) * _jitter1(
                node, lab, salt
            )
            if score > best_score or (score == best_score and lab > best_lab):
                best_score = score
                best_lab = np.int64(lab)
        if best_score > cur_score and best_lab != cur:
            out_move[i] = True
            out_label[i] = best_lab
            nmoved += 1
    stamp_box[0] = stamp
    return nmoved


@njit(cache=True)
def plm_decide_block(
    cur,
    vol_u,
    labels,
    bounds,
    lo,
    nbrs,
    ws,
    comm_vol,
    comm_size,
    omega,
    gamma,
    denom,
    w_acc,
    mark,
    touched,
    stamp_box,
    out_pos,
    out_dst,
):
    """Fused PLM move decision for one block: the single-traversal scan.

    Position ``i`` describes a node with current label ``cur[i]``, volume
    ``vol_u[i]`` and neighborhood ``nbrs[bounds[lo+i]:bounds[lo+i+1]]``
    (weights ``ws[...]``); ``labels``/``comm_vol``/``comm_size`` are the
    live shared arrays (stale-read semantics are the caller's concern —
    the simulated executor sequences kernel and commit calls identically
    for every backend). ``denom`` is the precomputed ``2.0 * omega *
    omega`` of the gain's volume term.

    The gain formula replicates :func:`repro.community._moves.best_moves`
    term by term: ``(gw - w_cur) / omega + gamma * vol_u * (vol(C\\u) - vol(D)) /
    denom``, evaluated with the identical association, on the per-label
    sums accumulated in adjacency order (== the stable-sort ``reduceat``
    order). The own-community label is skipped: its weight term is
    exactly ``0.0`` and its volume term ``<= 0.0`` bit-for-bit, so it can
    never clear the ``1e-15`` move threshold (the NumPy path proves the
    same invariant without an explicit exclusion).

    Winners are emitted in position order (== NumPy's segment-ascending
    order, which the commit's ``ufunc.at`` accumulation order depends
    on) into ``out_pos``/``out_dst``; returns the count. The singleton
    symmetry break (drop singleton->singleton moves toward the larger
    community id) is applied before emission.
    """
    size = cur.shape[0]
    stamp = stamp_box[0]
    count = 0
    for i in range(size):
        s = bounds[lo + i]
        e = bounds[lo + i + 1]
        if e == s:
            continue
        c = cur[i]
        v = vol_u[i]
        stamp += 1
        ntouch = 0
        for p in range(s, e):
            lab = labels[nbrs[p]]
            if mark[lab] == stamp:
                w_acc[lab] += ws[p]
            else:
                mark[lab] = stamp
                w_acc[lab] = ws[p]
                touched[ntouch] = lab
                ntouch += 1
        if mark[c] == stamp:
            w_cur = np.float64(w_acc[c])
        else:
            w_cur = 0.0
        vol_c_wo_u = comm_vol[c] - v
        gv = gamma * v  # hoisted factor of the per-row product
        best = -np.inf
        best_lab = np.int64(-1)
        found = False
        for t in range(ntouch):
            lab = touched[t]
            if lab == c:
                continue
            delta = (np.float64(w_acc[lab]) - w_cur) / omega + gv * (
                vol_c_wo_u - comm_vol[lab]
            ) / denom
            if delta > 1e-15 and (
                not found
                or delta > best
                or (delta == best and lab > best_lab)
            ):
                found = True
                best = delta
                best_lab = np.int64(lab)
        if found:
            # Symmetry break: two concurrently evaluated singletons must
            # not swap forever; allow the move only toward the smaller id.
            if (
                comm_size[c] == 1
                and comm_size[best_lab] == 1
                and best_lab > c
            ):
                continue
            out_pos[count] = i
            out_dst[count] = best_lab
            count += 1
    stamp_box[0] = stamp
    return count
