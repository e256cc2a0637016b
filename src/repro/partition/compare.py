"""Solution-comparison measures.

Used by the LFR accuracy study (Fig. 8: Jaccard index between detected and
ground-truth communities) and the ensemble-diversity analysis (§V-D:
Jaccard dissimilarity between base solutions). All measures are computed
from the contingency table of the two partitions. Only its nonzero cells
are built — at most ``n`` of them, one ``np.unique`` over a combined
64-bit key — so memory stays O(n) even when both partitions have
thousands of communities (a dense ``ka x kb`` table would not).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "pair_counts",
    "jaccard_index",
    "jaccard_dissimilarity",
    "rand_index",
    "adjusted_rand_index",
    "normalized_mutual_information",
]


def _labels(x) -> np.ndarray:
    from repro.partition.partition import Partition

    if isinstance(x, Partition):
        return x.labels
    arr = np.asarray(x)
    _, compact = np.unique(arr, return_inverse=True)
    return compact.astype(np.int64)


def _contingency(a, b):
    """Nonzero contingency cells and marginals of two partitions.

    Returns ``(ii, jj, nij, ai, bj)``: cell ``k`` counts the ``nij[k]``
    nodes labelled ``ii[k]`` in ``a`` and ``jj[k]`` in ``b`` (cells in
    ascending ``(ii, jj)`` order); ``ai``/``bj`` are the label counts
    of each partition. All counts are float64.
    """
    la, lb = _labels(a), _labels(b)
    if la.shape != lb.shape:
        raise ValueError("partitions must cover the same node set")
    kb = int(lb.max(initial=0)) + 1
    cells, nij = np.unique(la * kb + lb, return_counts=True)
    ai = np.bincount(la).astype(np.float64)
    bj = np.bincount(lb).astype(np.float64)
    return cells // kb, cells % kb, nij.astype(np.float64), ai, bj


def _choose2_sum(x: np.ndarray) -> float:
    return float((x * (x - 1) / 2.0).sum())


def pair_counts(a, b) -> tuple[float, float, float, float]:
    """Pair-classification counts ``(n11, n10, n01, n00)``.

    ``n11``: node pairs together in both partitions; ``n10``: together in
    ``a`` only; ``n01``: together in ``b`` only; ``n00``: separate in both.
    Computed from sums of binomial coefficients over the contingency table,
    never by enumerating pairs.
    """
    _, _, nij, ai, bj = _contingency(a, b)
    n = int(ai.sum())
    if n == 0:
        return 0.0, 0.0, 0.0, 0.0
    total = n * (n - 1) / 2.0
    s11 = _choose2_sum(nij)
    sa = _choose2_sum(ai)
    sb = _choose2_sum(bj)
    n11 = s11
    n10 = sa - s11
    n01 = sb - s11
    n00 = total - sa - sb + s11
    return n11, n10, n01, n00


def jaccard_index(a, b) -> float:
    """Pairwise Jaccard agreement: ``n11 / (n11 + n10 + n01)`` (1 = equal)."""
    n11, n10, n01, _ = pair_counts(a, b)
    denom = n11 + n10 + n01
    return float(n11 / denom) if denom > 0 else 1.0


def jaccard_dissimilarity(a, b) -> float:
    """``1 - jaccard_index`` — the paper's base-solution diversity measure."""
    return 1.0 - jaccard_index(a, b)


def rand_index(a, b) -> float:
    """(n11 + n00) / all pairs."""
    n11, n10, n01, n00 = pair_counts(a, b)
    total = n11 + n10 + n01 + n00
    return float((n11 + n00) / total) if total > 0 else 1.0


def adjusted_rand_index(a, b) -> float:
    """Rand index corrected for chance (Hubert–Arabie)."""
    _, _, nij, ai, bj = _contingency(a, b)
    n = int(ai.sum())
    if n <= 1:
        return 1.0
    total = n * (n - 1) / 2.0
    s11 = _choose2_sum(nij)
    sa = _choose2_sum(ai)
    sb = _choose2_sum(bj)
    expected = sa * sb / total
    maximum = (sa + sb) / 2.0
    if np.isclose(maximum, expected):
        return 1.0
    return float((s11 - expected) / (maximum - expected))


def normalized_mutual_information(a, b) -> float:
    """NMI with arithmetic-mean normalization (0 = independent, 1 = equal)."""
    ii, jj, nij, ai, bj = _contingency(a, b)
    n = int(ai.sum())
    if n == 0:
        return 1.0
    nij = nij / n
    pi = ai / n
    pj = bj / n
    mi = float((nij * np.log(nij / (pi[ii] * pj[jj]))).sum())
    hi = float(-(pi[pi > 0] * np.log(pi[pi > 0])).sum())
    hj = float(-(pj[pj > 0] * np.log(pj[pj > 0])).sum())
    if hi == 0.0 and hj == 0.0:
        return 1.0
    denom = (hi + hj) / 2.0
    return float(mi / denom) if denom > 0 else 0.0
