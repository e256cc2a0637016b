"""Per-operation correctness checks and host-state guards.

A check returns a list of problems (empty when the output is right); the
caller counts an operation as failed when any check reports one.
"""

from __future__ import annotations

import os
import sys

import numpy as np

from repro.partition import modularity

#: Environment variables that change the program being measured.
REFUSED_ENV = ("REPRO_RACECHECK", "REPRO_KERNEL_NUMBA_FALLBACK")

#: Lowest NMI against the planted truth any single output may have, pinned
#: below the lowest value any output had over seeds 1-10 of the code this
#: benchmark was defined on: a drop beneath it is a quality regression.
NMI_FLOOR = {
    "detect-planted": 0.85,
    "stream-churn": 0.85,
    "serve-mixed": 0.85,
}

MODULARITY_TOL = 1e-9


def refused_env() -> list[str]:
    return [name for name in REFUSED_ENV if os.environ.get(name)]


def host_block() -> dict:
    """The host facts a reader needs to compare two result files."""
    import importlib.util

    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "repro_env": {k: v for k, v in sorted(os.environ.items()) if k.startswith("REPRO_")},
    }


def modularity_ref(graph, labels: np.ndarray) -> float:
    """Modularity straight from the CSR arrays, independent of ``repro``.

    Non-loop edges are stored twice and self-loops once; a self-loop counts
    twice towards its node's volume and once towards the edge weight.
    """
    n = graph.n
    rows = np.repeat(np.arange(n), np.diff(graph.indptr))
    cols = graph.indices.astype(np.int64)
    w = graph.weights.astype(np.float64)
    loop = rows == cols
    omega = w[~loop].sum() / 2.0 + w[loop].sum()
    if omega == 0:
        return 0.0
    vol = np.bincount(rows, weights=w, minlength=n) + np.bincount(
        rows[loop], weights=w[loop], minlength=n
    )
    same = labels[rows] == labels[cols]
    intra = w[same & ~loop].sum() / 2.0 + w[same & loop].sum()
    _, inv = np.unique(labels, return_inverse=True)
    cvol = np.bincount(inv, weights=vol)
    return float(intra / omega - np.dot(cvol, cvol) / (4.0 * omega * omega))


def labels_problems(labels, n: int) -> list[str]:
    labels = np.asarray(labels)
    if labels.shape != (n,):
        return [f"labels shape {labels.shape} != ({n},)"]
    if labels.dtype.kind not in "iu" or (n and int(labels.min()) < 0):
        return ["labels do not assign every node a community"]
    return []


def nmi(a, b) -> float:
    """NMI (arithmetic-mean normalization) of two labelings.

    Computed from the sparse contingency table, so memory stays linear in
    ``n`` however many communities either side has.
    """
    _, ia = np.unique(a, return_inverse=True)
    _, ib = np.unique(b, return_inverse=True)
    n = ia.size
    if n == 0:
        return 1.0
    kb = int(ib.max()) + 1
    cells, counts = np.unique(ia.astype(np.int64) * kb + ib, return_counts=True)
    pij = counts / n
    pi = np.bincount(ia) / n
    pj = np.bincount(ib) / n
    mi = float(np.sum(pij * np.log(pij / (pi[cells // kb] * pj[cells % kb]))))
    hi = float(-np.sum(pi * np.log(pi)))
    hj = float(-np.sum(pj * np.log(pj)))
    if hi == 0.0 and hj == 0.0:
        return 1.0
    denom = (hi + hj) / 2.0
    return mi / denom if denom > 0 else 0.0


def detection_problems(graph, labels, truth=None, floor=None, reported=None):
    """Checks for one output partition; returns ``(problems, q, nmi)``.

    ``reported`` is the modularity the program reported for the output;
    when omitted the program's ``partition.modularity`` is the report and
    the benchmark's own CSR formula the recomputation.
    """
    problems = labels_problems(labels, graph.n)
    if problems:
        return problems, None, None
    q = modularity(graph, labels)
    if reported is None:
        reported, q_check = q, modularity_ref(graph, labels)
    else:
        q_check = q
    if not abs(reported - q_check) <= MODULARITY_TOL:
        problems.append(f"modularity {reported!r} != recomputed {q_check!r}")
    if truth is not None:
        score = nmi(truth, labels)
        if floor is not None and score < floor:
            problems.append(f"NMI {score:.4f} below floor {floor}")
        return problems, q, score
    return problems, q, None


# ----------------------------------------------------------------------
# Host state
# ----------------------------------------------------------------------
def shm_segments() -> set[str]:
    """Names of the program's shared-memory segments on this host."""
    try:
        names = os.listdir("/dev/shm")
    except OSError:
        return set()
    return {x for x in names if x.startswith("psm_") or "repro" in x}


def _vm_hwm_kb(pid: int | str) -> int:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _children(pid: int) -> list[int]:
    out = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == pid:
            out.append(int(entry))
    return out


def peak_rss_mb() -> float:
    """Highest VmHWM of this process and its live children, in MB."""
    pids = [os.getpid(), *_children(os.getpid())]
    return max(_vm_hwm_kb(p) for p in pids) / 1024.0
