"""Seeded, self-contained benchmark inputs.

Every input is a pure function of the workload seed: graphs come from
``repro.graph.generators``, event streams and request schedules from NumPy
generators keyed by ``(seed, salt, index)``. Nothing here imports
``repro.bench``, so the yardstick does not move when that package does.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graph import generators

#: Input sizes per workload. ``full`` is what the benchmark measures;
#: ``smoke`` is a seconds-long pass used by the benchmark's own tests.
SIZES = {
    "full": {
        # 50 communities of 200 nodes; ~12 intra and ~2.4 inter
        # neighbours per node, ~71k edges.
        "planted": dict(n=10000, k=50, p_in=0.06, p_out=0.00024),
        # 16k nodes, ~114k edges, Graph500 (paper) parameters.
        "rmat": dict(scale=14, edge_factor=8),
        "detect_graphs": 8,
        # 30 communities of 200 nodes, ~57k edges.
        "stream": dict(n=6000, k=30, p_in=0.085, p_out=0.00033),
        "stream_segment": 20,
        "batch_communities": 2,
        "batch_events": 50,
        # 6 communities of 100 nodes, ~3.4k edges.
        "served": dict(n=600, k=6, p_in=0.1, p_out=0.003),
        "serve_graphs": 7,
        "serve_hot": 3,
        "serve_capacity": 4,
        "warm": dict(n=300, k=3, p_in=0.1, p_out=0.005),
    },
    "smoke": {
        "planted": dict(n=1500, k=15, p_in=0.1, p_out=0.002),
        "rmat": dict(scale=10, edge_factor=8),
        "detect_graphs": 2,
        "stream": dict(n=1500, k=15, p_in=0.1, p_out=0.002),
        "stream_segment": 5,
        "batch_communities": 1,
        "batch_events": 20,
        "served": dict(n=400, k=4, p_in=0.1, p_out=0.005),
        "serve_graphs": 5,
        "serve_hot": 2,
        "serve_capacity": 3,
        "warm": dict(n=300, k=6, p_in=0.2, p_out=0.01),
    },
}


def rng(seed: int, *salt: int) -> np.random.Generator:
    """Independent stream for ``(seed, *salt)``."""
    return np.random.default_rng([int(seed), *map(int, salt)])


def sub_seed(seed: int, *salt: int) -> int:
    """A generator seed (plain int) derived from ``(seed, *salt)``."""
    return int(rng(seed, *salt).integers(0, 2**31 - 1))


def planted(spec: dict, seed: int, name: str = ""):
    """Planted-partition graph and its ground truth."""
    return generators.planted_partition(
        spec["n"], spec["k"], spec["p_in"], spec["p_out"], seed=seed, name=name
    )


def rmat(spec: dict, seed: int, name: str = ""):
    """R-MAT graph with the paper's quadrant probabilities."""
    return generators.rmat(spec["scale"], spec["edge_factor"], seed=seed, name=name)


# ----------------------------------------------------------------------
# Event stream (stream-churn)
# ----------------------------------------------------------------------
def event_batch(graph, truth: np.ndarray, size: dict, seed: int, index: int):
    """One add/remove/reweight batch concentrated in a few communities.

    Endpoints fall inside ``batch_communities`` planted communities, so a
    batch dirties ~1% of the rows while the incremental detector's dirty
    region (whole communities of the endpoints) stays far below its
    full-recompute threshold. Pairs are unique within a batch and every
    removal or reweight targets an edge of ``graph``, the current snapshot,
    so no event can fail.

    Returns ``(us, vs, ws, kinds)`` with kinds ``"add"``/``"remove"``.
    """
    r = rng(seed, 7, index)
    k = int(truth.max()) + 1
    comms = r.choice(k, size=min(size["batch_communities"], k), replace=False)
    members = np.flatnonzero(np.isin(truth, comms))
    total = size["batch_events"]
    n_remove, n_reweight = int(total * 0.4), int(total * 0.2)
    n_add = total - n_remove - n_reweight

    # Existing edges with both endpoints among the chosen members.
    src = r.choice(members, size=4 * (n_remove + n_reweight), replace=True)
    indptr, indices = graph.indptr, graph.indices
    deg = indptr[src + 1] - indptr[src]
    src = src[deg > 0]
    deg = deg[deg > 0]
    dst = indices[indptr[src] + (r.random(src.size) * deg).astype(np.int64)]
    inside = np.isin(dst, members) & (dst != src)
    ex_u, ex_v = src[inside], dst[inside]

    # Candidate new pairs among the members (mostly intra-community).
    new_u = r.choice(members, size=4 * n_add)
    new_v = r.choice(members, size=4 * n_add)
    ok = new_u != new_v
    new_u, new_v = new_u[ok], new_v[ok]

    seen: set[tuple[int, int]] = set()

    def take(us, vs, count):
        out = []
        for u, v in zip(us.tolist(), vs.tolist()):
            key = (min(u, v), max(u, v))
            if key in seen:
                continue
            seen.add(key)
            out.append(key)
            if len(out) == count:
                break
        return out

    removes = take(ex_u, ex_v, n_remove)
    reweights = take(ex_u, ex_v, n_reweight)
    adds = take(new_u, new_v, n_add)
    pairs = removes + reweights + adds
    order = r.permutation(len(pairs))
    us = np.array([pairs[i][0] for i in order], dtype=np.int64)
    vs = np.array([pairs[i][1] for i in order], dtype=np.int64)
    kinds = np.array(
        ["remove"] * len(removes) + ["add"] * (len(reweights) + len(adds))
    )[order]
    ws = np.array(
        [0.0] * len(removes) + [0.5] * len(reweights) + [1.0] * len(adds)
    )[order]
    return us, vs, ws, kinds


# ----------------------------------------------------------------------
# Request schedule (serve-mixed)
# ----------------------------------------------------------------------
#: Closed-loop request pattern per client: F = fresh seed on a hot graph,
#: C = fresh seed on a graph outside the hot set (evicted, so the server
#: reloads its ``.npz``), R = exact repeat of an earlier request (result
#: cache hit). 50% F, 20% C, 30% R: the median request is a detection.
PATTERN = "FRFCFRFCRF"
ALGORITHMS = (
    ("plp", {}),
    ("plm", {}),
    ("epp", {}),
    ("splp", {"shards": 2}),
)


@dataclass(frozen=True)
class Request:
    kind: str  # "F", "C" or "R"
    graph: int  # index into the served graphs
    algorithm: str
    params: dict
    seed: int


def request_schedule(seed: int, client: int, count: int, hot: int, graphs: int):
    """The first ``count`` requests client ``client`` sends, in order.

    Fresh requests take the algorithms in blocks of four, each block in
    its own seeded order per client: every algorithm is asked for equally
    often, while the job a request waits behind (the other client's)
    varies at random instead of locking into one partner.
    """
    r = rng(seed, 11, client)
    out: list[Request] = []
    fresh: list[Request] = []
    order: list[int] = []
    colds = 0
    for i in range(count):
        kind = PATTERN[i % len(PATTERN)]
        if kind == "R" and fresh:
            out.append(fresh[int(r.integers(len(fresh)))])
            continue
        if not order:
            order = list(r.permutation(len(ALGORITHMS)))
        algorithm, params = ALGORITHMS[order.pop()]
        if kind == "C":
            g = hot + colds % (graphs - hot)
            colds += 1
        else:
            g = int(r.integers(hot))
        # Seeds never repeat across clients or requests, so only "R"
        # requests can hit the result cache.
        req = Request(
            "C" if kind == "C" else "F",
            g,
            algorithm,
            params,
            10_000_000 * int(seed) + 1_000_000 * (client + 1) + len(fresh),
        )
        fresh.append(req)
        out.append(req)
    return out
