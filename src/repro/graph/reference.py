"""Loop-based reference generators (pre-vectorization baselines).

The production generators in :mod:`repro.graph.generators` and
:mod:`repro.graph.lfr` are batched NumPy implementations sized for the
paper's massive instances (§V-H). The per-node/per-edge loop versions they
replaced live on here, unchanged, as the references of the distributional
regression tests: the generators' contracts (degree moments, mixing
parameter, clustering) are asserted against *both* implementations in
``tests/graph/test_generator_contracts.py``, pinning the vectorized
rewrites to the distributions the loop versions defined.

The vectorized rewrites consume their RNG streams in a different order, so
same-seed outputs differ between the two implementations; only the
distributions match. ``rmat_sample_loop`` is the scalar quadrant-descent
sampler (one Python-level RNG draw per level per edge) corresponding to
the vectorized bit-sampling in :func:`repro.graph.generators.rmat`.
"""

from __future__ import annotations

import numpy as np

from repro.graph.builder import GraphBuilder
from repro.graph.csr import Graph

__all__ = [
    "rmat_sample_loop",
    "barabasi_albert_loop",
    "holme_kim_loop",
    "copying_model_loop",
    "affiliation_loop",
    "lfr_graph_loop",
]


def rmat_sample_loop(
    rng: np.random.Generator,
    scale: int,
    m: int,
    a: float,
    b: float,
    c: float,
    d: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Scalar R-MAT endpoint sampling: one Python RNG draw per level per edge.

    The direct counterpart of :func:`repro.graph.generators._rmat_sample`.
    """
    us = np.empty(m, dtype=np.int64)
    vs = np.empty(m, dtype=np.int64)
    ab = a + b
    abc = a + b + c
    for e in range(m):
        u = 0
        v = 0
        for _ in range(scale):
            u <<= 1
            v <<= 1
            r = rng.random()
            if r < a:
                pass
            elif r < ab:
                v += 1
            elif r < abc:
                u += 1
            else:
                u += 1
                v += 1
        us[e] = u
        vs[e] = v
    return us, vs


def barabasi_albert_loop(
    n: int, attach: int, seed: int = 0, name: str = ""
) -> Graph:
    """Per-node preferential attachment (the pre-vectorization original)."""
    if attach < 1 or n <= attach:
        raise ValueError("need n > attach >= 1")
    rng = np.random.default_rng(seed)
    us: list[int] = []
    vs: list[int] = []
    # Repeated-endpoint list implements preferential attachment in O(1).
    targets = list(range(attach))
    repeated: list[int] = list(range(attach))
    for v in range(attach, n):
        for t in targets:
            us.append(v)
            vs.append(t)
            repeated.append(v)
            repeated.append(t)
        idx = rng.integers(0, len(repeated), size=attach)
        targets = list({repeated[i] for i in idx})
        while len(targets) < attach:
            cand = repeated[rng.integers(0, len(repeated))]
            if cand not in targets:
                targets.append(cand)
    builder = GraphBuilder(n)
    builder.add_edges(np.array(us), np.array(vs))
    return builder.build(name=name or f"ba-loop-{n}-{attach}")


def holme_kim_loop(
    n: int, attach: int, p_triad: float, seed: int = 0, name: str = ""
) -> Graph:
    """Per-node power-law cluster model (the pre-vectorization original)."""
    if attach < 1 or n <= attach:
        raise ValueError("need n > attach >= 1")
    rng = np.random.default_rng(seed)
    us: list[int] = []
    vs: list[int] = []
    repeated: list[int] = list(range(attach))
    adjacency: list[set[int]] = [set() for _ in range(n)]

    def connect(u: int, v: int) -> None:
        us.append(u)
        vs.append(v)
        adjacency[u].add(v)
        adjacency[v].add(u)
        repeated.append(u)
        repeated.append(v)

    for v in range(attach, n):
        # First link: pure preferential attachment.
        first = repeated[rng.integers(0, len(repeated))]
        connect(v, first)
        prev = first
        for _ in range(attach - 1):
            if rng.random() < p_triad and adjacency[prev]:
                # Triad step: link to a neighbor of the previous target.
                cands = [
                    w for w in adjacency[prev] if w != v and w not in adjacency[v]
                ]
                if cands:
                    t = cands[int(rng.integers(0, len(cands)))]
                    connect(v, t)
                    prev = t
                    continue
            t = repeated[rng.integers(0, len(repeated))]
            if t != v and t not in adjacency[v]:
                connect(v, t)
                prev = t
    builder = GraphBuilder(n)
    builder.add_edges(np.array(us), np.array(vs))
    return builder.build(name=name or f"hk-loop-{n}-{attach}-{p_triad:g}")


def copying_model_loop(
    n: int, alpha: float = 0.5, out_degree: int = 7, seed: int = 0, name: str = ""
) -> Graph:
    """Per-node copying model (the pre-vectorization original)."""
    if out_degree < 1 or n <= out_degree + 1:
        raise ValueError("need n > out_degree + 1")
    rng = np.random.default_rng(seed)
    us: list[int] = []
    vs: list[int] = []
    out_links: list[list[int]] = [[] for _ in range(n)]
    seed_n = out_degree + 1
    for v in range(seed_n):
        for u in range(v):
            us.append(v)
            vs.append(u)
            out_links[v].append(u)
    for v in range(seed_n, n):
        proto = int(rng.integers(0, v))
        proto_links = out_links[proto]
        chosen: set[int] = set()
        for i in range(out_degree):
            if proto_links and i < len(proto_links) and rng.random() < alpha:
                t = proto_links[i]
            else:
                t = int(rng.integers(0, v))
            if t != v:
                chosen.add(t)
        for t in chosen:
            us.append(v)
            vs.append(t)
        out_links[v] = list(chosen)
    builder = GraphBuilder(n)
    builder.add_edges(np.array(us), np.array(vs))
    return builder.build(name=name or f"web-loop-{n}")


def affiliation_loop(
    n: int,
    groups: int,
    group_size_mean: float,
    membership_overlap: float = 0.15,
    seed: int = 0,
    name: str = "",
) -> Graph:
    """Per-group clique-affiliation model (the pre-vectorization original)."""
    rng = np.random.default_rng(seed)
    us: list[np.ndarray] = []
    vs: list[np.ndarray] = []
    used: list[int] = []
    for _ in range(groups):
        size = 2 + rng.geometric(1.0 / max(group_size_mean - 1.0, 1.0))
        size = int(min(size, n))
        members = set()
        n_old = int(round(size * membership_overlap))
        if used and n_old:
            idx = rng.integers(0, len(used), size=n_old)
            members.update(used[i] for i in idx)
        while len(members) < size:
            members.add(int(rng.integers(0, n)))
        mem = np.array(sorted(members), dtype=np.int64)
        used.extend(mem.tolist())
        iu, iv = np.triu_indices(mem.size, k=1)
        us.append(mem[iu])
        vs.append(mem[iv])
    builder = GraphBuilder(n)
    if us:
        builder.add_edges(np.concatenate(us), np.concatenate(vs))
    return builder.build(name=name or f"affil-loop-{n}-{groups}")


def lfr_graph_loop(
    n: int,
    avg_degree: float = 15.0,
    max_degree: int = 50,
    mu: float = 0.3,
    tau1: float = 2.5,
    tau2: float = 1.5,
    min_community: int = 20,
    max_community: int = 100,
    seed: int = 0,
    name: str = "",
):
    """Per-node LFR assignment + per-community stub matching (the original).

    Returns the same :class:`repro.graph.lfr.LFRGraph` record as the
    vectorized :func:`repro.graph.lfr.lfr_graph`.
    """
    from repro.graph.lfr import LFRGraph, _power_law_ints

    if not 0.0 <= mu <= 1.0:
        raise ValueError("mu must be in [0, 1]")
    if min_community > max_community or max_community > n:
        raise ValueError("invalid community size bounds")
    rng = np.random.default_rng(seed)

    if tau1 > 2.0:
        kmin = max(1, int(round(avg_degree * (tau1 - 2.0) / (tau1 - 1.0))))
    else:
        kmin = max(1, int(round(avg_degree / 2)))
    degrees = _power_law_ints(rng, n, tau1, kmin, max_degree)

    sizes: list[int] = []
    remaining = n
    while remaining > 0:
        s = int(_power_law_ints(rng, 1, tau2, min_community, max_community)[0])
        if s > remaining:
            s = remaining if remaining >= min_community else s
        if s >= remaining:
            sizes.append(remaining)
            remaining = 0
        else:
            sizes.append(s)
            remaining -= s
    sizes_arr = np.array(sizes, dtype=np.int64)
    k = sizes_arr.size

    internal = np.round((1.0 - mu) * degrees).astype(np.int64)
    internal = np.minimum(internal, degrees)
    order = np.argsort(-internal, kind="stable")
    capacity = sizes_arr.copy()
    labels = np.full(n, -1, dtype=np.int64)
    comm_order = np.argsort(-sizes_arr, kind="stable")
    for v in order:
        need = int(internal[v]) + 1  # community must exceed internal degree
        placed = False
        fits = np.flatnonzero((capacity > 0) & (sizes_arr >= need))
        if fits.size:
            c = int(fits[rng.integers(0, fits.size)])
            labels[v] = c
            capacity[c] -= 1
            placed = True
        if not placed:
            c = int(comm_order[0])
            open_comms = np.flatnonzero(capacity > 0)
            c = int(open_comms[rng.integers(0, open_comms.size)])
            internal[v] = min(internal[v], sizes_arr[c] - 1)
            labels[v] = c
            capacity[c] -= 1

    external = degrees - internal
    us_all: list[np.ndarray] = []
    vs_all: list[np.ndarray] = []

    def stub_match(stub_nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        perm = rng.permutation(stub_nodes)
        if perm.size % 2:
            perm = perm[:-1]
        half = perm.size // 2
        return perm[:half], perm[half:]

    for c in range(k):
        members = np.flatnonzero(labels == c)
        stubs = np.repeat(members, internal[members])
        u, v = stub_match(stubs)
        good = u != v
        us_all.append(u[good])
        vs_all.append(v[good])

    stubs = np.repeat(np.arange(n, dtype=np.int64), external)
    u, v = stub_match(stubs)
    good = (u != v) & (labels[u] != labels[v])
    us_all.append(u[good])
    vs_all.append(v[good])

    builder = GraphBuilder(n)
    builder.add_edges(np.concatenate(us_all), np.concatenate(vs_all))
    graph = builder.build(name=name or f"lfr-loop-{n}-mu{mu:g}")

    eu, ev, ew = graph.edge_array()
    cross = labels[eu] != labels[ev]
    total_w = ew.sum()
    mu_real = float(ew[cross].sum() / total_w) if total_w else 0.0
    return LFRGraph(graph, labels, mu, mu_real)
